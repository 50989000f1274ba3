//! `perfbench --workload <cold|sweep|analyze> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name with its unit, the host identity and the
//! arrays the seed varied, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A traced run also writes a Chrome trace-event file of its last
//! traced iteration under `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;
use tapeflow_perfbench::{host_line, result_line, run, RunConfig, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <cold|sweep|analyze> --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny: false,
        inject_mismatch: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let out = run(&cfg);
    println!(
        "workload {} seed {} iterations {}+{} (untraced+traced)",
        cfg.workload.name(),
        cfg.seed,
        out.iterations.0,
        out.iterations.1
    );
    for (p, name) in tapeflow_benchmarks::NAMES.iter().enumerate() {
        let ms: Vec<String> = out
            .iteration_ms
            .iter()
            .map(|it| format!("{:.2}", it[p]))
            .collect();
        println!(
            "program {name:<12} ms per untraced iteration: {}",
            ms.join(" ")
        );
    }
    println!("host {}", host_line(cfg.workload));
    for (program, arrays) in &out.varied {
        println!("seeded {program}: [{}]", arrays.join(", "));
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for w in &out.wrong_outputs {
        println!("WRONG {w}");
    }
    if let Some(doc) = &out.trace_doc {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("chrome trace {}", path.display());
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
