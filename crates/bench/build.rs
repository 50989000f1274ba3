//! Captures build provenance for the host-perf report: throughput
//! numbers are meaningless without knowing the compiler and opt-level
//! that produced the binary, so both are baked in as env vars and
//! surfaced in the `host` section of `tapeflow.bench.host_perf/v3`.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=TAPEFLOW_RUSTC_VERSION={version}");
    // Cargo hands the profile's opt-level to build scripts directly.
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=TAPEFLOW_OPT_LEVEL={opt}");
}
