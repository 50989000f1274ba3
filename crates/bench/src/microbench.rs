//! Minimal std-only micro-benchmark runner.
//!
//! A stand-in for `criterion` (which the build environment cannot fetch):
//! each benchmark is warmed up once, timed for a fixed number of samples,
//! and reported as min/median/mean wall-clock per iteration. Results are
//! printed to stdout in a stable `group/name  min  median  mean` format so
//! runs can be diffed.

use std::time::{Duration, Instant};

/// The fastest and the median sample of one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
}

/// A named group of timed benchmarks.
#[derive(Debug)]
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    /// Creates a group; `samples` timed iterations per benchmark.
    pub fn new(name: impl Into<String>, samples: usize) -> Self {
        let name = name.into();
        println!("== {name} ==");
        Group {
            name,
            samples: samples.max(1),
        }
    }

    /// Times `f` for this group's sample count, prints one line and
    /// returns the fastest and median samples.
    pub fn bench<R>(&self, id: impl AsRef<str>, mut f: impl FnMut() -> R) -> Timing {
        let _ = f(); // warm-up (also forces lazy setup)
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                let out = std::hint::black_box(f());
                let t = t0.elapsed();
                // Dropped outside the sample, so a builder's timing
                // leaves out freeing what it built.
                drop(out);
                t
            })
            .collect();
        times.sort();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{}/{:<24} min {:>12?}  median {:>12?}  mean {:>12?}",
            self.name,
            id.as_ref(),
            min,
            median,
            mean
        );
        Timing { min, median }
    }
}
