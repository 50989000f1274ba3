//! Seeded input generation.
//!
//! A seed redraws every `Input` array that declares a range, inside
//! that range: `Int` ranges draw integers, `quantized` float ranges
//! draw integer-valued floats, other float ranges draw uniformly. Arrays
//! without a declared range keep the values the benchmark built. The
//! program only ever sees the generated memory.
//!
//! Three programs declare no ranges (gravity, logsum, somier), so the
//! seed leaves their data and trace shape unchanged. On the others it
//! changes data; with the nine programs as shipped, the trace shape and
//! the simulated totals came out the same for every seed tried.

use tapeflow_benchmarks::{try_by_name, Benchmark, Scale};
use tapeflow_ir::{ArrayId, ArrayKind, DeclRange};

/// SplitMix64: a small, fixed generator, so inputs depend only on the
/// seed and not on any library's value stability.
#[derive(Clone, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (i128::from(hi) - i128::from(lo) + 1) as u128;
        let off = u128::from(self.next()) % span;
        (i128::from(lo) + off as i128) as i64
    }
}

/// FNV-1a, to give each (program, array) its own stream.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Builds `name` at `scale` and redraws its ranged inputs from `seed`.
/// Returns the benchmark and the names of the arrays the seed varied.
///
/// # Panics
///
/// Panics on a name outside the registry.
pub fn build_seeded(name: &str, scale: Scale, seed: u64) -> (Benchmark, Vec<String>) {
    let mut bench =
        try_by_name(name, scale).unwrap_or_else(|| panic!("{name} is not a registered benchmark"));
    let mut varied = Vec::new();
    for (i, decl) in bench.func.arrays().iter().enumerate() {
        let Some(range) = decl.range.filter(|_| decl.kind == ArrayKind::Input) else {
            continue;
        };
        let id = ArrayId::new(i);
        let mut rng = SplitMix(seed ^ fnv(name.as_bytes()) ^ fnv(decl.name.as_bytes()));
        match range {
            DeclRange::Int { lo, hi } => {
                let v: Vec<i64> = (0..decl.len).map(|_| rng.int_in(lo, hi)).collect();
                bench.mem.set_i64(id, &v);
            }
            DeclRange::Float { lo, hi, quantized } => {
                let v: Vec<f64> = if quantized {
                    let (lo, hi) = (lo.ceil() as i64, hi.floor() as i64);
                    (0..decl.len).map(|_| rng.int_in(lo, hi) as f64).collect()
                } else {
                    (0..decl.len)
                        .map(|_| (lo + rng.unit() * (hi - lo)).min(hi))
                        .collect()
                };
                bench.mem.set_f64(id, &v);
            }
        }
        varied.push(decl.name.clone());
    }
    (bench, varied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeflow_benchmarks::NAMES;

    #[test]
    fn seeded_inputs_honour_declared_ranges_and_repeat() {
        for name in NAMES {
            let (a, varied) = build_seeded(name, Scale::Tiny, 7);
            let (b, _) = build_seeded(name, Scale::Tiny, 7);
            for (i, decl) in a.func.arrays().iter().enumerate() {
                let id = ArrayId::new(i);
                if decl.elem == tapeflow_ir::Scalar::F64 {
                    let bits = |m: &tapeflow_ir::Memory| -> Vec<u64> {
                        m.get_f64(id).into_iter().map(f64::to_bits).collect()
                    };
                    assert_eq!(bits(&a.mem), bits(&b.mem), "{name}: {}", decl.name);
                }
                match decl.range {
                    Some(DeclRange::Int { lo, hi }) => {
                        assert!(a.mem.get_i64(id).iter().all(|v| (lo..=hi).contains(v)));
                    }
                    Some(DeclRange::Float { lo, hi, quantized }) => {
                        for v in a.mem.get_f64(id) {
                            assert!((lo..=hi).contains(&v), "{name}: {} = {v}", decl.name);
                            assert!(!quantized || v == v.floor());
                        }
                    }
                    None => {}
                }
            }
            let ranged = a.func.arrays().iter().any(|d| d.range.is_some());
            assert_eq!(ranged, !varied.is_empty(), "{name}");
        }
    }

    #[test]
    fn unranged_programs_ignore_the_seed() {
        for name in ["gravity", "logsum", "somier"] {
            let (a, varied) = build_seeded(name, Scale::Tiny, 1);
            let (b, _) = build_seeded(name, Scale::Tiny, 2);
            assert!(varied.is_empty(), "{name}");
            for i in 0..a.func.arrays().len() {
                let id = ArrayId::new(i);
                if a.func.array(id).elem == tapeflow_ir::Scalar::F64 {
                    assert_eq!(a.mem.get_f64(id), b.mem.get_f64(id), "{name}");
                }
            }
        }
    }
}
