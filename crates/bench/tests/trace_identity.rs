//! Pins the dynamic dataflow graph every benchmark traces to at Tiny
//! scale. Each trace is reduced to a fingerprint — node count, edge
//! count and an FNV-1a hash over every node's metadata and sorted
//! dependence list — so any change to node order, node metadata or a
//! single dependence edge shows up here, for the gradient (`Enzyme`)
//! and both compiled (`Tflow`, `TflowC`) forms.

use tapeflow_bench::harness::{Config, Prepared};
use tapeflow_benchmarks::{by_name, Scale, NAMES};
use tapeflow_ir::{NodeId, Trace};

/// `(nodes, edges, hash)` of one trace.
type Fingerprint = (usize, usize, u64);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fingerprint(t: &Trace) -> Fingerprint {
    let mut h = Fnv::new();
    let cols = t.columns();
    for i in 0..t.len() {
        h.word(t.insts()[i].index() as u64);
        h.bytes(&[
            cols.class()[i] as u8,
            cols.phase(i) as u8,
            u8::from(cols.is_tape(i)),
        ]);
        h.word(u64::from(t.layer(i)));
        h.word(cols.addr()[i]);
        h.word(u64::from(cols.bytes(i)));
        let deps = t.deps(NodeId::new(i));
        h.word(deps.len() as u64);
        for d in deps {
            h.word(d.index() as u64);
        }
    }
    (t.len(), t.edge_count(), h.0)
}

/// Fingerprints blessed from the hash-map tracer that preceded the flat
/// CSR one: `(benchmark, Enzyme_32k, Tflow_32k, TflowC_32k)`. `None`
/// marks a form the 1 KB scratchpad cannot compile.
#[rustfmt::skip]
const BLESSED: &[(&str, [Option<Fingerprint>; 3])] = &[
    ("gravity", [Some((2756, 7313, 17215174046676422557)), Some((4444, 13614, 926946643734062831)), Some((4444, 13614, 926946643734062831))]),
    ("nn", [Some((1106, 2531, 8740502773926670871)), Some((1765, 5316, 9385529890894927677)), Some((1453, 4203, 12878561626010310080))]),
    ("logsum", [Some((396, 981, 3940441437777192495)), Some((615, 1833, 1435354981443586963)), Some((615, 1833, 1435354981443586963))]),
    ("matdescent", [Some((1069, 2538, 1343958074609657379)), Some((1726, 5321, 16202201627494339470)), Some((1264, 3577, 14247046554915912797))]),
    ("mttkrp", [Some((5248, 11647, 7167477419538596538)), Some((9253, 25872, 15244473833480527437)), Some((7714, 21246, 11814706688598220023))]),
    ("somier", [Some((10180, 24427, 2899896257502618044)), Some((15580, 45928, 1636823798144480361)), Some((15580, 45928, 1636823798144480361))]),
    ("lenet5", [Some((22969, 45620, 15360312315660567665)), Some((30550, 81756, 18259081591969658928)), Some((27102, 69249, 14869506508823294013))]),
    ("pathfinder", [Some((1436, 3489, 2954435437823099452)), Some((2342, 6544, 5362524388398324262)), Some((2342, 6544, 7841818398093029612))]),
    ("mass_spring", [Some((2317, 5837, 8487763277032088444)), Some((3507, 11056, 3334479379137310055)), Some((3417, 10708, 11318820414026836760))]),
];

#[test]
fn every_benchmark_traces_to_its_blessed_ddg() {
    let configs = [
        Config::enzyme(32 * 1024),
        Config::tapeflow(32 * 1024),
        Config::tapeflow_compressed(32 * 1024),
    ];
    let mut got = Vec::new();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let prints: Vec<Option<Fingerprint>> = configs
            .iter()
            .map(|c| p.try_trace(c).map(fingerprint))
            .collect();
        got.push((name, prints));
    }
    let table: String = got
        .iter()
        .map(|(name, p)| format!("    ({name:?}, {p:?}),\n"))
        .collect();
    assert_eq!(BLESSED.len(), got.len(), "blessed table:\n{table}");
    for ((name, prints), (bname, bprints)) in got.iter().zip(BLESSED.iter()) {
        assert_eq!(name, bname);
        assert_eq!(prints[..], bprints[..], "{name}: trace drifted:\n{table}");
    }
}
