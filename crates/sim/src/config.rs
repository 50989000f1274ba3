//! System configuration — the simulator's Table 4.2.

/// Cache replacement policy. The paper's Obs 1.3 argues no policy choice
/// rescues the cache for tape traffic; both are provided so the claim can
/// be tested.
pub use crate::cache::ReplacementPolicy;

/// Cache geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity (ways).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Concurrent accesses per cycle.
    pub ports: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Miss-status holding registers: outstanding misses the cache can
    /// track. Demand misses beyond this stall the memory queue — the
    /// "reactive cache fills" the paper's streams eliminate.
    pub mshrs: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// A cache sized like the paper's Table 4.2 rows: 2-way below 32 KB,
    /// 4-way at 32 KB, 8-way above (the paper's "fully" associative 64 KB
    /// entry is approximated with 16 ways to keep simulation tractable).
    pub fn for_bytes(size_bytes: usize) -> Self {
        let assoc = if size_bytes >= 65536 {
            16
        } else if size_bytes >= 32768 {
            4
        } else {
            2
        };
        CacheConfig {
            size_bytes,
            assoc,
            line_bytes: 64,
            ports: 2,
            hit_latency: 2,
            mshrs: 4,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / self.line_bytes).max(1)
    }

    /// Returns the configuration with its geometry made self-consistent:
    /// `line_bytes` rounded up to the next power of two (minimum 8, one
    /// f64), `size_bytes` at least one line, `assoc` at least one way.
    /// The cache splits addresses by shifting `line_bytes.trailing_zeros()`
    /// bits, which silently mis-indexes for non-power-of-two lines, so
    /// [`crate::Cache::new`] applies this before building the set array.
    pub fn normalized(mut self) -> Self {
        self.line_bytes = self.line_bytes.max(8).next_power_of_two();
        self.size_bytes = self.size_bytes.max(self.line_bytes);
        self.assoc = self.assoc.max(1);
        self
    }
}

/// Scratchpad geometry (paper baseline: 1 KB, 16 banks of 8 × 8 B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpadConfig {
    /// Banks, each servicing one access per cycle.
    pub banks: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl Default for SpadConfig {
    fn default() -> Self {
        SpadConfig {
            banks: 16,
            latency: 1,
        }
    }
}

/// DRAM bandwidth/latency model (paper: DDR4 19.2 GB/s at a 2 GHz core —
/// 9.6 B per cycle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramConfig {
    /// Sustained bandwidth in bytes per core cycle.
    pub bytes_per_cycle: f64,
    /// Access latency in cycles.
    pub latency: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            bytes_per_cycle: 9.6,
            latency: 100,
        }
    }
}

/// Datapath issue resources (16 PEs with dual FPUs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeConfig {
    /// Processing elements in the grid (the paper's 4×4). Issue slots are
    /// shared across PEs; the cycle-attribution probe distributes
    /// occupancy over this many units.
    pub pes: usize,
    /// Floating-point operations issued per cycle.
    pub fp_issue: usize,
    /// Integer (address-generation) operations issued per cycle.
    pub int_issue: usize,
    /// Latency of short FP ALU ops (add/sub/min/max/select/cmp).
    pub fp_alu_latency: u64,
    /// Latency of FP multiply.
    pub fp_mul_latency: u64,
    /// Latency of long FP ops (div/sqrt/transcendentals).
    pub fp_long_latency: u64,
    /// Latency of integer ops.
    pub int_latency: u64,
}

impl Default for PeConfig {
    fn default() -> Self {
        PeConfig {
            pes: 16,
            fp_issue: 32,
            int_issue: 32,
            fp_alu_latency: 3,
            fp_mul_latency: 4,
            fp_long_latency: 18,
            int_latency: 1,
        }
    }
}

/// Per-access energies in picojoules, seeded from the paper's Table 4.2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyTable {
    /// Scratchpad access (8 B entry).
    pub spad_pj: f64,
    /// Stream-engine overhead per 8 B element moved.
    pub stream_elem_pj: f64,
    /// Off-chip DRAM energy per byte (reported separately from on-chip).
    pub dram_pj_per_byte: f64,
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable {
            spad_pj: 100.0,
            stream_elem_pj: 10.0,
            dram_pj_per_byte: 20.0,
        }
    }
}

impl EnergyTable {
    /// Per-access cache energy from Table 4.2, stepped to the next table
    /// size at or above `size_bytes`.
    pub fn cache_pj(size_bytes: usize) -> f64 {
        const TABLE: [(usize, f64); 8] = [
            (1024, 120.0),
            (2048, 440.0),
            (4096, 450.0),
            (8192, 460.0),
            (16384, 470.0),
            (32768, 2990.0),
            (65536, 10800.0),
            (131072, 11350.0),
        ];
        for (sz, pj) in TABLE {
            if size_bytes <= sz {
                return pj;
            }
        }
        TABLE[TABLE.len() - 1].1
    }
}

/// Complete system configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Cache serving non-tape accesses (and tape in the Enzyme baseline).
    pub cache: CacheConfig,
    /// Scratchpad serving Tapeflow's tape accesses.
    pub spad: SpadConfig,
    /// DRAM model shared by fills, write-backs and streams.
    pub dram: DramConfig,
    /// Datapath resources.
    pub pe: PeConfig,
    /// Energy model.
    pub energy: EnergyTable,
}

impl SystemConfig {
    /// The paper's 32 KB baseline configuration.
    pub fn baseline_32k() -> Self {
        Self::with_cache_bytes(32768)
    }

    /// A configuration with the given cache size and default everything
    /// else.
    pub fn with_cache_bytes(size_bytes: usize) -> Self {
        SystemConfig {
            cache: CacheConfig::for_bytes(size_bytes),
            spad: SpadConfig::default(),
            dram: DramConfig::default(),
            pe: PeConfig::default(),
            energy: EnergyTable::default(),
        }
    }

    /// Order-stable 64-bit FNV-1a digest over every field, with floats
    /// hashed by bit pattern and the replacement policy by discriminant.
    /// Two configurations that could simulate differently always digest
    /// differently (modulo hash collisions); the bench harness keys its
    /// memoized simulation results on this so that e.g. replacement-policy
    /// or MSHR sweeps never alias a result computed for another
    /// configuration of the same cache size.
    pub fn fingerprint(&self) -> u64 {
        fnv(&[
            self.cache.size_bytes as u64,
            self.cache.assoc as u64,
            self.cache.line_bytes as u64,
            self.cache.ports as u64,
            self.cache.hit_latency,
            self.cache.mshrs as u64,
            policy_bits(self.cache.policy),
            self.spad.banks as u64,
            self.spad.latency,
            self.dram.bytes_per_cycle.to_bits(),
            self.dram.latency,
            self.pe.pes as u64,
            self.pe.fp_issue as u64,
            self.pe.int_issue as u64,
            self.pe.fp_alu_latency,
            self.pe.fp_mul_latency,
            self.pe.fp_long_latency,
            self.pe.int_latency,
            self.energy.spad_pj.to_bits(),
            self.energy.stream_elem_pj.to_bits(),
            self.energy.dram_pj_per_byte.to_bits(),
        ])
    }

    /// The configuration factored into per-parameter-class digests —
    /// what an incremental re-simulation keys replay validity on (see
    /// [`crate::sweep`] and [`ClassPrints`]). The full
    /// [`SystemConfig::fingerprint`] stays the memo key; this split
    /// exists so a sweep can tell *which* subsystem a configuration
    /// change touches instead of re-recording on any difference.
    pub fn class_prints(&self) -> ClassPrints {
        ClassPrints {
            cache_geometry: fnv(&[
                self.cache.size_bytes as u64,
                self.cache.assoc as u64,
                policy_bits(self.cache.policy),
            ]),
            cache_timing: fnv(&[
                self.cache.line_bytes as u64,
                self.cache.ports as u64,
                self.cache.hit_latency,
                self.cache.mshrs as u64,
            ]),
            spad_geometry: fnv(&[self.spad.banks as u64]),
            spad_timing: fnv(&[self.spad.latency]),
            stream: fnv(&[self.dram.bytes_per_cycle.to_bits(), self.dram.latency]),
            pe: fnv(&[
                self.pe.pes as u64,
                self.pe.fp_issue as u64,
                self.pe.int_issue as u64,
                self.pe.fp_alu_latency,
                self.pe.fp_mul_latency,
                self.pe.fp_long_latency,
                self.pe.int_latency,
            ]),
            energy: fnv(&[
                self.energy.spad_pj.to_bits(),
                self.energy.stream_elem_pj.to_bits(),
                self.energy.dram_pj_per_byte.to_bits(),
            ]),
        }
    }
}

/// Order-stable FNV-1a over a word sequence (bytewise, little-endian).
fn fnv(words: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in words {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

fn policy_bits(p: ReplacementPolicy) -> u64 {
    match p {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::Fifo => 1,
    }
}

/// [`SystemConfig`] factored into per-parameter-class fingerprints.
///
/// An incremental re-simulation ([`crate::sweep::SweepSession`]) can
/// chain two configurations when every class the *replay itself cannot
/// validate* is unchanged (or provably irrelevant to the trace):
///
/// * `cache_geometry` — size, associativity, replacement policy. The
///   replay validates these directly by re-running the recorded access
///   stream through the new cache and comparing outcomes; they never
///   block chaining.
/// * `cache_timing` — line size, ports, hit latency, MSHRs. These feed
///   timing (and, for the line size, addressing) without leaving a
///   per-access trace, so they must match.
/// * `spad_geometry` — bank count. Validated structurally: the bank of
///   a scratchpad access is `addr % banks`, a pure per-address
///   function, so two bank counts chain iff they map every scratchpad
///   address in the trace to the same bank (see
///   `sweep::spad_map_equal`); traces with no scratchpad nodes chain
///   across any bank count.
/// * `spad_timing` — access latency; must match when the trace touches
///   the scratchpad.
/// * `stream` — the DRAM bandwidth/latency model governing stream
///   transfers and cache fills; must match when the trace moves any
///   DRAM traffic.
/// * `pe` — datapath issue widths and latencies; must match.
/// * `energy` — per-access energy table. Never blocks chaining: energy
///   is recomputed from the final counters
///   (`engine::recompute_energy`), not accumulated during the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassPrints {
    /// Cache size/assoc/policy (replay-validated).
    pub cache_geometry: u64,
    /// Cache line/ports/hit-latency/MSHRs (timing; must match).
    pub cache_timing: u64,
    /// Scratchpad bank count (bank-map-validated).
    pub spad_geometry: u64,
    /// Scratchpad latency (timing; must match).
    pub spad_timing: u64,
    /// DRAM bandwidth/latency (timing; must match).
    pub stream: u64,
    /// Datapath widths and latencies (timing; must match).
    pub pe: u64,
    /// Energy table (recomputed at finalize; never blocks chaining).
    pub energy: u64,
}

impl ClassPrints {
    /// Digest of every class that must match *exactly* for two
    /// configurations to chain in a sweep session, regardless of the
    /// trace: the timing classes. Geometry classes (validated by
    /// replay or by the bank map) and the energy table are excluded.
    /// The sweep planner groups and orders configurations by this key
    /// so chainable runs land adjacent in the schedule.
    pub fn chain_key(&self) -> u64 {
        fnv(&[self.cache_timing, self.spad_timing, self.stream, self.pe])
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline_32k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assoc_tracks_table() {
        assert_eq!(CacheConfig::for_bytes(1024).assoc, 2);
        assert_eq!(CacheConfig::for_bytes(32768).assoc, 4);
        assert_eq!(CacheConfig::for_bytes(65536).assoc, 16);
    }

    #[test]
    fn energy_steps() {
        assert_eq!(EnergyTable::cache_pj(1024), 120.0);
        assert_eq!(EnergyTable::cache_pj(2048), 440.0);
        assert_eq!(EnergyTable::cache_pj(32768), 2990.0);
        assert_eq!(EnergyTable::cache_pj(1 << 20), 11350.0);
        // the 6.8x iso-perform claim (2k vs 32k) holds in the table
        let ratio = EnergyTable::cache_pj(32768) / EnergyTable::cache_pj(2048);
        assert!((ratio - 6.795).abs() < 0.01);
    }

    #[test]
    fn lines_counted() {
        assert_eq!(CacheConfig::for_bytes(1024).lines(), 16);
    }

    #[test]
    fn normalized_rounds_line_bytes_up() {
        let mut cfg = CacheConfig::for_bytes(1024);
        cfg.line_bytes = 48;
        assert_eq!(cfg.normalized().line_bytes, 64);
        cfg.line_bytes = 0;
        assert_eq!(cfg.normalized().line_bytes, 8);
        cfg.line_bytes = 64;
        assert_eq!(cfg.normalized(), cfg, "valid geometry is untouched");
    }

    #[test]
    fn fingerprint_distinguishes_full_configuration() {
        let a = SystemConfig::with_cache_bytes(8192);
        let mut by_policy = a;
        by_policy.cache.policy = ReplacementPolicy::Fifo;
        let mut by_mshrs = a;
        by_mshrs.cache.mshrs = 8;
        assert_ne!(a.fingerprint(), by_policy.fingerprint());
        assert_ne!(a.fingerprint(), by_mshrs.fingerprint());
        assert_ne!(by_policy.fingerprint(), by_mshrs.fingerprint());
        assert_eq!(
            a.fingerprint(),
            SystemConfig::with_cache_bytes(8192).fingerprint(),
            "equal configurations digest equally"
        );
    }
}
