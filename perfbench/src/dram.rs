//! `dram_baseline`: traced CPU sorts through `TracedMemory::timed`.
//!
//! Every round sorts the same seeded arrays on the off-chip DDR4 system
//! and then on the in-package HBM system: four 16 Ki-key arrays, one per
//! algorithm (merge, radix, quick, heap), which fit the modeled 8 MiB L2,
//! and one 640 Ki-key array (10 MiB with its scratch buffer) that does
//! not, sorted by merge sort off-chip and radix sort in-package; one more
//! off-chip merge sort of a small array makes 11 sorts per round. It is
//! the only workload that reaches `rime-memsim::{cache,dram}` and
//! `rime-kernels::exec`, and every paper speedup divides by it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rime_energy::PowerModel;
use rime_kernels::exec::{self, TracedMemory};
use rime_memsim::backend::{DramBackend, IdealBackend};
use rime_memsim::config::CPU_GHZ;
use rime_memsim::dram::DramConfig;
use rime_memsim::{MemoryBackend, MemorySystem};
use rime_workloads::keys::{generate_u64, KeyDistribution};

use crate::stats;
use crate::trace::{Spans, ROOT};
use crate::{Layer, Measured, Modeled, Workload};

const SMALL: usize = 16 << 10;
const LARGE: usize = 640 << 10;
/// CPU cycles charged per element access that hits in cache (as the
/// planner's calibration charges).
const CPU_CYCLES_PER_ACCESS: u64 = 2;
/// Per-access compute charge of the counting pass: every access adds
/// 2^32 cycles to at most 17 cycles of cache lookup, so the access count
/// is the cycle count shifted right by 32 (exact below 2^28 accesses).
const COUNT_SHIFT: u32 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Merge,
    Radix,
    Quick,
    Heap,
}

impl Algo {
    fn label(self) -> &'static str {
        match self {
            Algo::Merge => "kernels.merge_sort",
            Algo::Radix => "kernels.radix_sort",
            Algo::Quick => "kernels.quick_sort",
            Algo::Heap => "kernels.heap_sort",
        }
    }
}

/// One sort of the round: (array index, algorithm, memory system).
type Op = (usize, Algo, MemorySystem);

/// A round: each small array with its algorithm and the large array, on
/// each memory system, plus a second off-chip merge sort of a small array,
/// so the round's 11 sorts have their median inside one kind of sort (the
/// small merge sorts) rather than between two.
fn round() -> Vec<Op> {
    let algos = [Algo::Merge, Algo::Radix, Algo::Quick, Algo::Heap];
    let mut ops = Vec::new();
    for (system, large) in [
        (MemorySystem::OffChip, Algo::Merge),
        (MemorySystem::InPackage, Algo::Radix),
    ] {
        ops.extend(algos.iter().enumerate().map(|(i, &a)| (i, a, system)));
        ops.push((4, large, system));
    }
    ops.push((0, Algo::Merge, MemorySystem::OffChip));
    ops
}

/// Modeled cost of one sort.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    cycles: u64,
    lines: u64,
    /// Accesses the DRAM model served, and its row-buffer hits.
    dram_accesses: u64,
    row_hits: u64,
}

/// Energy of one sort (nJ) with `rime_energy::baseline_energy`'s
/// single-core pricing: core and uncore power over the modeled time plus
/// memory background power and per-line transfer energy.
fn energy_nj(cost: Cost, system: MemorySystem) -> f64 {
    let p = PowerModel::table1();
    let secs = cost.cycles as f64 / (CPU_GHZ * 1e9);
    let lines = cost.lines as f64;
    let memory_j = match system {
        MemorySystem::InPackage => {
            secs * (p.dram_background_w + p.hbm_background_w) + lines * p.hbm_nj_per_line * 1e-9
        }
        _ => secs * p.dram_background_w + lines * p.dram_nj_per_line * 1e-9,
    };
    (secs * (p.core_dynamic_w + p.core_static_w + p.uncore_static_w) + memory_j) * 1e9
}

/// A `DramBackend` that adds its model's access and row-hit counts to
/// `stats` when dropped, and with `timed` also times every access (for
/// the traced run's `dram.access_ns`).
#[derive(Debug)]
struct CountingDram {
    inner: DramBackend,
    stats: Arc<DramStats>,
    timed: bool,
}

#[derive(Debug, Default)]
struct DramStats {
    accesses: AtomicU64,
    row_hits: AtomicU64,
    access_ns: AtomicU64,
}

impl CountingDram {
    fn new(system: MemorySystem, stats: &Arc<DramStats>, timed: bool) -> CountingDram {
        CountingDram {
            inner: DramBackend::new(system.dram_config().expect("a DRAM system")),
            stats: Arc::clone(stats),
            timed,
        }
    }
}

impl Drop for CountingDram {
    fn drop(&mut self) {
        let model = self.inner.model();
        self.stats
            .accesses
            .fetch_add(model.accesses, Ordering::Relaxed);
        self.stats
            .row_hits
            .fetch_add(model.row_hits, Ordering::Relaxed);
    }
}

impl MemoryBackend for CountingDram {
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn streaming_cycles(&self, lines: u64, row_hit: f64) -> f64 {
        self.inner.streaming_cycles(lines, row_hit)
    }
    fn dependent_cycles(&self, lines: u64, cores: u32, row_hit: f64) -> f64 {
        self.inner.dependent_cycles(lines, cores, row_hit)
    }
    fn access(&mut self, addr: u64, write: bool, issue_cycle: u64) -> u64 {
        if !self.timed {
            return self.inner.access(addr, write, issue_cycle);
        }
        let t = Instant::now();
        let done = self.inner.access(addr, write, issue_cycle);
        self.stats
            .access_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        done
    }
    fn peak_bytes_per_cycle(&self) -> f64 {
        self.inner.peak_bytes_per_cycle()
    }
    fn trace_accesses(&self) -> u64 {
        self.inner.trace_accesses()
    }
    fn dram_config(&self) -> Option<DramConfig> {
        self.inner.dram_config()
    }
}

pub struct Dram {
    arrays: Vec<Vec<u64>>,
    sorted: Vec<Vec<u64>>,
    /// Element accesses per (array, algorithm), from the counting pass.
    accesses: Vec<(usize, Algo, u64)>,
}

impl Dram {
    pub fn setup(seed: u64) -> Dram {
        let mut arrays: Vec<Vec<u64>> = (0..4)
            .map(|i| generate_u64(SMALL, KeyDistribution::Uniform, seed ^ (i as u64) << 56))
            .collect();
        arrays.push(generate_u64(LARGE, KeyDistribution::Uniform, seed ^ 0xa11));
        let sorted = arrays
            .iter()
            .map(|a| {
                let mut s = a.clone();
                s.sort_unstable();
                s
            })
            .collect();
        let w = Dram {
            arrays,
            sorted,
            accesses: Vec::new(),
        };
        // Warm-up: one small traced sort (page-faults the allocator's arenas).
        w.timed_sort(&(0, Algo::Merge, MemorySystem::OffChip));
        w
    }

    /// One DRAM-timed sort: (sorted keys, modeled cost).
    fn timed_sort(&self, &(array, algo, system): &Op) -> (Vec<u64>, Cost) {
        let stats = Arc::new(DramStats::default());
        let backend = CountingDram::new(system, &stats, false);
        let mem = TracedMemory::timed_with_backend(Box::new(backend), CPU_CYCLES_PER_ACCESS);
        let (sorted, cost) = run_sort(mem, self.arrays[array].clone(), algo);
        let cost = Cost {
            dram_accesses: stats.accesses.load(Ordering::Relaxed),
            row_hits: stats.row_hits.load(Ordering::Relaxed),
            ..cost
        };
        (sorted, cost)
    }

    fn element_accesses(&mut self, array: usize, algo: Algo) -> u64 {
        if let Some(&(_, _, n)) = self
            .accesses
            .iter()
            .find(|(a, g, _)| *a == array && *g == algo)
        {
            return n;
        }
        let mem = TracedMemory::timed_with_backend(Box::new(IdealBackend::new()), 1 << COUNT_SHIFT);
        let (_, cost) = run_sort(mem, self.arrays[array].clone(), algo);
        let n = cost.cycles >> COUNT_SHIFT;
        self.accesses.push((array, algo, n));
        n
    }
}

/// Runs one sort and reads its modeled cost.
fn run_sort(mut mem: TracedMemory, data: Vec<u64>, algo: Algo) -> (Vec<u64>, Cost) {
    let buf = mem.add_buf(data);
    let out = match algo {
        Algo::Merge => exec::merge_sort(&mut mem, buf),
        Algo::Radix => exec::radix_sort(&mut mem, buf),
        Algo::Quick => {
            exec::quick_sort(&mut mem, buf);
            buf
        }
        Algo::Heap => {
            exec::heap_sort(&mut mem, buf);
            buf
        }
    };
    let cost = Cost {
        cycles: mem.cycles(),
        lines: mem.mem_accesses(),
        ..Cost::default()
    };
    (mem.into_buf(out), cost)
}

/// Modeled metrics and counts over `ops` with their `costs`.
fn model(
    ops: &[Op],
    costs: &[Cost],
    keys_of: impl Fn(usize) -> usize,
    accesses: u64,
    peak_rss_mb: f64,
) -> Modeled {
    let keys: f64 = ops.iter().map(|&(a, _, _)| keys_of(a) as f64).sum();
    let cycles: u64 = costs.iter().map(|c| c.cycles).sum();
    let lines: u64 = costs.iter().map(|c| c.lines).sum();
    let dram_accesses: u64 = costs.iter().map(|c| c.dram_accesses).sum();
    let row_hits: u64 = costs.iter().map(|c| c.row_hits).sum();
    let nj: f64 = ops
        .iter()
        .zip(costs)
        .map(|(&(_, _, s), &c)| energy_nj(c, s))
        .sum();
    Modeled {
        peak_rss_mb,
        ns_per_key: cycles as f64 / CPU_GHZ / keys,
        nj_per_key: nj / keys,
        counts: vec![
            ("kernels.accesses_per_key", accesses as f64 / keys),
            ("cache.miss_frac", lines as f64 / accesses.max(1) as f64),
            (
                "dram.row_hit_frac",
                row_hits as f64 / dram_accesses.max(1) as f64,
            ),
            ("dram.accesses_per_key", dram_accesses as f64 / keys),
        ],
    }
}

impl Workload for Dram {
    /// A round costs seconds, so the model is taken over the first round
    /// of `measure` instead of a separate prefix.
    fn prefix(&mut self) -> Option<Modeled> {
        None
    }

    fn measure(&mut self, seconds: f64, mut spans: Option<&mut Spans>) -> Measured {
        let ops = round();
        // Harness work, outside the timed loop: element counts per sort.
        let counts: Vec<u64> = ops
            .iter()
            .map(|&(a, g, _)| self.element_accesses(a, g))
            .collect();
        let budget = Duration::from_secs_f64(seconds);
        let mut lat_us = Vec::new();
        let mut end_s = Vec::new();
        let mut wrong = 0u64;
        let mut events = 0u64;
        let mut round0 = Vec::with_capacity(ops.len());
        let mut rss_after_round0 = 0.0;
        let start = Instant::now();
        let mut i = 0u64;
        // Whole rounds only, so every run sorts the same mix.
        while start.elapsed() < budget {
            for (j, op) in ops.iter().enumerate() {
                let t = Instant::now();
                let (sorted, cost) = match spans.as_deref_mut() {
                    None => self.timed_sort(op),
                    Some(s) => s.wrap(op.1.label(), ROOT, i, || self.timed_sort(op)),
                };
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                end_s.push(start.elapsed().as_secs_f64());
                wrong += stats::mismatches(&sorted, &self.sorted[op.0]).min(1);
                events += counts[j];
                if round0.len() < ops.len() {
                    round0.push(cost);
                    if round0.len() == ops.len() {
                        rss_after_round0 = crate::peak_rss_mb();
                    }
                }
                i += 1;
            }
        }
        let rounds = lat_us.len() / ops.len();
        // The median over rounds: every round sorts the same arrays.
        let ops_per_s = stats::median_rate(&end_s, ops.len(), usize::MAX);
        let sizes: Vec<usize> = self.arrays.iter().map(Vec::len).collect();
        let model = model(
            &ops,
            &round0,
            |a| sizes[a],
            counts.iter().sum(),
            rss_after_round0,
        );
        Measured {
            attempted: lat_us.len() as u64,
            failed: wrong,
            wrong,
            ops_per_s,
            host_ns_per_event: crate::ns_per_event(lat_us.len(), ops_per_s, events),
            lat_us,
            // A run holds a few dozen sorts, so a pooled p99 would be its
            // single slowest sort; percentiles are taken per round instead
            // (p99: the round's slowest sort) and their median reported.
            lat_chunks: rounds,
            extra: vec![],
            model: Some(model),
        }
    }

    fn layers(&mut self, seconds: f64, _spans: &Spans) -> Vec<Layer> {
        let mut out: Vec<Layer> = Vec::new();
        let (sense_ns, exclude_ns) =
            crate::array_probe(&self.arrays[0], Duration::from_secs_f64(seconds / 20.0));
        out.push(("array.sense_ns".into(), sense_ns, "ns"));
        out.push(("array.exclude_ns".into(), exclude_ns, "ns"));
        // One round through a counting, timing wrapper around the backend.
        let stats = Arc::new(DramStats::default());
        let mut sort_ns = 0u64;
        for &(array, algo, system) in &round() {
            let backend = CountingDram::new(system, &stats, true);
            let mem = TracedMemory::timed_with_backend(Box::new(backend), CPU_CYCLES_PER_ACCESS);
            let t = Instant::now();
            std::hint::black_box(run_sort(mem, self.arrays[array].clone(), algo));
            sort_ns += t.elapsed().as_nanos() as u64;
        }
        let accesses = stats.accesses.load(Ordering::Relaxed);
        let access_ns = stats.access_ns.load(Ordering::Relaxed);
        out.push((
            "dram.access_ns".into(),
            access_ns as f64 / accesses.max(1) as f64,
            "ns",
        ));
        out.push((
            "cache.share".into(),
            1.0 - access_ns as f64 / sort_ns as f64,
            "ratio",
        ));
        out
    }
}
