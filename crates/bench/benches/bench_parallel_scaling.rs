//! Parallel scaling benchmark: `Auto`'s memoized per-mat descent
//! against the sequential walk, plus chip-parallel executor dispatch.
//!
//! **Mat level** (8/16/32/64/128 mats): batched extraction throughput
//! under `Sequential` (every mat sensed at every step) and `Auto` (each
//! mat's speculative descent memoized across the batch on the calling
//! thread — after a hit only the winner's mat re-descends).
//!
//! Every `Auto` run is cross-checked against the Sequential hit stream
//! and counters. With `--assert-auto` the bench exits nonzero on any
//! divergence, or if `Auto` is below 2× `Sequential` at 16 mats or more
//! (the CI perf-smoke gate).
//!
//! **Chip level** (1/2/4 chips): full-device batched drain through the
//! executor, whose multi-chip prefill dispatches independent chips on
//! scoped threads with a deterministic chip-order merge. Reported as
//! keys/sec against the chip count (chips are per-command scoped
//! threads — one spawn per *chip batch*, not per step, so the spawn
//! cost is already amortized there).
//!
//! Prints a table; with `RIME_BENCH_JSON=<path>` writes a
//! machine-readable snapshot (see `BENCH_parallel_scaling.json` at the
//! repo root), with the host's core count. Pass `--quick` for a
//! CI-sized smoke run.

use rime_core::{RimeConfig, RimeDevice};
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy,
};
use std::time::{Duration, Instant};

/// Slots per mat = 4 arrays × rows.
fn geometry(mats: u16, rows: u32) -> ChipGeometry {
    ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: mats,
        arrays_per_mat: 4,
        rows,
        cols: 64,
    }
}

fn loaded_chip(mats: u16, rows: u32, policy: ParallelPolicy) -> (Chip, u64) {
    let geo = geometry(mats, rows);
    let n = geo.capacity_slots();
    let mut chip = Chip::new(geo);
    chip.set_parallel_policy(policy);
    let keys: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    (chip, n)
}

/// Best-of-`reps` wall time for `f`, which receives a fresh clone of
/// `chip` each repetition (clone and drop stay outside the timed
/// region).
fn best_of(reps: usize, chip: &Chip, mut f: impl FnMut(&mut Chip)) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let mut fresh = chip.clone();
        let t = Instant::now();
        f(&mut fresh);
        best = best.min(t.elapsed());
        drop(fresh);
    }
    best
}

fn keys_per_sec(extracted: u64, elapsed: Duration) -> f64 {
    extracted as f64 / elapsed.as_secs_f64()
}

struct MatResult {
    mats: u16,
    keys: u64,
    seq_kps: f64,
    auto_kps: f64,
    /// `Auto`'s hit stream (slots + raw bits) and counters matched
    /// Sequential's.
    matches_seq: bool,
}

impl MatResult {
    fn auto_vs_seq(&self) -> f64 {
        self.auto_kps / self.seq_kps
    }
}

fn run_mat_config(mats: u16, rows: u32, batch_k: usize, reps: usize) -> MatResult {
    let mut kps = [0.0f64; 2];
    let mut keys = 0;
    let mut observed: Vec<(Vec<ExtractHit>, OpCounters)> = Vec::new();
    let policies = [ParallelPolicy::Sequential, ParallelPolicy::Auto];
    for (idx, policy) in policies.into_iter().enumerate() {
        let (chip, n) = loaded_chip(mats, rows, policy);
        keys = n;
        let run = std::cell::RefCell::new((Vec::new(), OpCounters::new()));
        let elapsed = best_of(reps, &chip, |chip| {
            chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
            let hits = std::hint::black_box(chip.extract_batch(Direction::Min, batch_k).unwrap());
            *run.borrow_mut() = (hits, *chip.counters());
        });
        observed.push(run.into_inner());
        kps[idx] = keys_per_sec(batch_k as u64, elapsed);
    }
    MatResult {
        mats,
        keys,
        seq_kps: kps[0],
        auto_kps: kps[1],
        matches_seq: observed[1] == observed[0],
    }
}

struct ChipResult {
    chips: u32,
    keys: u64,
    kps: f64,
}

fn run_chip_config(chips: u32, rows: u32, batch_k: usize, reps: usize) -> ChipResult {
    let config = RimeConfig {
        channels: chips,
        chips_per_channel: 1,
        chip_geometry: geometry(8, rows),
        ..RimeConfig::small()
    };
    let total = config.total_slots();
    let keys: Vec<u64> = (0..total)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    // One batch of `batch_k` prefills every chip's candidate buffer to
    // that depth concurrently — the executor-level fan-out under test —
    // so the chip-side work grows with the chip count while the
    // measured command stays the same size.
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let dev = RimeDevice::new(config);
        dev.set_parallel_policy(ParallelPolicy::Sequential);
        let region = dev.alloc(total).unwrap();
        dev.write(region, 0, &keys).unwrap();
        let t = Instant::now();
        dev.init_all::<u64>(region).unwrap();
        std::hint::black_box(dev.rime_min_k::<u64>(region, batch_k).unwrap());
        best = best.min(t.elapsed());
    }
    ChipResult {
        chips,
        keys: total,
        kps: keys_per_sec(batch_k as u64 * u64::from(chips), best),
    }
}

fn write_json(
    path: &str,
    mode: &str,
    mat: &[MatResult],
    chip: &[ChipResult],
    rows: u32,
    batch_k: usize,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n  \"bench\": \"parallel_scaling\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{mode}\",\n  \"nproc\": {nproc},\n  \"mat_level\": [\n"
    ));
    for (i, r) in mat.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mats\": {}, \"keys\": {}, \"seq_kps\": {:.0}, \
             \"auto_kps\": {:.0}, \"auto_vs_seq\": {:.2}, \
             \"matches_seq\": {}}}{}\n",
            r.mats,
            r.keys,
            r.seq_kps,
            r.auto_kps,
            r.auto_vs_seq(),
            r.matches_seq,
            if i + 1 < mat.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"chip_level\": [\n");
    for (i, r) in chip.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"chips\": {}, \"keys\": {}, \"kps\": {:.0}}}{}\n",
            r.chips,
            r.keys,
            r.kps,
            if i + 1 < chip.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    // One extra fully instrumented pass of the `Auto` configuration,
    // outside any timed region: the masked (deterministic) snapshot
    // rides along for byte-stable diffs.
    let metrics =
        rime_bench::instrumented_metrics_json(geometry(64, rows), ParallelPolicy::Auto, batch_k);
    out.push_str(&format!("  \"metrics\": {metrics}\n}}\n"));
    std::fs::write(path, out).expect("write bench snapshot");
    println!("snapshot written to {path}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let assert_auto = std::env::args().any(|a| a == "--assert-auto");
    let (rows, batch_k, reps) = if quick {
        (64u32, 64usize, 2usize)
    } else {
        (512, 256, 3)
    };

    println!(
        "parallel scaling: memoized descent vs sequential walk ({} mode)",
        if quick { "quick" } else { "full" },
    );
    println!(
        "{:>5} {:>8} | {:>12} {:>12} | {:>10}",
        "mats", "keys", "seq k/s", "auto k/s", "auto/seq"
    );
    let mut mat_results = Vec::new();
    for mats in [8u16, 16, 32, 64, 128] {
        let r = run_mat_config(mats, rows, batch_k, reps);
        println!(
            "{:>5} {:>8} | {:>12.0} {:>12.0} | {:>9.2}x{}",
            r.mats,
            r.keys,
            r.seq_kps,
            r.auto_kps,
            r.auto_vs_seq(),
            if r.matches_seq { "" } else { "  DIVERGED" },
        );
        mat_results.push(r);
    }

    println!();
    println!("chip-parallel executor dispatch (8 mats per chip)");
    println!("{:>5} {:>8} | {:>14}", "chips", "keys", "extracted k/s");
    let mut chip_results = Vec::new();
    for chips in [1u32, 2, 4] {
        let r = run_chip_config(chips, rows, batch_k, reps);
        println!("{:>5} {:>8} | {:>14.0}", r.chips, r.keys, r.kps);
        chip_results.push(r);
    }

    if let Ok(path) = std::env::var("RIME_BENCH_JSON") {
        let mode = if quick { "quick" } else { "full" };
        write_json(&path, mode, &mat_results, &chip_results, rows, batch_k);
    }

    // CI perf-smoke gate: `Auto`'s hit stream and counters are
    // bit-identical to Sequential, and the memoized descent is at least
    // 2× the sequential walk wherever the span is wide enough to matter.
    if assert_auto {
        let mut failed = false;
        for r in &mat_results {
            if !r.matches_seq {
                eprintln!("ASSERT: Auto diverged from Sequential at {} mats", r.mats);
                failed = true;
            }
            if r.mats >= 16 && r.auto_vs_seq() < 2.0 {
                eprintln!(
                    "ASSERT: auto_vs_seq {:.2} < 2.0 at {} mats",
                    r.auto_vs_seq(),
                    r.mats
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("--assert-auto: all checks passed");
    }
}
