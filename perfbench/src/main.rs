//! The repository benchmark: one harness, four seeded workloads, each
//! driven through the RIME crates' public APIs and checked against a
//! host oracle. See `perfbench/README.md` for the workloads, metric
//! definitions and the traced run.
//!
//! ```text
//! rime-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the full record (host block, seed, every metric including the ones a
//! workload reports beyond the declared set).

mod dram;
mod pq;
mod service;
mod stats;
mod topk;
mod trace;

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rime_memristive::{Array, Bitmap};
use trace::Spans;

/// Seed a claim is developed on, and the seed held back to confirm it.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// Worker processes of an untraced run (at least; see `measuring_workers`).
/// Each is timed from spawn to "ready" for `setup_s` (their median is
/// reported); the first `FINGERPRINT_WORKERS` also print the fingerprint
/// of their model and their peak RSS.
const WORKERS: usize = 5;
const FINGERPRINT_WORKERS: usize = 2;

/// How many worker processes measure, each for an equal share of the run.
/// The same loop can run 15-40 % faster or slower from one process to the
/// next on a virtual machine, so a run reports the interquartile mean over
/// processes. `dram_baseline` uses 3: a worker needs whole rounds (about
/// 2.7 s on a 2-core host) and pays its own counting pass.
/// `service_mixed` uses 15: its swing is the widest, and its set-up takes
/// milliseconds.
fn measuring_workers(workload: &str) -> usize {
    match workload {
        "dram_baseline" => 3,
        "service_mixed" => 15,
        _ => WORKERS,
    }
}

/// Chunks a closed loop is cut into; throughput is their median rate.
pub const RATE_CHUNKS: usize = 5;

/// Host ns per simulated event at `ops_per_s`, given `events` over `ops`.
pub fn ns_per_event(ops: usize, ops_per_s: f64, events: u64) -> f64 {
    1e9 * ops as f64 / (ops_per_s * events.max(1) as f64)
}

const WORKLOADS: [&str; 4] = ["topk_wide", "pq_durable", "service_mixed", "dram_baseline"];

/// splitmix64: the harness's only random source. Every input is a pure
/// function of (seed, stream, index), so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic part of a run: modeled metrics and per-layer counts
/// over the workload's fixed op prefix (`dram_baseline`: over the first
/// round of `measure`). Bit-identical for a seed.
#[derive(Debug, Clone, Default)]
pub struct Modeled {
    pub ns_per_key: f64,
    pub nj_per_key: f64,
    /// Per-layer counts (name, value) taken over the same prefix.
    pub counts: Vec<(&'static str, f64)>,
    /// The process's peak RSS (MiB) once the prefix ran, read before the
    /// harness's own bookkeeping (oracle scans, per-op results), so the
    /// harness's share neither grows with the program's speed nor counts
    /// a copy of the program's data. Not part of the fingerprint.
    pub peak_rss_mb: f64,
}

impl Modeled {
    /// Exact fingerprint: every modeled value's bit pattern.
    pub fn fingerprint(&self) -> String {
        let mut out = format!(
            "{:016x}.{:016x}",
            self.ns_per_key.to_bits(),
            self.nj_per_key.to_bits()
        );
        for (_, v) in &self.counts {
            out.push_str(&format!(".{:016x}", v.to_bits()));
        }
        out
    }
}

/// One timed run of a workload.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// Wrong results only (a subset of `failed`).
    pub wrong: u64,
    pub ops_per_s: f64,
    /// Per-op host latency (µs).
    pub lat_us: Vec<f64>,
    /// Percentiles are the median over this many consecutive runs of
    /// `lat_us` (0 or 1: over all of it).
    pub lat_chunks: usize,
    /// Host ns per simulated event over the closed loop.
    pub host_ns_per_event: f64,
    /// Record-only values (name, value, unit).
    pub extra: Vec<(String, f64, &'static str)>,
    /// The model over the first round, for a workload without a prefix.
    pub model: Option<Modeled>,
}

/// A per-layer metric of the traced run.
pub type Layer = (String, f64, &'static str);

/// What each workload provides to the harness.
pub trait Workload {
    /// Runs the op prefix and returns its modeled metrics and counts;
    /// `None` when the model comes from `measure` (`Measured::model`).
    fn prefix(&mut self) -> Option<Modeled>;
    /// Measurements for the record only, run once per run.
    fn record(&mut self) -> Measured {
        Measured::default()
    }
    /// Runs the workload for `seconds`, recording spans when given.
    fn measure(&mut self, seconds: f64, spans: Option<&mut Spans>) -> Measured;
    /// Trace-run layer probes (replays against single layers), given the
    /// traced run's spans.
    fn layers(&mut self, seconds: f64, spans: &Spans) -> Vec<Layer>;
}

/// Process start until the workload is ready: device built, keys loaded,
/// calibration and warm-up done.
fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "topk_wide" => Box::new(topk::Topk::setup(seed)),
        "pq_durable" => Box::new(pq::Pq::setup(seed)),
        "service_mixed" => Box::new(service::Service::setup(seed)),
        "dram_baseline" => Box::new(dram::Dram::setup(seed)),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// The per-layer metrics declared for every workload; a layer a workload
/// does not reach reads 0.
pub const DECLARED_LAYERS: [(&str, &str); 27] = [
    ("array.sense_ns", "ns"),
    ("array.exclude_ns", "ns"),
    ("array.kernel_share", "ratio"),
    ("chip.steps_per_key", "count"),
    ("chip.mat_searches_per_key", "count"),
    ("chip.row_writes_per_op", "count"),
    ("pool.vs_seq", "ratio"),
    ("pool.memo_hit_frac", "ratio"),
    ("pool.replay_steps_per_key", "count"),
    ("pool.worker_busy_frac", "ratio"),
    ("cmd.overhead_frac", "ratio"),
    ("cmd.commands_per_op", "count"),
    ("journal.share", "ratio"),
    ("journal.bytes_per_op", "B"),
    ("journal.checkpoints_per_op", "count"),
    ("kernels.accesses_per_key", "count"),
    ("cache.miss_frac", "ratio"),
    ("cache.share", "ratio"),
    ("dram.row_hit_frac", "ratio"),
    ("dram.accesses_per_key", "count"),
    ("service.drained_per_pass", "count"),
    ("service.fused_per_batch", "count"),
    ("service.fusion_frac", "ratio"),
    ("service.busy_frac", "ratio"),
    ("service.queue_frac", "ratio"),
    ("harness.gen_late_p99_frac", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
];

/// Sum over labels of the counter `name` in a metrics snapshot.
pub fn counter(snap: &rime_core::Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            rime_core::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Host ns per `Array::sense_column` and per `Array::apply_exclusion`,
/// measured on a 256-row array holding `keys` (the workload's own keys)
/// along min-descents over all 64 bit positions, repeated for ~`budget`.
/// Each call is repeated `REPS` times in place so the clock is read once
/// per batch: a repeated sense returns the same signals, and a repeated
/// exclusion removes nothing more but makes the same pass over the words.
pub fn array_probe(keys: &[u64], budget: Duration) -> (f64, f64) {
    const REPS: u32 = 64;
    let rows = 256;
    let mut array = Array::new(rows as u32);
    for r in 0..rows {
        array.write_row(r, keys[r % keys.len()]);
    }
    let full = Bitmap::ones(rows);
    let (mut sense_ns, mut senses, mut exclude_ns, mut excludes) = (0u128, 0u32, 0u128, 0u32);
    let start = Instant::now();
    while start.elapsed() < budget {
        array.set_select(full.clone());
        for pos in (0..64u16).rev() {
            let t = Instant::now();
            let mut signals = array.sense_column(pos);
            for _ in 1..REPS {
                signals = std::hint::black_box(array.sense_column(std::hint::black_box(pos)));
            }
            sense_ns += t.elapsed().as_nanos();
            senses += REPS;
            if !signals.all_same() {
                let t = Instant::now();
                for _ in 0..REPS {
                    std::hint::black_box(array.apply_exclusion(std::hint::black_box(pos), false));
                }
                exclude_ns += t.elapsed().as_nanos();
                excludes += REPS;
            }
        }
    }
    (
        sense_ns as f64 / f64::from(senses.max(1)),
        exclude_ns as f64 / f64::from(excludes.max(1)),
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run as worker `i` of an untraced run (see `run_worker`).
    worker: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--worker" => args.worker = Some(value.parse().map_err(|e| format!("--worker: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One worker process of an untraced run. Prints, one per line:
/// `ready` once set up; `measured <attempted> <failed> <wrong>
/// <ops_per_s> <host_ns_per_event> <lat_chunks>` and `lat <µs>...` (the
/// measuring workers); `fingerprint <fp>` and `rss <peak_rss_mb>` (the
/// first `FINGERPRINT_WORKERS`); and from worker 0 the model
/// (`modeled <ns> <nj>`, `count <name> <v>`) and the record-only
/// measurements (`side <attempted> <failed> <wrong>`,
/// `extra <name> <unit> <v>`).
fn run_worker(args: &Args, i: usize) {
    let mut w = setup(&args.workload, args.seed);
    println!("ready");
    let _ = std::io::stdout().flush();
    let fingerprinting = i < FINGERPRINT_WORKERS;
    let mut modeled = if fingerprinting { w.prefix() } else { None };
    let measuring = measuring_workers(&args.workload);
    if i < measuring {
        let mut m = w.measure(args.seconds / measuring as f64, None);
        println!(
            "measured {} {} {} {:?} {:?} {}",
            m.attempted, m.failed, m.wrong, m.ops_per_s, m.host_ns_per_event, m.lat_chunks,
        );
        let lat: Vec<String> = m.lat_us.iter().map(|v| format!("{v:?}")).collect();
        println!("lat {}", lat.join(" "));
        if fingerprinting {
            modeled = modeled.or(m.model.take());
        }
    }
    if let Some(m) = &modeled {
        println!("fingerprint {}", m.fingerprint());
        println!("rss {:?}", m.peak_rss_mb);
    }
    if i == 0 {
        let m = modeled.expect("worker 0 fingerprints");
        println!("modeled {:?} {:?}", m.ns_per_key, m.nj_per_key);
        for (name, v) in &m.counts {
            println!("count {name} {v:?}");
        }
        let side = w.record();
        println!("side {} {} {}", side.attempted, side.failed, side.wrong);
        for (name, v, unit) in &side.extra {
            println!("extra {name} {unit} {v:?}");
        }
    }
}

/// Every unit a record-only value may carry.
const UNITS: [&str; 7] = ["ns", "us", "ps", "1/s", "ratio", "count", "B"];

/// What the parent reads back from one worker.
#[derive(Default)]
struct WorkerReport {
    setup_s: f64,
    fingerprint: Option<String>,
    measured: Option<Measured>,
    /// Peak RSS (MiB).
    rss: Option<f64>,
    modeled: Option<(f64, f64)>,
    counts: Vec<(String, f64)>,
    side: Measured,
}

/// Runs the worker processes one after another.
fn run_workers(args: &Args) -> Vec<WorkerReport> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let num = |s: Option<&str>| -> f64 {
        s.and_then(|v| v.parse().ok())
            .expect("a worker prints numbers")
    };
    (0..WORKERS.max(measuring_workers(&args.workload)))
        .map(|i| {
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--worker", &i.to_string(), "--workload", &args.workload])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a worker");
            let stdout = child.stdout.take().expect("piped stdout");
            let mut r = WorkerReport::default();
            for line in BufReader::new(stdout).lines() {
                let line = line.expect("read worker output");
                let mut f = line.split(' ');
                match f.next() {
                    Some("ready") => r.setup_s = start.elapsed().as_secs_f64(),
                    Some("fingerprint") => r.fingerprint = f.next().map(String::from),
                    Some("rss") => r.rss = Some(num(f.next())),
                    Some("measured") => {
                        let v: Vec<f64> = (0..6).map(|_| num(f.next())).collect();
                        r.measured = Some(Measured {
                            attempted: v[0] as u64,
                            failed: v[1] as u64,
                            wrong: v[2] as u64,
                            ops_per_s: v[3],
                            host_ns_per_event: v[4],
                            lat_chunks: v[5] as usize,
                            ..Measured::default()
                        });
                    }
                    Some("lat") => {
                        if let Some(m) = &mut r.measured {
                            m.lat_us = f.filter(|v| !v.is_empty()).map(|v| num(Some(v))).collect();
                        }
                    }
                    Some("modeled") => r.modeled = Some((num(f.next()), num(f.next()))),
                    Some("count") => {
                        let name = f.next().unwrap_or_default().to_string();
                        r.counts.push((name, num(f.next())));
                    }
                    Some("side") => {
                        r.side.attempted = num(f.next()) as u64;
                        r.side.failed = num(f.next()) as u64;
                        r.side.wrong = num(f.next()) as u64;
                    }
                    Some("extra") => {
                        let name = f.next().unwrap_or_default().to_string();
                        let unit = f.next().unwrap_or_default();
                        let unit = UNITS.into_iter().find(|u| *u == unit).unwrap_or("");
                        r.side.extra.push((name, num(f.next()), unit));
                    }
                    _ => {}
                }
            }
            let status = child.wait().expect("wait for a worker");
            assert!(status.success(), "worker {i} failed: {status}");
            r
        })
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn host_block(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"profile\":\"{profile}\",\"rustc\":{},\"commit\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED}}}",
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        args.seed,
        json_num(args.seconds),
        args.trace,
    )
}

/// The `Auto` pool crossover (mats) the harness pins through the
/// program's own `RIME_POOL_CROSSOVER` override: the crossover measured on
/// a 2-core host. The one-shot calibration it replaces varies up to 4×
/// between processes on a virtual machine, which moves which `topk_wide`
/// windows lease the pool from run to run.
const POOL_CROSSOVER_MATS: &str = "64";

fn main() {
    // Set before any thread starts; worker processes inherit it.
    std::env::set_var("RIME_POOL_CROSSOVER", POOL_CROSSOVER_MATS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rime-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(i) = args.worker {
        run_worker(&args, i);
        return;
    }

    let mut record: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, failed, wrong, result_metrics, fingerprint, deterministic, model_counts);
    if args.trace {
        let mut w = setup(&args.workload, args.seed);
        let prefix = w.prefix();
        let mut plain = w.measure(args.seconds / 2.0, None);
        let modeled = prefix
            .or(plain.model.take())
            .expect("a workload has a prefix or a measured model");
        fingerprint = modeled.fingerprint();
        deterministic = true;
        let mut spans = Spans::default();
        let traced = w.measure(args.seconds / 2.0, Some(&mut spans));
        let side = w.record();
        let mut layers = w.layers(args.seconds, &spans);
        layers.extend(side.extra.iter().cloned());
        for (name, v) in &modeled.counts {
            let unit = DECLARED_LAYERS
                .iter()
                .find(|(n, _)| n == name)
                .map_or("count", |(_, u)| *u);
            layers.push((name.to_string(), *v, unit));
        }
        layers.push((
            "harness.trace_overhead_frac".into(),
            traced.ops_per_s / plain.ops_per_s,
            "ratio",
        ));
        for (name, (n, total, own)) in spans.summary() {
            record.push((format!("span.{name}.count"), n as f64, "count"));
            record.push((format!("span.{name}.total_ms"), total as f64 / 1e6, "ms"));
            record.push((format!("span.{name}.self_ms"), own as f64 / 1e6, "ms"));
        }
        let out_dir = std::path::PathBuf::from(
            std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| ".bench_build/perfbench".into()),
        );
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_json_lines()))
        {
            Ok(()) => eprintln!("rime-perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!(
                "rime-perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        let declared: Vec<(String, f64, &str)> = DECLARED_LAYERS
            .iter()
            .map(|(name, unit)| {
                let v = layers
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |l| l.1);
                (name.to_string(), v, *unit)
            })
            .collect();
        record.extend(
            layers
                .iter()
                .filter(|(n, _, _)| !DECLARED_LAYERS.iter().any(|(d, _)| d == n))
                .cloned(),
        );
        attempted = plain.attempted + traced.attempted + side.attempted;
        failed = plain.failed + traced.failed + side.failed;
        wrong = plain.wrong + traced.wrong + side.wrong;
        result_metrics = declared;
        model_counts = modeled
            .counts
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect::<Vec<_>>();
    } else {
        let reports = run_workers(&args);
        let setup_times: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
        let prints: Vec<&String> = reports
            .iter()
            .filter_map(|r| r.fingerprint.as_ref())
            .collect();
        fingerprint = prints.first().map_or(String::new(), |p| p.to_string());
        deterministic =
            prints.len() == FINGERPRINT_WORKERS && prints.iter().all(|p| **p == fingerprint);
        if !deterministic {
            eprintln!(
                "rime-perfbench: modeled metrics differ between processes with seed {}",
                args.seed
            );
        }
        let head = &reports[0];
        let (ns_per_key, nj_per_key) = head.modeled.expect("worker 0 reports the model");
        let runs: Vec<&Measured> = reports.iter().filter_map(|r| r.measured.as_ref()).collect();
        // Across workers: the interquartile mean (see `stats`).
        let across = |f: &dyn Fn(&Measured) -> f64| {
            stats::interquartile_mean(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let rss: Vec<f64> = reports.iter().filter_map(|r| r.rss).collect();
        let all_lat: Vec<f64> = runs.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
        // Pooled samples; a workload that chunks its latencies reports the
        // interquartile mean over workers of each worker's chunked percentile.
        let pct = |p: f64| {
            if runs[0].lat_chunks > 1 {
                across(&|r: &Measured| stats::chunked_percentile(&r.lat_us, r.lat_chunks, p))
            } else {
                stats::percentile(&all_lat, p).unwrap_or(0.0)
            }
        };
        if !stats::percentile_supported(all_lat.len(), 99.0) {
            eprintln!(
                "rime-perfbench: p99_us rests on {} samples (fewer than ten beyond the percentile)",
                all_lat.len()
            );
        }
        attempted = runs.iter().map(|r| r.attempted).sum::<u64>() + head.side.attempted;
        failed = runs.iter().map(|r| r.failed).sum::<u64>() + head.side.failed;
        wrong = runs.iter().map(|r| r.wrong).sum::<u64>() + head.side.wrong;
        record.push(("workers".into(), runs.len() as f64, "count"));
        record.push(("latency_samples".into(), all_lat.len() as f64, "count"));
        record.push((
            "failed_frac".into(),
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        record.extend(head.side.extra.iter().cloned());
        result_metrics = vec![
            ("setup_s".into(), stats::median(&setup_times), "s"),
            ("ops_per_s".into(), across(&|r| r.ops_per_s), "1/s"),
            ("p50_us".into(), pct(50.0), "us"),
            ("p99_us".into(), pct(99.0), "us"),
            ("modeled_ns_per_key".into(), ns_per_key, "ns"),
            ("modeled_nj_per_key".into(), nj_per_key, "nJ"),
            (
                "host_ns_per_event".into(),
                across(&|r| r.host_ns_per_event),
                "ns",
            ),
            ("peak_rss_mb".into(), stats::median(&rss), "MiB"),
        ];
        model_counts = head.counts.clone();
    }

    let correct = failed == 0 && wrong == 0 && deterministic;
    record.extend(
        model_counts
            .iter()
            .map(|(n, v)| (format!("modeled.{n}"), *v, "count")),
    );
    println!(
        "{{\"workload\":{},\"host\":{},\"fingerprint\":{},\"deterministic\":{deterministic},\"record\":{}}}",
        json_str(&args.workload),
        host_block(&args),
        json_str(&fingerprint),
        metrics_json(&record),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        attempted.max(1),
        failed,
        metrics_json(&result_metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
