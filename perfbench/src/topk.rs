//! `topk_wide`: seeded windowed top-k over 2 chips × 64 mats.
//!
//! Each op is one `RimeDevice::init` over a seeded window followed by one
//! `rime_min_k` with a seeded k in 1..=255. Widths and k are stratified:
//! every round of 17 ops covers 1, 2, 4 … 128 mats, so every run lands on
//! both sides of the `Auto` pool crossover in the same proportions
//! whatever the seed. No journal, no service: the chip
//! descent, the array kernel and the mat pool do the work.

use std::time::{Duration, Instant};

use rime_core::perf::modeled_busy_ns;
use rime_core::{DriverConfig, Region, RimeConfig, RimeDevice};
use rime_memristive::{ArrayTiming, Chip, ChipGeometry, Direction, KeyFormat, ParallelPolicy};
use rime_workloads::keys::{generate_u64, KeyDistribution};

use crate::stats;
use crate::trace::{Spans, ROOT};
use crate::{Layer, Measured, Modeled, Rng, Workload};

const SLOTS_PER_MAT: u64 = 1024;
const MATS_PER_CHIP: u64 = 64;
const CHIPS: u64 = 2;
const KEYS: u64 = CHIPS * MATS_PER_CHIP * SLOTS_PER_MAT; // 128 Ki
/// Queries per round. Odd, so the median and p99 fall inside a class
/// of ops rather than on the boundary between two.
const ROUND: u64 = 17;
const PREFIX_OPS: u64 = 8 * ROUND;
/// Ops replayed directly against `Chip`s in the traced run.
const REPLAY_OPS: u64 = 4 * ROUND;

fn geometry() -> ChipGeometry {
    ChipGeometry {
        banks: 4,
        subbanks_per_bank: 4,
        mats_per_subbank: 4,
        arrays_per_mat: 4,
        rows: 256,
        cols: 64,
    }
}

fn config() -> RimeConfig {
    RimeConfig {
        channels: 1,
        chips_per_channel: CHIPS as u32,
        chip_geometry: geometry(),
        timing: ArrayTiming::table1(),
        driver: DriverConfig::default(),
    }
}

/// One query: the window `[offset, offset + len)` of the region and k.
#[derive(Debug, Clone, Copy)]
struct Query {
    offset: u64,
    len: u64,
    k: usize,
}

/// Window width (mats) of each query class. Width and k band both grow
/// with the class, so op cost grows with it: the median and p99 then fall
/// inside one class's own spread, not between two classes of very
/// different cost.
const CLASS_MATS: [u64; ROUND as usize] =
    [1, 1, 2, 2, 4, 4, 8, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128];

/// The `i`-th query of stream `stream` (0 = measured, 1 = warm-up, 2 =
/// traced-run replays). Round class c in 0..17 pairs a width of
/// `CLASS_MATS[c]` mats with a k band 15 c + 1 ..= 15 c + 15, in a seeded
/// order; the seed picks offsets and the jitter inside each class.
fn query(seed: u64, stream: u64, i: u64) -> Query {
    let round = i / ROUND;
    let mut classes: Vec<u64> = (0..ROUND).collect();
    Rng::new(seed, stream << 32 | round).shuffle(&mut classes);
    let class = classes[(i % ROUND) as usize];
    let mut rng = Rng::new(seed ^ 0x7f4a_7c15, stream << 40 | i);
    let len = CLASS_MATS[class as usize] * SLOTS_PER_MAT - rng.below(SLOTS_PER_MAT / 2);
    Query {
        offset: rng.below(KEYS - len + 1),
        len,
        k: (15 * class + 1 + rng.below(15)) as usize,
    }
}

pub struct Topk {
    seed: u64,
    dev: RimeDevice,
    region: Region,
    keys: Vec<u64>,
    /// Every (key, local slot) sorted ascending: the host oracle.
    order: Vec<(u64, u32)>,
    next: u64,
}

impl Topk {
    pub fn setup(seed: u64) -> Topk {
        let uniform = generate_u64(KEYS as usize, KeyDistribution::Uniform, seed);
        let few = generate_u64(
            KEYS as usize,
            KeyDistribution::FewDistinct { distinct: 16 },
            seed ^ 0xfeed,
        );
        // Runs of 64 slots alternate uniform keys and 16 distinct values
        // spread over the key space, so every window mixes early-exit
        // descents with heavy ties in the same proportion.
        let keys: Vec<u64> = (0..KEYS as usize)
            .map(|i| {
                if (i / 64) % 2 == 0 {
                    uniform[i]
                } else {
                    few[i] * (u64::MAX / 16)
                }
            })
            .collect();
        let dev = RimeDevice::new(config());
        let region = dev.alloc(KEYS).expect("the region fits the device");
        dev.write(region, 0, &keys).expect("load keys");
        let mut order: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        order.sort_unstable();
        let w = Topk {
            seed,
            dev,
            region,
            keys,
            order,
            next: 0,
        };
        // Warm-up: one round of the warm-up stream (runs the pool
        // calibration and leases the pool on wide windows).
        for i in 0..ROUND {
            w.run_query(query(seed, 1, i));
        }
        w
    }

    fn run_query(&self, q: Query) -> Vec<(u64, u64)> {
        self.dev
            .init::<u64>(self.region, q.offset, q.len)
            .expect("init a valid window");
        self.dev
            .rime_min_k::<u64>(self.region, q.k)
            .expect("min_k on an initialized window")
    }

    fn oracle(&self, q: Query) -> Vec<(u64, u64)> {
        let start = self.region.start();
        self.order
            .iter()
            .filter(|&&(_, s)| (q.offset..q.offset + q.len).contains(&u64::from(s)))
            .take(q.k)
            .map(|&(k, s)| (start + u64::from(s), k))
            .collect()
    }
}

impl Workload for Topk {
    fn prefix(&mut self) -> Option<Modeled> {
        self.dev.reset_counters();
        let commands_before = crate::counter(&self.dev.metrics_snapshot(), "rime_commands_total");
        let timing = self.dev.config().timing;
        let mut keys = 0u64;
        // Ops run one after another, so device time is the sum over ops of
        // each op's busiest chip.
        let mut busy_ns = 0.0;
        for i in 0..PREFIX_OPS {
            let before = self.dev.per_chip_counters();
            keys += self.run_query(query(self.seed, 0, i)).len() as u64;
            let deltas: Vec<_> = self
                .dev
                .per_chip_counters()
                .iter()
                .zip(&before)
                .map(|(a, b)| a.delta_since(b))
                .collect();
            busy_ns += modeled_busy_ns(&timing, &deltas);
        }
        self.next = PREFIX_OPS;
        let commands =
            crate::counter(&self.dev.metrics_snapshot(), "rime_commands_total") - commands_before;
        let c = self.dev.counters();
        let keys_f = keys as f64;
        Some(Modeled {
            peak_rss_mb: crate::peak_rss_mb(),
            ns_per_key: busy_ns / keys_f,
            nj_per_key: self.dev.modeled_energy_nj() / keys_f,
            counts: vec![
                ("chip.steps_per_key", c.column_search_steps as f64 / keys_f),
                (
                    "chip.mat_searches_per_key",
                    c.mat_column_searches as f64 / keys_f,
                ),
                (
                    "chip.row_writes_per_op",
                    c.row_writes as f64 / PREFIX_OPS as f64,
                ),
                ("cmd.commands_per_op", commands as f64 / PREFIX_OPS as f64),
            ],
        })
    }

    fn measure(&mut self, seconds: f64, mut spans: Option<&mut Spans>) -> Measured {
        let budget = Duration::from_secs_f64(seconds);
        let steps_before = self.dev.counters().column_search_steps;
        let mut done = Vec::new();
        let mut lat_us = Vec::new();
        let mut end_s = Vec::new();
        let start = Instant::now();
        // Whole rounds only, so every class of op has the same weight in
        // the percentiles whatever the run length.
        while start.elapsed() < budget || !self.next.is_multiple_of(ROUND) {
            let i = self.next;
            self.next += 1;
            let q = query(self.seed, 0, i);
            let t = Instant::now();
            let hits = match spans.as_deref_mut() {
                None => self.run_query(q),
                Some(s) => {
                    let op = s.open("topk.op", ROOT, i);
                    s.wrap("device.init", op, i, || {
                        self.dev
                            .init::<u64>(self.region, q.offset, q.len)
                            .expect("init a valid window")
                    });
                    let hits = s.wrap("device.extract_batch", op, i, || {
                        self.dev
                            .rime_min_k::<u64>(self.region, q.k)
                            .expect("min_k on an initialized window")
                    });
                    s.close(op);
                    hits
                }
            };
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            end_s.push(start.elapsed().as_secs_f64());
            done.push((q, hits));
        }
        let steps = self.dev.counters().column_search_steps - steps_before;
        let mut wrong = 0;
        for (q, hits) in &done {
            let want = self.oracle(*q);
            wrong += u64::from(stats::mismatches(hits, &want) > 0);
        }
        let ops_per_s = stats::median_rate(&end_s, ROUND as usize, crate::RATE_CHUNKS);
        Measured {
            attempted: done.len() as u64,
            failed: wrong,
            wrong,
            ops_per_s,
            lat_us,
            host_ns_per_event: crate::ns_per_event(done.len(), ops_per_s, steps),
            lat_chunks: 1,
            extra: vec![],
            model: None,
        }
    }

    /// The pool calibration the `Auto` crossover would have used, had the
    /// harness not pinned it.
    fn record(&mut self) -> Measured {
        let cal = rime_memristive::pool_calibration();
        Measured {
            extra: vec![
                (
                    "pool.calibration_round_trip_ns".into(),
                    cal.round_trip_ns as f64,
                    "ns",
                ),
                (
                    "pool.calibration_word_ps".into(),
                    cal.word_picos as f64,
                    "ps",
                ),
            ],
            ..Measured::default()
        }
    }

    fn layers(&mut self, seconds: f64, spans: &Spans) -> Vec<Layer> {
        let mut out: Vec<Layer> = Vec::new();
        let (sense_ns, exclude_ns) =
            crate::array_probe(&self.keys, Duration::from_secs_f64(seconds / 20.0));
        out.push(("array.sense_ns".into(), sense_ns, "ns"));
        out.push(("array.exclude_ns".into(), exclude_ns, "ns"));
        out.push((
            "cmd.call_us.init".into(),
            stats::median(&spans.durations_ns("device.init")) / 1e3,
            "us",
        ));
        out.push((
            "cmd.call_us.extract_batch".into(),
            stats::median(&spans.durations_ns("device.extract_batch")) / 1e3,
            "us",
        ));

        // The same queries three ways: through the device, and directly
        // against `Chip`s under `Auto` and under `Sequential`.
        let queries: Vec<Query> = (0..REPLAY_OPS).map(|i| query(self.seed, 2, i)).collect();
        self.dev.enable_extraction_metrics();
        let pool_before = pool_counters(&self.dev);
        let device_start = Instant::now();
        let mut device_keys = 0u64;
        for q in &queries {
            device_keys += self.run_query(*q).len() as u64;
        }
        let device_ns = device_start.elapsed().as_nanos() as f64;
        let pool = pool_counters(&self.dev).delta(&pool_before);

        let mut chips: Vec<Chip> = (0..CHIPS).map(|_| Chip::new(geometry())).collect();
        let per_chip = MATS_PER_CHIP * SLOTS_PER_MAT;
        for (c, chip) in chips.iter_mut().enumerate() {
            let lo = c * per_chip as usize;
            chip.store_keys(
                0,
                &self.keys[lo..lo + per_chip as usize],
                KeyFormat::UNSIGNED64,
            )
            .expect("keys fit the chip");
        }
        let mut replay = |policy: ParallelPolicy| {
            let mut init_us = Vec::new();
            let mut extract_us = Vec::new();
            // The executor runs a window's chips concurrently, so an op's
            // chip time is its slowest chip.
            let mut critical_us = 0.0;
            let mut mat_searches = 0u64;
            for chip in chips.iter_mut() {
                chip.set_parallel_policy(policy);
                chip.reset_counters();
            }
            for q in &queries {
                let (mut init, mut extract, mut slowest) = (0.0, 0.0, 0.0f64);
                let begin = self.region.start() + q.offset;
                let end = begin + q.len;
                for (c, chip) in chips.iter_mut().enumerate() {
                    let (lo, hi) = (c as u64 * per_chip, (c as u64 + 1) * per_chip);
                    let (b, e) = (begin.max(lo), end.min(hi));
                    if b >= e {
                        continue;
                    }
                    let t = Instant::now();
                    chip.init_range(b - lo, e - lo, KeyFormat::UNSIGNED64)
                        .expect("init chip range");
                    let t_init = t.elapsed().as_secs_f64() * 1e6;
                    let t = Instant::now();
                    std::hint::black_box(
                        chip.extract_batch(Direction::Min, q.k)
                            .expect("extract batch"),
                    );
                    let t_extract = t.elapsed().as_secs_f64() * 1e6;
                    init += t_init;
                    extract += t_extract;
                    slowest = slowest.max(t_init + t_extract);
                }
                init_us.push(init);
                extract_us.push(extract);
                critical_us += slowest;
            }
            for chip in chips.iter() {
                mat_searches += chip.counters().mat_column_searches;
            }
            (init_us, extract_us, critical_us, mat_searches)
        };
        let (init_auto, extract_auto, critical_auto_us, mat_searches) =
            replay(ParallelPolicy::Auto);
        let (init_seq, extract_seq, _, _) = replay(ParallelPolicy::Sequential);
        let extract_seq_us: f64 = extract_seq.iter().sum();
        let chip_auto_us: f64 = init_auto.iter().sum::<f64>() + extract_auto.iter().sum::<f64>();
        let chip_seq_us: f64 = init_seq.iter().sum::<f64>() + extract_seq.iter().sum::<f64>();
        out.push((
            "chip.extract_batch_us".into(),
            stats::median(&extract_auto),
            "us",
        ));
        out.push(("chip.init_us".into(), stats::median(&init_auto), "us"));
        // Each mat column search senses its 4 arrays; priced against the
        // `Sequential` replay, which runs every search on this thread.
        out.push((
            "array.kernel_share".into(),
            mat_searches as f64 * 4.0 * sense_ns / (extract_seq_us * 1e3),
            "ratio",
        ));
        out.push(("pool.vs_seq".into(), chip_seq_us / chip_auto_us, "ratio"));
        out.push((
            "cmd.overhead_frac".into(),
            1.0 - critical_auto_us * 1e3 / device_ns,
            "ratio",
        ));
        out.extend(pool.layers(device_keys));
        out
    }
}

/// The exported `rime_pool_*` counters a traced replay reads.
#[derive(Debug, Default, Clone, Copy)]
struct PoolCounters {
    memoized: u64,
    woken: u64,
    replay_steps: u64,
    busy_ns: u64,
    park_ns: u64,
}

fn pool_counters(dev: &RimeDevice) -> PoolCounters {
    let snap = dev.metrics_snapshot();
    let sum = |name: &str| crate::counter(&snap, name);
    PoolCounters {
        memoized: sum("rime_pool_descend_memoized_shards_total"),
        woken: sum("rime_pool_descend_woken_workers_total"),
        replay_steps: sum("rime_pool_replay_steps_total"),
        busy_ns: sum("rime_pool_worker_busy_ns_total"),
        park_ns: sum("rime_pool_worker_park_ns_total"),
    }
}

impl PoolCounters {
    fn delta(&self, before: &PoolCounters) -> PoolCounters {
        PoolCounters {
            memoized: self.memoized - before.memoized,
            woken: self.woken - before.woken,
            replay_steps: self.replay_steps - before.replay_steps,
            busy_ns: self.busy_ns - before.busy_ns,
            park_ns: self.park_ns - before.park_ns,
        }
    }

    fn layers(&self, keys: u64) -> Vec<Layer> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            (
                "pool.memo_hit_frac".into(),
                ratio(self.memoized, self.memoized + self.woken),
                "ratio",
            ),
            (
                "pool.replay_steps_per_key".into(),
                ratio(self.replay_steps, keys),
                "count",
            ),
            (
                "pool.worker_busy_frac".into(),
                ratio(self.busy_ns, self.busy_ns + self.park_ns),
                "ratio",
            ),
        ]
    }
}
