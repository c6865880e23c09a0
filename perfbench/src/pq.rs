//! `pq_durable`: the §VI-C strict priority queue with a journal.
//!
//! `RimePriorityQueue` on `RimeConfig::small()` with a `MemJournalStore`
//! journal at the default checkpoint interval, driven by `PacketStream`
//! add/remove events at R = 1 (the Fig. 18 mix with a steady queue
//! length). Each add or remove is one op. Every pop is write → init →
//! extract → write, so the per-command executor path, journal appends
//! and checkpoints, and init rearm dominate while descents stay short.
//!
//! The in-memory journal is rotated (detached and re-attached on a fresh
//! store, which writes a new checkpoint) every `ROTATE` ops, the
//! equivalent of log compaction, so memory stays bounded on long runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use rime_apps::rimepq::RimePriorityQueue;
use rime_core::journal::scan;
use rime_core::{JournalConfig, JournalRecord, MemJournalStore, Region, RimeConfig, RimeDevice};
use rime_memristive::{Chip, Direction, KeyFormat, ParallelPolicy};
use rime_workloads::packets::{PacketEvent, PacketStream};

use crate::stats;
use crate::trace::{Spans, ROOT};
use crate::{Layer, Measured, Modeled, Workload};

const CAPACITY: u64 = 4096;
const INITIAL: usize = 2048;
/// Removes per generated `PacketStream` chunk (2 events each at R = 1).
const CHUNK_REMOVES: usize = 512;
const ROTATE: u64 = 2048;
/// One journal period, so the peak RSS read after the prefix includes a
/// full store.
const PREFIX_OPS: u64 = ROTATE;
const WARMUP_OPS: u64 = 256;
/// Ops replayed per variant in the traced run's layer probes.
const REPLAY_OPS: u64 = 2048;

/// The `PacketStream` events of stream `stream`, generated chunk by chunk.
struct Events {
    seed: u64,
    stream: u64,
    chunk: u64,
    buf: Vec<PacketEvent>,
    pos: usize,
}

impl Events {
    fn new(seed: u64, stream: u64) -> Events {
        Events {
            seed,
            stream,
            chunk: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next_event(&mut self) -> PacketEvent {
        if self.pos == self.buf.len() {
            let seed = self.seed ^ (self.stream << 48) ^ self.chunk.wrapping_mul(0x9e37_79b9);
            self.buf = PacketStream::generate(0, CHUNK_REMOVES, 1, seed).events;
            self.chunk += 1;
            self.pos = 0;
        }
        self.pos += 1;
        match self.buf[self.pos - 1] {
            // u64::MAX is the queue's empty-slot sentinel.
            PacketEvent::Add(k) => PacketEvent::Add(k >> 1),
            PacketEvent::Remove => PacketEvent::Remove,
        }
    }
}

/// A queue, its device and its `BinaryHeap` model.
struct Queue {
    dev: RimeDevice,
    pq: RimePriorityQueue,
    model: BinaryHeap<Reverse<u64>>,
    store: Option<MemJournalStore>,
}

impl Queue {
    fn new(seed: u64, journaled: bool) -> Queue {
        let dev = RimeDevice::new(RimeConfig::small());
        let mut pq = RimePriorityQueue::new(&dev, CAPACITY).expect("queue fits the device");
        let mut model = BinaryHeap::new();
        for k in PacketStream::generate(INITIAL, 0, 1, seed).initial {
            pq.push(&dev, k >> 1).expect("initial push");
            model.push(Reverse(k >> 1));
        }
        let mut q = Queue {
            dev,
            pq,
            model,
            store: None,
        };
        if journaled {
            q.rotate();
        }
        q
    }

    /// The queue's region (the only allocation on its device).
    fn region(&self) -> Region {
        self.dev.regions()[0]
    }

    /// Attaches a fresh journal store (detaching the previous one).
    fn rotate(&mut self) {
        self.dev.detach_journal();
        let store = MemJournalStore::new();
        self.dev
            .attach_journal(Box::new(store.clone()), JournalConfig::default())
            .expect("attach an in-memory journal");
        self.store = Some(store);
    }

    /// Runs one event; returns whether its result matched the model.
    fn apply(&mut self, event: PacketEvent) -> bool {
        match event {
            PacketEvent::Add(k) => {
                self.pq
                    .push(&self.dev, k)
                    .expect("push into a non-full queue");
                self.model.push(Reverse(k));
                true
            }
            PacketEvent::Remove => {
                let got = self.pq.pop_min(&self.dev).expect("pop");
                got == self.model.pop().map(|Reverse(k)| k)
            }
        }
    }
}

pub struct Pq {
    q: Queue,
    events: Events,
    next: u64,
    seed: u64,
}

impl Pq {
    pub fn setup(seed: u64) -> Pq {
        let mut q = Queue::new(seed, true);
        let mut warm = Events::new(seed, 1);
        for _ in 0..WARMUP_OPS {
            assert!(q.apply(warm.next_event()), "warm-up pop matches the model");
        }
        Pq {
            q,
            events: Events::new(seed, 0),
            next: 0,
            seed,
        }
    }

    fn step(&mut self, spans: Option<&mut Spans>) -> bool {
        if self.next > 0 && self.next.is_multiple_of(ROTATE) {
            self.q.rotate();
        }
        let i = self.next;
        self.next += 1;
        let event = self.events.next_event();
        match spans {
            None => self.q.apply(event),
            Some(s) => {
                let name = if matches!(event, PacketEvent::Add(_)) {
                    "app.push"
                } else {
                    "app.pop"
                };
                let q = &mut self.q;
                s.wrap(name, ROOT, i, || q.apply(event))
            }
        }
    }
}

impl Workload for Pq {
    fn prefix(&mut self) -> Option<Modeled> {
        // The prefix fills exactly one fresh store.
        self.q.rotate();
        self.q.dev.reset_counters();
        let committed = self.q.dev.journal_committed().unwrap_or(0);
        for _ in 0..PREFIX_OPS {
            assert!(self.step(None), "prefix pops match the model");
        }
        let peak_rss_mb = crate::peak_rss_mb();
        let commands = self.q.dev.journal_committed().unwrap_or(0) - committed;
        let (bytes, checkpoints) = journal_stats(self.q.store.as_ref().expect("journaled"));
        let c = self.q.dev.counters();
        let keys = c.extractions.max(1) as f64;
        let ops = PREFIX_OPS as f64;
        Some(Modeled {
            peak_rss_mb,
            ns_per_key: self.q.dev.modeled_busy_ns() / keys,
            nj_per_key: self.q.dev.modeled_energy_nj() / keys,
            counts: vec![
                ("chip.steps_per_key", c.column_search_steps as f64 / keys),
                (
                    "chip.mat_searches_per_key",
                    c.mat_column_searches as f64 / keys,
                ),
                ("chip.row_writes_per_op", c.row_writes as f64 / ops),
                ("cmd.commands_per_op", commands as f64 / ops),
                ("journal.bytes_per_op", bytes as f64 / ops),
                ("journal.checkpoints_per_op", checkpoints as f64 / ops),
            ],
        })
    }

    fn measure(&mut self, seconds: f64, mut spans: Option<&mut Spans>) -> Measured {
        let budget = Duration::from_secs_f64(seconds);
        let steps_before = self.q.dev.counters().column_search_steps;
        let mut lat_us = Vec::new();
        let mut end_s = Vec::new();
        let mut wrong = 0u64;
        let start = Instant::now();
        // Whole add/remove pairs, so both kinds weigh the same.
        while start.elapsed() < budget || !self.next.is_multiple_of(2) {
            let t = Instant::now();
            let ok = self.step(spans.as_deref_mut());
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            end_s.push(start.elapsed().as_secs_f64());
            wrong += u64::from(!ok);
        }
        let steps = self.q.dev.counters().column_search_steps - steps_before;
        // A round is one add and one remove (R = 1).
        let ops_per_s = stats::median_rate(&end_s, 2, crate::RATE_CHUNKS);
        Measured {
            attempted: lat_us.len() as u64,
            failed: wrong,
            wrong,
            ops_per_s,
            host_ns_per_event: crate::ns_per_event(lat_us.len(), ops_per_s, steps),
            lat_us,
            lat_chunks: 1,
            extra: vec![],
            model: None,
        }
    }

    fn layers(&mut self, seconds: f64, spans: &Spans) -> Vec<Layer> {
        let mut out: Vec<Layer> = Vec::new();
        let keys = self
            .q
            .dev
            .read::<u64>(self.q.region(), 0, CAPACITY)
            .expect("read the queue region");
        let (sense_ns, exclude_ns) =
            crate::array_probe(&keys, Duration::from_secs_f64(seconds / 20.0));
        out.push(("array.sense_ns".into(), sense_ns, "ns"));
        out.push(("array.exclude_ns".into(), exclude_ns, "ns"));
        out.push((
            "app.push_us".into(),
            stats::median(&spans.durations_ns("app.push")) / 1e3,
            "us",
        ));
        out.push((
            "app.pop_us".into(),
            stats::median(&spans.durations_ns("app.pop")) / 1e3,
            "us",
        ));

        // The same op stream with and without the journal.
        let run = |journaled: bool| {
            let mut q = Queue::new(self.seed, journaled);
            let mut events = Events::new(self.seed, 2);
            let start = Instant::now();
            for i in 0..REPLAY_OPS {
                if journaled && i.is_multiple_of(ROTATE) {
                    q.rotate();
                }
                assert!(
                    q.apply(events.next_event()),
                    "replayed pop matches the model"
                );
            }
            start.elapsed().as_secs_f64()
        };
        let with = run(true);
        let without = run(false);
        out.push(("journal.share".into(), 1.0 - without / with, "ratio"));

        // One pop's commands issued directly (as `RimePriorityQueue::pop_min`
        // issues them), then the same init + extract against a `Chip`.
        let q = Queue::new(self.seed, true);
        let region = q.region();
        let call = |name: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            (name, t.elapsed().as_secs_f64() * 1e6)
        };
        let mut times: Vec<(&str, f64)> = Vec::new();
        let mut events = Events::new(self.seed, 2);
        let mut free: Vec<u64> = (INITIAL as u64..CAPACITY).collect();
        for _ in 0..REPLAY_OPS / 2 {
            match events.next_event() {
                PacketEvent::Add(k) => {
                    let slot = free.pop().expect("replay never fills the queue");
                    times.push(call("write", &mut || {
                        q.dev.write(region, slot, &[k]).expect("write")
                    }));
                }
                PacketEvent::Remove => {
                    times.push(call("init", &mut || {
                        q.dev.init_all::<u64>(region).expect("init")
                    }));
                    let mut hit = None;
                    times.push(call("extract", &mut || {
                        hit = q.dev.rime_min::<u64>(region).expect("extract")
                    }));
                    let (slot, _) = hit.expect("non-empty queue");
                    let local = slot - region.start();
                    times.push(call("write", &mut || {
                        q.dev
                            .write(region, local, &[rime_apps::rimepq::EMPTY])
                            .expect("write")
                    }));
                    free.push(local);
                }
            }
        }
        let p50 = |kind: &str| {
            let v: Vec<f64> = times
                .iter()
                .filter(|(n, _)| *n == kind)
                .map(|t| t.1)
                .collect();
            stats::median(&v)
        };
        for kind in ["write", "init", "extract"] {
            out.push((format!("cmd.call_us.{kind}"), p50(kind), "us"));
        }
        out.extend(chip_replay(&q.dev, region, p50("init") + p50("extract")));
        out
    }
}

/// Replays a pop's init + extract on a `Chip` holding the queue's region
/// (under `Auto` and `Sequential`): `chip.init_us`, `pool.vs_seq`, and
/// `cmd.overhead_frac` against `device_us`, the device's init + extract.
fn chip_replay(dev: &RimeDevice, region: Region, device_us: f64) -> Vec<Layer> {
    let raw = dev
        .read::<u64>(region, 0, region.len())
        .expect("read the queue region");
    let mut chip = Chip::new(RimeConfig::small().chip_geometry);
    chip.store_keys(0, &raw, KeyFormat::UNSIGNED64)
        .expect("keys fit one chip");
    let mut time = |policy: ParallelPolicy| {
        chip.set_parallel_policy(policy);
        let (mut init, mut extract) = (Vec::new(), Vec::new());
        for _ in 0..256 {
            let t = Instant::now();
            chip.init_range(0, region.len(), KeyFormat::UNSIGNED64)
                .expect("init");
            init.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            std::hint::black_box(chip.extract(Direction::Min).expect("extract"));
            extract.push(t.elapsed().as_secs_f64() * 1e6);
        }
        (stats::median(&init), stats::median(&extract))
    };
    let (init_auto, extract_auto) = time(ParallelPolicy::Auto);
    let (init_seq, extract_seq) = time(ParallelPolicy::Sequential);
    vec![
        ("chip.init_us".into(), init_auto, "us"),
        ("chip.extract_us".into(), extract_auto, "us"),
        (
            "pool.vs_seq".into(),
            (init_seq + extract_seq) / (init_auto + extract_auto),
            "ratio",
        ),
        (
            "cmd.overhead_frac".into(),
            1.0 - (init_auto + extract_auto) / device_us,
            "ratio",
        ),
    ]
}

/// (bytes, checkpoints) in a journal store.
fn journal_stats(store: &MemJournalStore) -> (u64, u64) {
    let bytes = store.snapshot();
    let report = scan(&bytes).expect("the journal scans cleanly");
    let checkpoints = report
        .records
        .iter()
        .filter(|(_, r)| matches!(r, JournalRecord::Checkpoint { .. }))
        .count() as u64;
    (bytes.len() as u64, checkpoints)
}
