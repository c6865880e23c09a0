//! `service_mixed`: one generator thread drives 8 `SessionHandle`s on a
//! `RankingService` and reaps as it goes.
//!
//! Every tenant repeats a 10-request cycle: six single-key `Extract`s on
//! a shared region (fusable across tenants), two `ExtractBatch`es on its
//! own region, and a `Write` + `Init` refill of that region (fusion
//! barriers). Tenant 0 swaps one shared extract for an `Init` of the
//! shared region, so the shared ranking restarts every cycle and never
//! runs dry.
//!
//! The gated metrics come from a closed loop in manual mode: rounds of
//! `WINDOW` requests per tenant, dispatched by `process_pending` passes on
//! the generator thread and reaped (`ops_per_s`, and submit-to-reap
//! `p50_us`/`p99_us`). Then, for the record only, a twin with a started
//! dispatcher thread runs a saturation phase and Poisson arrivals at two
//! fixed absolute rates (`NOMINAL_RPS`, `HIGH_RPS`, below capacity on a
//! 2-core host), timed from each request's intended send time. On a
//! 2-vCPU virtual machine the started service's throughput and tail
//! latency swing by 35-60 % between runs of the same code (thread
//! placement and halted-CPU wake-ups), wider than any bound a gate may
//! fix.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rime_core::{Command, FlightConfig, MetricValue, Outcome, Region, RimeConfig};
use rime_memristive::{Direction, KeyFormat};
use rime_service::{RankingService, ServiceConfig, SessionHandle, SubmitError};
use rime_workloads::packets::ArrivalProcess;

use crate::stats;
use crate::trace::{Spans, ROOT};
use crate::{Layer, Measured, Modeled, Rng, Workload};

const TENANTS: usize = 8;
const SHARED_LEN: u64 = 4096;
const OWN_LEN: u64 = 256;
const CYCLE: u64 = 10;
/// Outstanding requests per tenant in the saturation phase.
const WINDOW: usize = 8;
/// Offered loads of the open-loop phases (requests per second).
pub const NOMINAL_RPS: u64 = 10_000;
pub const HIGH_RPS: u64 = 25_000;
const PREFIX_CYCLES: u64 = 4;
/// Latency percentiles are the median over this many consecutive runs
/// of requests (each ≥ 1000 requests at the nominal rate). A host stall
/// of a few ms lifts the p99 of the run it falls in; with runs of a few
/// thousand requests most runs hold none, so the median run's p99 is the
/// program's own tail.
const LAT_CHUNKS: usize = 15;
/// Length of each record-only phase on the started twin.
const RECORD_PHASE_S: f64 = 1.5;
const FORMAT: KeyFormat = KeyFormat::UNSIGNED64;

/// What a completion must carry.
#[derive(Debug)]
enum Expect {
    Done,
    /// A hit from the shared region: checked against its stored key, and
    /// its rank counted for the prefix check.
    Shared,
    Hits(Vec<(u64, u64)>),
}

/// One tenant's request generator and oracle.
struct Tenant {
    id: usize,
    seed: u64,
    region: Region,
    n: u64,
    /// Keys written by the last `Write`, and the sorted (slot, key) order
    /// the last `Init` armed, with the next position to extract.
    written: Vec<u64>,
    armed: Vec<(u64, u64)>,
    pos: usize,
    /// Outstanding requests: (ordinal, intended send time in ns from the
    /// phase start, expected outcome).
    pending: VecDeque<(u64, u64, Expect)>,
}

impl Tenant {
    fn refill_keys(&self, cycle: u64) -> Vec<u64> {
        let mut rng = Rng::new(self.seed, (self.id as u64) << 40 | cycle);
        // Few distinct values, so ties exercise stable ordering.
        (0..OWN_LEN)
            .map(|_| rng.below(64) << 40 | rng.below(4))
            .collect()
    }

    fn arm(&mut self) {
        let start = self.region.start();
        let mut armed: Vec<(u64, u64)> = self
            .written
            .iter()
            .enumerate()
            .map(|(i, &k)| (start + i as u64, k))
            .collect();
        armed.sort_by_key(|&(slot, key)| (key, slot));
        self.armed = armed;
        self.pos = 0;
    }

    /// The next request of this tenant and its expected outcome.
    fn next_request(&mut self, shared: Region) -> (Command<'static>, Expect) {
        let i = self.n;
        self.n += 1;
        let (cycle, step) = (i / CYCLE, i % CYCLE);
        match step {
            2 | 5 => {
                let k =
                    8 + Rng::new(self.seed ^ 0xb47c, (self.id as u64) << 40 | i).below(25) as usize;
                let hits = self.armed[self.pos..self.pos + k].to_vec();
                self.pos += k;
                let cmd = Command::ExtractBatch {
                    region: self.region,
                    format: FORMAT,
                    direction: Direction::Min,
                    k,
                };
                (cmd, Expect::Hits(hits))
            }
            8 => {
                self.written = self.refill_keys(cycle + 1);
                let cmd = Command::Write {
                    region: self.region,
                    offset: 0,
                    raw: Cow::Owned(self.written.clone()),
                    format: FORMAT,
                };
                (cmd, Expect::Done)
            }
            9 => {
                self.arm();
                let cmd = Command::Init {
                    region: self.region,
                    offset: 0,
                    len: OWN_LEN,
                    format: FORMAT,
                };
                (cmd, Expect::Done)
            }
            7 if self.id == 0 => {
                let cmd = Command::Init {
                    region: shared,
                    offset: 0,
                    len: SHARED_LEN,
                    format: FORMAT,
                };
                (cmd, Expect::Done)
            }
            _ => {
                let cmd = Command::Extract {
                    region: shared,
                    format: FORMAT,
                    direction: Direction::Min,
                };
                (cmd, Expect::Shared)
            }
        }
    }
}

/// Checks for the shared region: each hit must carry its slot's stored
/// key, and every ranking epoch (between `Init`s) extracts a prefix of
/// the sorted order, so per-rank extraction counts never increase with
/// rank.
struct SharedOracle {
    region: Region,
    keys: Vec<u64>,
    rank: Vec<u32>,
    counts: Vec<u64>,
}

impl SharedOracle {
    fn new(region: Region, keys: Vec<u64>) -> SharedOracle {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let mut rank = vec![0u32; keys.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as u32;
        }
        SharedOracle {
            region,
            keys,
            rank,
            counts: vec![0; SHARED_LEN as usize],
        }
    }

    fn hit(&mut self, hit: Option<(u64, u64)>) -> bool {
        let Some((slot, raw)) = hit else { return false };
        let Some(local) = slot
            .checked_sub(self.region.start())
            .filter(|&l| l < SHARED_LEN)
        else {
            return false;
        };
        self.counts[self.rank[local as usize] as usize] += 1;
        self.keys[local as usize] == raw
    }

    /// Ranks whose count exceeds the count of the rank before them.
    fn violations(&self) -> u64 {
        self.counts.windows(2).filter(|w| w[1] > w[0]).count() as u64
    }
}

pub struct Service {
    seed: u64,
    svc: RankingService,
    handles: Vec<SessionHandle>,
    tenants: Vec<Tenant>,
    shared: SharedOracle,
    shared_region: Region,
    /// Wrong results seen outside `measure` (the prefix).
    wrong_prefix: u64,
}

fn service_with(
    seed: u64,
    flight: bool,
) -> (
    RankingService,
    Vec<SessionHandle>,
    Vec<Tenant>,
    SharedOracle,
) {
    let svc = if flight {
        let exec = std::sync::Arc::new(rime_core::Executor::new(RimeConfig::small()));
        RankingService::with_flight(exec, ServiceConfig::default(), FlightConfig::default())
    } else {
        RankingService::with_device(RimeConfig::small(), ServiceConfig::default())
    };
    let handles: Vec<SessionHandle> = (0..TENANTS).map(|_| svc.session()).collect();
    let exec = svc.executor();
    let alloc = |len| match exec.execute(Command::Alloc { len }).expect("alloc") {
        Outcome::Region(r) => r,
        other => unreachable!("alloc returned {other:?}"),
    };
    let shared_region = alloc(SHARED_LEN);
    let mut rng = Rng::new(seed, 0x5a);
    let shared_keys: Vec<u64> = (0..SHARED_LEN).map(|_| rng.next_u64() >> 1).collect();
    let load = |region: Region, keys: &[u64], len: u64| {
        exec.execute(Command::Write {
            region,
            offset: 0,
            raw: Cow::Borrowed(keys),
            format: FORMAT,
        })
        .expect("write");
        exec.execute(Command::Init {
            region,
            offset: 0,
            len,
            format: FORMAT,
        })
        .expect("init");
    };
    load(shared_region, &shared_keys, SHARED_LEN);
    let mut tenants = Vec::new();
    for id in 0..TENANTS {
        let mut t = Tenant {
            id,
            seed,
            region: alloc(OWN_LEN),
            n: 0,
            written: Vec::new(),
            armed: Vec::new(),
            pos: 0,
            pending: VecDeque::new(),
        };
        t.written = t.refill_keys(0);
        load(t.region, &t.written, OWN_LEN);
        t.arm();
        tenants.push(t);
    }
    (
        svc,
        handles,
        tenants,
        SharedOracle::new(shared_region, shared_keys),
    )
}

/// Outcome of one completion against its expectation.
fn check(
    shared: &mut SharedOracle,
    expect: Expect,
    result: &Result<Outcome, rime_core::RimeError>,
) -> bool {
    match (expect, result) {
        (Expect::Done, Ok(Outcome::Done)) => true,
        (Expect::Shared, Ok(Outcome::Hit(hit))) => shared.hit(*hit),
        (Expect::Hits(want), Ok(Outcome::Hits(got))) => stats::mismatches(got, &want) == 0,
        _ => false,
    }
}

/// Per-phase tallies.
#[derive(Default)]
struct Phase {
    submitted: u64,
    busy: u64,
    completed: u64,
    wrong: u64,
    /// Per completion: latency from intended send (µs) and reap time (s).
    lat_us: Vec<f64>,
    done_s: Vec<f64>,
    /// Open loop: (intended, actual) send times, ns from phase start.
    sends: Vec<(u64, u64)>,
    elapsed_s: f64,
}

impl Service {
    pub fn setup(seed: u64) -> Service {
        let (svc, handles, tenants, shared) = service_with(seed, false);
        let shared_region = shared.region;
        Service {
            seed,
            svc,
            handles,
            tenants,
            shared,
            shared_region,
            wrong_prefix: 0,
        }
    }

    /// Submits tenant `t`'s next request. A `Busy` refusal is counted and
    /// retried after reaping: the request stays due at `intended_ns`, so
    /// the wait shows in its latency and in the generator's lateness.
    fn submit(
        &mut self,
        t: usize,
        intended_ns: u64,
        origin: Instant,
        spans: &mut Option<&mut Spans>,
        phase: &mut Phase,
    ) {
        let (cmd, expect) = self.tenants[t].next_request(self.shared_region);
        phase.submitted += 1;
        loop {
            let res = match spans.as_deref_mut() {
                None => self.handles[t].submit(cmd.clone()),
                Some(s) => {
                    let h = &self.handles[t];
                    s.wrap("service.submit", ROOT, t as u64, || h.submit(cmd.clone()))
                }
            };
            match res {
                Ok(ordinal) => {
                    self.tenants[t]
                        .pending
                        .push_back((ordinal, intended_ns, expect));
                    return;
                }
                Err(SubmitError::Busy) => {
                    phase.busy += 1;
                    if self.reap(origin, spans, phase) == 0 {
                        std::hint::spin_loop();
                    }
                }
                Err(SubmitError::Closed) => {
                    unreachable!("the service outlives the workload's phases")
                }
            }
        }
    }

    /// Reaps every tenant once; returns completions reaped.
    fn reap(
        &mut self,
        origin: Instant,
        spans: &mut Option<&mut Spans>,
        phase: &mut Phase,
    ) -> usize {
        let mut n = 0;
        for t in 0..TENANTS {
            let t0 = Instant::now();
            let done = self.handles[t].reap(64);
            if done.is_empty() {
                continue;
            }
            let now_ns = origin.elapsed().as_nanos() as u64;
            if let Some(s) = spans.as_deref_mut() {
                s.push_interval("service.reap", ROOT, t as u64, t0, Instant::now());
            }
            for c in done {
                let tenant = &mut self.tenants[t];
                let (ordinal, intended, expect) = tenant
                    .pending
                    .pop_front()
                    .expect("a completion answers a submission");
                let ok = ordinal == c.ordinal && check(&mut self.shared, expect, &c.result);
                phase.wrong += u64::from(!ok);
                phase.completed += 1;
                phase.done_s.push(now_ns as f64 / 1e9);
                phase
                    .lat_us
                    .push(now_ns.saturating_sub(intended) as f64 / 1e3);
                n += 1;
            }
        }
        n
    }

    fn outstanding(&self) -> usize {
        self.tenants.iter().map(|t| t.pending.len()).sum()
    }

    fn drain(&mut self, origin: Instant, spans: &mut Option<&mut Spans>, phase: &mut Phase) {
        while self.outstanding() > 0 {
            if self.reap(origin, spans, phase) == 0 {
                std::hint::spin_loop();
            }
        }
    }

    /// The gated closed loop: rounds of `WINDOW` requests per tenant, each
    /// dispatched by `process_pending` passes on this thread and reaped.
    /// With no dispatcher thread, what a pass drains and fuses depends only
    /// on the seed, not on thread timing.
    fn manual_loop(&mut self, seconds: f64, spans: &mut Option<&mut Spans>) -> Phase {
        let mut phase = Phase::default();
        let budget = Duration::from_secs_f64(seconds);
        let origin = Instant::now();
        while origin.elapsed() < budget {
            for t in 0..TENANTS {
                for _ in 0..WINDOW {
                    let now = origin.elapsed().as_nanos() as u64;
                    self.submit(t, now, origin, spans, &mut phase);
                }
            }
            while self.outstanding() > 0 {
                match spans.as_deref_mut() {
                    None => self.svc.process_pending(),
                    Some(s) => s.wrap("service.pass", ROOT, 0, || self.svc.process_pending()),
                };
                self.reap(origin, spans, &mut phase);
            }
        }
        phase
    }

    fn saturate(&mut self, seconds: f64, spans: &mut Option<&mut Spans>) -> Phase {
        let mut phase = Phase::default();
        let budget = Duration::from_secs_f64(seconds);
        let origin = Instant::now();
        while origin.elapsed() < budget {
            for t in 0..TENANTS {
                while self.tenants[t].pending.len() < WINDOW {
                    let now = origin.elapsed().as_nanos() as u64;
                    self.submit(t, now, origin, spans, &mut phase);
                }
            }
            if self.reap(origin, spans, &mut phase) == 0 {
                std::hint::spin_loop();
            }
        }
        phase.elapsed_s = origin.elapsed().as_secs_f64();
        let in_window = phase.done_s.len();
        self.drain(origin, spans, &mut phase);
        // Throughput and latency count what completed inside the window.
        phase.done_s.truncate(in_window);
        phase.lat_us.truncate(in_window);
        phase
    }

    fn open_loop(&mut self, rps: u64, seconds: f64, spans: &mut Option<&mut Spans>) -> Phase {
        let mut phase = Phase::default();
        let n = (rps as f64 * seconds) as usize;
        let schedule = ArrivalProcess::Poisson {
            mean_gap_ns: 1_000_000_000 / rps,
        }
        .schedule(n, self.seed ^ rps);
        let origin = Instant::now();
        let mut j = 0;
        while j < n {
            let now = origin.elapsed().as_nanos() as u64;
            let mut sent = false;
            while j < n && schedule[j] <= now {
                let t = j % TENANTS;
                self.submit(t, schedule[j], origin, spans, &mut phase);
                phase
                    .sends
                    .push((schedule[j], origin.elapsed().as_nanos() as u64));
                j += 1;
                sent = true;
            }
            if self.reap(origin, spans, &mut phase) == 0 && !sent {
                std::hint::spin_loop();
            }
        }
        self.drain(origin, spans, &mut phase);
        phase.elapsed_s = origin.elapsed().as_secs_f64();
        phase
    }

    fn counter(&self, name: &str) -> u64 {
        crate::counter(&self.svc.executor().metrics_snapshot(), name)
    }
}

impl Workload for Service {
    fn prefix(&mut self) -> Option<Modeled> {
        // Manual mode: each pass sees the same queued requests, so
        // draining, fusion and the counters are deterministic.
        let exec = self.svc.executor();
        exec.reset_counters();
        let service_counts = |w: &Service| {
            [
                "rime_commands_total",
                "rime_service_passes_total",
                "rime_service_drained_total",
                "rime_service_fused_batches_total",
                "rime_service_fused_commands_total",
            ]
            .map(|name| w.counter(name))
        };
        let before = service_counts(self);
        let mut keys = 0u64;
        let mut none = None;
        let mut phase = Phase::default();
        for _ in 0..PREFIX_CYCLES {
            for t in 0..TENANTS {
                for _ in 0..CYCLE {
                    self.submit(t, 0, Instant::now(), &mut none, &mut phase);
                }
            }
            while self.svc.process_pending() > 0 {}
            for t in 0..TENANTS {
                for c in self.handles[t].reap(usize::MAX) {
                    keys += match &c.result {
                        Ok(Outcome::Hit(Some(_))) => 1,
                        Ok(Outcome::Hits(h)) => h.len() as u64,
                        _ => 0,
                    };
                    let (ordinal, _, expect) =
                        self.tenants[t].pending.pop_front().expect("pending");
                    let ok = ordinal == c.ordinal && check(&mut self.shared, expect, &c.result);
                    self.wrong_prefix += u64::from(!ok);
                }
            }
        }
        let after = service_counts(self);
        let [commands, passes, drained, fused_batches, fused] =
            std::array::from_fn(|i| (after[i] - before[i]) as f64);
        let exec = self.svc.executor();
        let c = exec.counters();
        let keys_f = keys.max(1) as f64;
        let requests = (PREFIX_CYCLES * CYCLE * TENANTS as u64) as f64;
        // Single-key extracts on the shared region, the fusable requests.
        let extracts = (PREFIX_CYCLES * TENANTS as u64 * 6 - PREFIX_CYCLES) as f64;
        Some(Modeled {
            peak_rss_mb: crate::peak_rss_mb(),
            ns_per_key: exec.modeled_busy_ns() / keys_f,
            nj_per_key: exec.modeled_energy_nj() / keys_f,
            counts: vec![
                ("chip.steps_per_key", c.column_search_steps as f64 / keys_f),
                (
                    "chip.mat_searches_per_key",
                    c.mat_column_searches as f64 / keys_f,
                ),
                ("chip.row_writes_per_op", c.row_writes as f64 / requests),
                ("cmd.commands_per_op", commands / requests),
                ("service.drained_per_pass", drained / passes),
                ("service.fused_per_batch", fused / fused_batches),
                ("service.fusion_frac", fused / extracts),
            ],
        })
    }

    fn measure(&mut self, seconds: f64, mut spans: Option<&mut Spans>) -> Measured {
        let steps_before = self.svc.executor().counters().column_search_steps;
        let manual = self.manual_loop(seconds, &mut spans);
        let steps = self.svc.executor().counters().column_search_steps - steps_before;
        let wrong =
            manual.wrong + self.shared.violations() + std::mem::take(&mut self.wrong_prefix);
        let ops_per_s = stats::median_rate(&manual.done_s, TENANTS * WINDOW, crate::RATE_CHUNKS);
        Measured {
            attempted: manual.submitted,
            failed: wrong,
            wrong,
            ops_per_s,
            lat_chunks: LAT_CHUNKS,
            host_ns_per_event: crate::ns_per_event(manual.done_s.len(), ops_per_s, steps),
            extra: vec![],
            lat_us: manual.lat_us,
            model: None,
        }
    }

    /// The record-only phases on a started twin (see the module docs).
    fn record(&mut self) -> Measured {
        let mut live = Service::setup(self.seed);
        live.svc.start();
        let mut none = None;
        let sat = live.saturate(RECORD_PHASE_S, &mut none);
        let nominal = live.open_loop(NOMINAL_RPS, RECORD_PHASE_S, &mut none);
        let high = live.open_loop(HIGH_RPS, RECORD_PHASE_S, &mut none);
        let phases = [&sat, &nominal, &high];
        let wrong = phases.iter().map(|p| p.wrong).sum::<u64>() + live.shared.violations();
        let refused: u64 = phases.iter().map(|p| p.busy).sum();
        let attempted: u64 = phases.iter().map(|p| p.submitted).sum();
        let (intended, actual): (Vec<u64>, Vec<u64>) = nominal.sends.iter().copied().unzip();
        let late_p99 =
            stats::percentile(&stats::lateness_ns(&intended, &actual), 99.0).unwrap_or(0.0) / 1e3;
        let pct = |lat: &[f64], p| stats::chunked_percentile(lat, LAT_CHUNKS, p);
        let p99_nominal = pct(&nominal.lat_us, 99.0);
        Measured {
            attempted,
            failed: wrong,
            wrong,
            extra: vec![
                (
                    "started_ops_per_s".into(),
                    stats::median_rate(&sat.done_s, 1, crate::RATE_CHUNKS),
                    "1/s",
                ),
                ("p50_us_nominal".into(), pct(&nominal.lat_us, 50.0), "us"),
                ("p99_us_nominal".into(), p99_nominal, "us"),
                ("p50_us_high".into(), pct(&high.lat_us, 50.0), "us"),
                ("p99_us_high".into(), pct(&high.lat_us, 99.0), "us"),
                ("nominal_rps".into(), NOMINAL_RPS as f64, "1/s"),
                ("high_rps".into(), HIGH_RPS as f64, "1/s"),
                (
                    "nominal_achieved_rps".into(),
                    nominal.completed as f64 / nominal.elapsed_s,
                    "1/s",
                ),
                (
                    "high_achieved_rps".into(),
                    high.completed as f64 / high.elapsed_s,
                    "1/s",
                ),
                ("harness.gen_late_p99_us".into(), late_p99, "us"),
                (
                    "harness.gen_late_p99_frac".into(),
                    late_p99 / p99_nominal.max(f64::MIN_POSITIVE),
                    "ratio",
                ),
                (
                    "service.busy_frac".into(),
                    refused as f64 / attempted.max(1) as f64,
                    "ratio",
                ),
            ],
            ..Measured::default()
        }
    }

    fn layers(&mut self, seconds: f64, spans: &Spans) -> Vec<Layer> {
        let mut out: Vec<Layer> = Vec::new();
        let (sense_ns, exclude_ns) =
            crate::array_probe(&self.shared.keys, Duration::from_secs_f64(seconds / 20.0));
        out.push(("array.sense_ns".into(), sense_ns, "ns"));
        out.push(("array.exclude_ns".into(), exclude_ns, "ns"));
        out.push((
            "service.submit_ns".into(),
            stats::median(&spans.durations_ns("service.submit")),
            "ns",
        ));
        out.push((
            "service.reap_ns".into(),
            stats::median(&spans.durations_ns("service.reap")),
            "ns",
        ));
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

        // Queueing vs execution per request, from the service's own
        // attribution on a traced twin driven at the nominal rate.
        let (svc, handles, tenants, shared) = service_with(self.seed, true);
        let shared_region = shared.region;
        let mut twin = Service {
            seed: self.seed,
            svc,
            handles,
            tenants,
            shared,
            shared_region,
            wrong_prefix: 0,
        };
        twin.svc.start();
        let mut none = None;
        twin.open_loop(NOMINAL_RPS, seconds / 6.0, &mut none);
        let snap = twin.svc.executor().metrics_snapshot();
        let mut queue_ns = 0u64;
        let mut exec_ns = 0u64;
        for m in snap
            .metrics
            .iter()
            .filter(|m| m.name == "rime_service_attribution_ns")
        {
            let phase = m
                .labels
                .iter()
                .find(|(k, _)| k == "phase")
                .map_or("", |(_, v)| v.as_str());
            if let MetricValue::Histogram(h) = &m.value {
                if phase == "dispatch" {
                    exec_ns += h.sum;
                } else {
                    queue_ns += h.sum;
                }
            }
        }
        out.push((
            "service.queue_frac".into(),
            ratio(queue_ns, queue_ns + exec_ns),
            "ratio",
        ));
        let requests = twin.tenants.iter().map(|t| t.n).sum::<u64>().max(1) as f64;
        out.push((
            "service.queue_us".into(),
            queue_ns as f64 / requests / 1e3,
            "us",
        ));
        out.push((
            "service.exec_us".into(),
            exec_ns as f64 / requests / 1e3,
            "us",
        ));
        out
    }
}
