//! Persistent mat-shard worker pool — the [`crate::ParallelPolicy::Threads`]
//! scheduler for the column search (§IV-B.2, Fig. 9).
//!
//! In hardware every mat is always powered and listening: the chip
//! controller broadcasts one step descriptor per column search and the
//! per-mat signals meet at fixed wire-OR nodes on the way back up the
//! H-tree. [`MatPool`] mirrors that shape with long-lived shard
//! executors that each own a fixed contiguous shard of the range's mats
//! for the duration of an extraction *session* (lease → descents →
//! unlease). The controller drives them by broadcasting epoch-tagged
//! requests over per-worker channels. The controller itself is shard
//! executor 0 (**leader participation**): instead of blocking in `recv`
//! while one more worker wakes, it runs shard 0 inline between the
//! broadcast and the fold.
//!
//! # Protocol
//!
//! - **Lease** moves the session's mats into the workers (the crate
//!   forbids `unsafe`, so persistent threads cannot borrow chip state;
//!   moving the ~40-byte `Mat` headers is cheap — the heap storage never
//!   moves). Shards are contiguous and assigned in worker order.
//! - **Descend** ships one *whole bit-serial descent* in a single
//!   message. Each worker speculates the named mats of its shard
//!   (`descent::speculate`) and replies with their traces; the
//!   controller folds all the span's traces in mat order
//!   (`descent::fold`) — one round trip per key instead of one
//!   per bit. With a shared membership vector the request also
//!   re-latches the named mats' select windows first.
//! - **Trace memoization** (batch extraction): the controller keeps each
//!   mat's trace for the session. Clearing one winner's membership bit
//!   dirties exactly one mat, so later descents wake only the worker
//!   owning the previous winner's mat, and that worker re-speculates only
//!   that mat (see the `descent` module for why reuse is exact).
//! - **ReplaySuffix** re-runs named mats from a fold point when their
//!   traces cannot serve the fold (they bailed under the force-replay
//!   test knob); the controller ships the authoritative decision prefix.
//! - **Sense/Exclude** remain as single-step messages for incremental
//!   callers and the calibration pass.
//! - **Rearm** re-latches every shard's select windows from a shared
//!   membership bitmap. It is fire-and-forget: the per-worker channel is
//!   FIFO, so the next reply-bearing request doubles as its barrier.
//! - **Unlease** moves the mats back to the chip at session end.
//!
//! Every reply carries the epoch of the request that triggered it and
//! the controller asserts the match, so a protocol desync (a lost or
//! reordered reply) is loud, never silent corruption. Traces are folded
//! in mat order whatever the shard split, so hits *and every
//! [`crate::OpCounters`] field* are bit-identical to
//! [`crate::ParallelPolicy::Sequential`] at any worker count. The
//! differential suites assert exactly that.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::array::ColumnSignals;
use crate::bitmap::Bitmap;
use crate::descent::{self, exclude_mat, sense_mat, DescentOutcome, MatTrace, Prefix};
use crate::mat::Mat;
use crate::plan::SearchPlan;
use crate::probe::SharedProbe;

/// Requests broadcast (or targeted) from the chip controller to workers.
enum Request {
    /// Move a shard of the session's mats into the worker.
    /// Fire-and-forget (like [`Request::Rearm`]): the per-worker channel
    /// is FIFO, so the next reply-bearing request doubles as its
    /// barrier, and only reply-bearing requests carry epochs.
    Lease {
        /// Global mat index of the shard's first mat.
        base: usize,
        /// Key slots per mat (for select-window offsets).
        slots_per_mat: usize,
        /// Route through the row-major scalar oracle.
        scalar: bool,
        /// Accumulate per-request busy time for this session (set only
        /// when a probe is installed — the untimed path reads no clocks).
        timed: bool,
        mats: Vec<Option<Mat>>,
    },
    /// One column-search step: sense bit `pos` on every active mat.
    Sense { epoch: u64, pos: u16 },
    /// One exclusion step: latch the match vector for (`pos`, `keep`).
    Exclude { epoch: u64, pos: u16, keep: bool },
    /// Speculate the shard-local `mats` through a whole descent.
    /// `bail_at` is the force-replay test knob. `rearm`, when set,
    /// re-latches those mats' select windows from the membership vector
    /// first.
    Descend {
        epoch: u64,
        plan: SearchPlan,
        bail_at: Option<u16>,
        rearm: Option<Arc<Bitmap>>,
        mats: Vec<usize>,
    },
    /// Re-run the shard-local `mats` from `prefix.resume`
    /// ([`descent::replay`]).
    ReplaySuffix {
        epoch: u64,
        plan: SearchPlan,
        membership: Arc<Bitmap>,
        prefix: Prefix,
        survivors_negative: bool,
        mats: Vec<usize>,
    },
    /// Re-latch the shard's select windows from the membership vector.
    Rearm { membership: Arc<Bitmap> },
    /// Report the first selected row per mat in the shard.
    FirstSelected { epoch: u64 },
    /// Read the raw bits of row `slot` in shard-local mat `mat`.
    ReadSlot { epoch: u64, mat: usize, slot: u32 },
    /// Move the shard's mats back to the chip.
    Unlease { epoch: u64 },
}

/// Replies from a worker; each carries the epoch of its request.
enum Reply {
    Signals {
        epoch: u64,
        signals: ColumnSignals,
        active: u64,
    },
    Removed {
        epoch: u64,
        removed: u64,
    },
    Firsts {
        epoch: u64,
        firsts: Vec<Option<u32>>,
    },
    Raw {
        epoch: u64,
        raw: u64,
    },
    /// Traces of the requested mats, in request order.
    Traces {
        epoch: u64,
        traces: Vec<MatTrace>,
    },
    Mats {
        epoch: u64,
        mats: Vec<Option<Mat>>,
        /// Nanoseconds this worker spent processing requests during the
        /// session (0 when the session was untimed).
        busy_ns: u64,
    },
}

/// The mats a worker holds between lease and unlease.
struct Shard {
    base: usize,
    slots_per_mat: usize,
    scalar: bool,
    mats: Vec<Option<Mat>>,
}

impl Shard {
    /// Global slot of shard-local mat `i`'s first slot.
    fn window(&self, i: usize) -> usize {
        (self.base + i) * self.slots_per_mat
    }

    fn sense(&self, pos: u16) -> (ColumnSignals, u64) {
        let mut signals = ColumnSignals::default();
        let mut active = 0u64;
        for mat in self.mats.iter().flatten() {
            if mat.selected_count() > 0 {
                active += 1;
                signals.merge(sense_mat(mat, pos, self.scalar));
            }
        }
        (signals, active)
    }

    fn exclude(&mut self, pos: u16, keep: bool) -> u64 {
        let scalar = self.scalar;
        self.mats
            .iter_mut()
            .flatten()
            .filter(|mat| mat.selected_count() > 0)
            .map(|mat| exclude_mat(mat, pos, keep, scalar))
            .sum()
    }

    fn rearm(&mut self, membership: &Bitmap) {
        for i in 0..self.mats.len() {
            let window = self.window(i);
            if let Some(mat) = &mut self.mats[i] {
                mat.load_select_window(membership, window);
            }
        }
    }

    /// Speculates shard-local mat `i` (re-latched from `rearm` first when
    /// given).
    fn descend(
        &mut self,
        i: usize,
        plan: &SearchPlan,
        rearm: Option<&Bitmap>,
        bail_at: Option<u16>,
    ) -> MatTrace {
        let (window, scalar) = (self.window(i), self.scalar);
        let mat = self.mats[i]
            .as_mut()
            .expect("descended spans are materialized");
        if let Some(membership) = rearm {
            mat.load_select_window(membership, window);
        }
        descent::speculate(mat, scalar, plan, 0, false, bail_at)
    }

    fn replay(
        &mut self,
        i: usize,
        plan: &SearchPlan,
        membership: &Bitmap,
        prefix: Prefix,
        survivors_negative: bool,
    ) -> MatTrace {
        let (window, scalar) = (self.window(i), self.scalar);
        let mat = self.mats[i]
            .as_mut()
            .expect("replayed mats hold a selection");
        descent::replay(
            mat,
            scalar,
            plan,
            membership,
            window,
            prefix,
            survivors_negative,
        )
    }

    fn firsts(&self) -> Vec<Option<u32>> {
        self.mats
            .iter()
            .map(|m| m.as_ref().and_then(Mat::first_selected))
            .collect()
    }

    fn read_slot(&self, mat: usize, slot: u32) -> u64 {
        self.mats[mat]
            .as_ref()
            .expect("winning mat is materialized")
            .read_slot(slot)
    }
}

fn leased(shard: &mut Option<Shard>) -> &mut Shard {
    shard.as_mut().expect("pool protocol desync: no lease")
}

/// Worker body: block on the request channel until the pool drops it.
/// During a timed session the worker accumulates the wall time it spends
/// *processing* requests; the controller subtracts that from the session
/// duration to get the time the worker sat parked on its channel.
fn worker_loop(rx: Receiver<Request>, tx: Sender<Reply>) {
    let mut shard: Option<Shard> = None;
    let mut session_timed = false;
    let mut busy_ns = 0u64;
    while let Ok(req) = rx.recv() {
        let started = if session_timed {
            Some(Instant::now())
        } else {
            None
        };
        // A send failure means the pool is gone; exit quietly.
        let ok = match req {
            Request::Lease {
                base,
                slots_per_mat,
                scalar,
                timed,
                mats,
            } => {
                assert!(shard.is_none(), "pool protocol desync: double lease");
                session_timed = timed;
                busy_ns = 0;
                shard = Some(Shard {
                    base,
                    slots_per_mat,
                    scalar,
                    mats,
                });
                true
            }
            Request::Sense { epoch, pos } => {
                let (signals, active) = leased(&mut shard).sense(pos);
                tx.send(Reply::Signals {
                    epoch,
                    signals,
                    active,
                })
                .is_ok()
            }
            Request::Exclude { epoch, pos, keep } => {
                let removed = leased(&mut shard).exclude(pos, keep);
                tx.send(Reply::Removed { epoch, removed }).is_ok()
            }
            Request::Descend {
                epoch,
                plan,
                bail_at,
                rearm,
                mats,
            } => {
                let s = leased(&mut shard);
                let traces = mats
                    .iter()
                    .map(|&i| s.descend(i, &plan, rearm.as_deref(), bail_at))
                    .collect();
                // Drop before replying so the controller's
                // `Arc::make_mut` after the fold mutates in place.
                drop(rearm);
                tx.send(Reply::Traces { epoch, traces }).is_ok()
            }
            Request::ReplaySuffix {
                epoch,
                plan,
                membership,
                prefix,
                survivors_negative,
                mats,
            } => {
                let s = leased(&mut shard);
                let traces = mats
                    .iter()
                    .map(|&i| s.replay(i, &plan, &membership, prefix, survivors_negative))
                    .collect();
                drop(membership);
                tx.send(Reply::Traces { epoch, traces }).is_ok()
            }
            Request::Rearm { membership } => {
                // `membership` drops here: the worker keeps no reference,
                // so the controller's `Arc::make_mut` stays in place.
                leased(&mut shard).rearm(&membership);
                true
            }
            Request::FirstSelected { epoch } => {
                let firsts = leased(&mut shard).firsts();
                tx.send(Reply::Firsts { epoch, firsts }).is_ok()
            }
            Request::ReadSlot { epoch, mat, slot } => {
                let raw = leased(&mut shard).read_slot(mat, slot);
                tx.send(Reply::Raw { epoch, raw }).is_ok()
            }
            Request::Unlease { epoch } => {
                let s = shard.take().expect("pool protocol desync: no lease");
                session_timed = false;
                tx.send(Reply::Mats {
                    epoch,
                    mats: s.mats,
                    busy_ns,
                })
                .is_ok()
            }
        };
        if let Some(started) = started {
            busy_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        if !ok {
            return;
        }
    }
}

struct Worker {
    /// `None` only during shutdown (dropping the sender closes the
    /// channel, which is the worker's exit signal).
    tx: Option<Sender<Request>>,
    rx: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn send(&self, req: Request) {
        self.tx
            .as_ref()
            .expect("pool is shutting down")
            .send(req)
            .expect("pool worker exited unexpectedly");
    }

    fn recv(&self) -> Reply {
        self.rx.recv().expect("pool worker exited unexpectedly")
    }

    /// Receives the reply to a `Descend`/`ReplaySuffix` of `epoch`.
    fn recv_traces(&self, epoch: u64) -> Vec<MatTrace> {
        match self.recv() {
            Reply::Traces { epoch: e, traces } => {
                assert_eq!(e, epoch, "pool protocol desync");
                traces
            }
            _ => panic!("pool protocol desync: unexpected reply"),
        }
    }
}

/// While leased: how the span is sharded across the shard executors
/// (shard lengths in executor order) and, for timed sessions, when the
/// session opened.
struct LeaseInfo {
    shard_lens: Vec<usize>,
    /// Global mat index of the span's first mat.
    base: usize,
    /// Key slots per mat (global slot → mat arithmetic).
    slots_per_mat: usize,
    started: Option<Instant>,
}

impl LeaseInfo {
    /// Shard executor owning span mat `mat`, and the mat's index inside
    /// that shard.
    fn owner(&self, mut mat: usize) -> (usize, usize) {
        for (shard, &len) in self.shard_lens.iter().enumerate() {
            if mat < len {
                return (shard, mat);
            }
            mat -= len;
        }
        panic!("mat outside the leased span");
    }

    /// Groups span mats by owning shard: `out[shard]` lists shard-local
    /// indices, ascending when `mats` is.
    fn by_shard(&self, mats: impl IntoIterator<Item = usize>) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.shard_lens.len()];
        for mat in mats {
            let (shard, local) = self.owner(mat);
            out[shard].push(local);
        }
        out
    }
}

/// A persistent pool of mat-shard workers driving one chip's extraction
/// sessions. See the [module docs](self) for the protocol.
///
/// The pool is an execution vehicle only: it holds no chip state between
/// sessions and is deliberately *not* cloned with the chip (a cloned
/// chip lazily builds its own workers on first pooled extraction).
pub struct MatPool {
    /// Spawned worker threads, owning shards `1..N` in shard order.
    workers: Vec<Worker>,
    /// Shard 0, leader-resident: the controller thread participates in
    /// every broadcast instead of blocking in `recv` while an extra
    /// worker wakes.
    local: Option<Shard>,
    /// Wall time the leader spent on shard-0 work this session (timed
    /// sessions only; reported as worker 0 at unlease).
    local_busy_ns: u64,
    epoch: u64,
    lease: Option<LeaseInfo>,
    /// This session's memoized trace per span mat (invalid entries are
    /// re-speculated by the next descend).
    cache: Vec<MatTrace>,
    /// Session observer (set by the owning chip before each lease).
    probe: Option<SharedProbe>,
    /// Force-replay test knob: initial speculations bail after this many
    /// steps, so the fold must exercise the replay path.
    force_replay: Option<u16>,
}

/// What changed in the session's membership since the previous
/// [`MatPool::descend`] — the key to per-mat trace memoization.
pub(crate) enum Dirty<'a> {
    /// Treat every mat as changed (first descent of a batch, or any
    /// path that rebuilt membership wholesale).
    All,
    /// Only these global slots were cleared from the membership.
    Slots(&'a [u64]),
}

impl std::fmt::Debug for MatPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatPool")
            .field("workers", &self.workers.len())
            .field("epoch", &self.epoch)
            .field("leased", &self.lease.is_some())
            .finish()
    }
}

/// Runs one leader-resident shard operation, accumulating its wall time
/// into the leader's busy ledger during timed sessions (the clock-free
/// path reads no clocks, matching the workers).
fn local_timed<R>(timed: bool, busy: &mut u64, f: impl FnOnce() -> R) -> R {
    if timed {
        let t = Instant::now();
        let r = f();
        *busy += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        r
    } else {
        f()
    }
}

impl MatPool {
    /// Builds a pool of `shards` shard executors (at least one): the
    /// calling thread is the leader and owns shard 0 in place; the
    /// remaining `shards - 1` are long-lived spawned workers.
    pub fn new(shards: usize) -> MatPool {
        let workers = (1..shards.max(1))
            .map(|i| {
                let (req_tx, req_rx) = channel::<Request>();
                let (rep_tx, rep_rx) = channel::<Reply>();
                let handle = std::thread::Builder::new()
                    .name(format!("rime-mat-shard-{i}"))
                    .spawn(move || worker_loop(req_rx, rep_tx))
                    .expect("spawn mat-shard worker");
                Worker {
                    tx: Some(req_tx),
                    rx: rep_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        MatPool {
            workers,
            local: None,
            local_busy_ns: 0,
            epoch: 0,
            lease: None,
            cache: Vec::new(),
            probe: None,
            force_replay: None,
        }
    }

    /// Number of shard executors (the leader plus the spawned workers).
    pub fn workers(&self) -> usize {
        self.workers.len() + 1
    }

    /// Whether the current session accumulates busy time (probe set at
    /// lease time).
    fn timed(&self) -> bool {
        self.lease.as_ref().is_some_and(|l| l.started.is_some())
    }

    /// Arms (or disarms) the force-replay test knob: initial descents
    /// bail after `limit` steps so the fold must take the replay path.
    /// Drops any memoized traces — they were speculated under the old
    /// setting.
    pub fn set_force_replay(&mut self, limit: Option<u16>) {
        self.force_replay = limit;
        self.cache.clear();
    }

    /// Installs (or removes) the session observer. Timed sessions read
    /// clocks worker-side; with no probe the pool reads no clocks.
    pub fn set_probe(&mut self, probe: Option<SharedProbe>) {
        self.probe = probe;
    }

    fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Opens a session: shards `span` (the mats of `[first, last]`,
    /// already materialized) contiguously across the shard executors
    /// (leader first). `base` is the global index of the first mat in
    /// the span.
    ///
    /// # Panics
    ///
    /// Panics if a session is already open.
    pub fn lease(
        &mut self,
        base: usize,
        span: Vec<Option<Mat>>,
        slots_per_mat: usize,
        scalar: bool,
    ) {
        let shards = self.workers();
        let chunk = span.len().div_ceil(shards).max(1);
        let mut shard_lens = Vec::with_capacity(shards);
        let mut left = span.len();
        for _ in 0..shards {
            let take = chunk.min(left);
            shard_lens.push(take);
            left -= take;
        }
        self.lease_with_shards(base, span, slots_per_mat, scalar, &shard_lens);
    }

    /// [`MatPool::lease`] with an explicit shard plan: `shard_lens[i]`
    /// mats go to shard executor `i` (0 = the leader), in span order.
    /// Lets tests pin adversarial splits (1-mat shards, maximally
    /// imbalanced shards) that the default contiguous chunking would
    /// never produce.
    ///
    /// # Panics
    ///
    /// Panics if a session is already open, if the plan's length differs
    /// from the shard-executor count, or if the plan does not cover the
    /// span.
    pub fn lease_with_shards(
        &mut self,
        base: usize,
        span: Vec<Option<Mat>>,
        slots_per_mat: usize,
        scalar: bool,
        shard_lens: &[usize],
    ) {
        assert!(self.lease.is_none(), "pool session already open");
        assert_eq!(
            shard_lens.len(),
            self.workers(),
            "shard plan length must match shard-executor count"
        );
        assert_eq!(
            shard_lens.iter().sum::<usize>(),
            span.len(),
            "shard plan must cover the span"
        );
        let mats_total = span.len();
        let mut rest = span;
        let timed = self.probe.is_some();
        self.local = Some(Shard {
            base,
            slots_per_mat,
            scalar,
            mats: rest.drain(..shard_lens[0]).collect(),
        });
        self.local_busy_ns = 0;
        let mut offset = shard_lens[0];
        for (worker, &take) in self.workers.iter().zip(&shard_lens[1..]) {
            let mats: Vec<Option<Mat>> = rest.drain(..take).collect();
            worker.send(Request::Lease {
                base: base + offset,
                slots_per_mat,
                scalar,
                timed,
                mats,
            });
            offset += take;
        }
        let started = if let Some(p) = &self.probe {
            let largest = shard_lens.iter().copied().max().unwrap_or(0);
            let smallest = shard_lens.iter().copied().min().unwrap_or(0);
            p.pool_lease(self.workers(), mats_total, largest, smallest);
            Some(Instant::now())
        } else {
            None
        };
        self.cache.clear();
        self.lease = Some(LeaseInfo {
            shard_lens: shard_lens.to_vec(),
            base,
            slots_per_mat,
            started,
        });
    }

    /// Closes the session and returns the span's mats in order. For timed
    /// sessions, reports each executor's busy time against the session
    /// duration (the difference is time parked on the channel — for the
    /// leader, time spent controller-side instead of on its shard).
    pub fn unlease(&mut self) -> Vec<Option<Mat>> {
        let lease = self.lease.take().expect("no pool session open");
        self.cache.clear();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::Unlease { epoch });
        }
        let local = self.local.take().expect("no pool session open");
        let mut span = local.mats;
        let mut busy = Vec::with_capacity(self.workers());
        busy.push(self.local_busy_ns);
        for worker in &self.workers {
            match worker.recv() {
                Reply::Mats {
                    epoch: e,
                    mats,
                    busy_ns,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    span.extend(mats);
                    busy.push(busy_ns);
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        if let (Some(p), Some(started)) = (&self.probe, lease.started) {
            let session_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            for (worker, &busy_ns) in busy.iter().enumerate() {
                p.pool_worker(worker, busy_ns, session_ns);
            }
            p.pool_unlease();
        }
        span
    }

    /// Reports one completed broadcast→fold round trip to the probe.
    fn step_done(&self, started: Option<Instant>) {
        if let (Some(p), Some(t)) = (&self.probe, started) {
            p.pool_step(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Starts timing a broadcast→fold round trip (probe installed only).
    fn step_start(&self) -> Option<Instant> {
        self.probe.as_ref().map(|_| Instant::now())
    }

    /// Broadcasts one column-search step; wire-ORs the per-shard signals
    /// and sums active mats in shard order (Fig. 9's fixed reduction).
    /// The leader runs shard 0 inline between the broadcast and the fold.
    pub fn sense(&mut self, pos: u16) -> (ColumnSignals, u64) {
        let started = self.step_start();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::Sense { epoch, pos });
        }
        let timed = self.timed();
        let local = self.local.as_ref().expect("no pool session open");
        let (mut global, mut active) =
            local_timed(timed, &mut self.local_busy_ns, || local.sense(pos));
        for worker in &self.workers {
            match worker.recv() {
                Reply::Signals {
                    epoch: e,
                    signals,
                    active: a,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    global.merge(signals);
                    active += a;
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        self.step_done(started);
        (global, active)
    }

    /// Broadcasts one exclusion step; returns total rows deselected,
    /// summed in shard order (leader's shard first).
    pub fn exclude(&mut self, pos: u16, keep: bool) -> u64 {
        let started = self.step_start();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::Exclude { epoch, pos, keep });
        }
        let timed = self.timed();
        let local = self.local.as_mut().expect("no pool session open");
        let mut removed = local_timed(timed, &mut self.local_busy_ns, || local.exclude(pos, keep));
        for worker in &self.workers {
            match worker.recv() {
                Reply::Removed {
                    epoch: e,
                    removed: r,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    removed += r;
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        self.step_done(started);
        removed
    }

    /// Runs one whole bit-serial descent in a single broadcast→fold
    /// round trip: the shard executors speculate their stale mats and
    /// the controller folds every mat's trace in span order
    /// ([`descent::fold`]).
    ///
    /// `rearm`, when set, re-latches each stale mat's select window from
    /// the shared membership vector before it speculates.
    ///
    /// `dirty` names the membership slots cleared since the previous
    /// descend of this session. Mats untouched by them reuse their
    /// memoized trace, and workers owning only such mats are not woken.
    /// Memoization requires the shared-membership path (`rearm` set);
    /// with `rearm == None` the select state is host-loaded and every
    /// mat runs fresh.
    ///
    /// `membership` lazily materializes the span's select membership
    /// (global slot indexing) — it is only invoked if a replay must
    /// re-arm a mat, which never happens on the natural path.
    pub(crate) fn descend(
        &mut self,
        plan: &SearchPlan,
        rearm: Option<&Arc<Bitmap>>,
        dirty: Dirty<'_>,
        membership: &mut dyn FnMut() -> Arc<Bitmap>,
    ) -> DescentOutcome {
        let started = self.step_start();
        let lease = self.lease.take().expect("no pool session open");
        let span: usize = lease.shard_lens.iter().sum();
        let mut traces = std::mem::take(&mut self.cache);
        match dirty {
            Dirty::Slots(slots) if rearm.is_some() && traces.len() == span => {
                for &slot in slots {
                    traces[slot as usize / lease.slots_per_mat - lease.base].invalidate();
                }
            }
            _ => traces = vec![MatTrace::silent(0, 0); span],
        }
        let stale: Vec<usize> = (0..span)
            .filter(|&i| !traces[i].is_full(plan.steps()))
            .collect();
        if let Some(p) = &self.probe {
            p.memo_descend(stale.len(), span - stale.len());
        }
        let work = lease.by_shard(stale.iter().copied());
        let epoch = self.next_epoch();
        let bail_at = self.force_replay;
        for (worker, mats) in self.workers.iter().zip(&work[1..]) {
            if !mats.is_empty() {
                worker.send(Request::Descend {
                    epoch,
                    plan: *plan,
                    bail_at,
                    rearm: rearm.map(Arc::clone),
                    mats: mats.clone(),
                });
            }
        }
        // The leader speculates shard 0 while the workers run theirs.
        let timed = lease.started.is_some();
        let local = self.local.as_mut().expect("no pool session open");
        let leader: Vec<MatTrace> = local_timed(timed, &mut self.local_busy_ns, || {
            work[0]
                .iter()
                .map(|&i| local.descend(i, plan, rearm.map(|m| &**m), bail_at))
                .collect()
        });
        // Each shard's traces come back in the order its mats were named.
        let replies = std::iter::once(leader).chain(self.workers.iter().zip(&work[1..]).map(
            |(worker, mats)| {
                if mats.is_empty() {
                    Vec::new()
                } else {
                    worker.recv_traces(epoch)
                }
            },
        ));
        let mut offset = 0;
        for ((mats, &len), fresh) in work.iter().zip(&lease.shard_lens).zip(replies) {
            for (&local_mat, trace) in mats.iter().zip(fresh) {
                traces[offset + local_mat] = trace;
            }
            offset += len;
        }
        self.lease = Some(lease);
        let mut replay_membership: Option<Arc<Bitmap>> = None;
        let outcome = descent::fold(plan, &mut traces, &mut |targets, prefix, sv, traces| {
            let membership = Arc::clone(replay_membership.get_or_insert_with(&mut *membership));
            self.replay(plan, &membership, targets, prefix, sv, traces);
        });
        self.cache = traces;
        self.step_done(started);
        outcome
    }

    /// Replays the `targets` mats from `prefix.resume` on their owning
    /// shard executors, substituting their traces.
    fn replay(
        &mut self,
        plan: &SearchPlan,
        membership: &Arc<Bitmap>,
        targets: &[usize],
        prefix: Prefix,
        survivors_negative: bool,
        traces: &mut [MatTrace],
    ) {
        let replay_started = self.step_start();
        let lease = self.lease.as_ref().expect("no pool session open");
        let work = lease.by_shard(targets.iter().copied());
        let epoch = self.next_epoch();
        for (worker, mats) in self.workers.iter().zip(&work[1..]) {
            if !mats.is_empty() {
                worker.send(Request::ReplaySuffix {
                    epoch,
                    plan: *plan,
                    membership: Arc::clone(membership),
                    prefix,
                    survivors_negative,
                    mats: mats.clone(),
                });
            }
        }
        let timed = self.timed();
        let local = self.local.as_mut().expect("no pool session open");
        let mut fresh: Vec<MatTrace> = local_timed(timed, &mut self.local_busy_ns, || {
            work[0]
                .iter()
                .map(|&i| local.replay(i, plan, membership, prefix, survivors_negative))
                .collect()
        });
        // `targets` is ascending, so the shard-grouped replies line up
        // with it in order.
        for (worker, mats) in self.workers.iter().zip(&work[1..]) {
            if !mats.is_empty() {
                fresh.extend(worker.recv_traces(epoch));
            }
        }
        for (&i, trace) in targets.iter().zip(fresh) {
            traces[i] = trace;
        }
        if let (Some(p), Some(t)) = (&self.probe, replay_started) {
            // Replayed work reports separately from first-run
            // speculation (`pool_step`): suffix steps re-executed.
            p.pool_replay(
                targets.len() as u64 * u64::from(plan.steps() - prefix.resume),
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }

    /// Broadcasts a select-window rearm from the shared membership
    /// vector. Fire-and-forget worker-side (the per-worker channels are
    /// FIFO, so the next reply-bearing request is its barrier); the
    /// leader re-latches shard 0 immediately.
    pub fn rearm(&mut self, membership: &Arc<Bitmap>) {
        for worker in &self.workers {
            worker.send(Request::Rearm {
                membership: Arc::clone(membership),
            });
        }
        let timed = self.timed();
        let local = self.local.as_mut().expect("no pool session open");
        local_timed(timed, &mut self.local_busy_ns, || local.rearm(membership));
    }

    /// First selected row per mat across the whole span, in mat order
    /// (leader's shard first).
    pub fn first_selected(&mut self) -> Vec<Option<u32>> {
        let started = self.step_start();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::FirstSelected { epoch });
        }
        let timed = self.timed();
        let local = self.local.as_ref().expect("no pool session open");
        let mut firsts = local_timed(timed, &mut self.local_busy_ns, || local.firsts());
        for worker in &self.workers {
            match worker.recv() {
                Reply::Firsts {
                    epoch: e,
                    firsts: f,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    firsts.extend(f);
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        self.step_done(started);
        firsts
    }

    /// Reads raw bits of row `slot` in the span's `mat`-th mat
    /// (0 = first mat of the leased span).
    pub fn read_slot(&mut self, mat: usize, slot: u32) -> u64 {
        let started = self.step_start();
        let lease = self.lease.as_ref().expect("no pool session open");
        let (owner, index) = lease.owner(mat);
        let raw = if owner == 0 {
            let timed = self.timed();
            let local = self.local.as_ref().expect("no pool session open");
            local_timed(timed, &mut self.local_busy_ns, || {
                local.read_slot(index, slot)
            })
        } else {
            let epoch = self.next_epoch();
            let worker = &self.workers[owner - 1];
            worker.send(Request::ReadSlot {
                epoch,
                mat: index,
                slot,
            });
            match worker.recv() {
                Reply::Raw { epoch: e, raw } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    raw
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        };
        self.step_done(started);
        raw
    }
}

/// One-shot measured costs of the pool's control plane vs the bit-sliced
/// data plane — a host report for benchmarks. Measured once per process
/// (see [`pool_calibration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCalibration {
    /// Best-case broadcast→fold round-trip latency through a worker
    /// channel pair, in nanoseconds (≥ 1).
    pub round_trip_ns: u64,
    /// Cost of one 64-bit word of select-vector AND work, in
    /// picoseconds (≥ 1).
    pub word_picos: u64,
}

/// Measures (once per process) the pool round-trip latency and the
/// per-word cost of the bit-sliced kernels. Both are wall-clock
/// measurements and therefore nondeterministic; no scheduling decision
/// reads them.
pub fn pool_calibration() -> PoolCalibration {
    static CAL: OnceLock<PoolCalibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Control plane: minimum of 64 sense round trips through a tiny
        // two-shard pool (leader + one spawned worker — the smallest
        // shape that pays a real channel+wake cost; min, not mean, so
        // scheduler noise is excluded).
        let mut pool = MatPool::new(2);
        let span = vec![Some(Mat::new(1, 1)), Some(Mat::new(1, 1))];
        pool.lease(0, span, 1, false);
        let mut best = u64::MAX;
        for _ in 0..64 {
            let t = Instant::now();
            std::hint::black_box(pool.sense(0));
            best = best.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        pool.unlease();
        // Data plane: words/sec of the exclusion kernel over a select
        // vector big enough to dwarf loop overhead.
        const BITS: usize = 1 << 16;
        const REPS: u64 = 64;
        let mut a = Bitmap::ones(BITS);
        let b = Bitmap::ones(BITS);
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(&mut a).and_assign(std::hint::black_box(&b));
        }
        let total_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let words = REPS * (BITS as u64 / 64);
        PoolCalibration {
            round_trip_ns: best.max(1),
            word_picos: (total_ns.saturating_mul(1000) / words).max(1),
        }
    })
}

impl Drop for MatPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Closing the request channel is the exit signal.
            worker.tx.take();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_with(rows: u32, keys: &[u64]) -> Mat {
        let mut mat = Mat::new(1, rows);
        for (slot, &raw) in keys.iter().enumerate() {
            mat.write_slot(slot as u32, raw);
        }
        mat
    }

    fn select_all(mat: &mut Mat, slots: usize, base: usize, capacity: usize) {
        let mut membership = Bitmap::zeros(capacity);
        membership.set_range(base, base + slots);
        mat.load_select_window(&membership, base);
    }

    #[test]
    fn lease_roundtrip_preserves_mats() {
        let mut pool = MatPool::new(3);
        let span: Vec<Option<Mat>> = vec![
            Some(mat_with(8, &[1, 2, 3])),
            None,
            Some(mat_with(8, &[9])),
            Some(mat_with(8, &[4, 5])),
        ];
        pool.lease(2, span, 8, false);
        let back = pool.unlease();
        assert_eq!(back.len(), 4);
        assert!(back[1].is_none());
        assert_eq!(back[0].as_ref().unwrap().read_slot(2), 3);
        assert_eq!(back[2].as_ref().unwrap().read_slot(0), 9);
        assert_eq!(back[3].as_ref().unwrap().read_slot(1), 5);
    }

    #[test]
    fn sense_matches_sequential_walk_at_any_worker_count() {
        let keys = [0b1010u64, 0b0110, 0b0001, 0b1111, 0b0000];
        for workers in 1..=4 {
            let mut mats: Vec<Option<Mat>> = (0..3)
                .map(|i| {
                    let mut m = mat_with(8, &keys[i..i + 2]);
                    select_all(&mut m, 2, i * 8, 64);
                    Some(m)
                })
                .collect();
            // Sequential reference.
            let mut want = ColumnSignals::default();
            let mut want_active = 0u64;
            for mat in mats.iter().flatten() {
                if mat.selected_count() > 0 {
                    want_active += 1;
                    want.merge(mat.sense_column(1));
                }
            }
            // Pool under test.
            let mut pool = MatPool::new(workers);
            pool.lease(0, std::mem::take(&mut mats), 8, false);
            let (got, active) = pool.sense(1);
            assert_eq!((got.any_one, got.any_zero), (want.any_one, want.any_zero));
            assert_eq!(active, want_active);
            pool.unlease();
        }
    }

    #[test]
    fn read_slot_targets_the_owning_shard() {
        let mut pool = MatPool::new(2);
        let span: Vec<Option<Mat>> = (0..5)
            .map(|i| Some(mat_with(8, &[i as u64 * 100 + 7])))
            .collect();
        pool.lease(0, span, 8, false);
        for mat in 0..5 {
            assert_eq!(pool.read_slot(mat, 0), mat as u64 * 100 + 7);
        }
        pool.unlease();
    }

    #[test]
    fn descend_is_worker_count_invariant_and_replay_safe() {
        use crate::encoding::KeyFormat;
        use crate::plan::Direction;

        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let keys: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let slots = 8usize;
        let build_span = || -> Vec<Option<Mat>> {
            (0..5)
                .map(|m| {
                    let mut mat = mat_with(slots as u32, &keys[m * slots..(m + 1) * slots]);
                    select_all(&mut mat, slots, m * slots, 40);
                    Some(mat)
                })
                .collect()
        };
        let run = |workers: usize, force: Option<u16>| {
            let mut pool = MatPool::new(workers);
            pool.set_force_replay(force);
            pool.lease(0, build_span(), slots, false);
            let mut membership = || {
                let mut b = Bitmap::zeros(40);
                b.set_range(0, 40);
                Arc::new(b)
            };
            let out = pool.descend(&plan, None, Dirty::All, &mut membership);
            pool.unlease();
            out
        };
        let want = run(1, None);
        assert_eq!(want.replays, 0, "natural path must never replay");
        for workers in [1usize, 2, 3, 5] {
            for force in [None, Some(0u16), Some(1), Some(17), Some(63)] {
                let got = run(workers, force);
                let ctx = format!("workers {workers}, force {force:?}");
                assert_eq!(got.steps_executed, want.steps_executed, "{ctx}");
                assert_eq!(got.mat_searches, want.mat_searches, "{ctx}");
                assert_eq!(got.removed_per_step, want.removed_per_step, "{ctx}");
                assert_eq!(got.firsts, want.firsts, "{ctx}");
                assert_eq!(got.raws, want.raws, "{ctx}");
                if let Some(bail) = force {
                    if bail < got.steps_executed {
                        assert!(got.replays > 0, "{ctx}: bail must force a replay");
                    }
                } else {
                    assert_eq!(got.replays, 0, "{ctx}: natural path must never replay");
                }
            }
        }
    }

    #[test]
    fn memoized_descents_match_fresh_speculation() {
        use crate::encoding::KeyFormat;
        use crate::plan::Direction;

        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let keys: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let slots = 8usize;
        let build_span = || -> Vec<Option<Mat>> {
            (0..5)
                .map(|m| Some(mat_with(slots as u32, &keys[m * slots..(m + 1) * slots])))
                .collect()
        };
        // Extract every key twice: once letting consecutive descents
        // reuse memoized shard traces (only the winner's shard dirty),
        // once forcing every shard to re-speculate each round. The hit
        // streams and counters must be bit-identical — memoization is a
        // pure-function cache, not an approximation.
        type DescentRecord = (Vec<Option<u32>>, Vec<u64>, u16, u64);
        let run = |use_dirty_slots: bool| -> Vec<DescentRecord> {
            let mut pool = MatPool::new(3);
            pool.lease(0, build_span(), slots, false);
            let mut membership = Arc::new({
                let mut b = Bitmap::zeros(40);
                b.set_range(0, 40);
                b
            });
            let mut extracted = Vec::new();
            let mut dirty_slot: Option<u64> = None;
            for _ in 0..40 {
                let rearm = Arc::clone(&membership);
                let mut membership_fn = || Arc::clone(&membership);
                let dirty = match (&dirty_slot, use_dirty_slots) {
                    (Some(slot), true) => Dirty::Slots(std::slice::from_ref(slot)),
                    _ => Dirty::All,
                };
                let out = pool.descend(&plan, Some(&rearm), dirty, &mut membership_fn);
                drop(rearm);
                // Winner = first selected slot of the lowest-index mat.
                let (mat, first) = out
                    .firsts
                    .iter()
                    .enumerate()
                    .find_map(|(m, f)| f.map(|s| (m, s)))
                    .expect("non-empty selection yields a winner");
                let slot = (mat * slots) as u64 + u64::from(first);
                extracted.push((
                    out.firsts.clone(),
                    out.raws.clone(),
                    out.steps_executed,
                    out.mat_searches,
                ));
                Arc::make_mut(&mut membership).set(slot as usize, false);
                dirty_slot = Some(slot);
            }
            pool.unlease();
            extracted
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn lease_with_shards_honors_adversarial_splits() {
        for shard_lens in [vec![1usize, 1, 3], vec![5, 0, 0], vec![0, 0, 5]] {
            let mut pool = MatPool::new(3);
            let span: Vec<Option<Mat>> = (0..5)
                .map(|i| Some(mat_with(8, &[i as u64 * 100 + 7])))
                .collect();
            pool.lease_with_shards(0, span, 8, false, &shard_lens);
            for mat in 0..5 {
                assert_eq!(
                    pool.read_slot(mat, 0),
                    mat as u64 * 100 + 7,
                    "shards {shard_lens:?}"
                );
            }
            let back = pool.unlease();
            assert_eq!(back.len(), 5);
        }
    }

    #[test]
    fn calibration_is_positive_and_stable() {
        let a = pool_calibration();
        let b = pool_calibration();
        assert!(a.round_trip_ns >= 1 && a.word_picos >= 1);
        assert_eq!(a, b, "per-process calibration must be cached");
    }

    #[test]
    fn rearm_updates_selection_through_shared_bitmap() {
        let mut pool = MatPool::new(2);
        let span: Vec<Option<Mat>> = (0..2).map(|_| Some(mat_with(8, &[1, 2, 3]))).collect();
        pool.lease(0, span, 8, false);
        let mut membership = Arc::new({
            let mut b = Bitmap::zeros(16);
            b.set_range(0, 3);
            b.set_range(8, 11);
            b
        });
        pool.rearm(&membership);
        assert_eq!(pool.first_selected(), vec![Some(0), Some(0)]);
        Arc::make_mut(&mut membership).set(0, false);
        pool.rearm(&membership);
        assert_eq!(pool.first_selected(), vec![Some(1), Some(0)]);
        pool.unlease();
    }
}
