//! Speculative per-mat descents and the fold that rebuilds the global
//! one (§IV-B.2, Fig. 9), run on the calling thread by the chip's
//! memoized batch path.
//!
//! A descent can be split by mat. Each mat runs the whole bit-serial
//! descent *speculatively* against its own signals and records a
//! [`MatTrace`]: packed per-step signals, whether it held a selection,
//! its local exclusion decisions and rows removed, plus its final first
//! selected slot and that slot's raw bits. [`fold`] combines the traces
//! in mat order, the fixed-order stand-in for the H-tree's wired-OR
//! nodes, into the exact global decision sequence. It also rebuilds the
//! per-step active-mat and removed-row sums the sequential walk counts.
//!
//! # Why the fold is exact
//!
//! Invariant: at every fold step each mat is either **in-sync** (its
//! local select state equals the global surviving set restricted to the
//! mat) or **dead** (that restriction is empty, and the fold ignores
//! everything the mat reported after its death step). An in-sync mat's
//! recorded signals are exactly its global contribution, so the fold's
//! wired-OR is exact. At an exclusion step three cases exhaust an alive
//! mat:
//!
//! * **Locally mixed** (both signals raised): exclusion is monotone —
//!   `select &= col` depends only on the keep bit, and the mat's local
//!   keep equals the global keep. For integer formats the keep bit is
//!   signal-independent; for floats the only signal-derived input is the
//!   sign-step survivor polarity, and an alive mat's local polarity
//!   provably equals the global one (a mat whose polarity would differ
//!   is uniform in the discarded sign and dies at the sign step). So the
//!   mat's speculative exclusion removed exactly the global victims
//!   inside it: still in-sync.
//! * **Uniform in the kept bit**: neither the global nor the local step
//!   removes anything from the mat: still in-sync.
//! * **Uniform in the discarded bit**: globally every survivor in the
//!   mat is removed — the mat **dies**. The fold accounts its tracked
//!   remaining count as removed and masks all its later trace data.
//!
//! A *globally* uniform step raises the all-0-or-1 veto, and every alive
//! mat saw a uniform (or silent) column too, so nobody excluded. By
//! induction the fold never observes a divergent alive mat, so replay
//! never fires on the natural path. It exists as a defensive bound, and
//! the force-replay test knob (traces that bail early) exercises it.
//! Each replay re-syncs a mat to the full agreed prefix, which then
//! grows by at least one step before that mat can lag again, so replays
//! per descent are bounded by the step count.
//!
//! On the natural path every trace is full and in sync, and the fold is
//! closed-form: each mat's death step and removed counts follow from its
//! own trace, so a descent costs the fold O(mats + local decisions).
//! Otherwise it walks from one globally mixed step to the next (the
//! alive set only changes at exclusions), replaying as needed.
//!
//! # Why memoization is exact
//!
//! A mat's trace is a pure function of its stored keys, the membership
//! restricted to the mat, and the plan. Extracting one key clears one
//! membership bit, which dirties exactly one mat. Every other mat's
//! trace from the previous descent is still the trace it would record
//! now, so reusing it leaves the fold's inputs, and with them the hits
//! and every [`crate::OpCounters`] field, bit-identical. Partial traces
//! (bailed runs, replayed suffixes) are never reused.

use crate::array::ColumnSignals;
use crate::bitmap::Bitmap;
use crate::mat::Mat;
use crate::plan::SearchPlan;

/// Senses column `pos` of one mat, through the scalar oracle if asked.
pub(crate) fn sense_mat(mat: &Mat, pos: u16, scalar: bool) -> ColumnSignals {
    #[cfg(any(test, feature = "scalar-oracle"))]
    if scalar {
        return mat.sense_column_scalar(pos);
    }
    let _ = scalar;
    mat.sense_column(pos)
}

/// Latches one mat's match vector for (`pos`, `keep`); returns rows
/// deselected.
pub(crate) fn exclude_mat(mat: &mut Mat, pos: u16, keep: bool, scalar: bool) -> u64 {
    #[cfg(any(test, feature = "scalar-oracle"))]
    if scalar {
        return mat.apply_exclusion_scalar(pos, keep) as u64;
    }
    let _ = scalar;
    mat.apply_exclusion(pos, keep) as u64
}

/// Bits `[lo, hi)` of a step mask (`lo < hi <= 64`).
fn steps_mask(lo: u16, hi: u16) -> u64 {
    let below_hi = if hi >= 64 { u64::MAX } else { (1 << hi) - 1 };
    below_hi & !((1u64 << lo) - 1)
}

/// Everything one mat recorded while speculatively running a descent.
///
/// Per-step data is bit-packed (bit `s` = step `s`; key widths never
/// exceed 64 steps).
#[derive(Debug, Clone)]
pub(crate) struct MatTrace {
    /// Bit `s`: the mat's local `any_one` at step `s`.
    any_one: u64,
    /// Bit `s`: the mat's local `any_zero` at step `s`.
    any_zero: u64,
    /// Bit `s`: the mat held a selection at step `s`.
    active: u64,
    /// Bit `s`: the mat applied a local exclusion at step `s`.
    decided: u64,
    /// Bit `s`: the keep bit the mat used where `decided` is set.
    keeps: u64,
    /// Rows the mat's local exclusion removed at each step.
    removed: [u32; 64],
    /// Selected rows in the mat when this run started.
    initial_selected: u64,
    /// First step this run covers (0 for an initial speculation, the
    /// resume point for a replayed suffix).
    start: u16,
    /// Trace data is valid for steps `< ran` (a bailed run under the
    /// force-replay knob covers fewer than `plan.steps()`).
    ran: u16,
    /// First selected mat-local slot after the run.
    first: Option<u32>,
    /// Raw bits of that slot (0 when none).
    raw: u64,
}

impl MatTrace {
    /// A silent trace covering steps `[start, ran)` — what a mat with
    /// no selection records, and (with `ran == 0`) a memo entry that
    /// must be speculated before use.
    pub(crate) fn silent(start: u16, ran: u16) -> MatTrace {
        MatTrace {
            any_one: 0,
            any_zero: 0,
            active: 0,
            decided: 0,
            keeps: 0,
            removed: [0; 64],
            initial_selected: 0,
            start,
            ran,
            first: None,
            raw: 0,
        }
    }

    /// Whether this trace covers a whole `steps`-step descent from step
    /// 0 — the precondition for memoized reuse.
    pub(crate) fn is_full(&self, steps: u16) -> bool {
        self.start == 0 && self.ran == steps
    }

    /// Drops the trace from the memo: the next descent re-speculates.
    pub(crate) fn invalidate(&mut self) {
        self.ran = 0;
    }
}

/// Runs steps `[start, bail_at.unwrap_or(steps))` of `plan` on `mat`
/// speculatively against its own signals and records the trace.
///
/// The trace always covers every step up to the bail point, but the mat
/// stops *physically* stepping once its local set collapses to at most
/// one survivor: from there on no local exclusion can fire (a singleton
/// is all-same at every column and an empty mat is silent), so the rest
/// of the trace is the survivor's stored bits, synthesized from one row
/// read instead of sensed column by column (the column shadow is the
/// row transposed, faults included).
pub(crate) fn speculate(
    mat: &mut Mat,
    scalar: bool,
    plan: &SearchPlan,
    start: u16,
    mut survivors_negative: bool,
    bail_at: Option<u16>,
) -> MatTrace {
    let steps = plan.steps();
    let stop = bail_at.unwrap_or(steps).min(steps);
    let mut trace = MatTrace::silent(start, stop);
    trace.initial_selected = mat.selected_count() as u64;
    let mut running = trace.initial_selected;
    let mut step = start;
    while step < stop && running > 1 {
        let pos = plan.position(step);
        let bit = 1u64 << step;
        let signals = sense_mat(mat, pos, scalar);
        trace.active |= bit;
        if signals.any_one {
            trace.any_one |= bit;
        }
        if signals.any_zero {
            trace.any_zero |= bit;
        }
        if plan.is_sign_step(step) {
            survivors_negative = plan.survivors_negative(signals.any_one, signals.any_zero);
        }
        if !signals.all_same() {
            let keep = plan.keep_bit(step, survivors_negative);
            let removed = exclude_mat(mat, pos, keep, scalar);
            trace.decided |= bit;
            if keep {
                trace.keeps |= bit;
            }
            trace.removed[step as usize] = removed as u32;
            running -= removed;
        }
        step += 1;
    }
    trace.first = mat.first_selected();
    if let Some(slot) = trace.first {
        trace.raw = mat.read_slot(slot);
        if step < stop {
            // Local collapse: bit `s` of `by_step` is the survivor's bit
            // at `plan.position(s)`.
            let rest = steps_mask(step, stop);
            let by_step = trace.raw.reverse_bits() >> (64 - steps);
            trace.active |= rest;
            trace.any_one |= by_step & rest;
            trace.any_zero |= !by_step & rest;
        }
    }
    trace
}

/// The authoritative decision prefix a replay fast-forwards: bits below
/// `resume` of `decided`/`keeps`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prefix {
    pub decided: u64,
    pub keeps: u64,
    pub resume: u16,
}

/// Re-runs one mat's descent from `prefix.resume`: re-latches its
/// select window from `membership` (global slot indexing, the mat's
/// window starting at `window`), replays the agreed exclusions below the
/// resume point, then speculates the suffix.
pub(crate) fn replay(
    mat: &mut Mat,
    scalar: bool,
    plan: &SearchPlan,
    membership: &Bitmap,
    window: usize,
    prefix: Prefix,
    survivors_negative: bool,
) -> MatTrace {
    mat.load_select_window(membership, window);
    for step in 0..prefix.resume {
        if prefix.decided >> step & 1 == 1 && mat.selected_count() > 0 {
            exclude_mat(
                mat,
                plan.position(step),
                prefix.keeps >> step & 1 == 1,
                scalar,
            );
        }
    }
    speculate(mat, scalar, plan, prefix.resume, survivors_negative, None)
}

/// What a folded descent produced — exactly the shape the chip needs to
/// reconstruct the sequential walk's counters and probe stream for one
/// key.
#[derive(Debug, Default)]
pub(crate) struct DescentOutcome {
    /// Column-search steps the global descent executed.
    pub steps_executed: u16,
    /// Active (nonempty-selection) mat senses summed over those steps.
    pub mat_searches: u64,
    /// Rows removed by each exclusion, in step order.
    pub removed_per_step: Vec<u64>,
    /// First selected slot per mat, in span order (dead mats `None`).
    pub firsts: Vec<Option<u32>>,
    /// Raw bits of each mat's first selected slot (0 where none).
    pub raws: Vec<u64>,
    /// Replay rounds the fold needed (0 on the natural path).
    pub replays: u64,
}

/// Replays the mats named in the first argument from the prefix, with
/// the given survivor polarity, writing their new traces into the slice.
pub(crate) type ReplayFn<'a> = dyn FnMut(&[usize], Prefix, bool, &mut [MatTrace]) + 'a;

/// Folds per-mat traces (span order) into the global descent, calling
/// `replay` for mats whose traces cannot serve the fold (bailed early or
/// divergent). See the module docs for why the result is exact.
pub(crate) fn fold(
    plan: &SearchPlan,
    traces: &mut [MatTrace],
    replay: &mut ReplayFn<'_>,
) -> DescentOutcome {
    match fold_in_sync(plan, traces) {
        Some(outcome) => outcome,
        None => fold_walk(plan, traces, replay),
    }
}

/// The fold as a walk from one globally mixed step to the next, replaying
/// mats whose traces cannot serve it.
fn fold_walk(
    plan: &SearchPlan,
    traces: &mut [MatTrace],
    replay: &mut ReplayFn<'_>,
) -> DescentOutcome {
    let steps = plan.steps();
    let mut remaining: Vec<u64> = traces.iter().map(|t| t.initial_selected).collect();
    let mut alive: Vec<usize> = (0..traces.len()).filter(|&i| remaining[i] > 0).collect();
    let mut selected: u64 = remaining.iter().sum();
    let mut survivors_negative = false;
    let mut prefix = Prefix {
        decided: 0,
        keeps: 0,
        resume: 0,
    };
    let mut outcome = DescentOutcome::default();
    let max_replays = 2 * u64::from(steps) + 2;
    while prefix.resume < steps && selected > 1 {
        let step = prefix.resume;
        let (mut any_one, mut any_zero, mut limit) = (0u64, 0u64, steps);
        for &i in &alive {
            let t = &traces[i];
            any_one |= t.any_one;
            any_zero |= t.any_zero;
            limit = limit.min(t.ran);
        }
        if limit <= step {
            // Coverage: a bailed trace ends before the fold point.
            let lagging: Vec<usize> = alive
                .iter()
                .copied()
                .filter(|&i| traces[i].ran <= step)
                .collect();
            outcome.replays += 1;
            assert!(outcome.replays <= max_replays, "descent replay diverged");
            replay(&lagging, prefix, survivors_negative, traces);
            continue;
        }
        let sv = if plan.is_sign_step(step) {
            plan.survivors_negative(any_one & 1 != 0, any_zero & 1 != 0)
        } else {
            survivors_negative
        };
        // The alive set is fixed until the next exclusion, so the next
        // exclusion is the first step where the ORed signals mix; every
        // step before it is globally uniform.
        let mixed = any_one & any_zero & steps_mask(step, limit);
        if mixed == 0 {
            let run = steps_mask(step, limit);
            for &i in &alive {
                outcome.mat_searches += u64::from((traces[i].active & run).count_ones());
            }
            outcome.steps_executed += limit - step;
            survivors_negative = sv;
            prefix.resume = limit;
            continue;
        }
        let next = mixed.trailing_zeros() as u16;
        let (run, bit) = (steps_mask(step, next), 1u64 << next);
        let keep = plan.keep_bit(next, sv);
        // One pass: the uniform run's active mats, and every alive mat's
        // agreement with the exclusion at `next`.
        let (mut run_searches, mut next_searches, mut removed) = (0u64, 0u64, 0u64);
        let mut divergent: Vec<usize> = Vec::new();
        for &i in &alive {
            let t = &traces[i];
            run_searches += u64::from((t.active & run).count_ones());
            next_searches += u64::from(t.active & bit != 0);
            match (t.any_one & bit != 0, t.any_zero & bit != 0) {
                (true, true) if t.decided & bit != 0 && (t.keeps & bit != 0) == keep => {
                    removed += u64::from(t.removed[next as usize]);
                }
                // Uniform in the discarded bit: the whole mat dies.
                (one, zero) if one != zero && one != keep => removed += remaining[i],
                (one, zero) if one != zero => {}
                // Mixed against the global decision, or silent while
                // tracked alive: out of sync.
                _ => divergent.push(i),
            }
        }
        outcome.mat_searches += run_searches;
        outcome.steps_executed += next - step;
        if next > step {
            survivors_negative = sv;
        }
        prefix.resume = next;
        if !divergent.is_empty() {
            outcome.replays += 1;
            assert!(outcome.replays <= max_replays, "descent replay diverged");
            replay(&divergent, prefix, survivors_negative, traces);
            continue;
        }
        outcome.mat_searches += next_searches;
        outcome.steps_executed += 1;
        alive.retain(|&i| {
            let t = &traces[i];
            if t.decided & bit != 0 {
                remaining[i] -= u64::from(t.removed[next as usize]);
            } else if (t.any_one & bit != 0) != keep {
                remaining[i] = 0;
            }
            remaining[i] > 0
        });
        survivors_negative = sv;
        prefix.decided |= bit;
        if keep {
            prefix.keeps |= bit;
        }
        prefix.resume = next + 1;
        outcome.removed_per_step.push(removed);
        selected -= removed;
    }
    // Dead mats are masked: their local select state is speculative.
    for (trace, &left) in traces.iter().zip(&remaining) {
        let live = left > 0;
        outcome.firsts.push(trace.first.filter(|_| live));
        outcome.raws.push(if live { trace.raw } else { 0 });
    }
    outcome
}

/// The fold in closed form, for the natural path: every trace full and
/// in sync. `None` when a trace is partial or out of sync; [`fold`] then
/// walks the exclusions and replays.
///
/// An in-sync mat's local extreme takes the keep bit wherever the mat is
/// mixed, so it misses the global keep bit exactly where the mat is
/// uniform in the discarded bit. Read with step 0 as the most
/// significant bit, the smallest miss word is the global extreme's, and
/// every other mat dies at the first step where its miss word differs
/// from it: there it holds only the discarded bit while the leaders hold
/// the kept one. The exclusion steps are the alive mats' local decisions
/// plus those deaths, so the per-step removed counts follow from each
/// mat's own trace without visiting every mat at every exclusion.
fn fold_in_sync(plan: &SearchPlan, traces: &[MatTrace]) -> Option<DescentOutcome> {
    let steps = plan.steps();
    let all = steps_mask(0, steps);
    let live: Vec<usize> = (0..traces.len())
        .filter(|&i| traces[i].initial_selected > 0)
        .collect();
    let (mut any_one, mut any_zero) = (0u64, 0u64);
    for &i in &live {
        let t = &traces[i];
        if !t.is_full(steps) {
            return None;
        }
        any_one |= t.any_one;
        any_zero |= t.any_zero;
    }
    let sv = plan.is_sign_step(0) && plan.survivors_negative(any_one & 1 != 0, any_zero & 1 != 0);
    let keep = (0..steps).fold(0u64, |k, s| k | u64::from(plan.keep_bit(s, sv)) << s);
    let miss = |t: &MatTrace| (((t.decided & t.keeps) | (!t.decided & t.any_one)) ^ keep) & all;
    let best = live
        .iter()
        .map(|&i| miss(&traces[i]).reverse_bits())
        .min()?;

    let mut removed = [0u64; 64];
    let mut exclusions = 0u64;
    let mut deaths: Vec<u16> = Vec::with_capacity(live.len());
    for &i in &live {
        let t = &traces[i];
        let death = ((miss(t).reverse_bits() ^ best).leading_zeros() as u16).min(steps);
        let before = steps_mask(0, death);
        let through = steps_mask(0, (death + 1).min(steps));
        let in_sync = t.decided == t.any_one & t.any_zero
            && t.decided & (t.keeps ^ keep) & through == 0
            && (t.any_one | t.any_zero) & through == through;
        if !in_sync {
            return None;
        }
        let mut gone = 0u64;
        let mut decided = t.decided & before;
        while decided != 0 {
            let s = decided.trailing_zeros() as usize;
            removed[s] += u64::from(t.removed[s]);
            gone += u64::from(t.removed[s]);
            decided &= decided - 1;
        }
        exclusions |= t.decided & before;
        if death < steps {
            removed[death as usize] += t.initial_selected - gone;
            exclusions |= 1 << death;
        }
        deaths.push(death);
    }

    // The walk stops before any step that starts with one survivor.
    let mut outcome = DescentOutcome::default();
    let mut selected: u64 = live.iter().map(|&i| traces[i].initial_selected).sum();
    let mut end = if selected > 1 { steps } else { 0 };
    while end > 0 && exclusions != 0 {
        let s = exclusions.trailing_zeros() as u16;
        outcome.removed_per_step.push(removed[s as usize]);
        selected -= removed[s as usize];
        if selected <= 1 {
            end = s + 1;
            break;
        }
        exclusions &= exclusions - 1;
    }
    outcome.steps_executed = end;
    outcome.firsts = vec![None; traces.len()];
    outcome.raws = vec![0; traces.len()];
    for (&i, &death) in live.iter().zip(&deaths) {
        let t = &traces[i];
        let counted = steps_mask(0, (death + 1).min(end));
        outcome.mat_searches += u64::from((t.active & counted).count_ones());
        if death >= end {
            outcome.firsts[i] = t.first;
            outcome.raws[i] = t.raw;
        }
    }
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::KeyFormat;
    use crate::plan::Direction;

    /// A fully selected 1-array mat holding `keys`.
    fn mat_with(keys: &[u64]) -> Mat {
        let mut mat = Mat::new(1, keys.len() as u32);
        for (slot, &raw) in keys.iter().enumerate() {
            mat.write_slot(slot as u32, raw);
        }
        let mut all = Bitmap::zeros(keys.len());
        all.set_range(0, keys.len());
        mat.load_select_window(&all, 0);
        mat
    }

    #[test]
    fn steps_mask_covers_half_open_ranges() {
        assert_eq!(steps_mask(0, 64), u64::MAX);
        assert_eq!(steps_mask(3, 5), 0b11000);
        assert_eq!(steps_mask(63, 64), 1 << 63);
    }

    #[test]
    fn collapsed_trace_matches_physical_stepping() {
        // A lone key never steps: its whole trace is its stored bits.
        let plan = SearchPlan::new(KeyFormat::UNSIGNED32, Direction::Min);
        let mut lone = mat_with(&[0b1011_0110]);
        let trace = speculate(&mut lone, false, &plan, 0, false, None);
        assert_eq!(trace.initial_selected, 1);
        assert_eq!(trace.active, steps_mask(0, 32));
        assert_eq!(trace.any_one | trace.any_zero, steps_mask(0, 32));
        assert_eq!(trace.any_one & trace.any_zero, 0);
        assert_eq!(trace.any_one.count_ones(), 5);
        assert_eq!(
            (trace.first, trace.raw, trace.decided),
            (Some(0), 0b1011_0110, 0)
        );
    }

    #[test]
    fn closed_form_fold_matches_the_walk() {
        // Tie-heavy keys over five mats in every format family and both
        // directions: the closed form must take the natural path and
        // agree with the exclusion walk field for field.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let formats = [
            KeyFormat::UNSIGNED64,
            KeyFormat::SIGNED32,
            KeyFormat::FLOAT32,
            KeyFormat::FLOAT64,
            KeyFormat::unsigned_fixed(6, 2),
        ];
        for round in 0..200 {
            let format = formats[round % formats.len()];
            let direction = if round % 2 == 0 {
                Direction::Min
            } else {
                Direction::Max
            };
            let plan = SearchPlan::new(format, direction);
            let palette: Vec<u64> = (0..3).map(|_| next() >> (64 - format.bits())).collect();
            let mut traces: Vec<MatTrace> = (0..5)
                .map(|m| {
                    let keys: Vec<u64> = (0..1 + (next() % 8) as usize)
                        .map(|_| {
                            if m == 2 && round % 3 == 0 {
                                0
                            } else {
                                palette[(next() % 3) as usize]
                            }
                        })
                        .collect();
                    speculate(&mut mat_with(&keys), false, &plan, 0, false, None)
                })
                .collect();
            let closed = fold_in_sync(&plan, &traces).expect("natural traces are in sync");
            let mut no_replay = |_: &[usize], _: Prefix, _: bool, _: &mut [MatTrace]| {
                panic!("the natural path never replays")
            };
            let walked = fold_walk(&plan, &mut traces, &mut no_replay);
            let fields = |o: &DescentOutcome| {
                (
                    o.steps_executed,
                    o.mat_searches,
                    o.removed_per_step.clone(),
                    o.firsts.clone(),
                    o.raws.clone(),
                )
            };
            assert_eq!(fields(&closed), fields(&walked), "round {round}");
        }
    }

    #[test]
    fn fold_rebuilds_a_sequential_walk() {
        // Three mats, folded; the reference walks the union directly in
        // a single mat. Steps and removed sums must agree.
        let plan = SearchPlan::new(KeyFormat::UNSIGNED32, Direction::Min);
        let parts: [&[u64]; 3] = [&[9, 12, 7, 7], &[7, 30, 8, 1 << 20], &[5 << 8, 7, 64, 7]];
        let mut traces: Vec<MatTrace> = parts
            .iter()
            .map(|keys| speculate(&mut mat_with(keys), false, &plan, 0, false, None))
            .collect();
        let mut no_replay = |_: &[usize], _: Prefix, _: bool, _: &mut [MatTrace]| {
            panic!("the natural path never replays")
        };
        let out = fold(&plan, &mut traces, &mut no_replay);
        let union: Vec<u64> = parts.concat();
        let whole = speculate(&mut mat_with(&union), false, &plan, 0, false, None);
        let removed: Vec<u64> = (0..32)
            .filter(|s| whole.decided >> s & 1 == 1)
            .map(|s| u64::from(whole.removed[s]))
            .collect();
        assert_eq!(out.removed_per_step, removed);
        // Five tied sevens survive every step; each mat reports its first.
        assert_eq!(out.steps_executed, 32);
        assert_eq!(out.firsts, vec![Some(2), Some(0), Some(1)]);
        assert_eq!(out.raws, vec![7, 7, 7]);
    }

    #[test]
    fn forced_bails_replay_to_the_natural_fold() {
        // Five 8-slot mats under one global membership. Speculations that
        // bail early must drive the fold through `replay` and still land
        // on the natural fold's outcome; the natural path never replays.
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let keys: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut membership = Bitmap::zeros(keys.len());
        membership.set_range(0, keys.len());
        let run = |bail_at: Option<u16>| {
            let mut mats: Vec<Mat> = keys
                .chunks(8)
                .enumerate()
                .map(|(m, chunk)| {
                    let mut mat = Mat::new(1, 8);
                    for (slot, &raw) in chunk.iter().enumerate() {
                        mat.write_slot(slot as u32, raw);
                    }
                    mat.load_select_window(&membership, m * 8);
                    mat
                })
                .collect();
            let mut traces: Vec<MatTrace> = mats
                .iter_mut()
                .map(|mat| speculate(mat, false, &plan, 0, false, bail_at))
                .collect();
            fold(&plan, &mut traces, &mut |targets, prefix, sv, traces| {
                for &i in targets {
                    traces[i] = replay(&mut mats[i], false, &plan, &membership, i * 8, prefix, sv);
                }
            })
        };
        let want = run(None);
        assert_eq!(want.replays, 0, "natural path must never replay");
        for bail in [0u16, 1, 17, 63] {
            let got = run(Some(bail));
            assert_eq!(got.steps_executed, want.steps_executed, "bail {bail}");
            assert_eq!(got.mat_searches, want.mat_searches, "bail {bail}");
            assert_eq!(got.removed_per_step, want.removed_per_step, "bail {bail}");
            assert_eq!(got.firsts, want.firsts, "bail {bail}");
            assert_eq!(got.raws, want.raws, "bail {bail}");
            if bail < got.steps_executed {
                assert!(got.replays > 0, "bail {bail} must force a replay");
            }
        }
    }
}
