//! Scheduling-invariance properties for the mat fan-out: `Auto`'s
//! memoized per-mat descent must be observationally identical to
//! `Sequential` — same hit streams, same raw bits, and bit-identical
//! [`rime_memristive::OpCounters`] — across random formats, injected
//! stuck-at faults, and batch sizes. This is the executable form of the
//! fold's fixed-order reduction argument (wire-OR and removed-row sums
//! are commutative over disjoint mats, merged in mat order).
//!
//! `Auto` runs each descent *speculatively* — every mat races ahead on
//! its own signals and the chip folds the traces into the global
//! decision sequence, replaying divergent suffixes. The same properties
//! therefore also run with the force-replay knob armed at several bail
//! points (every descent takes the replay path), pinning that
//! speculation + replay is bit-identical to `Sequential` too.

use proptest::prelude::*;
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, OpCounters, ParallelPolicy, SortableBits,
};

/// Slots per mat under [`geometry`] (4 arrays × 4 rows).
const SLOTS_PER_MAT: u64 = 16;

/// A geometry with `mats` narrow mats (16 slots each), so moderate key
/// counts span many mats and every policy gets real fan-out to schedule.
fn geometry(mats: u16) -> ChipGeometry {
    ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: mats,
        arrays_per_mat: 4,
        rows: 4,
        cols: 64,
    }
}

/// Runs one full scenario under `policy`, with every initial
/// speculation bailing after `force_replay` steps when set (driving the
/// fold through divergence replay): store, fault injection, init, one
/// batch extraction, one single-extract continuation. Returns
/// everything observable.
fn run_policy<T: SortableBits>(
    keys: &[T],
    mats: u16,
    faults: &[(u64, u16, bool)],
    direction: Direction,
    k: usize,
    policy: ParallelPolicy,
    force_replay: Option<u16>,
) -> (Vec<ExtractHit>, Option<ExtractHit>, OpCounters) {
    let mut chip = Chip::new(geometry(mats));
    chip.set_parallel_policy(policy);
    chip.set_force_replay(force_replay);
    let raw: Vec<u64> = keys.iter().map(|v| v.to_raw_bits()).collect();
    chip.store_keys(0, &raw, T::FORMAT).unwrap();
    for &(slot, bit, stuck) in faults {
        chip.inject_stuck_cell(slot % raw.len() as u64, bit % T::FORMAT.bits(), stuck)
            .unwrap();
    }
    chip.init_range(0, raw.len() as u64, T::FORMAT).unwrap();
    let hits = chip.extract_batch(direction, k).unwrap();
    let next = chip.extract(direction).unwrap();
    (hits, next, *chip.counters())
}

/// Asserts `Auto` reproduces the `Sequential` oracle bit for bit —
/// hits (slots, raw bits, step counts), the single-extract
/// continuation, and all counters — naturally and with forced
/// divergence replay at several bail points.
fn assert_policies_agree<T: SortableBits>(
    keys: &[T],
    mats: u16,
    faults: &[(u64, u16, bool)],
    direction: Direction,
    k: usize,
) -> Result<(), TestCaseError> {
    let want = run_policy(
        keys,
        mats,
        faults,
        direction,
        k,
        ParallelPolicy::Sequential,
        None,
    );
    for force in [None, Some(0), Some(3), Some(9)] {
        let got = run_policy(
            keys,
            mats,
            faults,
            direction,
            k,
            ParallelPolicy::Auto,
            force,
        );
        prop_assert_eq!(&got.0, &want.0, "hit stream under force {:?}", force);
        prop_assert_eq!(got.1, want.1, "continuation under force {:?}", force);
        prop_assert_eq!(got.2, want.2, "counters under force {:?}", force);
    }
    Ok(())
}

/// Zips independently generated fault component vectors (the proptest
/// shim has no tuple strategies).
fn zip_faults(slots: &[u64], bits: &[u16], stuck: &[bool]) -> Vec<(u64, u16, bool)> {
    slots
        .iter()
        .zip(bits)
        .zip(stuck)
        .map(|((&sl, &b), &s)| (sl, b, s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn unsigned_policies_agree(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..64, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
        max in any::<bool>(),
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let direction = if max { Direction::Max } else { Direction::Min };
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        assert_policies_agree(&keys, mats, &faults, direction, k)?;
    }

    #[test]
    fn signed_policies_agree(
        keys in prop::collection::vec(any::<i32>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        assert_policies_agree(&keys, mats, &faults, Direction::Min, k)?;
    }

    #[test]
    fn float_policies_agree(
        keys in prop::collection::vec(any::<f32>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
        max in any::<bool>(),
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let direction = if max { Direction::Max } else { Direction::Min };
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        assert_policies_agree(&keys, mats, &faults, direction, k)?;
    }
}

/// A wide fixed-span drain: 18 mats fully populated, half drained under
/// every policy (and under `Auto` with every descent bailing into the
/// replay path), then re-initialized mid-drain. Deterministic
/// (non-proptest) so it always runs the wide-span memoized path even if
/// case generation trends narrow.
#[test]
fn wide_span_drain_is_policy_invariant() {
    let mats = 18u16;
    let n = u64::from(mats) * SLOTS_PER_MAT;
    let keys: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 4093).collect();
    let mut reference: Option<(Vec<ExtractHit>, OpCounters)> = None;
    for (policy, force) in [
        (ParallelPolicy::Sequential, None),
        (ParallelPolicy::Auto, None),
        (ParallelPolicy::Auto, Some(5)),
    ] {
        let mut chip = Chip::new(geometry(mats));
        chip.set_parallel_policy(policy);
        chip.set_force_replay(force);
        chip.store_keys(0, &keys, u64::FORMAT).unwrap();
        chip.init_range(0, n, u64::FORMAT).unwrap();
        let mut hits = chip
            .extract_batch(Direction::Min, (n / 2) as usize)
            .unwrap();
        // Re-init mid-drain: the next batch must rearm cleanly.
        chip.init_range(0, n, u64::FORMAT).unwrap();
        hits.extend(chip.extract_batch(Direction::Max, 8).unwrap());
        match &reference {
            None => reference = Some((hits, *chip.counters())),
            Some((want_hits, want_counters)) => {
                assert_eq!(&hits, want_hits, "{policy:?}, force {force:?}");
                assert_eq!(
                    chip.counters(),
                    want_counters,
                    "{policy:?}, force {force:?}"
                );
            }
        }
    }
}
