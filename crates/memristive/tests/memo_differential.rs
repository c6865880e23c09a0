//! Differential properties for `Auto`'s memoized batch descent: each
//! mat's speculative trace is kept across the batch and only the previous
//! winner's mat re-descends, so the fold must rebuild exactly what the
//! sequential walk does. Against `Sequential` batches and against
//! repeated single `extract` calls, on tie-heavy keys in every key format
//! and both directions, over spans that start and end mid-mat, with k up
//! to and past exhaustion and stuck-at cells injected, the hits, every
//! [`OpCounters`] field and the probe's per-step removed counts must be
//! equal. The memoized path also runs on the row-major scalar oracle and
//! with the force-replay knob armed (every speculation bails, so the fold
//! replays inline).

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, ExtractionProbe, KeyFormat, OpCounters,
    ParallelPolicy,
};

/// Slots per mat under [`geometry`] (4 arrays × 4 rows).
const SLOTS_PER_MAT: u64 = 16;

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

/// Every format family, including narrow fixed-point widths.
fn format(index: usize) -> KeyFormat {
    [
        KeyFormat::UNSIGNED32,
        KeyFormat::UNSIGNED64,
        KeyFormat::SIGNED32,
        KeyFormat::SIGNED64,
        KeyFormat::FLOAT32,
        KeyFormat::FLOAT64,
        KeyFormat::unsigned_fixed(5, 3),
        KeyFormat::signed_fixed(9, 3),
    ][index]
}

/// Records the probe's per-step removed counts and per-key step counts.
#[derive(Default)]
struct StepLog(Mutex<Vec<u64>>);

impl ExtractionProbe for StepLog {
    fn excluded_step(&self, removed: u64) {
        self.0.lock().unwrap().push(removed);
    }
    fn extraction(&self, steps: u16) {
        // Tagged above any removed count so the two streams stay apart.
        self.0.lock().unwrap().push(1 << 32 | u64::from(steps));
    }
}

struct Scenario {
    mats: u16,
    raw: Vec<u64>,
    format: KeyFormat,
    direction: Direction,
    begin: u64,
    end: u64,
    k: usize,
    faults: Vec<(u64, u16, bool)>,
}

/// How one run extracts.
#[derive(Debug, Clone, Copy)]
struct Arm {
    policy: ParallelPolicy,
    scalar: bool,
    force_replay: Option<u16>,
    /// `k` single extractions instead of one batch.
    single: bool,
}

type Observed = (Vec<ExtractHit>, Vec<ExtractHit>, OpCounters, Vec<u64>);

/// Loads the scenario, runs its extraction under `arm`, then a short
/// continuation batch; returns everything observable.
fn run(s: &Scenario, arm: Arm) -> Observed {
    let mut chip = Chip::new(geometry(s.mats));
    chip.set_parallel_policy(arm.policy);
    chip.set_scalar_oracle(arm.scalar);
    chip.set_force_replay(arm.force_replay);
    let log = Arc::new(StepLog::default());
    chip.set_probe(Some(log.clone()));
    chip.store_keys(0, &s.raw, s.format).unwrap();
    for &(slot, bit, stuck) in &s.faults {
        chip.inject_stuck_cell(slot, bit, stuck).unwrap();
    }
    chip.init_range(s.begin, s.end, s.format).unwrap();
    let hits = if arm.single {
        let mut hits = Vec::new();
        for _ in 0..s.k {
            match chip.extract(s.direction).unwrap() {
                Some(hit) => hits.push(hit),
                None => break,
            }
        }
        hits
    } else {
        chip.extract_batch(s.direction, s.k).unwrap()
    };
    let more = chip.extract_batch(s.direction.reverse(), 3).unwrap();
    let steps = log.0.lock().unwrap().clone();
    (hits, more, *chip.counters(), steps)
}

fn assert_memo_agrees(s: &Scenario) -> Result<(), TestCaseError> {
    let arm = |policy, scalar, force_replay, single| Arm {
        policy,
        scalar,
        force_replay,
        single,
    };
    let want = run(s, arm(ParallelPolicy::Sequential, false, None, false));
    for other in [
        arm(ParallelPolicy::Sequential, false, None, true),
        arm(ParallelPolicy::Auto, false, None, true),
        arm(ParallelPolicy::Auto, false, None, false),
        arm(ParallelPolicy::Auto, true, None, false),
        arm(ParallelPolicy::Auto, false, Some(0), false),
        arm(ParallelPolicy::Auto, true, Some(5), false),
    ] {
        let got = run(s, other);
        prop_assert_eq!(&got.0, &want.0, "hits under {:?}", other);
        prop_assert_eq!(&got.1, &want.1, "continuation under {:?}", other);
        prop_assert_eq!(got.2, want.2, "counters under {:?}", other);
        prop_assert_eq!(&got.3, &want.3, "probe steps under {:?}", other);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoized_batches_match_sequential_and_single_extracts(
        mats in 2u16..10,
        palette in prop::collection::vec(any::<u64>(), 1..5),
        picks in prop::collection::vec(0usize..5, 160..=160),
        format_index in 0usize..8,
        max in any::<bool>(),
        begin_frac in 0u64..1000,
        len_frac in 1u64..=1000,
        k_extra in 0usize..6,
        fault_slots in prop::collection::vec(any::<u64>(), 0..4),
        fault_bits in prop::collection::vec(any::<u16>(), 4..=4),
        fault_stuck in prop::collection::vec(any::<bool>(), 4..=4),
    ) {
        let format = format(format_index);
        let capacity = u64::from(mats) * SLOTS_PER_MAT;
        let width_mask = u64::MAX >> (64 - format.bits());
        // Tie-heavy: every key is one of at most four palette values.
        let raw: Vec<u64> = picks[..capacity as usize]
            .iter()
            .map(|&p| palette[p % palette.len()] & width_mask)
            .collect();
        // Usually starts and ends mid-mat.
        let begin = begin_frac * capacity / 1000;
        let end = (begin + (len_frac * (capacity - begin)).div_ceil(1000)).min(capacity);
        prop_assume!(begin < end);
        let faults = fault_slots
            .iter()
            .zip(&fault_bits)
            .zip(&fault_stuck)
            .map(|((&slot, &bit), &stuck)| (slot % capacity, bit % format.bits(), stuck))
            .collect();
        let scenario = Scenario {
            mats,
            raw,
            format,
            direction: if max { Direction::Max } else { Direction::Min },
            begin,
            end,
            // From a couple of keys to past exhaustion.
            k: (((end - begin) as usize) * k_extra).div_ceil(4).max(2),
            faults,
        };
        assert_memo_agrees(&scenario)?;
    }
}
