//! Differential properties for the batched extraction engine: for every
//! key format, geometry, and direction, `extract_batch(k)` must be
//! observationally identical to `k` sequential `extract` calls — same
//! slots, same raw bits, same stable tie-breaking, and identical
//! [`OpCounters`] — regardless of the parallel fan-out policy.

use proptest::prelude::*;
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy, SortableBits,
};

/// A geometry with `mats` mats of 32 slots each (1 bank, 1 subbank).
fn geometry(mats: u16) -> ChipGeometry {
    ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: mats,
        arrays_per_mat: 4,
        rows: 8,
        cols: 64,
    }
}

fn loaded_chip(raw: &[u64], format: KeyFormat, mats: u16, policy: ParallelPolicy) -> Chip {
    let mut chip = Chip::new(geometry(mats));
    chip.set_parallel_policy(policy);
    chip.store_keys(0, raw, format).unwrap();
    chip.init_range(0, raw.len() as u64, format).unwrap();
    chip
}

/// Drains up to `k` hits through single-key extraction, stopping at the
/// first exhausted probe — the contract `extract_batch` replicates.
fn sequential_reference(chip: &mut Chip, direction: Direction, k: usize) -> Vec<ExtractHit> {
    let mut out = Vec::new();
    for _ in 0..k {
        match chip.extract(direction).unwrap() {
            Some(hit) => out.push(hit),
            None => break,
        }
    }
    out
}

/// The expected (slot, raw_bits) sequence from a pure software model:
/// keys ordered by the format's comparison, ties by lowest slot.
fn software_reference(
    raw: &[u64],
    format: KeyFormat,
    direction: Direction,
    k: usize,
) -> Vec<(u64, u64)> {
    let mut order: Vec<(u64, u64)> = raw
        .iter()
        .enumerate()
        .map(|(slot, &bits)| (slot as u64, bits))
        .collect();
    order.sort_by(|a, b| {
        let cmp = format.compare_bits(a.1, b.1);
        let cmp = match direction {
            Direction::Min => cmp,
            Direction::Max => cmp.reverse(),
        };
        cmp.then(a.0.cmp(&b.0))
    });
    order.truncate(k);
    order
}

/// Runs the full differential check for one key set (an `Auto` batch
/// against a `Sequential` single-extract drain); returns the batch hits
/// and both counter snapshots for the caller's assertions.
fn check<T: SortableBits>(
    keys: &[T],
    mats: u16,
    k: usize,
    direction: Direction,
) -> (Vec<ExtractHit>, OpCounters, OpCounters) {
    let raw: Vec<u64> = keys.iter().map(|v| v.to_raw_bits()).collect();
    let mut batch_chip = loaded_chip(&raw, T::FORMAT, mats, ParallelPolicy::Auto);
    let mut seq_chip = loaded_chip(&raw, T::FORMAT, mats, ParallelPolicy::Sequential);

    let batch = batch_chip.extract_batch(direction, k).unwrap();
    let seq = sequential_reference(&mut seq_chip, direction, k);
    assert_eq!(batch, seq, "batch must equal the sequential drain");

    let soft = software_reference(&raw, T::FORMAT, direction, k);
    let got: Vec<(u64, u64)> = batch.iter().map(|h| (h.slot, h.raw_bits)).collect();
    assert_eq!(got, soft, "stable order with lowest-slot tie-break");

    (batch, *batch_chip.counters(), *seq_chip.counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unsigned_batch_equals_sequential(
        keys in prop::collection::vec(any::<u64>(), 1..96),
        mats in 1u16..4,
        k in 0usize..100,
        max in any::<bool>(),
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        let direction = if max { Direction::Max } else { Direction::Min };
        let (_, bc, sc) = check(&keys, mats, k, direction);
        prop_assert_eq!(bc, sc, "OpCounters must be identical");
    }

    #[test]
    fn signed_batch_equals_sequential(
        keys in prop::collection::vec(any::<i32>(), 1..96),
        mats in 1u16..4,
        k in 0usize..100,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        let (_, bc, sc) = check(&keys, mats, k, Direction::Min);
        prop_assert_eq!(bc, sc, "OpCounters must be identical");
    }

    #[test]
    fn float_batch_equals_sequential(
        keys in prop::collection::vec(any::<f32>(), 1..96),
        mats in 1u16..4,
        k in 0usize..100,
        max in any::<bool>(),
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        let direction = if max { Direction::Max } else { Direction::Min };
        let (_, bc, sc) = check(&keys, mats, k, direction);
        prop_assert_eq!(bc, sc, "OpCounters must be identical");
    }

    #[test]
    fn duplicate_heavy_keys_keep_stable_ties(
        keys in prop::collection::vec(0u64..4, 1..96),
        mats in 1u16..4,
        k in 0usize..100,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        // `check` already asserts slots come out lowest-address-first
        // among ties via the software reference.
        let (_, bc, sc) = check(&keys, mats, k, Direction::Min);
        prop_assert_eq!(bc, sc, "OpCounters must be identical");
    }

    #[test]
    fn single_mat_geometry_works(
        keys in prop::collection::vec(any::<u32>(), 1..32),
        k in 0usize..40,
    ) {
        let (_, bc, sc) = check(&keys, 1, k, Direction::Min);
        prop_assert_eq!(bc, sc, "OpCounters must be identical");
    }

    #[test]
    fn resuming_after_a_batch_continues_the_stream(
        keys in prop::collection::vec(any::<u64>(), 2..64),
        split in 1usize..63,
    ) {
        prop_assume!(split < keys.len());
        let raw: Vec<u64> = keys.clone();
        let mut chip = loaded_chip(&raw, KeyFormat::UNSIGNED64, 2, ParallelPolicy::Auto);
        let mut hits = chip.extract_batch(Direction::Min, split).unwrap();
        // Finish with single-key extraction: the exclusion flags persist.
        while let Some(hit) = chip.extract(Direction::Min).unwrap() {
            hits.push(hit);
        }
        let soft = software_reference(&raw, KeyFormat::UNSIGNED64, Direction::Min, keys.len());
        let got: Vec<(u64, u64)> = hits.iter().map(|h| (h.slot, h.raw_bits)).collect();
        prop_assert_eq!(got, soft);
    }
}
