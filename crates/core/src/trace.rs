//! Operation trace recording and replay.
//!
//! A [`TracedDevice`] wraps a [`RimeDevice`] and logs every API call —
//! the sequence of `rime_malloc` / stores / `rime_init` / `rime_min` /
//! `rime_min_k` / FIFO drains / `rime_free` operations an application
//! issued. Traces serve two production purposes:
//!
//! * **debugging** — a failing workload can be captured once and
//!   replayed deterministically against any device configuration;
//! * **regression** — [`replay`] re-executes a trace on a fresh device
//!   and returns the extracted values, so refactors of the device
//!   internals can be checked against recorded behaviour.
//!
//! Both halves sit at the command-plane boundary: recording is a
//! [`Telemetry`] sink ([`TraceRecorder`]) observing the executor's event
//! stream, and [`replay`] feeds typed [`Command`]s back through
//! [`RimeDevice::execute`]. Because the sink sees *commands* rather than
//! API entry points, every front-end lowering into the executor — the
//! typed API, MMIO doorbells, or another replay — is recordable with the
//! same code path, and new command variants (like the batch extraction
//! PR 1 added) are traced without recorder changes.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use rime_memristive::{Direction, KeyFormat};

use crate::cmd::{Command, Outcome};
use crate::device::{Region, RimeConfig, RimeDevice};
use crate::error::RimeError;
use crate::journal::{self, JournalError};
use crate::telemetry::{Telemetry, TelemetryEvent};

/// One recorded API call. Regions are identified by their ordinal
/// allocation index, which makes traces portable across devices.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// `rime_malloc(len)` → region ordinal = number of prior Allocs.
    Alloc {
        /// Requested length in key slots.
        len: u64,
    },
    /// `rime_free(region)`.
    Free {
        /// Ordinal of the freed region.
        region: usize,
    },
    /// Raw store into a region.
    Write {
        /// Region ordinal.
        region: usize,
        /// Region-relative slot offset.
        offset: u64,
        /// Raw key patterns.
        raw: Vec<u64>,
        /// Key format.
        format: KeyFormat,
    },
    /// `rime_init` over a sub-range.
    Init {
        /// Region ordinal.
        region: usize,
        /// Region-relative start.
        offset: u64,
        /// Length in slots.
        len: u64,
        /// Key format.
        format: KeyFormat,
    },
    /// `rime_min`/`rime_max`.
    Extract {
        /// Region ordinal.
        region: usize,
        /// Format the caller requested.
        format: KeyFormat,
        /// Min or max.
        direction: Direction,
    },
    /// Batched `rime_min_k`/`rime_max_k`.
    ExtractBatch {
        /// Region ordinal.
        region: usize,
        /// Format the caller requested.
        format: KeyFormat,
        /// Min or max.
        direction: Direction,
        /// Batch size.
        k: usize,
    },
    /// A drain of one already-buffered candidate (no chip engagement).
    FifoNext {
        /// Region ordinal.
        region: usize,
    },
}

/// A [`Telemetry`] sink that turns the executor's event stream into a
/// portable [`TraceOp`] log.
///
/// Failed commands are not recorded (they had no effect to reproduce),
/// and neither are plain reads — a trace captures the store/init/extract
/// sequence that determines device behaviour. Region handles are
/// translated to ordinal allocation indices as `Alloc` outcomes stream
/// past, so the log never references device-specific addresses.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    ordinals: HashMap<u64, usize>,
    next_ordinal: usize,
    log: Vec<TraceOp>,
}

impl TraceRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// The recorded operations so far.
    pub fn log(&self) -> &[TraceOp] {
        &self.log
    }

    /// Takes the recorded trace, leaving the recorder empty (region
    /// ordinal assignments are kept so recording can continue).
    pub fn take(&mut self) -> Vec<TraceOp> {
        std::mem::take(&mut self.log)
    }

    fn ordinal_of(&self, region: Region) -> Option<usize> {
        self.ordinals.get(&region.id).copied()
    }
}

impl Telemetry for TraceRecorder {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        let outcome = match event.result {
            Ok(outcome) => outcome,
            Err(_) => return, // failed calls are not recorded
        };
        match *event.command {
            Command::Alloc { len } => {
                if let Outcome::Region(region) = outcome {
                    self.ordinals.insert(region.id, self.next_ordinal);
                    self.next_ordinal += 1;
                    self.log.push(TraceOp::Alloc { len });
                }
            }
            Command::Free { region } => {
                if let Some(region) = self.ordinal_of(region) {
                    self.log.push(TraceOp::Free { region });
                }
            }
            Command::Write {
                region,
                offset,
                ref raw,
                format,
            } => {
                if let Some(region) = self.ordinal_of(region) {
                    self.log.push(TraceOp::Write {
                        region,
                        offset,
                        raw: raw.to_vec(),
                        format,
                    });
                }
            }
            Command::Read { .. } => {}
            Command::Init {
                region,
                offset,
                len,
                format,
            } => {
                if let Some(region) = self.ordinal_of(region) {
                    self.log.push(TraceOp::Init {
                        region,
                        offset,
                        len,
                        format,
                    });
                }
            }
            Command::Extract {
                region,
                format,
                direction,
            } => {
                if let Some(region) = self.ordinal_of(region) {
                    self.log.push(TraceOp::Extract {
                        region,
                        format,
                        direction,
                    });
                }
            }
            Command::ExtractBatch {
                region,
                format,
                direction,
                k,
            } => {
                if let Some(region) = self.ordinal_of(region) {
                    self.log.push(TraceOp::ExtractBatch {
                        region,
                        format,
                        direction,
                        k,
                    });
                }
            }
            Command::FifoNext { region } => {
                if let Some(region) = self.ordinal_of(region) {
                    self.log.push(TraceOp::FifoNext { region });
                }
            }
        }
    }
}

/// A recording wrapper around a device: a [`RimeDevice`] with a
/// [`TraceRecorder`] attached to its telemetry spine, plus the
/// ordinal→handle table the replay side needs.
#[derive(Debug)]
pub struct TracedDevice {
    device: RimeDevice,
    regions: Vec<Region>,
    recorder: Arc<Mutex<TraceRecorder>>,
}

impl TracedDevice {
    /// Wraps a fresh device with the given configuration.
    pub fn new(config: RimeConfig) -> TracedDevice {
        let device = RimeDevice::new(config);
        let recorder = Arc::new(Mutex::new(TraceRecorder::new()));
        device.attach_telemetry(recorder.clone());
        TracedDevice {
            device,
            regions: Vec::new(),
            recorder,
        }
    }

    /// The wrapped device (e.g. for counter or capacity inspection).
    pub fn device(&self) -> &RimeDevice {
        &self.device
    }

    fn recorder(&self) -> std::sync::MutexGuard<'_, TraceRecorder> {
        self.recorder.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The recorded operations so far.
    pub fn log(&self) -> Vec<TraceOp> {
        self.recorder().log().to_vec()
    }

    /// Consumes the wrapper, returning the trace.
    pub fn into_trace(self) -> Vec<TraceOp> {
        self.recorder().take()
    }

    fn region(&self, ordinal: usize) -> Result<Region, RimeError> {
        self.regions
            .get(ordinal)
            .copied()
            .ok_or(RimeError::InvalidRegion)
    }

    /// Recorded `rime_malloc`; returns the region's ordinal.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (failed calls are not recorded).
    pub fn alloc(&mut self, len: u64) -> Result<usize, RimeError> {
        let region = self.device.alloc(len)?;
        self.regions.push(region);
        Ok(self.regions.len() - 1)
    }

    /// Recorded `rime_free`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn free(&mut self, region: usize) -> Result<(), RimeError> {
        self.device.free(self.region(region)?)
    }

    /// Recorded raw store.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_raw(
        &mut self,
        region: usize,
        offset: u64,
        raw: &[u64],
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        self.device
            .write_raw(self.region(region)?, offset, raw, format)
    }

    /// Recorded `rime_init`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn init_raw(
        &mut self,
        region: usize,
        offset: u64,
        len: u64,
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        self.device
            .init_raw(self.region(region)?, offset, len, format)
    }

    /// Recorded extraction; returns (global slot, raw bits).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn extract(
        &mut self,
        region: usize,
        format: KeyFormat,
        direction: Direction,
    ) -> Result<Option<(u64, u64)>, RimeError> {
        self.device
            .next_extreme_raw(self.region(region)?, format, direction)
    }

    /// Recorded batch extraction (`rime_min_k`/`rime_max_k`); returns up
    /// to `k` (global slot, raw bits) pairs in extraction order.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn extract_batch(
        &mut self,
        region: usize,
        format: KeyFormat,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<(u64, u64)>, RimeError> {
        self.device
            .next_extremes_raw(self.region(region)?, format, direction, k)
    }

    /// Recorded FIFO drain of one already-buffered candidate.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn fifo_next(&mut self, region: usize) -> Result<Option<(u64, u64)>, RimeError> {
        self.device.fifo_next_raw(self.region(region)?)
    }
}

// ---------------------------------------------------------------------
// Trace serialization
// ---------------------------------------------------------------------

/// Trace file magic: identifies format and version in one probe.
const TRACE_MAGIC: &[u8; 8] = b"RIMETRC1";

/// Serializes a trace for persistence: `RIMETRC1` magic, op count, the
/// ops (journal codec), and a trailing CRC-32 over everything before
/// it. The CRC makes torn writes *detectable*: a truncated or corrupted
/// file decodes to a typed [`JournalError`], never to a silently
/// shortened trace.
pub fn encode_trace(trace: &[TraceOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(TRACE_MAGIC);
    journal::put_u32(&mut buf, trace.len() as u32);
    for op in trace {
        put_trace_op(&mut buf, op);
    }
    let crc = journal::crc32(&buf);
    journal::put_u32(&mut buf, crc);
    buf
}

/// Decodes a trace serialized by [`encode_trace`]. All-or-nothing: any
/// truncation, corruption, or undecodable content is a typed error and
/// no ops are returned.
///
/// # Errors
///
/// [`JournalError::BadMagic`] for a foreign file,
/// [`JournalError::TruncatedRecord`] when the buffer is too short to
/// even frame, [`JournalError::BadChecksum`] when the body fails its
/// CRC (torn write or bit rot), and [`JournalError::Decode`] for
/// CRC-valid but structurally invalid content.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceOp>, JournalError> {
    if bytes.len() < TRACE_MAGIC.len() {
        return Err(JournalError::TruncatedRecord {
            offset: bytes.len() as u64,
        });
    }
    if &bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
        return Err(JournalError::BadMagic);
    }
    if bytes.len() < TRACE_MAGIC.len() + 8 {
        return Err(JournalError::TruncatedRecord {
            offset: bytes.len() as u64,
        });
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if journal::crc32(body) != want {
        return Err(JournalError::BadChecksum { offset: 0 });
    }
    let mut d = journal::Dec::new(&body[TRACE_MAGIC.len()..]);
    let n = d.len_prefix(1)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(get_trace_op(&mut d)?);
    }
    d.finish("trace")?;
    Ok(ops)
}

fn put_trace_op(buf: &mut Vec<u8>, op: &TraceOp) {
    match *op {
        TraceOp::Alloc { len } => {
            journal::put_u8(buf, 0);
            journal::put_u64(buf, len);
        }
        TraceOp::Free { region } => {
            journal::put_u8(buf, 1);
            journal::put_u64(buf, region as u64);
        }
        TraceOp::Write {
            region,
            offset,
            ref raw,
            format,
        } => {
            journal::put_u8(buf, 2);
            journal::put_u64(buf, region as u64);
            journal::put_u64(buf, offset);
            journal::put_u32(buf, raw.len() as u32);
            for &word in raw {
                journal::put_u64(buf, word);
            }
            journal::put_format(buf, format);
        }
        TraceOp::Init {
            region,
            offset,
            len,
            format,
        } => {
            journal::put_u8(buf, 3);
            journal::put_u64(buf, region as u64);
            journal::put_u64(buf, offset);
            journal::put_u64(buf, len);
            journal::put_format(buf, format);
        }
        TraceOp::Extract {
            region,
            format,
            direction,
        } => {
            journal::put_u8(buf, 4);
            journal::put_u64(buf, region as u64);
            journal::put_format(buf, format);
            journal::put_direction(buf, direction);
        }
        TraceOp::ExtractBatch {
            region,
            format,
            direction,
            k,
        } => {
            journal::put_u8(buf, 5);
            journal::put_u64(buf, region as u64);
            journal::put_format(buf, format);
            journal::put_direction(buf, direction);
            journal::put_u64(buf, k as u64);
        }
        TraceOp::FifoNext { region } => {
            journal::put_u8(buf, 6);
            journal::put_u64(buf, region as u64);
        }
    }
}

fn get_trace_op(d: &mut journal::Dec<'_>) -> Result<TraceOp, JournalError> {
    let ordinal = |v: u64| -> Result<usize, JournalError> {
        usize::try_from(v).map_err(|_| JournalError::Decode {
            what: format!("region ordinal {v} exceeds usize"),
        })
    };
    match d.u8()? {
        0 => Ok(TraceOp::Alloc { len: d.u64()? }),
        1 => Ok(TraceOp::Free {
            region: ordinal(d.u64()?)?,
        }),
        2 => Ok(TraceOp::Write {
            region: ordinal(d.u64()?)?,
            offset: d.u64()?,
            raw: d.u64_vec()?,
            format: journal::get_format(d)?,
        }),
        3 => Ok(TraceOp::Init {
            region: ordinal(d.u64()?)?,
            offset: d.u64()?,
            len: d.u64()?,
            format: journal::get_format(d)?,
        }),
        4 => Ok(TraceOp::Extract {
            region: ordinal(d.u64()?)?,
            format: journal::get_format(d)?,
            direction: journal::get_direction(d)?,
        }),
        5 => Ok(TraceOp::ExtractBatch {
            region: ordinal(d.u64()?)?,
            format: journal::get_format(d)?,
            direction: journal::get_direction(d)?,
            k: ordinal(d.u64()?)?,
        }),
        6 => Ok(TraceOp::FifoNext {
            region: ordinal(d.u64()?)?,
        }),
        tag => Err(JournalError::Decode {
            what: format!("unknown trace op tag {tag}"),
        }),
    }
}

/// Replays a trace on a fresh device with `config`, returning the raw
/// bits every extraction produced (in order; `None` entries mark
/// exhausted ranges or dry FIFO drains; each `ExtractBatch` contributes
/// one `Some` entry per extracted value).
///
/// Replay is a third front-end of the command plane: each [`TraceOp`] is
/// lowered back into a typed [`Command`] and fed through
/// [`RimeDevice::execute`], so replayed operations take exactly the
/// executor path the original ones did.
///
/// # Errors
///
/// Propagates any device error the replayed operations hit.
pub fn replay(trace: &[TraceOp], config: RimeConfig) -> Result<Vec<Option<u64>>, RimeError> {
    let device = RimeDevice::new(config);
    let mut regions: Vec<Region> = Vec::new();
    let mut extracted = Vec::new();
    let resolve = |regions: &[Region], ordinal: usize| {
        regions
            .get(ordinal)
            .copied()
            .ok_or(RimeError::InvalidRegion)
    };
    for op in trace {
        let lowered = match *op {
            TraceOp::Alloc { len } => Command::Alloc { len },
            TraceOp::Free { region } => Command::Free {
                region: resolve(&regions, region)?,
            },
            TraceOp::Write {
                region,
                offset,
                ref raw,
                format,
            } => Command::Write {
                region: resolve(&regions, region)?,
                offset,
                raw: Cow::Borrowed(raw.as_slice()),
                format,
            },
            TraceOp::Init {
                region,
                offset,
                len,
                format,
            } => Command::Init {
                region: resolve(&regions, region)?,
                offset,
                len,
                format,
            },
            TraceOp::Extract {
                region,
                format,
                direction,
            } => Command::Extract {
                region: resolve(&regions, region)?,
                format,
                direction,
            },
            TraceOp::ExtractBatch {
                region,
                format,
                direction,
                k,
            } => Command::ExtractBatch {
                region: resolve(&regions, region)?,
                format,
                direction,
                k,
            },
            TraceOp::FifoNext { region } => Command::FifoNext {
                region: resolve(&regions, region)?,
            },
        };
        match device.execute(lowered)? {
            Outcome::Region(region) => regions.push(region),
            Outcome::Hit(hit) => extracted.push(hit.map(|(_, v)| v)),
            Outcome::Hits(hits) => extracted.extend(hits.into_iter().map(|(_, v)| Some(v))),
            Outcome::Done | Outcome::Keys(_) => {}
        }
    }
    Ok(extracted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_replays_identically() {
        let mut traced = TracedDevice::new(RimeConfig::small());
        let r = traced.alloc(4).unwrap();
        traced
            .write_raw(r, 0, &[9, 2, 7, 5], KeyFormat::UNSIGNED64)
            .unwrap();
        traced.init_raw(r, 0, 4, KeyFormat::UNSIGNED64).unwrap();
        let mut live = Vec::new();
        for _ in 0..5 {
            live.push(
                traced
                    .extract(r, KeyFormat::UNSIGNED64, Direction::Min)
                    .unwrap()
                    .map(|(_, v)| v),
            );
        }
        traced.free(r).unwrap();
        assert_eq!(live, vec![Some(2), Some(5), Some(7), Some(9), None]);

        let trace = traced.into_trace();
        assert_eq!(trace.len(), 9); // alloc + write + init + 5 extracts + free
        let replayed = replay(&trace, RimeConfig::small()).unwrap();
        assert_eq!(replayed, live);
    }

    #[test]
    fn replay_works_on_a_different_geometry() {
        let mut traced = TracedDevice::new(RimeConfig::small());
        let r = traced.alloc(3).unwrap();
        traced
            .write_raw(r, 0, &[3, 1, 2], KeyFormat::UNSIGNED32)
            .unwrap();
        traced.init_raw(r, 0, 3, KeyFormat::UNSIGNED32).unwrap();
        let _ = traced
            .extract(r, KeyFormat::UNSIGNED32, Direction::Max)
            .unwrap();
        let trace = traced.into_trace();

        // A bigger device must produce the same extraction results.
        let big = RimeConfig {
            chips_per_channel: 4,
            ..RimeConfig::small()
        };
        assert_eq!(replay(&trace, big).unwrap(), vec![Some(3)]);
    }

    #[test]
    fn stale_ordinals_error() {
        let mut traced = TracedDevice::new(RimeConfig::small());
        assert!(traced.free(0).is_err());
        let trace = vec![TraceOp::Free { region: 3 }];
        assert!(replay(&trace, RimeConfig::small()).is_err());
    }

    #[test]
    fn failed_calls_are_not_recorded() {
        let mut traced = TracedDevice::new(RimeConfig::small());
        let cap = traced.device().capacity();
        let _ = traced.alloc(cap + 1).unwrap_err();
        // A faulting extraction is not recorded either.
        let r = traced.alloc(2).unwrap();
        let _ = traced
            .extract(r, KeyFormat::UNSIGNED64, Direction::Min)
            .unwrap_err();
        assert_eq!(traced.log(), vec![TraceOp::Alloc { len: 2 }]);
    }

    #[test]
    fn batch_trace_records_and_replays_bit_identically() {
        // Regression: a rime_min_k workload (with FIFO drains and a
        // direction switch) recorded through the telemetry sink replays
        // bit-identically through the command plane.
        let mut traced = TracedDevice::new(RimeConfig::small());
        // Span two chips so the batch leaves candidates buffered on the
        // losing chip — the FIFO drain then has real work to do.
        let n = traced.device().config().chip_slots() + 8;
        let keys: Vec<u64> = (0..n).map(|i| (i * 7919) % 104729).collect();
        let r = traced.alloc(keys.len() as u64).unwrap();
        traced
            .write_raw(r, 0, &keys, KeyFormat::UNSIGNED64)
            .unwrap();
        traced
            .init_raw(r, 0, keys.len() as u64, KeyFormat::UNSIGNED64)
            .unwrap();

        let mut live: Vec<Option<u64>> = Vec::new();
        let batch = traced
            .extract_batch(r, KeyFormat::UNSIGNED64, Direction::Min, 7)
            .unwrap();
        assert_eq!(batch.len(), 7);
        live.extend(batch.iter().map(|&(_, v)| Some(v)));
        // Drain whatever the batch left buffered.
        let mut drained = 0;
        while let Some((_, v)) = traced.fifo_next(r).unwrap() {
            live.push(Some(v));
            drained += 1;
        }
        assert!(drained > 0, "batch left buffered candidates to drain");
        live.push(None); // the dry drain itself
                         // Direction switch re-arms; take the top 3.
        let top = traced
            .extract_batch(r, KeyFormat::UNSIGNED64, Direction::Max, 3)
            .unwrap();
        let mut want = keys.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(
            top.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            want[..3].to_vec()
        );
        live.extend(top.iter().map(|&(_, v)| Some(v)));
        traced.free(r).unwrap();

        let trace = traced.into_trace();
        assert!(trace
            .iter()
            .any(|op| matches!(op, TraceOp::ExtractBatch { k: 7, .. })));
        assert!(trace
            .iter()
            .any(|op| matches!(op, TraceOp::FifoNext { .. })));
        let replayed = replay(&trace, RimeConfig::small()).unwrap();
        assert_eq!(replayed, live);
    }

    /// One of every op, with non-default formats and both directions.
    fn exemplar_trace() -> Vec<TraceOp> {
        vec![
            TraceOp::Alloc { len: 6 },
            TraceOp::Write {
                region: 0,
                offset: 1,
                raw: vec![9, 2, 7],
                format: KeyFormat::SIGNED32,
            },
            TraceOp::Init {
                region: 0,
                offset: 0,
                len: 6,
                format: KeyFormat::FLOAT64,
            },
            TraceOp::Extract {
                region: 0,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            },
            TraceOp::ExtractBatch {
                region: 0,
                format: KeyFormat::UNSIGNED32,
                direction: Direction::Max,
                k: 3,
            },
            TraceOp::FifoNext { region: 0 },
            TraceOp::Free { region: 0 },
        ]
    }

    #[test]
    fn every_trace_op_round_trips_through_the_codec() {
        let trace = exemplar_trace();
        let bytes = encode_trace(&trace);
        assert_eq!(decode_trace(&bytes).unwrap(), trace);
        // An empty trace is a valid (if dull) file.
        let empty = encode_trace(&[]);
        assert_eq!(decode_trace(&empty).unwrap(), Vec::<TraceOp>::new());
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error_never_a_partial_trace() {
        // A torn write leaves a prefix of the file. Every possible cut
        // must yield a typed JournalError — no panic, and (since decode
        // is all-or-nothing) no partially applied trace.
        let bytes = encode_trace(&exemplar_trace());
        for cut in 0..bytes.len() {
            let err = decode_trace(&bytes[..cut])
                .expect_err(&format!("cut at {cut} of {} decoded", bytes.len()));
            assert!(
                matches!(
                    err,
                    JournalError::TruncatedRecord { .. } | JournalError::BadChecksum { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn interior_corruption_fails_the_checksum() {
        let mut bytes = encode_trace(&exemplar_trace());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            JournalError::BadChecksum { offset: 0 }
        );
    }

    #[test]
    fn foreign_magic_is_refused() {
        assert_eq!(
            decode_trace(b"NOTATRCE-rest-doesnt-matter").unwrap_err(),
            JournalError::BadMagic
        );
        // Valid CRC but an unknown op tag: structurally undecodable.
        let mut body = Vec::new();
        body.extend_from_slice(b"RIMETRC1");
        crate::journal::put_u32(&mut body, 1);
        crate::journal::put_u8(&mut body, 200);
        let crc = crate::journal::crc32(&body);
        crate::journal::put_u32(&mut body, crc);
        assert!(matches!(
            decode_trace(&body).unwrap_err(),
            JournalError::Decode { .. }
        ));
    }

    #[test]
    fn trace_image_is_pinned_byte_for_byte() {
        // Length and CRC-32 of the exemplar's `RIMETRC1` image, taken from
        // the bitwise-CRC encoder: the format must not drift.
        let bytes = encode_trace(&exemplar_trace());
        assert_eq!(
            (bytes.len(), crate::journal::crc32(&bytes)),
            (161, 0x2144_DF1C)
        );
    }
}
