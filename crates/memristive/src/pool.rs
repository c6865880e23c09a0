//! Host calibration for benchmarks: what one hand-off to a parked
//! worker thread costs against the bit-sliced kernels' word cost.
//!
//! The chip runs every descent on the calling thread (see the `descent`
//! module); no scheduling decision reads these numbers. They answer the
//! question a thread pool would face on the measuring host: how many
//! words of select-vector work must a hand-off carry before it pays for
//! itself.

use std::sync::mpsc::channel;
use std::sync::OnceLock;
use std::time::Instant;

use crate::bitmap::Bitmap;

/// One-shot measured costs of a thread hand-off vs the bit-sliced data
/// plane — a host report for benchmarks. Measured once per process (see
/// [`pool_calibration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCalibration {
    /// Best-case round-trip latency to a parked worker thread through a
    /// channel pair, in nanoseconds (≥ 1).
    pub round_trip_ns: u64,
    /// Cost of one 64-bit word of select-vector AND work, in
    /// picoseconds (≥ 1).
    pub word_picos: u64,
}

/// Measures (once per process) the round-trip latency to a parked
/// worker thread and the per-word cost of the bit-sliced kernels. Both
/// are wall-clock measurements and therefore nondeterministic; no
/// scheduling decision reads them.
pub fn pool_calibration() -> PoolCalibration {
    static CAL: OnceLock<PoolCalibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Control plane: minimum of 64 ping-pongs with a bare echo
        // thread parked on its channel (min, not mean, so scheduler
        // noise is excluded).
        let (ping_tx, ping_rx) = channel::<u64>();
        let (pong_tx, pong_rx) = channel::<u64>();
        let echo = std::thread::spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let mut best = u64::MAX;
        for i in 0..64 {
            let t = Instant::now();
            ping_tx.send(i).expect("echo thread alive");
            std::hint::black_box(pong_rx.recv().expect("echo thread alive"));
            best = best.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        drop(ping_tx);
        let _ = echo.join();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_stable() {
        let a = pool_calibration();
        let b = pool_calibration();
        assert!(a.round_trip_ns >= 1 && a.word_picos >= 1);
        assert_eq!(a, b, "per-process calibration must be cached");
    }
}
