//! # rime-bench
//!
//! The experiment harness: one binary per paper table/figure (run with
//! `cargo run -p rime-bench --bin figNN`) plus Criterion benches over the
//! functional models. This library holds the shared sweep configuration
//! and series-printing helpers so every figure binary reports the same
//! way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod csv;
pub mod heatmap;

use rime_memsim::SystemConfig;

/// The paper's data-size sweep: 0.5M–65M keys (Figs. 1–2, 15–18).
///
/// Override with `RIME_SIZES=0.5,8,65` (millions of keys).
pub fn size_sweep() -> Vec<u64> {
    if let Ok(spec) = std::env::var("RIME_SIZES") {
        let sizes: Vec<u64> = spec
            .split(',')
            .filter_map(|s| s.trim().parse::<f64>().ok())
            .map(|m| (m * 1e6) as u64)
            .filter(|&n| n > 0)
            .collect();
        if !sizes.is_empty() {
            return sizes;
        }
    }
    vec![
        500_000, 2_000_000, 8_000_000, 16_000_000, 32_000_000, 65_000_000,
    ]
}

/// The paper's core-count sweep (Fig. 1(b,c)).
pub fn core_sweep() -> Vec<u32> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// Default core count for data-size sweeps (Fig. 1(a) uses 16 cores).
pub const DEFAULT_CORES: u32 = 16;

/// The three baseline memory systems in figure order.
pub fn baseline_systems(cores: u32) -> [(&'static str, SystemConfig); 3] {
    [
        ("Unlimited", SystemConfig::unlimited(cores)),
        ("In-Package (HBM)", SystemConfig::in_package(cores)),
        ("Off-Chip (DDR4)", SystemConfig::off_chip(cores)),
    ]
}

use std::cell::RefCell;

thread_local! {
    static CURRENT_FIGURE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Prints a figure header and remembers the figure name for CSV export.
pub fn header(figure: &str, title: &str, y_axis: &str) {
    CURRENT_FIGURE.with(|f| *f.borrow_mut() = format!("{figure} {title}"));
    println!("==========================================================");
    println!("{figure}: {title}");
    println!("y-axis: {y_axis}");
    println!("==========================================================");
}

/// Prints one series table: rows = x values, columns = named series —
/// followed by an ASCII rendering of the curves (suppress with
/// `RIME_NO_CHART=1`).
pub fn print_series(x_name: &str, xs: &[u64], series: &[(String, Vec<f64>)]) {
    print!("{x_name:>14}");
    for (name, _) in series {
        print!(" {name:>18}");
    }
    println!();
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>14}");
        for (_, ys) in series {
            print!(" {:>18.2}", ys[i]);
        }
        println!();
    }
    println!();
    if chart::enabled() {
        print!("{}", chart::render(series, 12));
        println!();
    }
    CURRENT_FIGURE.with(|f| csv::export(&f.borrow(), x_name, xs, series));
}

/// Runs one fully instrumented (probes + metrics registry) pass of an
/// `init` + `rime_min_k(batch_k)` workload on a single chip of
/// `chip_geometry` under `policy`, and returns the device's *masked*
/// metrics snapshot as compact JSON.
///
/// The bench harnesses embed this in their `RIME_BENCH_JSON` output: the
/// pass runs *outside* the timed region (probes read the host clock, so
/// they stay off while measuring), and masking zeroes the wall-clock
/// metrics so the embedded snapshot is deterministic for a fixed
/// geometry/policy/batch — committed snapshots don't churn on re-runs.
pub fn instrumented_metrics_json(
    chip_geometry: rime_memristive::ChipGeometry,
    policy: rime_memristive::ParallelPolicy,
    batch_k: usize,
) -> String {
    use rime_core::{Direction, DriverConfig, KeyFormat, RimeConfig, RimeDevice};
    use rime_memristive::ArrayTiming;

    let config = RimeConfig {
        channels: 1,
        chips_per_channel: 1,
        chip_geometry,
        timing: ArrayTiming::table1(),
        driver: DriverConfig::default(),
    };
    let dev = RimeDevice::new(config);
    dev.enable_extraction_metrics();
    dev.set_parallel_policy(policy);
    let n = dev.capacity();
    let region = dev.alloc(n).expect("alloc metrics pass");
    let keys: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    dev.write_raw(region, 0, &keys, KeyFormat::UNSIGNED64)
        .expect("store metrics pass");
    dev.init_raw(region, 0, n, KeyFormat::UNSIGNED64)
        .expect("init metrics pass");
    let _ = dev
        .next_extremes_raw(region, KeyFormat::UNSIGNED64, Direction::Min, batch_k)
        .expect("extract metrics pass");
    dev.metrics_snapshot().masked().to_json(false)
}

/// Formats a ratio like the paper's "×" factors.
pub fn factor(over: f64, base: f64) -> String {
    if base <= 0.0 {
        "—".to_string()
    } else {
        format!("{:.1}×", over / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_covers_paper_range() {
        std::env::remove_var("RIME_SIZES");
        let s = size_sweep();
        assert_eq!(*s.first().unwrap(), 500_000);
        assert_eq!(*s.last().unwrap(), 65_000_000);
    }

    #[test]
    fn core_sweep_reaches_64() {
        assert_eq!(core_sweep().last(), Some(&64));
    }

    #[test]
    fn factor_formats() {
        assert_eq!(factor(30.0, 10.0), "3.0×");
        assert_eq!(factor(1.0, 0.0), "—");
    }
}
