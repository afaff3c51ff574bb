//! # deca-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's §6 (see DESIGN.md §3 for the
//! index), plus micro-benchmarks in `benches/` on the `deca-check`
//! wall-clock timer. This library
//! holds the shared pieces: the scale presets mapping the paper's
//! cluster-scale datasets onto laptop-scale equivalents, and tabular
//! output helpers whose rows EXPERIMENTS.md records.
//!
//! Run a harness with e.g.
//! `cargo run --release -p deca-bench --bin fig9_lr_kmeans`.

#![forbid(unsafe_code)]

use std::time::Duration;

/// Global scale preset. The paper's experiments use 2–200 GB datasets on
/// 30 GB executors; we preserve the *ratios* (live set : heap capacity)
/// at MB scale. `SCALE` multiplies the per-experiment record counts.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// Multiplier over the default record counts (1.0 ≈ seconds per cell).
    pub factor: f64,
    /// Iterations for iterative workloads (paper: 30 for LR/KMeans, 10 for
    /// PR/CC; defaults are reduced for wall-clock sanity).
    pub lr_iterations: usize,
    pub graph_iterations: usize,
}

impl Scale {
    /// Read the scale factor from `DECA_BENCH_SCALE` (default 1.0).
    pub fn from_env() -> Scale {
        let factor =
            std::env::var("DECA_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
        Scale { factor, lr_iterations: 15, graph_iterations: 5 }
    }

    pub fn records(&self, base: usize) -> usize {
        ((base as f64) * self.factor) as usize
    }
}

/// Format a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format bytes as MB with 2 decimals.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

/// Print a header row followed by a separator, TSV-ish aligned.
pub fn table_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
    println!("{}", "-".repeat(cols.len() * 12));
}

/// Print one row.
pub fn table_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// A named series of (x, y) points for figure-style output.
pub fn print_series(name: &str, points: &[(f64, f64)]) {
    print!("{name}:");
    for (x, y) in points {
        print!(" ({x:.2},{y:.3})");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing() {
        let s = Scale { factor: 2.0, lr_iterations: 15, graph_iterations: 5 };
        assert_eq!(s.records(100), 200);
        let d = Scale::from_env();
        assert!(d.factor > 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(mb(3 << 20), "3.00");
    }
}
