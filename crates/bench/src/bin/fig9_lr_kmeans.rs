//! Figure 9 — caching-only LR and KMeans.
//!
//! * `--lifetime` (Figure 9a): the LabeledPoint census + GC time series.
//! * `--app lr` (Figure 9b) / `--app kmeans` (Figure 9c): execution time
//!   and cached-data size across dataset sizes that cross the heap
//!   capacity, for Spark / SparkSer / Deca.
//!
//! Expected shape (paper): small datasets → moderate gains; datasets at or
//! beyond capacity → Deca 16–41x with Spark full-GC-bound and swapping;
//! Deca's cache is smaller throughout (10-dim data; Figure 2's bloat).

#![forbid(unsafe_code)]

use deca_apps::kmeans::{self, KmParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::report::{speedup, AppReport};
use deca_apps::run_job_local;
use deca_bench::{mb, secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_env();
    if args.iter().any(|a| a == "--lifetime") {
        run_lifetime(&scale);
        return;
    }
    let app = args
        .iter()
        .position(|a| a == "--app")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("lr")
        .to_string();
    match app.as_str() {
        "kmeans" => run_kmeans(&scale),
        _ => run_lr(&scale),
    }
}

/// Figure 9(a): LabeledPoint lifetimes during LR.
fn run_lifetime(scale: &Scale) {
    println!("# Figure 9(a): LR cached-RDD lifetimes");
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let mut p = LrParams::small(mode);
        p.points = scale.records(60_000);
        p.iterations = scale.lr_iterations;
        p.heap_bytes = 16 << 20;
        p.sample_timeline = true;
        let r = run_job_local(&logreg::job(&p), logreg::lr_config(&p), 1);
        println!("\n{} (exec {}s, gc {}s):", mode.name(), secs(r.exec()), secs(r.gc()));
        println!("t_ms\tlive_labeled_points\tcum_gc_ms");
        for s in &r.timeline.samples {
            println!(
                "{:.1}\t{}\t{:.2}",
                s.at.as_secs_f64() * 1e3,
                s.live_objects,
                s.cumulative_gc.as_secs_f64() * 1e3
            );
        }
    }
}

/// The dataset sweep shared by LR and KMeans: sizes from comfortably
/// fitting to over-capacity (the paper's 40GB→200GB on 30GB heaps).
fn sweep() -> Vec<(usize, &'static str)> {
    vec![
        (30_000, "0.4x"),
        (45_000, "0.6x"),
        (60_000, "0.85x"),
        (75_000, "1.05x"),
        (110_000, "1.5x"),
    ]
}

fn print_row(label: &str, reports: &[AppReport]) {
    table_row(&[
        label.to_string(),
        secs(reports[0].exec()),
        secs(reports[1].exec()),
        secs(reports[2].exec()),
        format!("{:.1}x", speedup(&reports[0], &reports[2])),
        mb(reports[0].cache_bytes),
        mb(reports[1].cache_bytes),
        mb(reports[2].cache_bytes),
        format!("{}/{}", reports[0].minor_gcs, reports[0].full_gcs),
    ]);
}

fn run_lr(scale: &Scale) {
    println!("# Figure 9(b): LR exec time + cached data across dataset sizes");
    println!("# size label = cache bytes / old-gen capacity (Spark layout)\n");
    table_header(&[
        "size",
        "Spark_s",
        "SparkSer_s",
        "Deca_s",
        "DecaVsSpark",
        "cacheSp_MB",
        "cacheSer_MB",
        "cacheDeca_MB",
        "SparkGCs",
    ]);
    for (points, label) in sweep() {
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut p = LrParams::small(mode);
            p.points = scale.records(points);
            p.iterations = scale.lr_iterations;
            p.heap_bytes = 16 << 20;
            p.storage_fraction = 0.62;
            reports.push(run_job_local(&logreg::job(&p), logreg::lr_config(&p), 1));
        }
        assert!((reports[0].checksum - reports[2].checksum).abs() < 1e-9);
        print_row(label, &reports);
    }
}

fn run_kmeans(scale: &Scale) {
    println!("# Figure 9(c): KMeans exec time + cached data across dataset sizes\n");
    table_header(&[
        "size",
        "Spark_s",
        "SparkSer_s",
        "Deca_s",
        "DecaVsSpark",
        "cacheSp_MB",
        "cacheSer_MB",
        "cacheDeca_MB",
        "SparkGCs",
    ]);
    for (points, label) in sweep() {
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut p = KmParams::small(mode);
            p.points = scale.records(points);
            p.iterations = scale.lr_iterations.min(10);
            p.heap_bytes = 16 << 20;
            p.storage_fraction = 0.62;
            reports.push(run_job_local(&kmeans::job(&p), kmeans::km_config(&p), 1));
        }
        assert!((reports[0].checksum - reports[2].checksum).abs() < 1e-6);
        print_row(label, &reports);
    }
}
