//! Logistic Regression in all three execution modes — the paper's running
//! example (Figure 1) at laptop scale.
//!
//! Shows the shape of Figure 9(b): with the cache saturating the old
//! generation, Spark spends most of its time in futile full collections
//! while Deca's decomposed cache leaves the collector almost nothing to
//! trace.
//!
//! Run with: `cargo run --release --example logistic_regression`

use deca_apps::logreg::{job, lr_config, LrParams};
use deca_apps::report::{gc_reduction, speedup};
use deca_apps::run_job_local;
use deca_engine::ExecutionMode;

fn main() {
    let mut params = LrParams::small(ExecutionMode::Spark);
    params.points = 60_000;
    params.dims = 10;
    params.iterations = 15;
    params.heap_bytes = 16 << 20; // the cache nearly fills the old gen

    println!(
        "LogisticRegression: {} points x {} dims, {} iterations, {} MB heap\n",
        params.points,
        params.dims,
        params.iterations,
        params.heap_bytes >> 20
    );

    let mut reports = Vec::new();
    for mode in ExecutionMode::ALL {
        let mut p = params.clone();
        p.mode = mode;
        let r = run_job_local(&job(&p), lr_config(&p), 1);
        println!("{}", r.line());
        reports.push(r);
    }

    let (spark, deca) = (&reports[0], &reports[2]);
    assert!((spark.checksum - deca.checksum).abs() < 1e-9, "modes must agree");
    println!(
        "\nDeca speedup over Spark: {:.1}x   GC reduction: {:.1}%",
        speedup(spark, deca),
        gc_reduction(spark, deca) * 100.0
    );
    println!(
        "Cache footprint: Spark {:.1} MB -> Deca {:.1} MB",
        spark.cache_bytes as f64 / (1 << 20) as f64,
        deca.cache_bytes as f64 / (1 << 20) as f64
    );
}
