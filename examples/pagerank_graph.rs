//! PageRank on a power-law graph in all three modes (Figure 10a's shape):
//! cached adjacency lists plus an aggregated message shuffle per iteration.
//!
//! Run with: `cargo run --release --example pagerank_graph`

use deca_apps::pagerank::{job, pr_config, PrParams};
use deca_apps::report::speedup;
use deca_apps::run_job_local;
use deca_engine::ExecutionMode;

fn main() {
    let mut params = PrParams::small(ExecutionMode::Spark);
    params.vertices = 20_000;
    params.edges = 200_000;
    params.iterations = 5;

    println!(
        "PageRank: |V|={} |E|={} ({} iterations)\n",
        params.vertices, params.edges, params.iterations
    );

    let mut reports = Vec::new();
    for mode in ExecutionMode::ALL {
        let mut p = params.clone();
        p.mode = mode;
        let r = run_job_local(&job(&p), pr_config(&p), 1);
        println!("{}", r.line());
        reports.push(r);
    }
    let (spark, deca) = (&reports[0], &reports[2]);
    assert!((spark.checksum - deca.checksum).abs() < 1e-6);
    println!("\nDeca speedup over Spark: {:.1}x", speedup(spark, deca));
}
