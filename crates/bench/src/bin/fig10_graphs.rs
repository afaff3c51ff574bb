//! Figure 10 — PageRank (`--app pr`, default) and ConnectedComponents
//! (`--app cc`) on three power-law graphs shaped like LiveJournal /
//! webbase-2001 / HiBench.
//!
//! Expected shape (paper): Deca 1.1–6.4x — less dramatic than LR because
//! each iteration's shuffle buffers are released and collected, relieving
//! memory stress; SparkSer ≈ Spark (the deser cost offsets the GC gain).

#![forbid(unsafe_code)]

use deca_apps::concomp::{self, CcParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::report::{speedup, AppReport};
use deca_apps::run_job_local;
use deca_bench::{mb, secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;

/// Scaled-down analogues of Table 2's graphs (vertices, edges, label).
fn graphs(scale: &Scale) -> Vec<(usize, usize, &'static str)> {
    vec![
        (scale.records(4_800), scale.records(68_000), "LJ-like"),
        (scale.records(24_000), scale.records(200_000), "WB-like"),
        (scale.records(60_000), scale.records(400_000), "HB-like"),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = args
        .iter()
        .position(|a| a == "--app")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("pr")
        .to_string();
    let scale = Scale::from_env();

    match app.as_str() {
        "cc" => run_cc(&scale),
        _ => run_pr(&scale),
    }
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
    ]);
}

fn run_pr(scale: &Scale) {
    println!("# Figure 10(a): PageRank on three graphs\n");
    table_header(&[
        "graph",
        "Spark_s",
        "SparkSer_s",
        "Deca_s",
        "DecaVsSpark",
        "cacheSp_MB",
        "cacheSer_MB",
        "cacheDeca_MB",
    ]);
    for (vertices, edges, label) in graphs(scale) {
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut p = PrParams::small(mode);
            p.vertices = vertices;
            p.edges = edges;
            p.iterations = scale.graph_iterations;
            p.heap_bytes = 48 << 20;
            reports.push(run_job_local(&pagerank::job(&p), pagerank::pr_config(&p), 1));
        }
        assert!((reports[0].checksum - reports[2].checksum).abs() < 1e-6);
        print_row(label, &reports);
    }
}

fn run_cc(scale: &Scale) {
    println!("# Figure 10(b): ConnectedComponents on three graphs\n");
    table_header(&[
        "graph",
        "Spark_s",
        "SparkSer_s",
        "Deca_s",
        "DecaVsSpark",
        "cacheSp_MB",
        "cacheSer_MB",
        "cacheDeca_MB",
    ]);
    for (vertices, edges, label) in graphs(scale) {
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut p = CcParams::small(mode);
            p.vertices = vertices;
            p.edges = edges;
            p.max_iterations = scale.graph_iterations * 2;
            p.heap_bytes = 48 << 20;
            reports.push(run_job_local(&concomp::job(&p), concomp::cc_config(&p), 1));
        }
        assert_eq!(reports[0].checksum, reports[2].checksum);
        print_row(label, &reports);
    }
}
