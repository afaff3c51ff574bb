//! Table 3 — GC time reduction per application.
//!
//! For each app, the largest configuration without spilling: Spark's
//! execution and GC times, the GC ratio, Deca's GC time, and the
//! reduction. Paper: Spark GC ratios 40.5–78.9%; Deca reductions
//! 97.5–99.9%.

#![forbid(unsafe_code)]

use deca_apps::concomp::{self, CcParams};
use deca_apps::kmeans::{self, KmParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::report::{gc_reduction, AppReport};
use deca_apps::wordcount::{self, WcParams};
use deca_bench::{secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;

fn main() {
    let scale = Scale::from_env();
    println!("# Table 3: GC time and reduction (largest no-spill configs)\n");
    table_header(&["app", "Spark_exec_s", "Spark_gc_s", "gc_ratio", "Deca_gc_s", "reduction"]);

    let wc = move |mode| {
        let mut p = WcParams::small(mode);
        p.words = scale.records(1_000_000);
        p.distinct = scale.records(150_000);
        p.heap_bytes = 24 << 20;
        wordcount::run(&p)
    };
    let lr = move |mode| {
        let mut p = LrParams::small(mode);
        p.points = scale.records(64_000);
        p.iterations = scale.lr_iterations;
        p.heap_bytes = 16 << 20;
        logreg::run(&p)
    };
    let km = move |mode| {
        let mut p = KmParams::small(mode);
        p.points = scale.records(64_000);
        p.iterations = scale.lr_iterations.min(10);
        p.heap_bytes = 16 << 20;
        kmeans::run(&p)
    };
    let pr = move |mode| {
        let mut p = PrParams::small(mode);
        p.vertices = scale.records(24_000);
        p.edges = scale.records(250_000);
        p.iterations = scale.graph_iterations;
        p.heap_bytes = 32 << 20;
        pagerank::run(&p)
    };
    let cc = move |mode| {
        let mut p = CcParams::small(mode);
        p.vertices = scale.records(24_000);
        p.edges = scale.records(250_000);
        p.heap_bytes = 32 << 20;
        concomp::run(&p)
    };

    type Runner = Box<dyn Fn(ExecutionMode) -> AppReport>;
    let apps: Vec<(&str, Runner)> = vec![
        ("WC", Box::new(wc)),
        ("LR", Box::new(lr)),
        ("KMeans", Box::new(km)),
        ("PR", Box::new(pr)),
        ("CC", Box::new(cc)),
    ];

    for (name, runner) in apps {
        let spark = runner(ExecutionMode::Spark);
        let deca = runner(ExecutionMode::Deca);
        assert!(
            (spark.checksum - deca.checksum).abs() < 1e-6 * spark.checksum.abs().max(1.0),
            "{name}: modes must agree"
        );
        table_row(&[
            name.to_string(),
            secs(spark.exec()),
            secs(spark.gc()),
            format!("{:.1}%", spark.gc_ratio() * 100.0),
            secs(deca.gc()),
            format!("{:.1}%", gc_reduction(&spark, &deca) * 100.0),
        ]);
    }
}
