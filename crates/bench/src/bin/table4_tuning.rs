//! Table 4 — GC tuning: storage/shuffle memory fractions and collector
//! algorithms (PS / CMS / G1), on LR and PR — plus the plan matrix the
//! algorithms are implemented over: every [`GcPlanKind`] run on both
//! apps, with measured pauses and concurrent-mark overlap.
//!
//! Expected shape (paper): LR is very sensitive — lowering the storage
//! fraction or switching to a concurrent collector helps dramatically,
//! yet tuned Spark still loses to Deca by a wide margin. PR is much less
//! sensitive (its per-iteration shuffle release already relieves
//! pressure), and concurrent collectors can even hurt its execution time
//! via mutator overhead. The checksum column of the plan matrix is the
//! equivalence witness: every plan must produce the identical result.

#![forbid(unsafe_code)]

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_bench::{secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;
use deca_heap::{GcAlgorithm, GcPlanKind};

fn main() {
    let scale = Scale::from_env();

    // ------------------------------------------------------------- LR
    println!("# Table 4 (LR): storage-fraction sweep and GC algorithms");
    println!("# LR config: saturating dataset, Spark mode\n");
    table_header(&["knob", "value", "exec_s", "gc_s"]);
    let lr = |storage: f64, algo: GcAlgorithm, mode: ExecutionMode| {
        let mut p = LrParams::small(mode);
        p.points = scale.records(92_000);
        p.iterations = scale.lr_iterations;
        p.heap_bytes = 24 << 20;
        p.storage_fraction = storage;
        p.gc_algorithm = algo;
        logreg::run(&p)
    };
    for &(frac, label) in &[(0.8, "0.8:0.2"), (0.6, "0.6:0.4"), (0.4, "0.4:0.6")] {
        let r = lr(frac, GcAlgorithm::ParallelScavenge, ExecutionMode::Spark);
        table_row(&["fraction".into(), label.into(), secs(r.exec()), secs(r.gc())]);
    }
    for algo in [GcAlgorithm::ParallelScavenge, GcAlgorithm::Cms, GcAlgorithm::G1] {
        let r = lr(0.8, algo, ExecutionMode::Spark);
        table_row(&["algorithm".into(), algo.name().into(), secs(r.exec()), secs(r.gc())]);
    }
    let deca = lr(0.8, GcAlgorithm::ParallelScavenge, ExecutionMode::Deca);
    table_row(&["deca".into(), "-".into(), secs(deca.exec()), secs(deca.gc())]);

    // ------------------------------------------------------------- PR
    println!("\n# Table 4 (PR): the same knobs on PageRank\n");
    table_header(&["knob", "value", "exec_s", "gc_s"]);
    let pr = |storage: f64, algo: GcAlgorithm, mode: ExecutionMode| {
        let mut p = PrParams::small(mode);
        p.vertices = scale.records(24_000);
        p.edges = scale.records(250_000);
        p.iterations = scale.graph_iterations;
        p.heap_bytes = 32 << 20;
        p.storage_fraction = storage;
        p.gc_algorithm = algo;
        pagerank::run(&p)
    };
    for &(frac, label) in &[(0.4, "0.4"), (0.1, "0.1"), (0.05, "0.05")] {
        let r = pr(frac, GcAlgorithm::ParallelScavenge, ExecutionMode::Spark);
        table_row(&["fraction".into(), label.into(), secs(r.exec()), secs(r.gc())]);
    }
    for algo in [GcAlgorithm::ParallelScavenge, GcAlgorithm::Cms, GcAlgorithm::G1] {
        let r = pr(0.4, algo, ExecutionMode::Spark);
        table_row(&["algorithm".into(), algo.name().into(), secs(r.exec()), secs(r.gc())]);
    }
    let deca = pr(0.4, GcAlgorithm::ParallelScavenge, ExecutionMode::Deca);
    table_row(&["deca".into(), "-".into(), secs(deca.exec()), secs(deca.gc())]);

    // ------------------------------------------------- plan matrix
    println!("\n# Table 4 (plan matrix): every GC plan on LR and PR, Spark mode");
    println!("# conc_mark_s is measured marker-thread overlap (not pause)\n");
    table_header(&["app", "plan", "exec_s", "gc_pause_s", "conc_mark_s", "checksum"]);
    for plan in GcPlanKind::ALL {
        let mut p = LrParams::small(ExecutionMode::Spark);
        p.points = scale.records(92_000);
        p.iterations = scale.lr_iterations;
        p.heap_bytes = 24 << 20;
        p.storage_fraction = 0.8;
        let r = deca_apps::run_job_local(&logreg::job(&p), logreg::lr_config(&p).gc_plan(plan), 1);
        table_row(&[
            "LR".into(),
            plan.name().into(),
            secs(r.exec()),
            secs(r.gc()),
            secs(r.metrics.gc_concurrent),
            format!("{:.6}", r.checksum),
        ]);
    }
    for plan in GcPlanKind::ALL {
        let mut p = PrParams::small(ExecutionMode::Spark);
        p.vertices = scale.records(24_000);
        p.edges = scale.records(250_000);
        p.iterations = scale.graph_iterations;
        p.heap_bytes = 32 << 20;
        p.storage_fraction = 0.4;
        let r =
            deca_apps::run_job_local(&pagerank::job(&p), pagerank::pr_config(&p).gc_plan(plan), 1);
        table_row(&[
            "PR".into(),
            plan.name().into(),
            secs(r.exec()),
            secs(r.gc()),
            secs(r.metrics.gc_concurrent),
            format!("{:.6}", r.checksum),
        ]);
    }
}
