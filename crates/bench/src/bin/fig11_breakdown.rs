//! Figure 11 — slowest-task execution-time breakdown.
//!
//! * LR at two dataset sizes: compute vs GC (and deserialization for
//!   SparkSer) — at the small size everything is compute; at the large
//!   size Spark is GC-dominated while SparkSer shows deser time;
//! * WC/PR shuffle tasks: compute vs shuffle read/write — Spark pays
//!   shuffle serialization, Deca moves raw bytes.

#![forbid(unsafe_code)]

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_bench::{table_header, table_row, Scale};
use deca_engine::{ExecutionMode, TaskMetrics};

fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn breakdown_row(label: &str, mode: &str, t: &TaskMetrics) {
    table_row(&[
        label.to_string(),
        mode.to_string(),
        t.name.clone(),
        fmt_ms(t.compute),
        fmt_ms(t.gc_pause),
        fmt_ms(t.deser),
        fmt_ms(t.ser + t.shuffle_write),
        fmt_ms(t.shuffle_read),
        fmt_ms(t.io),
    ]);
}

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 11: slowest-task breakdown (ms)\n");
    table_header(&["workload", "mode", "task", "compute", "gc", "deser", "shufW", "shufR", "io"]);

    // LR small (fits) vs large (saturated): compute vs GC vs deser.
    for (points, label) in [(30_000usize, "LR-small"), (66_000, "LR-large")] {
        for mode in ExecutionMode::ALL {
            let mut p = LrParams::small(mode);
            p.points = scale.records(points);
            p.iterations = scale.lr_iterations;
            p.heap_bytes = 16 << 20;
            p.storage_fraction = 0.62;
            let r = logreg::run(&p);
            let t = r.slowest_task.expect("tasks ran");
            breakdown_row(label, mode.name(), &t);
        }
        println!();
    }

    // PR: the shuffle-heavy case (the paper's PR-60G bars).
    for mode in ExecutionMode::ALL {
        let mut p = PrParams::small(mode);
        p.vertices = scale.records(24_000);
        p.edges = scale.records(250_000);
        p.iterations = scale.graph_iterations;
        p.heap_bytes = 32 << 20;
        let r = pagerank::run(&p);
        let t = r.slowest_task.expect("tasks ran");
        breakdown_row("PR", mode.name(), &t);
    }
}
