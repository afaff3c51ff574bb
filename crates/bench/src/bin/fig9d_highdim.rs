//! Figure 9(d) — LR and KMeans on high-dimensional ("Amazon image")
//! vectors.
//!
//! With 4096-dim feature arrays, object headers are a negligible fraction
//! of each record, so Spark's and Deca's cache sizes converge and the
//! speedups shrink to the paper's 1.2–5.3x (the GC still traces one object
//! graph per point, but there are far fewer points per byte).

#![forbid(unsafe_code)]

use deca_apps::kmeans::{self, KmParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::report::speedup;
use deca_bench::{mb, secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;

fn main() {
    let scale = Scale::from_env();
    // 4096-dim like the Amazon dataset; scale the *dimension* down only if
    // the scale factor is fractional.
    let dims = if scale.factor < 1.0 { 512 } else { 4096 };
    println!("# Figure 9(d): high-dimensional vectors ({dims} dims)\n");
    table_header(&[
        "app",
        "size",
        "Spark_s",
        "SparkSer_s",
        "Deca_s",
        "DecaVsSpark",
        "cacheSp_MB",
        "cacheDeca_MB",
    ]);

    for &(points, label) in &[(250usize, "small"), (400, "large")] {
        let points = scale.records(points).max(50);
        // ---- LR
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut p = LrParams::small(mode);
            p.points = points;
            p.dims = dims;
            p.iterations = 5;
            p.heap_bytes = 24 << 20;
            p.page_size = Some(256 << 10); // big records need big pages
            p.partitions = 2;
            reports.push(logreg::run(&p));
        }
        assert!((reports[0].checksum - reports[2].checksum).abs() < 1e-9);
        table_row(&[
            "LR".into(),
            label.into(),
            secs(reports[0].exec()),
            secs(reports[1].exec()),
            secs(reports[2].exec()),
            format!("{:.1}x", speedup(&reports[0], &reports[2])),
            mb(reports[0].cache_bytes),
            mb(reports[2].cache_bytes),
        ]);

        // ---- KMeans
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut p = KmParams::small(mode);
            p.points = points;
            p.dims = dims;
            p.clusters = 8;
            p.iterations = 4;
            p.heap_bytes = 24 << 20;
            p.page_size = Some(256 << 10);
            p.partitions = 2;
            reports.push(kmeans::run(&p));
        }
        assert!((reports[0].checksum - reports[2].checksum).abs() < 1e-6);
        table_row(&[
            "KMeans".into(),
            label.into(),
            secs(reports[0].exec()),
            secs(reports[1].exec()),
            secs(reports[2].exec()),
            format!("{:.1}x", speedup(&reports[0], &reports[2])),
            mb(reports[0].cache_bytes),
            mb(reports[2].cache_bytes),
        ]);
    }
    println!("\n# expected: cacheSp ~= cacheDeca (headers negligible at 4096 dims),");
    println!("# speedups much smaller than Figure 9(b)'s saturated cells");
}
