//! Table 6 — the two exploratory SQL queries on Spark, Spark SQL
//! (columnar simulation), and Deca.
//!
//! Expected shape (paper): Query 1 (small table, simple filter) — all
//! three roughly equal, Spark's GC slightly higher but negligible.
//! Query 2 (larger table, GROUP BY aggregate) — Spark GC-bound with the
//! biggest cache; Deca ≈ Spark SQL at ~2x Spark, with about half the
//! cache.

#![forbid(unsafe_code)]

use deca_apps::sql::{run_query1, run_query2, run_query3, SqlParams, SqlSystem};
use deca_bench::{mb, secs, table_header, table_row, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Table 6: exploratory SQL queries\n");
    table_header(&["query", "system", "exec_s", "gc_s", "cache_MB"]);

    let mut q1_checks = Vec::new();
    for system in SqlSystem::ALL {
        let mut p = SqlParams::small(system);
        p.rankings_rows = scale.records(200_000);
        p.uservisits_rows = scale.records(400_000);
        p.groups = scale.records(30_000);
        p.heap_bytes = 48 << 20;
        let r = run_query1(&p);
        q1_checks.push(r.checksum);
        table_row(&[
            "Q1".into(),
            system.name().into(),
            secs(r.exec()),
            secs(r.gc()),
            mb(r.cache_bytes),
        ]);
    }
    assert_eq!(q1_checks[0], q1_checks[1]);
    assert_eq!(q1_checks[1], q1_checks[2]);

    let mut q2_checks = Vec::new();
    for system in SqlSystem::ALL {
        let mut p = SqlParams::small(system);
        p.rankings_rows = scale.records(200_000);
        p.uservisits_rows = scale.records(400_000);
        p.groups = scale.records(30_000);
        p.heap_bytes = 48 << 20;
        let r = run_query2(&p);
        q2_checks.push(r.checksum);
        table_row(&[
            "Q2".into(),
            system.name().into(),
            secs(r.exec()),
            secs(r.gc()),
            mb(r.cache_bytes),
        ]);
    }
    assert!((q2_checks[0] - q2_checks[2]).abs() < 1e-6);
    assert!((q2_checks[1] - q2_checks[2]).abs() < 1e-6);

    // Extension: the suite's join query (not reported in the paper's
    // Table 6; exercises §6.5's join discussion).
    let mut q3_checks = Vec::new();
    for system in SqlSystem::ALL {
        let mut p = SqlParams::small(system);
        p.rankings_rows = scale.records(200_000);
        p.uservisits_rows = scale.records(400_000);
        p.groups = scale.records(30_000);
        p.heap_bytes = 64 << 20;
        let r = run_query3(&p);
        q3_checks.push(r.checksum);
        table_row(&[
            "Q3(ext)".into(),
            system.name().into(),
            secs(r.exec()),
            secs(r.gc()),
            mb(r.cache_bytes),
        ]);
    }
    let tol = 1e-6 * q3_checks[2].abs().max(1.0);
    assert!((q3_checks[0] - q3_checks[2]).abs() < tol);
    assert!((q3_checks[1] - q3_checks[2]).abs() < tol);
}
