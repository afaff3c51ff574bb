//! Run every experiment harness in sequence and summarise pass/fail plus
//! the key shape checks — the one-command reproduction driver.
//!
//! ```console
//! $ cargo run --release -p deca-bench --bin run_all
//! ```
//!
//! Exits non-zero if any shape check fails. `DECA_BENCH_SCALE` scales the
//! datasets as usual.

#![forbid(unsafe_code)]

use deca_apps::logreg::{self, LrParams};
use deca_apps::report::{gc_reduction, speedup};
use deca_apps::run_job_local;
use deca_apps::sql::{self, SqlParams, SqlSystem};
use deca_apps::wordcount::{self, WcParams};
use deca_bench::Scale;
use deca_engine::ExecutionMode;

struct Checks {
    passed: usize,
    failed: usize,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("PASS  {name}: {detail}");
        } else {
            self.failed += 1;
            println!("FAIL  {name}: {detail}");
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let mut c = Checks { passed: 0, failed: 0 };

    // ---------------------------------------------------------- WC (Fig 8)
    {
        let mk = |mode| {
            let mut p = WcParams::small(mode);
            p.words = scale.records(400_000);
            p.distinct = scale.records(50_000);
            run_job_local(&wordcount::job(&p), wordcount::wc_config(&p), 1)
        };
        let spark = mk(ExecutionMode::Spark);
        let deca = mk(ExecutionMode::Deca);
        c.check(
            "fig8/wc-correct",
            spark.checksum == deca.checksum,
            format!("checksums {} vs {}", spark.checksum, deca.checksum),
        );
        c.check(
            "fig8/wc-deca-wins",
            deca.exec() < spark.exec(),
            format!(
                "Deca {:.3}s vs Spark {:.3}s",
                deca.exec().as_secs_f64(),
                spark.exec().as_secs_f64()
            ),
        );
    }

    // ------------------------------------------------------- LR (Fig 9b)
    {
        let mk = |mode, points| {
            let mut p = LrParams::small(mode);
            p.points = scale.records(points);
            p.iterations = scale.lr_iterations;
            p.heap_bytes = 16 << 20;
            p.storage_fraction = 0.62;
            run_job_local(&logreg::job(&p), logreg::lr_config(&p), 1)
        };
        // Fitting regime.
        let spark_fit = mk(ExecutionMode::Spark, 30_000);
        let ser_fit = mk(ExecutionMode::SparkSer, 30_000);
        // Saturated regime.
        let spark_sat = mk(ExecutionMode::Spark, 66_000);
        let ser_sat = mk(ExecutionMode::SparkSer, 66_000);
        let deca_sat = mk(ExecutionMode::Deca, 66_000);

        c.check(
            "fig9b/full-gcs-appear-at-saturation",
            spark_fit.full_gcs == 0 && spark_sat.full_gcs > 5,
            format!("full GCs {} -> {}", spark_fit.full_gcs, spark_sat.full_gcs),
        );
        c.check(
            "fig9b/sparkser-crossover",
            ser_fit.exec() > spark_fit.exec() && ser_sat.exec() < spark_sat.exec(),
            format!(
                "fit: Ser {:.3} vs Spark {:.3}; sat: Ser {:.3} vs Spark {:.3}",
                ser_fit.exec().as_secs_f64(),
                spark_fit.exec().as_secs_f64(),
                ser_sat.exec().as_secs_f64(),
                spark_sat.exec().as_secs_f64()
            ),
        );
        c.check(
            "fig9b/deca-speedup-saturated",
            speedup(&spark_sat, &deca_sat) > 10.0,
            format!("{:.1}x", speedup(&spark_sat, &deca_sat)),
        );
        c.check(
            "table3/gc-reduction",
            gc_reduction(&spark_sat, &deca_sat) > 0.975,
            format!("{:.2}%", gc_reduction(&spark_sat, &deca_sat) * 100.0),
        );
        c.check(
            "fig9b/cache-ordering",
            spark_sat.cache_bytes > deca_sat.cache_bytes,
            format!("Spark {} vs Deca {} bytes", spark_sat.cache_bytes, deca_sat.cache_bytes),
        );
    }

    // -------------------------------------------------------- SQL (Table 6)
    {
        let mk = |system| {
            let mut p = SqlParams::small(system);
            p.uservisits_rows = scale.records(300_000);
            p.groups = scale.records(20_000);
            sql::run_query2(&p)
        };
        let spark = mk(SqlSystem::Spark);
        let sparksql = mk(SqlSystem::SparkSql);
        let deca = mk(SqlSystem::Deca);
        c.check(
            "table6/q2-correct",
            (spark.checksum - deca.checksum).abs() < 1e-6
                && (sparksql.checksum - deca.checksum).abs() < 1e-6,
            "checksums agree".to_string(),
        );
        c.check(
            "table6/q2-deca-matches-sparksql",
            deca.exec().as_secs_f64() < 2.0 * sparksql.exec().as_secs_f64()
                && deca.exec() < spark.exec(),
            format!(
                "Spark {:.3}s, SparkSQL {:.3}s, Deca {:.3}s",
                spark.exec().as_secs_f64(),
                sparksql.exec().as_secs_f64(),
                deca.exec().as_secs_f64()
            ),
        );
        c.check(
            "table6/q2-cache-ordering",
            spark.cache_bytes > deca.cache_bytes && deca.cache_bytes > sparksql.cache_bytes,
            format!(
                "Spark {} > Deca {} > SparkSQL {}",
                spark.cache_bytes, deca.cache_bytes, sparksql.cache_bytes
            ),
        );
    }

    println!("\n{} passed, {} failed", c.passed, c.failed);
    if c.failed > 0 {
        std::process::exit(1);
    }
}
