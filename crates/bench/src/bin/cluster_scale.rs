//! Multi-executor scaling (extension): the same WordCount job through
//! [`deca_engine::ClusterSession`] on 1, 2, and 4 executors — the
//! distributed dimension of the paper's 4-worker cluster.
//!
//! What this demonstrates: the partitioned job with a real all-to-all
//! exchange is *exact* (every mode returns the same checksum at every
//! width — tasks are pinned round-robin and the exchange preserves
//! map-task order), wall time drops as executors are added (on a
//! multi-core host), and the Deca-vs-Spark ratio persists per executor —
//! the GC pathology is a per-heap phenomenon.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use deca_apps::run_job_local;
use deca_apps::wordcount::{job, wc_config, WcParams};
use deca_bench::{secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Extension: multi-executor WordCount ({} host cores)\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    let params = |mode| {
        let mut p = WcParams::small(mode);
        p.words = scale.records(1_200_000);
        p.distinct = scale.records(100_000);
        // More tasks than the widest cluster: each wave multiplexes
        // round-robin, as Spark runs more partitions than cores.
        p.partitions = 8;
        p.heap_bytes = 24 << 20;
        p.seed = 11;
        p
    };

    let report_at = |mode, executors| {
        let p = params(mode);
        run_job_local(&job(&p), wc_config(&p), executors)
    };
    // Reference result: every mode and every width must reproduce it.
    let expected = report_at(ExecutionMode::Deca, 1).checksum;

    table_header(&["executors", "Spark_s", "SparkSer_s", "Deca_s", "Spark/Deca", "scaling"]);
    let mut spark_base = Duration::ZERO;
    for executors in [1usize, 2, 4] {
        let mut times = Vec::new();
        for mode in ExecutionMode::ALL {
            let t = Instant::now();
            let report = report_at(mode, executors);
            times.push(t.elapsed());
            assert_eq!(
                report.checksum, expected,
                "{mode} on {executors} executors must match the reference"
            );
        }
        let (spark, ser, deca) = (times[0], times[1], times[2]);
        if executors == 1 {
            spark_base = spark;
        }
        table_row(&[
            executors.to_string(),
            secs(spark),
            secs(ser),
            secs(deca),
            format!("{:.2}x", spark.as_secs_f64() / deca.as_secs_f64()),
            format!("{:.2}x", spark_base.as_secs_f64() / spark.as_secs_f64()),
        ]);
    }
    println!("\nall checksums equal across modes and executor counts: OK");
}
