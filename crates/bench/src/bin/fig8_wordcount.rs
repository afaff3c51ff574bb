//! Figure 8 — shuffling-only WordCount.
//!
//! * `--lifetime` (Figure 8a): the Tuple2 census and cumulative GC time
//!   over the run, Spark vs Deca.
//! * default (Figure 8b): execution times across dataset sizes × distinct
//!   key counts; Deca should win by 10–58%+ with the gap growing in the
//!   key count.

#![forbid(unsafe_code)]

use deca_apps::report::speedup;
use deca_apps::wordcount::{self, run, WcParams};
use deca_bench::{secs, table_header, table_row, Scale};
use deca_engine::ExecutionMode;

fn main() {
    let lifetime = std::env::args().any(|a| a == "--lifetime");
    let text = std::env::args().any(|a| a == "--text");
    let scale = Scale::from_env();
    if lifetime {
        run_lifetime(&scale);
    } else if text {
        run_text_exec(&scale);
    } else {
        run_exec(&scale);
    }
}

/// Text-keyed variant (`--text`): variable-size String keys, the
/// pointer-array shuffle of §4.3.2 on the Deca side.
fn run_text_exec(scale: &Scale) {
    println!("# Figure 8(b) variant: text-keyed WC (String keys)\n");
    table_header(&["size", "keys", "Spark_s", "Deca_s", "speedup"]);
    for &(words, label) in &[(300_000usize, "S"), (600_000, "M")] {
        for &(distinct, klabel) in &[(10_000usize, "10k"), (100_000, "100k")] {
            let mut reports = Vec::new();
            for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
                let p = WcParams {
                    words: scale.records(words),
                    distinct: scale.records(distinct),
                    partitions: 4,
                    heap_bytes: 32 << 20,
                    mode,
                    seed: 42,
                    sample_every: 0,
                };
                reports.push(wordcount::run_text(&p));
            }
            assert_eq!(reports[0].checksum, reports[1].checksum);
            table_row(&[
                label.to_string(),
                klabel.to_string(),
                secs(reports[0].exec()),
                secs(reports[1].exec()),
                format!("{:.2}x", speedup(&reports[0], &reports[1])),
            ]);
        }
    }
}

/// Figure 8(a): number of live Tuple2 objects and GC time over time.
fn run_lifetime(scale: &Scale) {
    println!("# Figure 8(a): WC shuffle-buffer lifetimes (smallest dataset)");
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let p = WcParams {
            words: scale.records(400_000),
            distinct: scale.records(40_000),
            partitions: 4,
            heap_bytes: 24 << 20,
            mode,
            seed: 42,
            sample_every: 10_000,
        };
        let r = run(&p);
        println!("\n{} (exec {}s, gc {}s):", mode.name(), secs(r.exec()), secs(r.gc()));
        println!("t_ms\tlive_tuple2\tcum_gc_ms");
        for s in &r.timeline.samples {
            println!(
                "{:.1}\t{}\t{:.2}",
                s.at.as_secs_f64() * 1e3,
                s.live_objects,
                s.cumulative_gc.as_secs_f64() * 1e3
            );
        }
    }
}

/// Figure 8(b): execution time across sizes and key counts.
fn run_exec(scale: &Scale) {
    println!("# Figure 8(b): WC execution time, Spark vs Deca");
    println!("# paper: Deca reduces execution time 10-58%, more with more keys\n");
    table_header(&["size", "keys", "Spark_s", "Deca_s", "speedup"]);
    // The paper's 50/100/150GB x {10M,100M} keys, scaled down.
    for &(words, label) in &[(400_000usize, "S"), (800_000, "M"), (1_200_000, "L")] {
        for &(distinct, klabel) in &[(10_000usize, "10k"), (200_000, "200k")] {
            let mut reports = Vec::new();
            for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
                let p = WcParams {
                    words: scale.records(words),
                    distinct: scale.records(distinct),
                    partitions: 4,
                    heap_bytes: 32 << 20,
                    mode,
                    seed: 42,
                    sample_every: 0,
                };
                reports.push(run(&p));
            }
            assert_eq!(reports[0].checksum, reports[1].checksum, "modes must agree");
            table_row(&[
                label.to_string(),
                klabel.to_string(),
                secs(reports[0].exec()),
                secs(reports[1].exec()),
                format!("{:.2}x", speedup(&reports[0], &reports[1])),
            ]);
        }
    }
}
