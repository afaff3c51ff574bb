//! WordCount with the shuffle-buffer lifetime timeline of Figure 8(a).
//!
//! Spark's hash-based eager aggregation creates a `Tuple2` per input word
//! and a new boxed count per combine; the census fluctuates and the GC
//! curve climbs. Deca reuses the aggregate's page segment in place and no
//! tuple object ever exists.
//!
//! Run with: `cargo run --release --example wordcount_shuffle`

use deca_apps::run_job_local;
use deca_apps::wordcount::{job, wc_config, WcParams};
use deca_engine::ExecutionMode;

fn main() {
    let mut params = WcParams::small(ExecutionMode::Spark);
    params.words = 400_000;
    params.distinct = 50_000;
    params.sample_every = 20_000;

    println!("WordCount: {} words, {} distinct keys\n", params.words, params.distinct);

    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let mut p = params.clone();
        p.mode = mode;
        let r = run_job_local(&job(&p), wc_config(&p), 1);
        println!("{}", r.line());
        println!("  Tuple2 lifetime samples (time ms, live objects, cum. GC ms):");
        for s in r.timeline.samples.iter().step_by(4).take(8) {
            println!(
                "    t={:>7.1}ms  live={:>8}  gc={:>7.2}ms",
                s.at.as_secs_f64() * 1e3,
                s.live_objects,
                s.cumulative_gc.as_secs_f64() * 1e3
            );
        }
        println!();
    }
}
