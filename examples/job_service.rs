//! The multi-job service: one [`DecaServer`] sharing a 4-executor cluster
//! (and its tiered cache) between concurrent tenants.
//!
//! Run with `cargo run --release --example job_service`. The code below is
//! the README's "Job service" snippet — keep the two in sync.

use deca_apps::pagerank::{self, PrParams};
use deca_apps::wordcount::{self, WcParams};
use deca_engine::{AppJob, DecaServer, ExecutionMode, ExecutorConfig, JobSpec};

fn main() {
    // One server = one long-lived cluster. Tenants get an in-flight job
    // cap and a shielded share of the executors' storage pools.
    let server = DecaServer::new(4, ExecutorConfig::new(ExecutionMode::Deca, 24 << 20));
    server.configure_tenant("etl", 2);
    server.set_tenant_cache_budget("etl", 4 << 20);

    // Apps describe themselves once as an `AppJob` (a body over the same
    // stage API `ClusterSession` exposes) and any harness submits them.
    let wc = WcParams::small(ExecutionMode::Deca);
    let pr = PrParams::small(ExecutionMode::Deca);
    let ad_hoc = AppJob::new("squares", |ctx| {
        let parts = ctx.run_stage("square", 8, |t, _executor| Ok(((t.task + 1) as f64).powi(2)))?;
        Ok(parts.iter().sum())
    });

    // Submission never blocks on other jobs: each handle resolves when
    // its job finishes. Widths are per-job virtual executor counts, so a
    // width-2 job and two width-4 jobs take turns on the same 4 executors.
    let jobs = [
        server.submit(JobSpec::new("etl").executors(4).app(wordcount::job(&wc))),
        server.submit(JobSpec::new("etl").executors(4).app(pagerank::job(&pr))),
        server.submit(JobSpec::new("adhoc").executors(2).app(ad_hoc)),
    ];
    for handle in jobs {
        let out = handle.expect("admitted").wait().expect("job ran");
        println!(
            "job {:>2}  checksum {:>24.6}  stages {:>2}  task attempts {:>3}",
            out.job,
            out.checksum,
            out.stages.len(),
            out.metrics.attempts,
        );
    }

    // Results are bit-identical to a standalone run at the same width.
    let reference = wordcount::run_local(&wc, 4).checksum;
    let served = server
        .submit(JobSpec::new("etl").executors(4).app(wordcount::job(&wc)))
        .expect("admitted")
        .wait()
        .expect("job ran");
    assert_eq!(served.checksum, reference);
    println!("served checksum == standalone run_local checksum: {reference}");
}
