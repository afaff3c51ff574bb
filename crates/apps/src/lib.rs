//! # deca-apps — the evaluation workloads
//!
//! The five benchmark applications of the paper's §6 (Table 1), plus the
//! two SQL queries of §6.6, each runnable in the three execution modes
//! (Spark / SparkSer / Deca) over the same generated data:
//!
//! | App | Stages | Jobs | Cache | Shuffle |
//! |-----|--------|------|-------|---------|
//! | WordCount | two | single | none | aggregated |
//! | LogisticRegression | single | multiple | static | none |
//! | KMeans | two | multiple | static | aggregated |
//! | PageRank | multiple | multiple | static | grouped+aggregated |
//! | ConnectedComponents | multiple | multiple | static | grouped+aggregated |
//! | SQL Q1/Q2 | 1–2 | single | static | none / aggregated |
//!
//! Every app except SQL is described once as an [`AppJob`]: `app::job(&p)`
//! builds the job and `app::*_config(&p)` its executor configuration.
//! One runner family runs every job standalone: [`run_job_local`] on a
//! fresh cluster, [`run_job_faulty`] under an injected fault plan, and
//! [`run_job_on`] on a session the caller built. The same description is
//! what [`deca_engine::DecaServer`] runs for a `JobSpec::app`. A run
//! returns an [`report::AppReport`] with the measured breakdown and a
//! result checksum, asserted identical across modes by the integration
//! tests. The SQL queries ([`sql`]) still run on their own executor.
//!
//! Data generators ([`datagen`]) replace the paper's datasets (Hadoop
//! RandomWriter text, Amazon image vectors, LiveJournal/webbase/HiBench
//! graphs, Common Crawl tables) with seeded synthetic equivalents that
//! preserve the properties the experiments depend on: key skew, degree
//! skew, dimensionality, and cache-to-heap ratios.

#![forbid(unsafe_code)]

mod cached;
pub mod concomp;
pub mod datagen;
mod graph;
pub mod kmeans;
pub mod logreg;
pub mod pagerank;
pub mod records;
pub mod report;
pub mod sql;
pub mod wordcount;

pub use report::AppReport;

use deca_engine::{
    AppJob, ClusterSession, EngineError, ExecutorConfig, FaultPlan, JobCtx, RetryPolicy,
};

/// Run an [`AppJob`] on a private standalone cluster of `executors`
/// executors. The report's label is the job's name.
pub fn run_job_local(app: &AppJob, config: ExecutorConfig, executors: usize) -> AppReport {
    run_job_faulty(app, config, executors, FaultPlan::quiet(), None)
        .expect("fault-free local job run")
}

/// Run an [`AppJob`] on a private standalone cluster under an injected
/// fault plan (and optionally a retry policy override). For any survivable
/// plan the checksum is bit-identical to the fault-free run; an
/// unsurvivable plan surfaces as the task-attributed [`EngineError`].
pub fn run_job_faulty(
    app: &AppJob,
    config: ExecutorConfig,
    executors: usize,
    plan: FaultPlan,
    policy: Option<RetryPolicy>,
) -> Result<AppReport, EngineError> {
    let config = match policy {
        Some(p) => config.retry(p),
        None => config,
    };
    let mut session = ClusterSession::new(executors, config);
    session.install_faults(plan);
    let (checksum, cache_bytes) = run_job_on(app, &mut session)?;
    Ok(AppReport::from_cluster(app.name(), &session, checksum, cache_bytes))
}

/// Run an [`AppJob`] on a session the caller built (any executor shape,
/// scheduler or installed fault plan) and finish the job. Returns the
/// checksum and the cache footprint the job noted once its cache was
/// built.
pub fn run_job_on(app: &AppJob, session: &mut ClusterSession) -> Result<(f64, usize), EngineError> {
    let mut ctx = JobCtx::local(session);
    let checksum = app.run(&mut ctx)?;
    let cache_bytes = ctx.noted_cache_bytes();
    session.finish_job();
    Ok((checksum, cache_bytes))
}
