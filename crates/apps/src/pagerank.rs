//! PageRank (§6.3, Figure 10a): multiple stages and jobs, a static cached
//! adjacency RDD built by `groupByKey`, and an aggregated message shuffle
//! every iteration.
//!
//! The job is described once as an [`AppJob`] ([`job`]) over the graph
//! layers it shares with ConnectedComponents (the `adj-build` stage and
//! one message-propagation shuffle per iteration, see `graph.rs`): each
//! vertex sends its rank divided by its out-degree along every out-edge,
//! and messages to one vertex sum. The same description runs standalone
//! ([`crate::run_job_local`]) or submitted to a
//! [`deca_engine::DecaServer`].

use deca_engine::{AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx};

use crate::datagen;
use crate::graph::cache_adjacency;

/// Parameters of one PageRank run.
#[derive(Clone, Debug)]
pub struct PrParams {
    pub vertices: usize,
    pub edges: usize,
    pub iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub mode: ExecutionMode,
    pub gc_algorithm: deca_heap::GcAlgorithm,
    pub storage_fraction: f64,
    pub seed: u64,
}

impl PrParams {
    pub fn small(mode: ExecutionMode) -> PrParams {
        PrParams {
            vertices: 5_000,
            edges: 60_000,
            iterations: 5,
            partitions: 4,
            heap_bytes: 32 << 20,
            mode,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            storage_fraction: 0.4,
            seed: 20160904,
        }
    }
}

/// The executor configuration PageRank runs under (public so the
/// scheduler-equivalence tests can build sessions with the exact same
/// memory split, then vary retry policy and scheduler mode).
pub fn pr_config(params: &PrParams) -> ExecutorConfig {
    ExecutorConfig::builder()
        .mode(params.mode)
        .heap_bytes(params.heap_bytes)
        .storage_fraction(params.storage_fraction)
        .gc(params.gc_algorithm)
        .build()
}

/// The PageRank job description: consumed by `DecaServer::submit` (via
/// `JobSpec::app`) and by the standalone runners.
///
/// The rank vector is bit-identical for any executor count: map task `p`
/// always scans block `p`, and each reduce task sums mapper subtotals in
/// map-task order, so the f64 addition sequence per vertex never depends
/// on the cluster shape. A retried task that migrated rebuilds its block
/// deterministically from its edge partition first — Spark's lineage
/// story (§6.1) — so the scanned bytes, and hence the message sequence,
/// are identical wherever the task lands.
pub fn job(params: &PrParams) -> AppJob {
    let params = params.clone();
    AppJob::new("PR", move |job_ctx| run_pagerank(&params, job_ctx))
}

fn run_pagerank(params: &PrParams, job_ctx: &mut JobCtx) -> Result<f64, EngineError> {
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let mut degrees = vec![0u32; params.vertices];
    for &(s, _) in &edges {
        degrees[s as usize] += 1;
    }
    let adjacency = cache_adjacency(job_ctx, &edges, params.partitions, params.mode)?;

    let mut ranks = vec![1.0f64; params.vertices];
    for iter in 0..params.iterations {
        // Each vertex sends rank / out-degree along every out-edge.
        let contrib: Vec<f64> =
            ranks.iter().zip(&degrees).map(|(&r, &d)| r / d.max(1) as f64).collect();
        let sums = adjacency.propagate(
            job_ctx,
            &format!("pr-iter{iter}"),
            |a: f64, b| a + b,
            |vertex, dst, out| out.push((dst as i64, contrib[vertex as usize])),
        )?;
        // Damped update: vertices with no in-messages keep the 0.15 base.
        let mut next = vec![0.15f64; params.vertices];
        for (dst, sum) in sums.into_iter().flatten() {
            next[dst as usize] = 0.15 + 0.85 * sum;
        }
        ranks = next;
    }

    Ok(ranks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppReport;

    fn report(p: &PrParams, width: usize) -> AppReport {
        crate::run_job_local(&job(p), pr_config(p), width)
    }

    fn tiny(mode: ExecutionMode) -> PrParams {
        PrParams {
            vertices: 500,
            edges: 4_000,
            iterations: 3,
            partitions: 2,
            heap_bytes: 24 << 20,
            mode,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            storage_fraction: 0.4,
            seed: 3,
        }
    }

    #[test]
    fn all_modes_agree() {
        let spark = report(&tiny(ExecutionMode::Spark), 1);
        let ser = report(&tiny(ExecutionMode::SparkSer), 1);
        let deca = report(&tiny(ExecutionMode::Deca), 1);
        assert!((spark.checksum - deca.checksum).abs() < 1e-9);
        assert!((ser.checksum - deca.checksum).abs() < 1e-9);
        assert!(deca.checksum > 0.0);
    }

    #[test]
    fn ranks_sum_is_conserved_reasonably() {
        // With damping 0.15/0.85 and dangling mass leakage, the sum stays
        // within sane bounds of |V|.
        let r = report(&tiny(ExecutionMode::Deca), 1);
        assert!(r.checksum > 0.15 * 500.0);
        assert!(r.checksum < 2.0 * 500.0);
    }

    #[test]
    fn executor_count_does_not_change_ranks() {
        for mode in ExecutionMode::ALL {
            let one = report(&tiny(mode), 1);
            let two = report(&tiny(mode), 2);
            assert_eq!(one.checksum, two.checksum, "{mode}: ranks must be bit-identical");
        }
    }
}
