//! ConnectedComponents (§6.3, Figure 10b): label propagation over the
//! cached adjacency, with a min-aggregated message shuffle per iteration.
//!
//! The job runs on the graph layers it shares with PageRank (the
//! `adj-build` stage and one message-propagation shuffle per iteration,
//! see `graph.rs`); only the messages and the combine differ. Along every
//! edge each endpoint sends the other its label, so components converge
//! in both directions, and messages to one vertex combine with `min`. The
//! driver lowers labels in reduce-task order and stops when no label
//! changes (or at the iteration cap, as in the paper's 10-iteration
//! runs). A min is exact under any combine order, so the labels are
//! identical in every mode and at every executor count.

use deca_engine::{AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx};

use crate::datagen;
use crate::graph::cache_adjacency;

/// Parameters of one ConnectedComponents run.
#[derive(Clone, Debug)]
pub struct CcParams {
    pub vertices: usize,
    pub edges: usize,
    pub max_iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub mode: ExecutionMode,
    pub storage_fraction: f64,
    pub seed: u64,
}

impl CcParams {
    pub fn small(mode: ExecutionMode) -> CcParams {
        CcParams {
            vertices: 5_000,
            edges: 60_000,
            max_iterations: 10,
            partitions: 4,
            heap_bytes: 32 << 20,
            mode,
            storage_fraction: 0.4,
            seed: 20160905,
        }
    }
}

/// The executor configuration ConnectedComponents runs under.
pub fn cc_config(params: &CcParams) -> ExecutorConfig {
    ExecutorConfig::new(params.mode, params.heap_bytes).storage_fraction(params.storage_fraction)
}

/// The ConnectedComponents job description: consumed by
/// `DecaServer::submit` (via `JobSpec::app`) and by the standalone
/// runners. Its checksum is the sum of the final labels.
pub fn job(params: &CcParams) -> AppJob {
    let params = params.clone();
    AppJob::new("CC", move |job_ctx| run_concomp(&params, job_ctx))
}

fn run_concomp(params: &CcParams, job_ctx: &mut JobCtx) -> Result<f64, EngineError> {
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let adjacency = cache_adjacency(job_ctx, &edges, params.partitions, params.mode)?;

    let mut labels: Vec<i64> = (0..params.vertices as i64).collect();
    for iter in 0..params.max_iterations {
        let mins = adjacency.propagate(
            job_ctx,
            &format!("cc-iter{iter}"),
            |a: i64, b| a.min(b),
            |vertex, dst, out| {
                out.push((dst as i64, labels[vertex as usize]));
                out.push((vertex as i64, labels[dst as usize]));
            },
        )?;
        let mut changed = 0usize;
        for (vertex, min) in mins.into_iter().flatten() {
            let label = &mut labels[vertex as usize];
            if min < *label {
                *label = min;
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
    }
    Ok(labels.iter().map(|&l| l as f64).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppReport;

    fn report(p: &CcParams) -> AppReport {
        crate::run_job_local(&job(p), cc_config(p), 1)
    }

    fn tiny(mode: ExecutionMode) -> CcParams {
        CcParams {
            vertices: 300,
            edges: 1_500,
            max_iterations: 10,
            partitions: 2,
            heap_bytes: 24 << 20,
            mode,
            storage_fraction: 0.4,
            seed: 9,
        }
    }

    #[test]
    fn all_modes_agree() {
        let spark = report(&tiny(ExecutionMode::Spark));
        let ser = report(&tiny(ExecutionMode::SparkSer));
        let deca = report(&tiny(ExecutionMode::Deca));
        assert_eq!(spark.checksum, deca.checksum);
        assert_eq!(ser.checksum, deca.checksum);
    }

    #[test]
    fn labels_decrease_monotonically() {
        let r = report(&tiny(ExecutionMode::Deca));
        // Components exist: the checksum is well below the no-propagation
        // sum of 0..V.
        let v = 300f64;
        assert!(r.checksum < v * (v - 1.0) / 2.0);
        assert!(r.checksum >= 0.0);
    }
}
