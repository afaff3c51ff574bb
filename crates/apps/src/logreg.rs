//! Logistic Regression (§6.2, Figure 9): one stage, many jobs, a static
//! cached RDD, no shuffle.
//!
//! The cached `LabeledPoint`s dominate the heap. In Spark mode every
//! iteration walks millions of live objects (full collections trace them
//! all, fruitlessly) and the gradient map allocates a temporary
//! `DenseVector` per point. The Deca kernel is the runtime equivalent of
//! the transformed code in the paper's Figure 12: it reads `label` and the
//! feature doubles at fixed offsets inside the page bytes and accumulates
//! into a preallocated result array — no objects, no collections.
//!
//! The job is described once as an [`AppJob`] ([`job`]) and runs through
//! the cluster driver: an `lr-load` stage caches partition `p`'s points on
//! executor `p % E`, then each iteration is one `lr-iter{i}` stage whose
//! tasks return partial gradients the driver sums in task order — so the
//! f64 addition sequence, and hence the weights, are bit-identical for any
//! executor count, standalone or on a [`deca_engine::DecaServer`]. A
//! retried or stolen task that lands on an executor without its block
//! recaches it from the generated partition first (lineage recompute).

use deca_core::optimizer::ContainerDecision;
use deca_core::Optimizer;
use deca_engine::record::HeapRecord;
use deca_engine::{AppJob, EngineError, ExecutionMode, Executor, ExecutorConfig, JobCtx};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::cached::CachedBlocks;
use crate::datagen;
use crate::records::LabeledPointRec;

/// Parameters of one LR run.
#[derive(Clone, Debug)]
pub struct LrParams {
    pub points: usize,
    pub dims: usize,
    pub iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub storage_fraction: f64,
    pub mode: ExecutionMode,
    /// Deca page size override (None = executor default). High-dimensional
    /// records need larger pages to bound tail waste (§4.3.1).
    pub page_size: Option<usize>,
    pub gc_algorithm: deca_heap::GcAlgorithm,
    pub seed: u64,
    /// Sample the LabeledPoint lifetime timeline once per iteration
    /// (Figure 9a).
    pub sample_timeline: bool,
}

impl LrParams {
    pub fn small(mode: ExecutionMode) -> LrParams {
        LrParams {
            points: 20_000,
            dims: 10,
            iterations: 10,
            partitions: 8,
            heap_bytes: 32 << 20,
            storage_fraction: 0.6,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 20160902,
            sample_timeline: false,
        }
    }
}

/// The executor configuration LR runs under (public so equivalence tests
/// can build sessions with the exact same memory split, then vary retry
/// policy and scheduler mode).
pub fn lr_config(p: &LrParams) -> ExecutorConfig {
    points_config(p.mode, p.heap_bytes, p.storage_fraction, p.gc_algorithm, p.page_size)
}

/// The configuration of an app whose cache holds labeled points (LR and
/// KMeans).
pub(crate) fn points_config(
    mode: ExecutionMode,
    heap_bytes: usize,
    storage_fraction: f64,
    gc_algorithm: deca_heap::GcAlgorithm,
    page_size: Option<usize>,
) -> ExecutorConfig {
    let config = ExecutorConfig::new(mode, heap_bytes)
        .storage_fraction(storage_fraction)
        .gc_algorithm(gc_algorithm);
    match page_size {
        Some(page) => config.page_size(page),
        None => config,
    }
}

/// Before caching, Deca's runtime optimizer classifies the cached UDT
/// from the job's IR (Appendix A). The LR stage refines LabeledPoint to
/// SFST, enabling unframed fixed-size decomposition. Driver-side, once
/// per job.
fn assert_deca_plan() {
    let analysis = crate::records::lr_analysis();
    let opt = Optimizer::new(&analysis.types.registry, &analysis.program);
    let phases = JobPhases::new().phase("map", analysis.stage_entry);
    let cache = deca_core::ContainerInfo {
        id: ContainerId(0),
        kind: ContainerKind::CachedRdd,
        created_seq: 0,
        content: TypeRef::Udt(analysis.types.labeled_point),
        write_phase: 0,
    };
    let plan = opt.plan(&phases, &[cache], &[]);
    assert_eq!(
        plan.decision(ContainerId(0)),
        &ContainerDecision::DecomposeSfst,
        "the optimizer must prove LabeledPoint SFST for the LR job"
    );
}

/// The LR job description: consumed by `DecaServer::submit` (via
/// `JobSpec::app`) and by the standalone runners
/// ([`crate::run_job_local`], [`crate::run_job_on`]). Unlike the paper's
/// reported numbers, a run's job totals include the `lr-load` stage; its
/// stage metrics keep it separable.
pub fn job(params: &LrParams) -> AppJob {
    let params = params.clone();
    AppJob::new("LR", move |job_ctx| run_logreg(&params, job_ctx))
}

fn run_logreg(params: &LrParams, job_ctx: &mut JobCtx) -> Result<f64, EngineError> {
    if params.mode == ExecutionMode::Deca {
        assert_deca_plan();
    }
    let data = datagen::labeled_vectors(params.points, params.dims, params.seed);
    let parts = datagen::partition(&data, params.partitions);
    let mode = params.mode;
    let dims = params.dims;
    let sfst_size = Some(LabeledPointRec::sfst_size(dims));
    let blocks = CachedBlocks::load(job_ctx, "lr-load", params.partitions, |e, task| {
        let classes = LabeledPointRec::register(&mut e.heap);
        Ok(e.cache_put(mode, &classes, &parts[task], sfst_size)?)
    })?;

    // ------------------------------------------------------ iterations
    let mut weights: Vec<f64> = (0..dims).map(|i| 0.1 * ((i % 7) as f64 - 3.0)).collect();
    for iter in 0..params.iterations {
        let weights_now = &weights;
        let sample = params.sample_timeline;
        let partials =
            job_ctx.run_stage(&format!("lr-iter{iter}"), params.partitions, |ctx, e| {
                let classes = LabeledPointRec::register(&mut e.heap);
                let block = blocks.get(ctx, e)?;
                let mut partial = vec![0.0f64; dims];
                match mode {
                    ExecutionMode::Spark => {
                        spark_gradient(e, block, &classes, weights_now, &mut partial)?
                    }
                    ExecutionMode::SparkSer => {
                        sparkser_gradient(e, block, &classes, weights_now, &mut partial)?
                    }
                    ExecutionMode::Deca => deca_gradient(e, block, weights_now, &mut partial)?,
                }
                if sample {
                    e.sample_timeline(classes.labeled_point);
                }
                Ok(partial)
            })?;
        // Sum partial gradients in task order (each partial is itself the
        // partition's in-order point sum), then apply the step — the f64
        // addition sequence never depends on where tasks ran.
        let mut gradient = vec![0.0f64; dims];
        for partial in &partials {
            for (g, p) in gradient.iter_mut().zip(partial) {
                *g += p;
            }
        }
        for (w, g) in weights.iter_mut().zip(&gradient) {
            *w -= 0.1 * g / params.points as f64;
        }
    }
    Ok(weights.iter().map(|w| w.abs()).sum())
}

/// One point's gradient term given the dot product machinery, shared by
/// every kernel so results agree bit-for-bit across modes.
#[inline]
fn factor_of(label: f64, dot: f64) -> f64 {
    (1.0 / (1.0 + (-label * dot).exp()) - 1.0) * label
}

/// Spark kernel: walk the heap object graphs; per point, allocate the
/// map's temporary gradient `DenseVector` (Figure 1 line 21-24) which dies
/// after the reduce consumes it.
#[allow(clippy::needless_range_loop)] // kernels index like the paper's code
fn spark_gradient(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    classes: &crate::records::LabeledPointClasses,
    weights: &[f64],
    gradient: &mut [f64],
) -> Result<(), EngineError> {
    let d = weights.len();
    let (root, len) = e.cache.objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)?;
    for i in 0..len {
        let arr = e.heap.root_ref(root);
        let lp = e.heap.array_get_ref(arr, i);
        let label = e.heap.read_f64(lp, 0);
        let dv = e.heap.read_ref(lp, 1);
        let data = e.heap.read_ref(dv, 0);
        let mut dot = 0.0;
        for j in 0..d {
            dot += weights[j] * e.heap.array_get_f64(data, j);
        }
        let factor = factor_of(label, dot);
        // Temporary map-output vector (allocated, filled, consumed, dead).
        let tmp = e.heap.alloc_array(classes.double_array, d).expect("temp vector");
        let ts = e.heap.push_stack(tmp);
        let data = {
            let arr = e.heap.root_ref(root);
            let lp = e.heap.array_get_ref(arr, i);
            let dv = e.heap.read_ref(lp, 1);
            e.heap.read_ref(dv, 0)
        };
        for j in 0..d {
            let v = e.heap.array_get_f64(data, j) * factor;
            let tmp = e.heap.stack_ref(ts);
            e.heap.array_set_f64(tmp, j, v);
        }
        let tmp = e.heap.stack_ref(ts);
        for j in 0..d {
            gradient[j] += e.heap.array_get_f64(tmp, j);
        }
        e.heap.truncate_stack(ts);
    }
    Ok(())
}

/// SparkSer kernel: deserialize each point (Kryo cost), materialise it as
/// temporary heap objects (the deserializer's output), then compute as the
/// Spark kernel does.
#[allow(clippy::needless_range_loop)]
fn sparkser_gradient(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    classes: &crate::records::LabeledPointClasses,
    weights: &[f64],
    gradient: &mut [f64],
) -> Result<(), EngineError> {
    let d = weights.len();
    // Collect first (the iterator holds &mut e), then process.
    let mut recs: Vec<LabeledPointRec> = Vec::new();
    e.cache.iter_serialized::<LabeledPointRec>(
        block,
        &mut e.heap,
        &mut e.kryo,
        &mut e.mm,
        |r| recs.push(r),
    )?;
    for rec in recs {
        // The deserializer materialises a temporary object graph.
        let lp = rec.store(&mut e.heap, classes).expect("temp graph");
        let ls = e.heap.push_stack(lp);
        let lp = e.heap.stack_ref(ls);
        let label = e.heap.read_f64(lp, 0);
        let dv = e.heap.read_ref(lp, 1);
        let data = e.heap.read_ref(dv, 0);
        let mut dot = 0.0;
        for j in 0..d {
            dot += weights[j] * e.heap.array_get_f64(data, j);
        }
        let factor = factor_of(label, dot);
        for j in 0..d {
            let data = {
                let lp = e.heap.stack_ref(ls);
                let dv = e.heap.read_ref(lp, 1);
                e.heap.read_ref(dv, 0)
            };
            gradient[j] += e.heap.array_get_f64(data, j) * factor;
        }
        e.heap.truncate_stack(ls);
    }
    Ok(())
}

/// Deca kernel — the Figure 12 transformed code: `label` at offset 0,
/// features at offsets 8, 16, … within each record's page segment;
/// accumulation into a preallocated result array.
fn deca_gradient(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    weights: &[f64],
    gradient: &mut [f64],
) -> Result<(), EngineError> {
    let d = weights.len();
    let heap = &mut e.heap;
    let mm = &mut e.mm;
    let cache = &mut e.cache;
    let block = cache.deca_block(block);
    block.scan_bytes(
        mm,
        heap,
        |bytes| {
            let label = f64::from_le_bytes(bytes[..8].try_into().unwrap());
            let mut dot = 0.0;
            let mut off = 8;
            for w in weights.iter().take(d) {
                dot += w * f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                off += 8;
            }
            let factor = factor_of(label, dot);
            off = 8;
            for g in gradient.iter_mut().take(d) {
                *g += f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) * factor;
                off += 8;
            }
        },
        |_| {},
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppReport;

    fn report(p: &LrParams) -> AppReport {
        crate::run_job_local(&job(p), lr_config(p), 1)
    }

    fn tiny(mode: ExecutionMode) -> LrParams {
        LrParams {
            points: 2_000,
            dims: 8,
            iterations: 3,
            partitions: 4,
            heap_bytes: 16 << 20,
            storage_fraction: 0.6,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 11,
            sample_timeline: false,
        }
    }

    #[test]
    fn all_modes_compute_identical_weights() {
        let spark = report(&tiny(ExecutionMode::Spark));
        let ser = report(&tiny(ExecutionMode::SparkSer));
        let deca = report(&tiny(ExecutionMode::Deca));
        assert!((spark.checksum - deca.checksum).abs() < 1e-12);
        assert!((ser.checksum - deca.checksum).abs() < 1e-12);
        assert!(spark.checksum > 0.0);
    }

    #[test]
    fn deca_cache_is_smaller_than_spark() {
        let spark = report(&tiny(ExecutionMode::Spark));
        let deca = report(&tiny(ExecutionMode::Deca));
        assert!(
            deca.cache_bytes < spark.cache_bytes,
            "deca {} vs spark {}",
            deca.cache_bytes,
            spark.cache_bytes
        );
    }

    #[test]
    fn timeline_shows_live_points_in_spark_only() {
        let mut p = tiny(ExecutionMode::Spark);
        p.sample_timeline = true;
        let spark = report(&p);
        assert!(
            spark.timeline.peak_live() >= p.points,
            "cached points live on the heap: peak={} points={}",
            spark.timeline.peak_live(),
            p.points
        );
        let mut p = tiny(ExecutionMode::Deca);
        p.sample_timeline = true;
        let deca = report(&p);
        assert_eq!(deca.timeline.peak_live(), 0, "no LabeledPoint objects in Deca");
    }
}
