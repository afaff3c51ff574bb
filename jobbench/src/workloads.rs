//! The three workloads, their job parameters per seed, and the pinned
//! executor configuration every job runs under.

use std::path::Path;
use std::time::{Duration, Instant};

use deca_apps::logreg::LrParams;
use deca_apps::pagerank::PrParams;
use deca_apps::wordcount::WcParams;
use deca_apps::{datagen, logreg, pagerank, wordcount};
use deca_check::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use deca_core::{ContainerInfo, Optimizer};
use deca_engine::{AppJob, ExecutionMode, ExecutorConfig, SchedulerMode};
use deca_heap::{GcAlgorithm, HeapConfig};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

/// Executors per cluster (standalone session or server). With
/// `DECA_GC_THREADS = nproc / EXECUTORS` the GC workers never outnumber
/// the cores.
pub const EXECUTORS: usize = 2;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// LR whose cached points exceed the Spark storage budget.
    LrCache,
    /// WordCount with many distinct keys and no cache.
    WcShuffle,
    /// A closed loop of small WC/PR/LR jobs on one `DecaServer`.
    SvcMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lr-cache" => Some(Workload::LrCache),
            "wc-shuffle" => Some(Workload::WcShuffle),
            "svc-mix" => Some(Workload::SvcMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LrCache => "lr-cache",
            Workload::WcShuffle => "wc-shuffle",
            Workload::SvcMix => "svc-mix",
        }
    }

    /// The distinct jobs of this workload for `seed`. The standalone
    /// workloads have one; `svc-mix` has a catalogue its loop draws from.
    pub fn variants(self, seed: u64, mode: ExecutionMode) -> Vec<JobParams> {
        let mut seeds = SplitMix64::new(seed ^ 0x6a6f_6262_656e_6368);
        let mut next = move || seeds.next_u64() % 1_000_000_007;
        match self {
            Workload::LrCache => vec![JobParams::Lr(LrParams {
                points: 192_000,
                dims: 10,
                iterations: 15,
                partitions: 8,
                heap_bytes: 16 << 20,
                storage_fraction: 0.6,
                mode,
                page_size: None,
                gc_algorithm: GcAlgorithm::ParallelScavenge,
                seed: next(),
                sample_timeline: false,
            })],
            Workload::WcShuffle => vec![JobParams::Wc(WcParams {
                words: 4_000_000,
                distinct: 600_000,
                partitions: 4,
                heap_bytes: 24 << 20,
                mode,
                seed: next(),
                sample_every: 0,
            })],
            Workload::SvcMix => {
                let mut out = Vec::new();
                for _ in 0..2 {
                    out.push(JobParams::Wc(WcParams {
                        words: 100_000,
                        distinct: 10_000,
                        partitions: 4,
                        heap_bytes: SERVER_HEAP,
                        mode,
                        seed: next(),
                        sample_every: 0,
                    }));
                    out.push(JobParams::Pr(PrParams {
                        vertices: 5_000,
                        edges: 40_000,
                        iterations: 3,
                        partitions: 4,
                        heap_bytes: SERVER_HEAP,
                        mode,
                        gc_algorithm: GcAlgorithm::ParallelScavenge,
                        storage_fraction: 0.6,
                        seed: next(),
                    }));
                    out.push(JobParams::Lr(LrParams {
                        points: 15_000,
                        dims: 10,
                        iterations: 5,
                        partitions: 4,
                        heap_bytes: SERVER_HEAP,
                        storage_fraction: 0.6,
                        mode,
                        page_size: None,
                        gc_algorithm: GcAlgorithm::ParallelScavenge,
                        seed: next(),
                        sample_timeline: false,
                    }));
                }
                out
            }
        }
    }
}

/// Heap per executor of the `svc-mix` server.
pub const SERVER_HEAP: usize = 16 << 20;

/// The seeded order in which `svc-mix` clients draw catalogue entries:
/// back-to-back shuffled rounds of the whole catalogue, so every prefix
/// holds each entry in equal share (within one round) whatever the seed.
/// The cursor wraps after `MIX_ROUNDS` rounds, far more jobs than a run
/// submits.
pub fn mix_sequence(seed: u64, variants: usize) -> Vec<usize> {
    const MIX_ROUNDS: usize = 1024;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x006d_6978);
    let mut out = Vec::with_capacity(variants * MIX_ROUNDS);
    for _ in 0..MIX_ROUNDS {
        let mut round: Vec<usize> = (0..variants).collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// One job's parameters: which app, at which size and seed.
#[derive(Clone, Debug)]
pub enum JobParams {
    Lr(LrParams),
    Wc(WcParams),
    Pr(PrParams),
}

impl JobParams {
    pub fn job(&self) -> AppJob {
        match self {
            JobParams::Lr(p) => logreg::job(p),
            JobParams::Wc(p) => wordcount::job(p),
            JobParams::Pr(p) => pagerank::job(p),
        }
    }

    /// The app's own executor configuration, pinned (see [`pin`]).
    pub fn config(&self, spill_dir: &Path, tracing: bool) -> ExecutorConfig {
        let config = match self {
            JobParams::Lr(p) => logreg::lr_config(p),
            JobParams::Wc(p) => wordcount::wc_config(p),
            JobParams::Pr(p) => pagerank::pr_config(p),
        };
        pin(config, spill_dir, tracing)
    }

    /// Run the `datagen::*` calls the job body makes, with the same
    /// arguments, and return how long they took.
    pub fn time_datagen(&self) -> Duration {
        let t = Instant::now();
        // Stop the clock before the inputs drop: the job body drops them
        // after its last stage, outside its prologue.
        match self {
            JobParams::Lr(p) => {
                let data = datagen::labeled_vectors(p.points, p.dims, p.seed);
                let parts = std::hint::black_box(datagen::partition(&data, p.partitions));
                let elapsed = t.elapsed();
                drop((data, parts));
                elapsed
            }
            JobParams::Wc(p) => {
                let data = datagen::zipf_words(p.words, p.distinct, p.seed);
                let parts = std::hint::black_box(datagen::partition(&data, p.partitions));
                let elapsed = t.elapsed();
                drop((data, parts));
                elapsed
            }
            JobParams::Pr(p) => {
                let edges =
                    std::hint::black_box(datagen::power_law_graph(p.vertices, p.edges, p.seed));
                let elapsed = t.elapsed();
                drop(edges);
                elapsed
            }
        }
    }

    /// Time the driver-side UDT classification the job body runs in Deca
    /// mode (`Optimizer::new` + `Optimizer::plan` over the app's program).
    /// Spark-mode jobs and WordCount classify nothing.
    pub fn time_plan(&self) -> Duration {
        let mode = match self {
            JobParams::Lr(p) => p.mode,
            JobParams::Pr(p) => p.mode,
            JobParams::Wc(_) => return Duration::ZERO,
        };
        if mode != ExecutionMode::Deca {
            return Duration::ZERO;
        }
        let t = Instant::now();
        match self {
            JobParams::Lr(_) => {
                let a = deca_apps::records::lr_analysis();
                let opt = Optimizer::new(&a.types.registry, &a.program);
                let phases = JobPhases::new().phase("map", a.stage_entry);
                let cache =
                    container(0, ContainerKind::CachedRdd, TypeRef::Udt(a.types.labeled_point));
                std::hint::black_box(opt.plan(&phases, &[cache], &[]));
            }
            JobParams::Pr(_) => {
                let a = deca_udt::fixtures::group_by_program();
                let opt = Optimizer::new(&a.registry, &a.program);
                let phases =
                    JobPhases::new().phase("combine", a.build_entry).phase("iterate", a.read_entry);
                let shuffle = container(0, ContainerKind::ShuffleBuffer, TypeRef::Udt(a.group));
                let mut cache = container(1, ContainerKind::CachedRdd, TypeRef::Udt(a.group));
                cache.created_seq = 1;
                std::hint::black_box(opt.plan(&phases, &[shuffle, cache], &[]));
            }
            JobParams::Wc(_) => {}
        }
        t.elapsed()
    }
}

fn container(id: u32, kind: ContainerKind, content: TypeRef) -> ContainerInfo {
    ContainerInfo { id: ContainerId(id), kind, created_seq: 0, content, write_phase: 0 }
}

/// Pin what the environment could otherwise change: pull scheduler,
/// zero-copy shuffle, explicit tracing, and a spill directory inside the
/// benchmark's output. (`DECA_GC_PLAN` and friends are refused up front,
/// so the GC plan is the one the app's `GcAlgorithm` selects.)
pub fn pin(config: ExecutorConfig, spill_dir: &Path, tracing: bool) -> ExecutorConfig {
    config
        .scheduler(SchedulerMode::Pull)
        .copying_shuffle(false)
        .tracing(tracing)
        .spill_dir(spill_dir.to_path_buf())
}

/// The `svc-mix` server's executor configuration.
pub fn server_config(mode: ExecutionMode, spill_dir: &Path, tracing: bool) -> ExecutorConfig {
    pin(ExecutorConfig::builder().mode(mode).heap_bytes(SERVER_HEAP).build(), spill_dir, tracing)
}

/// The GC plan and mark-worker count an executor built from `config`
/// actually runs with.
pub fn effective_gc(config: &ExecutorConfig) -> (&'static str, usize) {
    let mut heap = HeapConfig::with_total(config.heap_bytes).with_algorithm(config.gc_algorithm);
    if let Some(plan) = config.gc_plan {
        heap = heap.with_plan(plan);
    }
    (heap.plan.name(), heap.gc_threads)
}
