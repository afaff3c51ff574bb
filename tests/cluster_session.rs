//! Cluster-mode cross-mode equivalence: the same WordCount, PageRank,
//! LR and ConnectedComponents jobs through [`deca_engine::ClusterSession`]
//! produce identical results in Spark, SparkSer, and Deca mode,
//! independent of executor count.
//!
//! The driver makes this a hard guarantee, not a tolerance: tasks are
//! pinned to executors round-robin by task index and the exchange hands
//! reduce tasks their inputs in map-task order, so the floating-point
//! addition sequence per key is a function of the partitioning alone.

use deca_apps::concomp::{self, CcParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{run_job_local, run_job_on, AppReport};
use deca_engine::{ClusterSession, ExecutionMode, ExecutorConfig, SchedulerMode, TraceEventKind};

const EXECUTOR_COUNTS: [usize; 3] = [1, 2, 4];

fn wc_params(mode: ExecutionMode) -> WcParams {
    WcParams {
        words: 30_000,
        distinct: 800,
        partitions: 4,
        heap_bytes: 16 << 20,
        mode,
        seed: 42,
        sample_every: 0,
    }
}

fn pr_params(mode: ExecutionMode) -> PrParams {
    PrParams {
        vertices: 600,
        edges: 5_000,
        iterations: 3,
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        storage_fraction: 0.4,
        seed: 9,
    }
}

fn wc_report(mode: ExecutionMode, executors: usize) -> AppReport {
    let p = wc_params(mode);
    run_job_local(&wordcount::job(&p), wordcount::wc_config(&p), executors)
}

fn text_report(mode: ExecutionMode, executors: usize) -> AppReport {
    let p = wc_params(mode);
    run_job_local(&wordcount::text_job(&p), wordcount::wc_config(&p), executors)
}

fn pr_report(mode: ExecutionMode, executors: usize) -> AppReport {
    let p = pr_params(mode);
    run_job_local(&pagerank::job(&p), pagerank::pr_config(&p), executors)
}

#[test]
fn wordcount_is_identical_across_modes_and_widths() {
    // Word checksums are integer-valued f64 sums (< 2^53): exact under
    // any addition order, so every cell of the mode × width matrix must
    // be bit-identical.
    let reference = wc_report(ExecutionMode::Spark, 1).checksum;
    assert!(reference > 0.0);
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let report = wc_report(mode, executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
            assert_eq!(report.mode, mode);
        }
    }
}

#[test]
fn text_wordcount_is_identical_across_modes_and_widths() {
    let reference = text_report(ExecutionMode::Deca, 1).checksum;
    assert!(reference > 0.0);
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let report = text_report(mode, executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
        }
    }
}

#[test]
fn pagerank_is_bit_identical_across_widths_per_mode() {
    // f64 rank sums are order-sensitive; the driver's fixed task model
    // must make the executor count invisible bit-for-bit.
    for mode in ExecutionMode::ALL {
        let reference = pr_report(mode, 1).checksum;
        assert!(reference > 0.0);
        for executors in EXECUTOR_COUNTS {
            let report = pr_report(mode, executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
        }
    }
}

fn lr_params(mode: ExecutionMode) -> LrParams {
    let mut p = LrParams::small(mode);
    p.points = 2_000;
    p.dims = 8;
    p.iterations = 3;
    p.partitions = 4;
    p.heap_bytes = 16 << 20;
    p
}

fn lr_report(mode: ExecutionMode, executors: usize) -> AppReport {
    let p = lr_params(mode);
    run_job_local(&logreg::job(&p), logreg::lr_config(&p), executors)
}

#[test]
fn logreg_is_bit_identical_across_widths_per_mode() {
    // LR sums per-task partial gradients in task order, so — like
    // PageRank — the executor count must be invisible bit-for-bit.
    for mode in ExecutionMode::ALL {
        let reference = lr_report(mode, 1).checksum;
        assert!(reference.is_finite() && reference > 0.0);
        for executors in EXECUTOR_COUNTS {
            let report = lr_report(mode, executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
        }
    }
}

#[test]
fn logreg_modes_agree_at_every_width() {
    for executors in EXECUTOR_COUNTS {
        let spark = lr_report(ExecutionMode::Spark, executors).checksum;
        let ser = lr_report(ExecutionMode::SparkSer, executors).checksum;
        let deca = lr_report(ExecutionMode::Deca, executors).checksum;
        assert!((spark - deca).abs() < 1e-12, "{executors} executors: {spark} vs {deca}");
        assert!((ser - deca).abs() < 1e-12, "{executors} executors: {ser} vs {deca}");
    }
}

#[test]
fn pagerank_modes_agree_at_every_width() {
    for executors in EXECUTOR_COUNTS {
        let spark = pr_report(ExecutionMode::Spark, executors).checksum;
        let ser = pr_report(ExecutionMode::SparkSer, executors).checksum;
        let deca = pr_report(ExecutionMode::Deca, executors).checksum;
        assert!((spark - deca).abs() < 1e-9, "{executors} executors: {spark} vs {deca}");
        assert!((ser - deca).abs() < 1e-9, "{executors} executors: {ser} vs {deca}");
    }
}

fn cc_params(mode: ExecutionMode) -> CcParams {
    CcParams {
        vertices: 600,
        edges: 3_000,
        max_iterations: 10,
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        storage_fraction: 0.4,
        seed: 9,
    }
}

#[test]
fn connected_components_are_identical_across_modes_and_widths() {
    // Labels combine with `min`, exact under any order: every cell of the
    // mode x width matrix must match the 1-executor Deca run bit for bit.
    let cc_report = |mode, executors| {
        let p = cc_params(mode);
        run_job_local(&concomp::job(&p), concomp::cc_config(&p), executors)
    };
    let reference = cc_report(ExecutionMode::Deca, 1).checksum;
    assert!(reference > 0.0);
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let report = cc_report(mode, executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
            assert_eq!(report.mode, mode);
        }
    }
}

#[test]
fn pull_scheduler_matches_wave_bit_for_bit_at_every_mode_and_width() {
    // The pull scheduler removes the per-wave barrier but not the
    // determinism contract: results are collected by task index and
    // reduces still see map outputs in map-task order, so every cell of
    // the mode × width matrix must agree bit-for-bit with the Wave run —
    // and run the same number of physical attempts.
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let p = wc_params(mode);
            let run_wc = |sched: SchedulerMode| {
                let mut session =
                    ClusterSession::new(executors, wordcount::wc_config(&p).scheduler(sched));
                let (checksum, _) =
                    run_job_on(&wordcount::job(&p), &mut session).expect("wordcount job");
                let steals = session
                    .merged_trace()
                    .events
                    .iter()
                    .filter(|e| e.kind == TraceEventKind::TaskSteal)
                    .count();
                (checksum, session.job_summary().attempts, steals)
            };
            let (wave, wave_attempts, wave_steals) = run_wc(SchedulerMode::Wave);
            let (pull, pull_attempts, _) = run_wc(SchedulerMode::Pull);
            assert_eq!(wave, pull, "WC {mode} on {executors} executors: schedulers disagree");
            assert_eq!(wave_attempts, pull_attempts, "WC {mode} on {executors} executors");
            assert_eq!(wave_steals, 0, "Wave must never emit TaskSteal events");

            let pr = pr_params(mode);
            let run_pr = |sched: SchedulerMode| {
                let mut session =
                    ClusterSession::new(executors, pagerank::pr_config(&pr).scheduler(sched));
                let (checksum, _) =
                    run_job_on(&pagerank::job(&pr), &mut session).expect("pagerank job");
                (checksum, session.job_summary().attempts)
            };
            let (wave, wave_attempts) = run_pr(SchedulerMode::Wave);
            let (pull, pull_attempts) = run_pr(SchedulerMode::Pull);
            assert_eq!(wave, pull, "PR {mode} on {executors} executors: schedulers disagree");
            assert_eq!(wave_attempts, pull_attempts, "PR {mode} on {executors} executors");
        }
    }
}

#[test]
fn heterogeneous_heaps_do_not_change_results() {
    // A mixed cluster — one big-heap and one small-heap executor — runs
    // more GC and spill work on the small node, but the task model keeps
    // the answer bit-identical to the uniform cluster.
    fn mixed_configs(mode: ExecutionMode, heaps: &[usize]) -> Vec<ExecutorConfig> {
        heaps
            .iter()
            .map(|&h| {
                ExecutorConfig::builder()
                    .mode(mode)
                    .heap_bytes(h)
                    .shuffle_fraction(0.6)
                    .storage_fraction(0.2)
                    .build()
            })
            .collect()
    }
    for mode in ExecutionMode::ALL {
        let p = wc_params(mode);
        let uniform = run_job_local(&wordcount::job(&p), wordcount::wc_config(&p), 2).checksum;

        let mut session = ClusterSession::with_configs(mixed_configs(mode, &[24 << 20, 8 << 20]));
        let (mixed, _) =
            run_job_on(&wordcount::job(&p), &mut session).expect("wordcount on mixed heaps");
        assert_eq!(mixed, uniform, "{mode}: mixed 24MB/8MB heaps changed the checksum");

        let pr = pr_params(mode);
        let pr_uniform = run_job_local(&pagerank::job(&pr), pagerank::pr_config(&pr), 2).checksum;
        let mut session = ClusterSession::with_configs(
            [32 << 20, 12 << 20]
                .iter()
                .map(|&h| {
                    ExecutorConfig::builder()
                        .mode(mode)
                        .heap_bytes(h)
                        .storage_fraction(pr.storage_fraction)
                        .gc(pr.gc_algorithm)
                        .build()
                })
                .collect(),
        );
        let (pr_mixed, _) =
            run_job_on(&pagerank::job(&pr), &mut session).expect("pagerank on mixed heaps");
        assert_eq!(pr_mixed, pr_uniform, "{mode}: mixed 32MB/12MB heaps changed the ranks");
    }
}

#[test]
fn merged_timeline_spans_executors() {
    // Spark-mode map tasks sample the Tuple2 census on their own
    // executors; the cluster report merges the per-executor timelines.
    let mut p = wc_params(ExecutionMode::Spark);
    p.sample_every = 500;
    let report = run_job_local(&wordcount::job(&p), wordcount::wc_config(&p), 2);
    assert!(!report.timeline.samples.is_empty());
    assert!(report.timeline.peak_live() > 0, "temporary tuples were observed live");
    assert!(report.slowest_task.is_some());
}
