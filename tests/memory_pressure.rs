//! Behaviour under memory pressure: cache eviction, page-group swapping,
//! spill round-trips, and OOM recovery (Appendix C).

mod util;

use deca_apps::logreg::{job, lr_config, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::{run_job_local, run_job_on, AppReport};
use deca_engine::record::HeapRecord;
use deca_engine::{ClusterSession, ExecutionMode, Executor, ExecutorConfig, RetryPolicy};

use util::TestDir;

fn lr_report(p: &LrParams) -> AppReport {
    run_job_local(&job(p), lr_config(p), 1)
}

#[test]
fn lr_survives_cache_larger_than_budget_in_all_modes() {
    let td = TestDir::executor_default();
    // Storage budget ~1.2MB; Spark cache needs ~3.4MB => eviction cycles.
    for mode in ExecutionMode::ALL {
        let p = LrParams {
            points: 20_000,
            dims: 10,
            iterations: 2,
            partitions: 8,
            heap_bytes: 24 << 20,
            storage_fraction: 0.05,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 31,
            sample_timeline: false,
        };
        let r = lr_report(&p);
        assert!(r.checksum.is_finite(), "{mode}: result must be computed");
    }
    td.cleanup();
}

#[test]
fn evicted_results_match_resident_results() {
    let td = TestDir::executor_default();
    let mk = |storage: f64| LrParams {
        points: 12_000,
        dims: 10,
        iterations: 3,
        partitions: 6,
        heap_bytes: 24 << 20,
        storage_fraction: storage,
        mode: ExecutionMode::Spark,
        page_size: None,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        seed: 32,
        sample_timeline: false,
    };
    let resident = lr_report(&mk(0.8));
    let evicting = lr_report(&mk(0.04));
    assert!(
        (resident.checksum - evicting.checksum).abs() < 1e-12,
        "eviction round-trips (serialize -> disk -> deserialize) must not corrupt data"
    );
    assert!(evicting.metrics.io >= resident.metrics.io, "eviction shows up as disk time");
    td.cleanup();
}

#[test]
fn deca_swap_roundtrip_preserves_data() {
    let td = TestDir::executor_default();
    let mk = |storage: f64| LrParams {
        points: 12_000,
        dims: 10,
        iterations: 3,
        partitions: 6,
        heap_bytes: 24 << 20,
        storage_fraction: storage,
        mode: ExecutionMode::Deca,
        page_size: None,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        seed: 33,
        sample_timeline: false,
    };
    let resident = lr_report(&mk(0.8));
    let evicting = lr_report(&mk(0.02));
    assert!((resident.checksum - evicting.checksum).abs() < 1e-12);
    td.cleanup();
}

#[test]
fn lr_is_correct_under_every_collector() {
    let td = TestDir::executor_default();
    // End-to-end across PS (copy-compact), CMS (mark-sweep + free lists)
    // and G1 accounting: identical weights, saturated heap.
    let mut results = Vec::new();
    for algo in [
        deca_heap::GcAlgorithm::ParallelScavenge,
        deca_heap::GcAlgorithm::Cms,
        deca_heap::GcAlgorithm::G1,
    ] {
        let p = LrParams {
            points: 15_000,
            dims: 10,
            iterations: 4,
            partitions: 6,
            heap_bytes: 8 << 20, // saturating: collections will run
            storage_fraction: 0.6,
            mode: ExecutionMode::Spark,
            page_size: None,
            gc_algorithm: algo,
            seed: 34,
            sample_timeline: false,
        };
        results.push(lr_report(&p).checksum);
    }
    assert_eq!(results[0], results[1], "CMS (mark-sweep) must not corrupt data");
    assert_eq!(results[1], results[2]);
    td.cleanup();
}

#[test]
fn heap_oom_is_reported_not_corrupting() {
    let td = TestDir::executor_default();
    let mut exec = Executor::new(ExecutorConfig::new(ExecutionMode::Spark, 2 << 20));
    let classes = <(i64, i64) as HeapRecord>::register(&mut exec.heap);
    // Pin far more live data than the heap can hold.
    let mut stored = 0usize;
    let mut oom = false;
    for i in 0..200_000i64 {
        match (i, i).store(&mut exec.heap, &classes) {
            Ok(obj) => {
                exec.heap.add_root(obj);
                stored += 1;
            }
            Err(_) => {
                oom = true;
                break;
            }
        }
    }
    assert!(oom, "over-commit must surface as OomError");
    assert!(stored > 1_000, "a substantial prefix fit before OOM");
    td.cleanup();
}

#[test]
fn a_failed_adjacency_build_leaves_nothing_rooted() {
    // A Spark-mode PageRank whose 768 KB heap cannot group one edge
    // partition: every attempt of `adj-build` task 0, and its OOM re-run,
    // runs out of heap. The failed attempts' grouping lists, partial
    // cache arrays and stack temporaries must all be unrooted, or each
    // retry starts with less heap than the one before.
    let td = TestDir::executor_default();
    let mut p = PrParams::small(ExecutionMode::Spark);
    p.heap_bytes = 768 << 10;
    let config = pagerank::pr_config(&p).retry(RetryPolicy::resilient());
    let mut session = ClusterSession::new(1, config);
    let err = run_job_on(&pagerank::job(&p), &mut session).expect_err("the heap was sized to fail");
    assert!(err.to_string().contains("adj-build"), "the grouping stage fails: {err}");
    assert_eq!(session.executor(0).heap.root_count(), 0, "a failed attempt left roots behind");
    td.cleanup();
}
