//! perf_gate — the BENCH perf-regression gate.
//!
//! Runs pinned smoke workloads (WC, LR, PR, and a PR cache-pressure cell
//! whose storage budget forces every cached block through all three cache
//! tiers, at `DECA_BENCH_SCALE`) in Spark and Deca mode, times each cell
//! with the `deca-check` sampling discipline (median/p95 over
//! `DECA_GATE_SAMPLES` runs), and writes the
//! results to `BENCH_PR9.json` (`DECA_BENCH_OUT` overrides). If an older
//! `BENCH_*.json` exists next to the output, the gate compares the
//! best-of-N wall time cell-by-cell (the min is the noise-free estimate
//! for deterministic work; medians over few ~50 ms samples swing with
//! host load) and **exits non-zero** when any cell regressed beyond the
//! tolerance band (`DECA_GATE_TOLERANCE`, default 1.6× — the band
//! catches order-of-magnitude breakage, the committed history catches
//! drift).
//!
//! Two in-process validity checks ride along, so the gate also guards the
//! observability layer it reports through:
//!
//! * the fig8 (WordCount) smoke cell is re-run with tracing disabled and
//!   the tracing overhead printed — it must stay under
//!   `DECA_GATE_TRACE_OVERHEAD` percent (default 5);
//! * a traced run's Chrome trace-event export must validate and
//!   round-trip losslessly through the in-repo JSON parser.
//!
//! A third in-process check gates the scheduler itself: a skewed stage
//! (one straggler ~8× the rest, base task `DECA_TEST_STRAGGLER_MS`,
//! default 2 ms) is timed under both scheduler modes, and
//! the pull scheduler must beat the wave scheduler by at least
//! `DECA_GATE_SKEW_MIN` (default 1.3×) on the median. The skew cell is
//! recorded in its own JSON section, not under `workloads`, so it never
//! enters the cross-PR baseline band. A fourth check validates the
//! cache-pressure cell: its tier traffic (demotions, evictions, spill
//! bytes) must be nonzero, or the cell's timing gates nothing.
//!
//! A fifth check gates the multi-job service ([`DecaServer`]): eight
//! jobs — six real WC/PR jobs plus two I/O-wait jobs (sleeping tasks,
//! the same wait model as the skew cell) — are pushed through one
//! 4-executor server twice, all at once and one at a time. Run
//! serially the cluster idles through every I/O wait; run concurrently
//! the server must hide those waits under the other jobs' compute, so
//! the concurrent batch must reach `DECA_GATE_SERVER_MIN` (default
//! 1.0×) of the serial-sum throughput even on a single-core host.
//! Every job's checksum is asserted against its standalone reference.
//! Like the skew cell it is recorded in its own JSON section.
//!
//! A sixth check gates speculative execution: a stage with one hung
//! straggler (sleep-modelled, cooperatively cancellable) is timed under
//! the Pull scheduler with speculation off and on, and speculation must
//! win by at least `DECA_GATE_SPEC_MIN` (default 1.3×) on the median.
//!
//! A seventh check gates the zero-copy shuffle hand-over: a
//! shuffle-bound WordCount (high distinct count, so combining collapses
//! little and most records cross the exchange) at `DECA_GATE_SCALE`
//! (default 10× the base workload) is timed in Deca mode with the
//! copying baseline (`copying_shuffle`) on and off, and the zero-copy
//! path must be at least `DECA_GATE_ZC_MIN` (default 1.0×: no worse
//! than copying; ownership transfer strictly removes work) as fast on
//! the best-of-N. The same shuffle-bound workload is also recorded as
//! `WC-SHUF/{Spark,Deca}` cells in the cross-PR baseline band.
//!
//! An eighth check gates parallel tracing on a GC-bound cell: a tenured
//! graph is marked repeatedly (`Heap::mark_census`, the mark phase in
//! isolation) with one worker and with `min(cores, 4)` workers. On a
//! multi-core host the parallel mark must win by
//! `DECA_GATE_GCPAR_MIN` (default 1.3×); on a single-core host a
//! wall-clock speedup is physically impossible — the workers time-slice
//! one CPU — so the floor degrades to parity-with-overhead (0.7×) and
//! the cell leans on its structural assert instead: every thread count
//! must mark the exact same object census. The host's core count and
//! the effective floor are recorded in the JSON so the committed record
//! says which gate actually ran.
//!
//! A ninth check gates the concurrent marker: the same tenured graph is
//! collected once with a stop-the-world full GC and once by a
//! concurrent cycle racing an allocating mutator. The cycle's worst
//! stop-the-world pause (initial mark + remark) must stay under the
//! full GC's pause by `DECA_GATE_CONC_MIN` (default 1.0×: never worse),
//! and its remark must trace only a sliver of the full collection's
//! whole-heap census.
//!
//! The timing-thin floor cells (skew, SERVER, SPEC, zero-copy, GCPAR,
//! CONC-PAUSE) are re-measured once on a miss: both runs are printed
//! and the gate takes the better one.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::report::AppReport;
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{run_job_local, run_job_on};
use deca_bench::Scale;
use deca_check::bench::summarize;
use deca_check::Json;
use deca_engine::{
    ClusterSession, DecaServer, EngineError, ExecutionMode, ExecutorConfig, JobSpec, RetryPolicy,
    RunTrace, SchedulerMode,
};
use deca_heap::{ClassBuilder, FieldKind, GcEventKind, GcPlanKind, Heap, HeapConfig};

const OUT_DEFAULT: &str = "BENCH_PR10.json";
const MODES: [ExecutionMode; 2] = [ExecutionMode::Spark, ExecutionMode::Deca];

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn wc_params(scale: Scale, mode: ExecutionMode) -> WcParams {
    WcParams {
        words: scale.records(200_000).max(1_000),
        distinct: scale.records(20_000).max(100),
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        seed: 42,
        sample_every: 0,
    }
}

/// The shuffle-bound cell: WordCount with a distinct count near the word
/// count, so map-side combining collapses almost nothing and nearly every
/// record crosses the exchange — the byte volume the zero-copy hand-over
/// moves (or the baseline copies) dominates the run.
fn wc_shuffle_params(scale: Scale, mode: ExecutionMode) -> WcParams {
    WcParams {
        words: scale.records(40_000).max(4_000),
        distinct: scale.records(20_000).max(2_000),
        partitions: 4,
        heap_bytes: 32 << 20,
        mode,
        seed: 42,
        sample_every: 0,
    }
}

fn lr_params(scale: Scale, mode: ExecutionMode) -> LrParams {
    let mut p = LrParams::small(mode);
    p.points = scale.records(16_000).max(500);
    p.iterations = 5;
    p.heap_bytes = 16 << 20;
    p
}

fn pr_params(scale: Scale, mode: ExecutionMode) -> PrParams {
    let mut p = PrParams::small(mode);
    p.vertices = scale.records(4_000).max(200);
    p.edges = scale.records(40_000).max(2_000);
    p.iterations = 3;
    p.heap_bytes = 24 << 20;
    p
}

/// The cache-pressure cell: PageRank with a storage budget far below one
/// adjacency block, so every cached partition demotes through hot → warm
/// → cold (Spark) or swaps its page group (Deca), and every iteration's
/// scan pays the cold-read path. Times the tiered cache's worst case.
fn pressure_params(scale: Scale, mode: ExecutionMode) -> PrParams {
    let mut p = pr_params(scale, mode);
    p.storage_fraction = 0.0001;
    p
}

/// One gate cell: `samples` timed runs of a workload, plus the metrics of
/// the final run (GC ratio, traced objects) for the committed record.
struct Cell {
    key: String,
    min_s: f64,
    median_s: f64,
    p95_s: f64,
    gc_ratio: f64,
    objects_traced: u64,
}

fn measure(key: &str, samples: usize, mut run: impl FnMut() -> AppReport) -> Cell {
    run(); // warmup, untimed — the first run of a workload pays cold caches
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let t = Instant::now();
        let report = run();
        times.push(t.elapsed().as_secs_f64());
        last = Some(report);
    }
    let s = summarize(times, 1);
    let last = last.expect("samples >= 1");
    println!(
        "  {key:<12} min {:>8.3}s  median {:>8.3}s  p95 {:>8.3}s  gc_ratio {:>5.1}%  traced {:>10}",
        s.min,
        s.median,
        s.p95,
        last.gc_ratio() * 100.0,
        last.objects_traced,
    );
    Cell {
        key: key.to_string(),
        min_s: s.min,
        median_s: s.median,
        p95_s: s.p95,
        gc_ratio: last.gc_ratio(),
        objects_traced: last.objects_traced,
    }
}

/// Tracing-overhead probe: best-of-N wall times for a thunk run with
/// tracing on vs off. Each timed sample is a burst of `burst`
/// back-to-back runs (lengthening the timed region past scheduler
/// granularity), the pairs interleave with alternating order (on/off,
/// off/on, …) so machine drift and ordering effects hit both sides
/// equally, a warmup pair absorbs cold caches, and the *minimum* is
/// compared — for deterministic work the min is the noise-free
/// estimate, where a median over few ~20 ms samples can swing ±20% on
/// a busy host.
fn overhead_pct(pairs: usize, burst: usize, mut run: impl FnMut(bool)) -> f64 {
    run(true);
    run(false);
    let mut time = |tracing: bool| {
        let t = Instant::now();
        for _ in 0..burst {
            run(tracing);
        }
        t.elapsed().as_secs_f64()
    };
    let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
    for i in 0..pairs {
        let order = if i % 2 == 0 { [true, false] } else { [false, true] };
        for tracing in order {
            let t = time(tracing);
            let best = if tracing { &mut best_on } else { &mut best_off };
            *best = best.min(t);
        }
    }
    (best_on / best_off.max(1e-9) - 1.0) * 100.0
}

/// Hardening for the timing-thin floor-gated cells (skew, SERVER, SPEC):
/// their margins are sleep-modelled milliseconds, so a single noisy run
/// on a loaded host can dip under the floor without any real regression.
/// On a miss the cell is re-measured once, both measurements are
/// printed, and the gate takes the better run — a genuine regression
/// fails both times; a scheduling hiccup doesn't fail the gate.
fn gate_with_retry<T>(name: &str, floor: f64, mut measure: impl FnMut() -> (T, f64)) -> (T, f64) {
    let (first, s1) = measure();
    if s1 >= floor {
        return (first, s1);
    }
    println!("  {name} cell measured {s1:.2}x, below the {floor:.2}x floor — re-measuring once");
    let (second, s2) = measure();
    println!("  {name} cell runs: {s1:.2}x then {s2:.2}x — gating on the better");
    if s2 >= s1 {
        (second, s2)
    } else {
        (first, s1)
    }
}

/// The newest prior `BENCH_*.json` in `dir` (by the numeric suffix in
/// `BENCH_PR<N>.json`, falling back to name order), excluding `out`.
fn newest_baseline(dir: &std::path::Path, out: &str) -> Option<(String, Json)> {
    let mut candidates: Vec<(i64, String)> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != out)
        .map(|n| {
            let num: i64 =
                n.trim_start_matches("BENCH_PR").trim_end_matches(".json").parse().unwrap_or(-1);
            (num, n)
        })
        .collect();
    candidates.sort();
    let (_, name) = candidates.pop()?;
    let text = std::fs::read_to_string(dir.join(&name)).ok()?;
    match Json::parse(&text) {
        Ok(doc) => Some((name, doc)),
        Err(e) => {
            eprintln!("warning: baseline {name} is not parseable ({e}); ignoring");
            None
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let samples = env_usize("DECA_GATE_SAMPLES", 5).max(1);
    let tolerance = env_f64("DECA_GATE_TOLERANCE", 1.6);
    let skew_min = env_f64("DECA_GATE_SKEW_MIN", 1.3);
    let overhead_limit = env_f64("DECA_GATE_TRACE_OVERHEAD", 5.0);
    let out = std::env::var("DECA_BENCH_OUT").unwrap_or_else(|_| OUT_DEFAULT.to_string());
    let out_path = std::path::PathBuf::from(&out);
    let dir = out_path.parent().map(|p| p.to_path_buf()).filter(|p| !p.as_os_str().is_empty());
    let dir = dir.unwrap_or_else(|| std::path::PathBuf::from("."));

    println!(
        "# perf_gate: scale {:.2}, {samples} samples/cell, tolerance {tolerance:.2}x",
        scale.factor
    );

    // The shuffle-bound cells run at their own (larger) scale so the
    // exchange volume dominates: `DECA_GATE_SCALE` defaults to 10x the
    // base workload regardless of `DECA_BENCH_SCALE`.
    let gate_scale = Scale {
        factor: env_f64("DECA_GATE_SCALE", 10.0),
        lr_iterations: scale.lr_iterations,
        graph_iterations: scale.graph_iterations,
    };

    let mut cells: Vec<Cell> = Vec::new();
    for mode in MODES {
        let wc = wc_params(scale, mode);
        cells.push(measure(&format!("WC/{}", mode.name()), samples, || {
            run_job_local(&wordcount::job(&wc), wordcount::wc_config(&wc), 2)
        }));
        let lr = lr_params(scale, mode);
        cells.push(measure(&format!("LR/{}", mode.name()), samples, || {
            run_job_local(&logreg::job(&lr), logreg::lr_config(&lr), 1)
        }));
        let pr = pr_params(scale, mode);
        cells.push(measure(&format!("PR/{}", mode.name()), samples, || {
            run_job_local(&pagerank::job(&pr), pagerank::pr_config(&pr), 2)
        }));
        let press = pressure_params(scale, mode);
        cells.push(measure(&format!("PR-CACHE/{}", mode.name()), samples, || {
            run_job_local(&pagerank::job(&press), pagerank::pr_config(&press), 2)
        }));
        let shuf = wc_shuffle_params(gate_scale, mode);
        cells.push(measure(&format!("WC-SHUF/{}", mode.name()), samples, || {
            run_job_local(&wordcount::job(&shuf), wordcount::wc_config(&shuf), 2)
        }));
    }

    // --- cache-pressure validity: the cell must actually exercise all
    // three tiers, or its timing gates nothing ------------------------
    let pressure_stats: Vec<(ExecutionMode, deca_engine::CacheStats)> = MODES
        .iter()
        .map(|&mode| {
            let p = pressure_params(scale, mode);
            let mut session = ClusterSession::new(2, pagerank::pr_config(&p));
            run_job_on(&pagerank::job(&p), &mut session).expect("pressure smoke run");
            let stats = session.cluster().executors.iter().map(|e| e.cache_stats()).fold(
                deca_engine::CacheStats::default(),
                |mut acc, s| {
                    acc.evictions += s.evictions;
                    acc.demotions += s.demotions;
                    acc.spill_write_bytes += s.spill_write_bytes;
                    acc.spill_read_bytes += s.spill_read_bytes;
                    acc
                },
            );
            assert!(stats.evictions > 0, "{mode}: pressure cell never reached the cold tier");
            assert!(stats.spill_write_bytes > 0, "{mode}: pressure cell wrote no spill bytes");
            if mode != ExecutionMode::Deca {
                // Deca has no warm tier — pages are already serialized.
                assert!(stats.demotions > 0, "{mode}: pressure cell never used the warm tier");
                assert!(stats.spill_read_bytes > 0, "{mode}: pressure cell never read back");
            }
            println!(
                "  cache pressure {:<8} demotions {:>6}  evictions {:>6}  spill write {:>9}B  \
                 read {:>9}B",
                mode.name(),
                stats.demotions,
                stats.evictions,
                stats.spill_write_bytes,
                stats.spill_read_bytes,
            );
            (mode, stats)
        })
        .collect();

    // --- tracing overhead on the fig8 (WordCount) smoke cell ----------
    let overhead = {
        let p = wc_params(scale, ExecutionMode::Deca);
        let pairs = samples.max(12);
        let pct = overhead_pct(pairs, 3, |tracing| {
            let config = ExecutorConfig::new(p.mode, p.heap_bytes).tracing(tracing);
            let mut session = ClusterSession::new(2, config);
            run_job_on(&wordcount::job(&p), &mut session).expect("fault-free smoke run");
        });
        println!(
            "  tracing overhead on fig8 smoke: {pct:+.2}% (best-of-{pairs} interleaved \
             3-run bursts, limit {overhead_limit:.1}%)"
        );
        pct
    };

    // --- Chrome trace export round-trips through the in-repo parser ---
    let trace_events = {
        let p = wc_params(scale, ExecutionMode::Deca);
        let mut session = ClusterSession::new(2, ExecutorConfig::new(p.mode, p.heap_bytes));
        run_job_on(&wordcount::job(&p), &mut session).expect("fault-free smoke run");
        let trace = session.merged_trace();
        let chrome = trace.to_chrome_string();
        let n = RunTrace::validate_chrome_document(&chrome)
            .unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
        let back = RunTrace::from_chrome_string(&chrome)
            .unwrap_or_else(|e| panic!("chrome trace did not parse back: {e}"));
        assert_eq!(back, trace, "chrome trace round-trip must be lossless");
        println!("  chrome trace round-trip: {n} events, lossless");
        n
    };

    // --- skewed-stage scheduler cell: Wave vs Pull --------------------
    // One straggler task 8× the rest, more tasks than executors. Under
    // Wave the straggler's executor also runs its whole affinity queue
    // after the long task while the barrier holds everyone else idle;
    // under Pull the idle executors steal those tasks, so the stage ends
    // near max(straggler, total/executors). Task cost is modelled as
    // sleep (I/O wait), which overlaps across executor threads even on a
    // single-core host — a real-CPU straggler would serialize there and
    // measure nothing about scheduling.
    // Oversubscribed CI hosts can widen the timing headroom without
    // editing code (the scheduler-equivalence test honors the same
    // knob); the straggler stays 8× whatever the base is.
    let base_ms = env_usize("DECA_TEST_STRAGGLER_MS", 2).max(1) as u64;
    let ((skew_wave, skew_pull), skew_speedup) = {
        const EXECUTORS: usize = 4;
        const TASKS: usize = 24;
        const STRAGGLER_FACTOR: u64 = 8;
        let base = Duration::from_millis(base_ms);
        let time_sched = |sched: SchedulerMode| -> Vec<f64> {
            let mut times = Vec::with_capacity(samples);
            for i in 0..=samples {
                let config = ExecutorConfig::new(ExecutionMode::Deca, 8 << 20)
                    .tracing(false)
                    .scheduler(sched);
                let mut session = ClusterSession::new(EXECUTORS, config);
                let t = Instant::now();
                session
                    .run_stage("skew", TASKS, |ctx, _e| {
                        let d = if ctx.task == 0 { base * STRAGGLER_FACTOR as u32 } else { base };
                        std::thread::sleep(d);
                        Ok(())
                    })
                    .expect("skew stage");
                if i > 0 {
                    times.push(t.elapsed().as_secs_f64()); // sample 0 is warmup
                }
            }
            times
        };
        gate_with_retry("skew", skew_min, || {
            let wave = summarize(time_sched(SchedulerMode::Wave), 1);
            let pull = summarize(time_sched(SchedulerMode::Pull), 1);
            let speedup = wave.median / pull.median.max(1e-9);
            println!(
                "  skew cell ({EXECUTORS} executors, {TASKS} tasks, straggler \
                 {STRAGGLER_FACTOR}x over {base_ms}ms): wave median {:.1}ms, pull median \
                 {:.1}ms, speedup {speedup:.2}x (gate >= {skew_min:.2}x)",
                wave.median * 1e3,
                pull.median * 1e3,
            );
            ((wave, pull), speedup)
        })
    };

    // --- SERVER cell: multi-job throughput through DecaServer ---------
    // Eight mixed jobs — six real WC/PR jobs plus two width-1 I/O-wait
    // jobs whose tasks sleep (the same wait model as the skew cell) —
    // through one 4-executor DecaServer: once submitted all at once,
    // once one at a time on the same server. A width-1 job's sleeps
    // chain sequentially on its single home worker, so run serially the
    // whole cluster idles through each chain; submitted concurrently,
    // the server must hide the chains under the six compute jobs —
    // which works even on a single-core host, because CPU work cannot
    // overlap itself on one core but always overlaps a sleep. The gate
    // floor is `DECA_GATE_SERVER_MIN` (default 1.0: concurrent wall
    // time no worse than the serial sum; the wait-hiding puts the
    // expected value well above it). Every job pins the Wave scheduler
    // so a `DECA_SCHEDULER=pull` environment cannot let work-stealing
    // despread the sleep chain and shrink the serial baseline, and
    // every job's checksum is asserted against its standalone
    // reference, so the throughput number only counts runs that
    // produced the right answer.
    let server_min = env_f64("DECA_GATE_SERVER_MIN", 1.0);
    let ((server_serial, server_concurrent), server_speedup) = {
        const EXECUTORS: usize = 4;
        const WIDTH: usize = 4;
        const JOBS: usize = 8;
        // Many short sleeps, not a few long ones: every compute stage
        // has a task pinned to the waiters' home worker, and the sleep
        // length bounds how long that task queues behind a waiter.
        const IO_TASKS: usize = 20;
        let wc = wc_params(scale, ExecutionMode::Deca);
        let pr = pr_params(scale, ExecutionMode::Deca);
        let wc_ref = run_job_local(&wordcount::job(&wc), wordcount::wc_config(&wc), WIDTH).checksum;
        let pr_ref = run_job_local(&pagerank::job(&pr), pagerank::pr_config(&pr), WIDTH).checksum;
        let io_wait = std::time::Duration::from_millis(2 * base_ms);
        let io_job = move || {
            deca_engine::AppJob::new("io", move |ctx| {
                let per_task = ctx.run_stage("io-wait", IO_TASKS, move |_t, _e| {
                    std::thread::sleep(io_wait);
                    Ok(1.0)
                })?;
                Ok(per_task.iter().sum())
            })
        };
        let server = DecaServer::new(EXECUTORS, ExecutorConfig::new(ExecutionMode::Deca, 24 << 20));
        // Jobs 0 and 1 are the width-1 I/O waiters — submitted FIRST,
        // because the server runs at most `runners` (= executor count)
        // job bodies at once: waiters queued last would execute after
        // the compute jobs drained and sleep with nothing to hide
        // under. Jobs 2..8 alternate WC/PR at full width.
        let spec = |i: usize| -> JobSpec {
            let (app, width) = if i < 2 {
                (io_job(), 1)
            } else if i % 2 == 0 {
                (wordcount::job(&wc), WIDTH)
            } else {
                (pagerank::job(&pr), WIDTH)
            };
            JobSpec::new("bench").executors(width).scheduler(SchedulerMode::Wave).app(app)
        };
        let reference = |i: usize| {
            if i < 2 {
                IO_TASKS as f64
            } else if i % 2 == 0 {
                wc_ref
            } else {
                pr_ref
            }
        };
        let run_batch = |concurrent: bool| -> f64 {
            let t = Instant::now();
            if concurrent {
                let handles: Vec<_> =
                    (0..JOBS).map(|i| server.submit(spec(i)).expect("submit")).collect();
                for (i, h) in handles.iter().enumerate() {
                    let out = h.wait().expect("server job");
                    assert_eq!(out.checksum, reference(i), "job {i}: server drifted off run_local");
                }
            } else {
                for i in 0..JOBS {
                    let out = server.submit(spec(i)).expect("submit").wait().expect("server job");
                    assert_eq!(out.checksum, reference(i), "job {i}: server drifted off run_local");
                }
            }
            t.elapsed().as_secs_f64()
        };
        run_batch(false); // warmup: cold caches, thread-pool spin-up
        run_batch(true);
        gate_with_retry("server", server_min, || {
            let (mut serial, mut concurrent) = (Vec::new(), Vec::new());
            for i in 0..samples {
                // Interleave with alternating order so host drift hits both.
                let order = i % 2 == 0;
                for conc in [order, !order] {
                    let t = run_batch(conc);
                    if conc {
                        concurrent.push(t)
                    } else {
                        serial.push(t)
                    };
                }
            }
            let serial = summarize(serial, 1);
            let concurrent = summarize(concurrent, 1);
            let speedup = serial.min / concurrent.min.max(1e-9);
            println!(
                "  server cell ({JOBS} jobs: 6 WC/PR + 2 I/O-wait, width {WIDTH} on {EXECUTORS} \
                 executors): serial-sum min {:.1}ms, concurrent min {:.1}ms, throughput \
                 {speedup:.2}x (gate >= {server_min:.2}x)",
                serial.min * 1e3,
                concurrent.min * 1e3,
            );
            ((serial, concurrent), speedup)
        })
    };

    // --- SPEC cell: speculative execution vs a hung straggler ---------
    // One attempt models a hang: task 0 on its home executor sleeps ~25x
    // the base task cost in base-sized slices, cooperatively polling its
    // cancel token (the same wait model as the skew cell). With
    // speculation off the stage waits out the whole hang. With
    // speculation on, the Pull scheduler's watcher sees the attempt blow
    // past the round's 2x-median threshold once half the round has
    // completed, duplicates it on an idle executor — where the body
    // takes only the base cost — and the duplicate's win cancels the
    // hung primary, so the stage ends near the duplicate instead. Floor
    // `DECA_GATE_SPEC_MIN` (default 1.3x; the modelled gap puts the
    // expected value well above it). Like the skew cell it is recorded
    // in its own JSON section, never in the cross-PR baseline band.
    let spec_min = env_f64("DECA_GATE_SPEC_MIN", 1.3);
    let ((spec_off, spec_on), spec_speedup) = {
        const EXECUTORS: usize = 4;
        const TASKS: usize = 24;
        const HANG_FACTOR: u64 = 25;
        let base = Duration::from_millis(base_ms);
        let time_spec = |speculate: bool| -> Vec<f64> {
            let mut times = Vec::with_capacity(samples);
            for i in 0..=samples {
                let config = ExecutorConfig::new(ExecutionMode::Deca, 8 << 20)
                    .tracing(false)
                    .scheduler(SchedulerMode::Pull)
                    .retry(RetryPolicy::default().speculate(speculate));
                let mut session = ClusterSession::new(EXECUTORS, config);
                let t = Instant::now();
                session
                    .run_stage("hang", TASKS, move |ctx, _e| {
                        if ctx.task == 0 && ctx.executor == 0 {
                            for _ in 0..HANG_FACTOR {
                                if ctx.is_cancelled() {
                                    return Err(EngineError::Cancelled {
                                        reason: "duplicate won".to_string(),
                                    });
                                }
                                std::thread::sleep(base);
                            }
                        } else {
                            std::thread::sleep(base);
                        }
                        Ok(())
                    })
                    .expect("hang stage");
                if i > 0 {
                    times.push(t.elapsed().as_secs_f64()); // sample 0 is warmup
                }
            }
            times
        };
        gate_with_retry("speculation", spec_min, || {
            let off = summarize(time_spec(false), 1);
            let on = summarize(time_spec(true), 1);
            let speedup = off.median / on.median.max(1e-9);
            println!(
                "  spec cell ({EXECUTORS} executors, {TASKS} tasks, hung straggler \
                 {HANG_FACTOR}x over {base_ms}ms, pull): spec-off median {:.1}ms, spec-on \
                 median {:.1}ms, speedup {speedup:.2}x (gate >= {spec_min:.2}x)",
                off.median * 1e3,
                on.median * 1e3,
            );
            ((off, on), speedup)
        })
    };

    // --- zero-copy cell: page hand-over vs the copying baseline -------
    // A raw shuffle microbench where the exchange volume IS the work:
    // each map task writes `zc_run_bytes` of 64-byte records into a
    // page run per reducer, hands the runs over, and the reducers parse
    // every record back into a checksum. With `copying_shuffle` off the
    // hand-over transfers page ownership; with it on, every run is
    // flattened into a fresh Vec<u8> at hand-over (the pre-PR9 wire
    // format, kept as the A/B baseline) — an extra memcpy + allocation
    // of the full exchange volume, which at the gate scale is the
    // dominant cost the baseline pays and zero-copy skips. An app-level
    // shuffle-bound WordCount rides in the `WC-SHUF/*` workload cells
    // above; there the hash-combine dominates, so the wall-clock A/B is
    // gated on this cell where the margin is structural, with floor
    // `DECA_GATE_ZC_MIN` (default 1.0: zero-copy must not lose) on the
    // best-of-N, the one-retry discipline of the other floor cells, and
    // its own JSON section outside the cross-PR band. Checksums are
    // asserted equal across both modes, so the timing only counts runs
    // where the wire format change kept the answer bit-identical.
    let zc_min = env_f64("DECA_GATE_ZC_MIN", 1.0);
    const ZC_MAPS: usize = 4;
    const ZC_REDUCERS: usize = 4;
    let zc_run_bytes = gate_scale.records(102_400).max(65_536);
    let ((zc_copying, zc_zero), zc_speedup) = {
        let run_once = |copying: bool| -> (f64, f64) {
            let config = ExecutorConfig::new(ExecutionMode::Deca, 64 << 20)
                .tracing(false)
                .copying_shuffle(copying);
            let mut session = ClusterSession::new(2, config);
            let t = Instant::now();
            let partials = session
                .run_shuffle_job(
                    "zc",
                    ZC_MAPS,
                    ZC_REDUCERS,
                    move |ctx, e| {
                        let mut runs: Vec<_> = (0..ZC_REDUCERS).map(|_| e.new_run()).collect();
                        let mut rec = [0u8; 64];
                        for (r, run) in runs.iter_mut().enumerate() {
                            rec[..8].copy_from_slice(&(ctx.task as u64).to_le_bytes());
                            rec[8..16].copy_from_slice(&(r as u64).to_le_bytes());
                            let mut written = 0usize;
                            let mut i = 0u64;
                            while written < zc_run_bytes {
                                rec[16..24].copy_from_slice(&i.to_le_bytes());
                                run.push(&mut e.arena, &rec);
                                written += rec.len();
                                i += 1;
                            }
                        }
                        Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
                    },
                    |_ctx, _e, inputs| {
                        let mut sum = 0u64;
                        for payload in inputs {
                            for bytes in payload.chunks() {
                                for rec in bytes.chunks_exact(64) {
                                    let task = u64::from_le_bytes(rec[..8].try_into().unwrap());
                                    let i = u64::from_le_bytes(rec[16..24].try_into().unwrap());
                                    sum = sum.wrapping_add(task * 31 + i);
                                }
                            }
                        }
                        Ok(sum as f64)
                    },
                )
                .expect("zero-copy cell");
            (t.elapsed().as_secs_f64(), partials.iter().sum::<f64>())
        };
        let (_, reference) = run_once(false); // warmup both paths before timing
        let (_, copied_sum) = run_once(true);
        assert_eq!(copied_sum, reference, "copying baseline drifted off the zero-copy answer");
        gate_with_retry("zero-copy", zc_min, || {
            let (mut with_copy, mut zero_copy) = (Vec::new(), Vec::new());
            for i in 0..samples {
                // Interleave with alternating order so host drift hits both.
                let order = i % 2 == 0;
                for copying in [order, !order] {
                    let (t, sum) = run_once(copying);
                    assert_eq!(sum, reference, "zero-copy cell answer drifted mid-measurement");
                    if copying {
                        with_copy.push(t)
                    } else {
                        zero_copy.push(t)
                    };
                }
            }
            let with_copy = summarize(with_copy, 1);
            let zero_copy = summarize(zero_copy, 1);
            let speedup = with_copy.min / zero_copy.min.max(1e-9);
            println!(
                "  zero-copy cell ({ZC_MAPS}x{ZC_REDUCERS} shuffle, {:.1}MB exchange): \
                 copying min {:.1}ms, zero-copy min {:.1}ms, speedup {speedup:.2}x \
                 (gate >= {zc_min:.2}x)",
                (ZC_MAPS * ZC_REDUCERS * zc_run_bytes) as f64 / (1 << 20) as f64,
                with_copy.min * 1e3,
                zero_copy.min * 1e3,
            );
            ((with_copy, zero_copy), speedup)
        })
    };

    // --- GCPAR cell: parallel tracing vs a single-threaded mark -------
    // A GC-bound microbench: one rooted Object[] holding GC_NODES
    // tenured nodes, marked repeatedly via `Heap::mark_census` — the
    // mark phase in isolation, because evacuation and sweeping are
    // sequential by design and would dilute what this cell gates. The
    // census count is schedule-independent, so every thread count must
    // agree on it exactly; that structural assert runs on every host,
    // while the wall-clock floor is core-count-aware (see module docs —
    // on one CPU the workers time-slice and parity is the ceiling).
    let gcpar_min = env_f64("DECA_GATE_GCPAR_MIN", 1.3);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    const GC_NODES: usize = 120_000;
    const GC_MARKS: usize = 6;
    let gcpar_threads = cores.clamp(2, 4);
    let gcpar_floor = if cores >= 2 { gcpar_min } else { 0.7 };
    // Build a heap whose old generation holds a GC_NODES-object graph:
    // the tenured live set every mark (and the CONC-PAUSE cell's
    // collections) traces.
    let tenured_heap = |plan: GcPlanKind, concurrent: bool, threads: usize| -> Heap {
        let mut h = Heap::new(
            HeapConfig::with_total(64 << 20)
                .with_plan(plan)
                .with_concurrent(concurrent)
                .with_gc_threads(threads),
        );
        let node = h.define_class(ClassBuilder::new("Node").field("v", FieldKind::I64));
        let arr = h.define_array_class("Object[]", FieldKind::Ref);
        let holder = h.alloc_array(arr, GC_NODES).unwrap();
        let root = h.add_root(holder);
        for i in 0..GC_NODES {
            let o = h.alloc(node).unwrap();
            let holder = h.root_ref(root);
            h.array_set_ref(holder, i, o);
        }
        h.full_gc(); // tenure the graph
        h
    };
    let mark_cell = |threads: usize| -> (f64, u64) {
        let mut h = tenured_heap(GcPlanKind::GenCopy, false, threads);
        let t = Instant::now();
        let mut traced = 0u64;
        for _ in 0..GC_MARKS {
            traced += h.mark_census();
        }
        (t.elapsed().as_secs_f64(), traced)
    };
    let (_, census_single) = mark_cell(1); // warmup both sides, pin the census
    let (_, census_par) = mark_cell(gcpar_threads);
    assert_eq!(
        census_single, census_par,
        "parallel mark must trace the identical census at any thread count"
    );
    let ((gcpar_single, gcpar_par), gcpar_speedup) = {
        gate_with_retry("gc-parallel", gcpar_floor, || {
            let (mut single, mut par) = (Vec::new(), Vec::new());
            for i in 0..samples {
                // Interleave with alternating order so host drift hits both.
                let order = i % 2 == 0;
                for parallel in [order, !order] {
                    let (t, census) = mark_cell(if parallel { gcpar_threads } else { 1 });
                    assert_eq!(census, census_single, "mark census drifted mid-measurement");
                    if parallel {
                        par.push(t)
                    } else {
                        single.push(t)
                    };
                }
            }
            let single = summarize(single, 1);
            let par = summarize(par, 1);
            let speedup = single.min / par.min.max(1e-9);
            println!(
                "  gc-parallel cell ({GC_NODES} tenured nodes, {GC_MARKS} marks, \
                 {gcpar_threads} threads on {cores} core(s)): 1-thread min {:.1}ms, \
                 {gcpar_threads}-thread min {:.1}ms, speedup {speedup:.2}x (gate >= \
                 {gcpar_floor:.2}x)",
                single.min * 1e3,
                par.min * 1e3,
            );
            ((single, par), speedup)
        })
    };

    // --- CONC-PAUSE cell: concurrent cycle pauses vs the STW full GC --
    // The same tenured graph, collected two ways under the mark-sweep
    // plan: a stop-the-world full GC (one pause covering the whole
    // trace) vs a concurrent cycle racing an allocating mutator (two
    // short pauses — snapshot and remark — around the overlapped mark).
    // Gated on the worst post-tenure pause: concurrent must never be
    // worse (`DECA_GATE_CONC_MIN`, default 1.0×). The remark's traced
    // work — schedule-independent — must also be a sliver of the STW
    // census, so the timing can't pass by accident on a noisy host.
    let conc_min = env_f64("DECA_GATE_CONC_MIN", 1.0);
    let pause_cell = |concurrent: bool| -> (f64, u64) {
        let mut h = tenured_heap(GcPlanKind::MarkSweep, concurrent, 1);
        let filler = h.define_class(ClassBuilder::new("Filler").field("v", FieldKind::I64));
        let mark = h.stats().events.len();
        if concurrent {
            assert!(h.start_concurrent_cycle(), "cycle must start on an idle heap");
            let mut spins = 0u64;
            while !h.poll_gc() {
                h.alloc(filler).unwrap(); // the mutator races the marker
                std::thread::yield_now();
                spins += 1;
                assert!(spins < 200_000_000, "concurrent marker never finished");
            }
            let s = h.stats();
            assert_eq!(s.concurrent_aborts, 0, "the cycle must finish, not abort");
        } else {
            h.full_gc();
        }
        let events = h.stats().events_since(mark);
        let max_pause = events
            .iter()
            .filter(|e| e.kind != GcEventKind::Minor && e.kind.is_pause())
            .map(|e| e.duration)
            .max()
            .unwrap_or(Duration::ZERO);
        let pause_kind = if concurrent { GcEventKind::Remark } else { GcEventKind::Full };
        let traced = events.iter().filter(|e| e.kind == pause_kind).map(|e| e.objects_traced).sum();
        (max_pause.as_secs_f64(), traced)
    };
    let (_, stw_census) = pause_cell(false); // warmup, pin the traced-work sides
    let (_, remark_census) = pause_cell(true);
    assert!(
        remark_census < stw_census / 4,
        "the remark pause must trace a sliver of the whole-heap census \
         ({remark_census} vs {stw_census})"
    );
    let ((conc_stw, conc_pause), conc_ratio) = {
        gate_with_retry("conc-pause", conc_min, || {
            let (mut stw, mut conc) = (Vec::new(), Vec::new());
            for i in 0..samples {
                // Interleave with alternating order so host drift hits both.
                let order = i % 2 == 0;
                for concurrent in [order, !order] {
                    let (p, _) = pause_cell(concurrent);
                    if concurrent {
                        conc.push(p)
                    } else {
                        stw.push(p)
                    };
                }
            }
            let stw = summarize(stw, 1);
            let conc = summarize(conc, 1);
            let ratio = stw.min / conc.min.max(1e-9);
            println!(
                "  conc-pause cell ({GC_NODES} tenured nodes, mark-sweep): STW full pause min \
                 {:.2}ms, concurrent cycle max pause min {:.2}ms, ratio {ratio:.2}x (gate >= \
                 {conc_min:.2}x; remark traced {remark_census} of {stw_census})",
                stw.min * 1e3,
                conc.min * 1e3,
            );
            ((stw, conc), ratio)
        })
    };

    // --- write the BENCH record ---------------------------------------
    let doc = Json::obj(vec![
        ("schema", Json::str("deca-bench-v1")),
        ("pr", Json::str("PR10")),
        ("scale", Json::num(scale.factor)),
        ("samples", Json::int(samples as u64)),
        ("tolerance", Json::num(tolerance)),
        ("tracing_overhead_pct", Json::num(overhead)),
        ("trace_events", Json::int(trace_events as u64)),
        (
            "workloads",
            Json::obj(
                cells
                    .iter()
                    .map(|c| {
                        (
                            c.key.as_str(),
                            Json::obj(vec![
                                ("min_s", Json::num(c.min_s)),
                                ("median_s", Json::num(c.median_s)),
                                ("p95_s", Json::num(c.p95_s)),
                                ("gc_ratio", Json::num(c.gc_ratio)),
                                ("objects_traced", Json::int(c.objects_traced)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        // Out-of-band of `workloads`: scheduler A/B, gated on its own
        // speedup floor rather than the cross-PR tolerance band.
        // Cache-pressure tier traffic from the validity run, so the
        // committed record shows the cell really crossed all tiers.
        (
            "cache_pressure",
            Json::obj(
                pressure_stats
                    .iter()
                    .map(|(mode, s)| {
                        (
                            mode.name(),
                            Json::obj(vec![
                                ("demotions", Json::int(s.demotions)),
                                ("evictions", Json::int(s.evictions)),
                                ("spill_write_bytes", Json::int(s.spill_write_bytes)),
                                ("spill_read_bytes", Json::int(s.spill_read_bytes)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "skew",
            Json::obj(vec![
                ("executors", Json::int(4)),
                ("tasks", Json::int(24)),
                ("straggler_factor", Json::int(8)),
                ("base_ms", Json::int(base_ms)),
                ("wave_min_s", Json::num(skew_wave.min)),
                ("wave_median_s", Json::num(skew_wave.median)),
                ("pull_min_s", Json::num(skew_pull.min)),
                ("pull_median_s", Json::num(skew_pull.median)),
                ("speedup_median", Json::num(skew_speedup)),
                ("gate_min", Json::num(skew_min)),
            ]),
        ),
        // Multi-job service throughput, gated on its own floor like the
        // skew cell — never part of the cross-PR workload band.
        (
            "server",
            Json::obj(vec![
                ("executors", Json::int(4)),
                ("jobs", Json::int(8)),
                ("io_wait_jobs", Json::int(2)),
                ("job_width", Json::int(4)),
                ("serial_min_s", Json::num(server_serial.min)),
                ("serial_median_s", Json::num(server_serial.median)),
                ("concurrent_min_s", Json::num(server_concurrent.min)),
                ("concurrent_median_s", Json::num(server_concurrent.median)),
                ("throughput_speedup", Json::num(server_speedup)),
                ("gate_min", Json::num(server_min)),
            ]),
        ),
        // Speculative-execution A/B against a hung straggler, gated on
        // its own floor like the skew cell.
        (
            "speculation",
            Json::obj(vec![
                ("executors", Json::int(4)),
                ("tasks", Json::int(24)),
                ("hang_factor", Json::int(25)),
                ("base_ms", Json::int(base_ms)),
                ("off_min_s", Json::num(spec_off.min)),
                ("off_median_s", Json::num(spec_off.median)),
                ("on_min_s", Json::num(spec_on.min)),
                ("on_median_s", Json::num(spec_on.median)),
                ("speedup_median", Json::num(spec_speedup)),
                ("gate_min", Json::num(spec_min)),
            ]),
        ),
        // Zero-copy shuffle A/B against the copying baseline, gated on
        // its own floor like the skew cell.
        (
            "zero_copy",
            Json::obj(vec![
                ("gate_scale", Json::num(gate_scale.factor)),
                ("maps", Json::int(ZC_MAPS as u64)),
                ("reducers", Json::int(ZC_REDUCERS as u64)),
                ("run_bytes", Json::int(zc_run_bytes as u64)),
                ("copying_min_s", Json::num(zc_copying.min)),
                ("copying_median_s", Json::num(zc_copying.median)),
                ("zero_copy_min_s", Json::num(zc_zero.min)),
                ("zero_copy_median_s", Json::num(zc_zero.median)),
                ("speedup_min", Json::num(zc_speedup)),
                ("gate_min", Json::num(zc_min)),
            ]),
        ),
        // Parallel-tracing A/B on the GC-bound cell. `cores` and
        // `effective_floor` say which gate ran: the real speedup floor
        // (multi-core) or the single-core parity floor, where only the
        // census assert carries structural weight.
        (
            "gc_parallel",
            Json::obj(vec![
                ("cores", Json::int(cores as u64)),
                ("threads", Json::int(gcpar_threads as u64)),
                ("nodes", Json::int(GC_NODES as u64)),
                ("marks", Json::int(GC_MARKS as u64)),
                ("census", Json::int(census_single)),
                ("single_min_s", Json::num(gcpar_single.min)),
                ("single_median_s", Json::num(gcpar_single.median)),
                ("parallel_min_s", Json::num(gcpar_par.min)),
                ("parallel_median_s", Json::num(gcpar_par.median)),
                ("speedup_min", Json::num(gcpar_speedup)),
                ("gate_min_env", Json::num(gcpar_min)),
                ("effective_floor", Json::num(gcpar_floor)),
            ]),
        ),
        // Concurrent-marking pause A/B: worst post-tenure STW pause of
        // a full collection vs a concurrent cycle, plus the
        // schedule-independent traced-work split backing the timing.
        (
            "concurrent_pause",
            Json::obj(vec![
                ("nodes", Json::int(GC_NODES as u64)),
                ("stw_census", Json::int(stw_census)),
                ("remark_census", Json::int(remark_census)),
                ("stw_max_pause_min_s", Json::num(conc_stw.min)),
                ("stw_max_pause_median_s", Json::num(conc_stw.median)),
                ("conc_max_pause_min_s", Json::num(conc_pause.min)),
                ("conc_max_pause_median_s", Json::num(conc_pause.median)),
                ("ratio_min", Json::num(conc_ratio)),
                ("gate_min", Json::num(conc_min)),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.to_pretty() + "\n").expect("write BENCH record");
    println!("  wrote {out}");

    // --- compare against the newest prior baseline --------------------
    let mut failed = false;
    match newest_baseline(&dir, out_path.file_name().and_then(|n| n.to_str()).unwrap_or(&out)) {
        None => println!("  no prior BENCH_*.json baseline — recording only, gate passes"),
        Some((name, base)) => {
            println!("\n  vs {name} (tolerance {tolerance:.2}x):");
            println!("  {:<12} {:>10} {:>10} {:>7}  status", "cell", "base_s", "now_s", "ratio");
            for c in &cells {
                // Compare best-of-N (min) wall times; older baselines
                // that predate `min_s` fall back to the recorded median.
                let old_cell = base.get("workloads").and_then(|w| w.get(&c.key));
                let old = old_cell
                    .and_then(|cell| cell.get("min_s"))
                    .or_else(|| old_cell.and_then(|cell| cell.get("median_s")))
                    .and_then(|m| m.as_f64());
                match old {
                    None => println!(
                        "  {:<12} {:>10} {:>10.3} {:>7}  new cell",
                        c.key, "-", c.min_s, "-"
                    ),
                    Some(old) => {
                        let ratio = c.min_s / old.max(1e-9);
                        let status = if ratio > tolerance {
                            failed = true;
                            "REGRESSED"
                        } else {
                            "ok"
                        };
                        println!(
                            "  {:<12} {old:>10.3} {:>10.3} {ratio:>6.2}x  {status}",
                            c.key, c.min_s
                        );
                    }
                }
            }
        }
    }

    if skew_speedup < skew_min {
        eprintln!(
            "perf_gate: FAIL — pull scheduler speedup {skew_speedup:.2}x on the skew cell is \
             below the {skew_min:.2}x floor"
        );
        failed = true;
    }
    if server_speedup < server_min {
        eprintln!(
            "perf_gate: FAIL — concurrent server throughput {server_speedup:.2}x vs the \
             serial-sum baseline is below the {server_min:.2}x floor"
        );
        failed = true;
    }
    if spec_speedup < spec_min {
        eprintln!(
            "perf_gate: FAIL — speculation speedup {spec_speedup:.2}x on the hung-straggler \
             cell is below the {spec_min:.2}x floor"
        );
        failed = true;
    }
    if zc_speedup < zc_min {
        eprintln!(
            "perf_gate: FAIL — zero-copy shuffle speedup {zc_speedup:.2}x vs the copying \
             baseline is below the {zc_min:.2}x floor"
        );
        failed = true;
    }
    if gcpar_speedup < gcpar_floor {
        eprintln!(
            "perf_gate: FAIL — parallel mark speedup {gcpar_speedup:.2}x on the GC-bound cell \
             is below the {gcpar_floor:.2}x floor ({cores} core(s))"
        );
        failed = true;
    }
    if conc_ratio < conc_min {
        eprintln!(
            "perf_gate: FAIL — concurrent cycle's worst pause is {conc_ratio:.2}x under the STW \
             full-GC pause, below the {conc_min:.2}x floor"
        );
        failed = true;
    }
    if overhead > overhead_limit {
        eprintln!("perf_gate: FAIL — tracing overhead {overhead:.2}% exceeds {overhead_limit:.1}%");
        failed = true;
    }
    if failed {
        eprintln!("perf_gate: FAIL (see messages above)");
        std::process::exit(1);
    }
    println!("\nperf_gate: PASS");
}
