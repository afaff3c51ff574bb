//! `jobbench` — one measuring process of the job-time benchmark.
//!
//! `run.py` drives it; each invocation measures one workload in one mode
//! and prints one JSON line:
//!
//! ```text
//! jobbench measure   --workload W --mode spark|deca --seed N --budget-ms B --warmup K --out DIR
//! jobbench trace     --workload W --mode spark|deca --seed N --budget-ms B --out DIR
//! jobbench reference --workload W --seed N --out DIR
//! ```
//!
//! `measure` times whole jobs with tracing off. `trace` runs the same jobs
//! untraced and traced, builds the per-layer ledger from the traced ones
//! and writes a Chrome trace. `reference` computes each job's checksum on
//! a one-executor Deca cluster, a shape no measured run uses.

mod ledger;
mod run;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use deca_check::json::Json;
use deca_engine::{DecaServer, ExecutionMode, ExecutorConfig};

use ledger::{Ledger, LedgerInput, Reconcile};
use run::{Sample, ServedJob};
use workloads::{Workload, EXECUTORS};

/// Environment knobs that would change what is measured; refused.
const REFUSED_ENV: [&str; 4] =
    ["DECA_GC_PLAN", "DECA_SCHEDULER", "DECA_SHUFFLE_COPY", "DECA_BENCH_SCALE"];

/// Client threads of the `svc-mix` closed loop.
const CLIENTS: usize = 2;

/// Untraced and traced repetitions of a standalone job in a `trace` run.
const TRACE_REPS: usize = 3;

struct Args {
    command: String,
    workload: Workload,
    mode: ExecutionMode,
    seed: u64,
    budget: Duration,
    warmup: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (measure | trace | reference)")?;
    let (mut workload, mut mode, mut seed, mut budget, mut warmup, mut out) =
        (None, ExecutionMode::Deca, None, Duration::from_secs(1), 0, PathBuf::from("."));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--mode" => {
                mode = match value.as_str() {
                    "spark" => ExecutionMode::Spark,
                    "deca" => ExecutionMode::Deca,
                    _ => return Err(format!("unknown mode {value}")),
                }
            }
            "--seed" => seed = Some(num(&value)?),
            "--budget-ms" => budget = Duration::from_millis(num(&value)?),
            "--warmup" => warmup = num(&value)? as usize,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        mode,
        seed: seed.ok_or("--seed is required")?,
        budget,
        warmup,
        out,
    })
}

/// Mark workers per heap that keep `EXECUTORS × workers ≤ nproc`.
fn pinned_gc_threads(nproc: usize) -> usize {
    (nproc / EXECUTORS).max(1)
}

/// Refuse an environment that would change the measurement, and pin
/// `DECA_GC_THREADS` (the heap reads it when each executor is built).
/// Runs before any thread exists, so setting the variable is race-free.
fn pin_env() -> Result<usize, String> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it (the benchmark pins this knob)"));
        }
    }
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let want = pinned_gc_threads(nproc);
    match std::env::var("DECA_GC_THREADS") {
        Ok(v) if v.trim().parse::<usize>() != Ok(want) => Err(format!(
            "DECA_GC_THREADS={v} would oversubscribe or idle the {nproc} cores; \
             unset it (the benchmark pins {want} per executor)"
        )),
        _ => {
            std::env::set_var("DECA_GC_THREADS", want.to_string());
            Ok(nproc)
        }
    }
}

fn env_json(config: &ExecutorConfig, nproc: usize) -> Json {
    let (plan, gc_threads) = workloads::effective_gc(config);
    Json::obj(vec![
        ("nproc", Json::int(nproc as u64)),
        ("executors", Json::int(EXECUTORS as u64)),
        ("gc_plan", Json::str(plan)),
        ("gc_threads", Json::int(gc_threads as u64)),
        ("scheduler", Json::str(config.scheduler.name())),
        ("tracing", Json::Bool(config.tracing)),
        ("copying_shuffle", Json::Bool(config.copying_shuffle)),
        ("heap_bytes", Json::int(config.heap_bytes as u64)),
    ])
}

fn checksum_json(result: &Result<f64, String>) -> (Json, Json) {
    match result {
        Ok(c) => (Json::str(format!("{:016x}", c.to_bits())), Json::Null),
        Err(e) => (Json::Null, Json::str(e.clone())),
    }
}

fn samples_json<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Json {
    Json::Arr(
        samples
            .into_iter()
            .map(|s| {
                let (checksum, error) = checksum_json(&s.result);
                Json::obj(vec![
                    ("variant", Json::int(s.variant as u64)),
                    ("wall_s", Json::num(s.wall.as_secs_f64())),
                    ("checksum", checksum),
                    ("error", error),
                ])
            })
            .collect(),
    )
}

fn secs_json(ds: &[Duration]) -> Json {
    Json::Arr(ds.iter().map(|d| Json::num(d.as_secs_f64())).collect())
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs.get(xs.len() / 2).copied().unwrap_or_default()
}

fn ledger_json(ledger: &Ledger) -> Json {
    Json::Arr(
        ledger
            .rows
            .iter()
            .map(|(name, value, unit)| {
                Json::Arr(vec![Json::str(name.clone()), Json::num(*value), Json::str(*unit)])
            })
            .collect(),
    )
}

fn reconcile_json(r: &Reconcile) -> Json {
    Json::obj(vec![
        ("wall_s", Json::num(r.wall)),
        ("datagen_s", Json::num(r.datagen)),
        ("stage_wall_s", Json::num(r.stage_wall)),
        ("unattributed_s", Json::num(r.unattributed)),
        ("residual_s", Json::num(r.residual())),
        ("tolerance_s", Json::num(r.tolerance())),
        ("jobs", Json::int(r.jobs as u64)),
        ("holds", Json::Bool(r.holds())),
    ])
}

fn mode_name(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::Deca => "deca",
        _ => "spark",
    }
}

fn overhead_pct(untraced: &[Duration], traced: &[Duration]) -> f64 {
    let (u, t) = (median(untraced.to_vec()), median(traced.to_vec()));
    (t.as_secs_f64() / u.as_secs_f64() - 1.0) * 100.0
}

/// Reset this process's peak-RSS mark (VmHWM) to its current RSS, so the
/// next reading covers only what runs after this call.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// This process's peak RSS (VmHWM) since the last reset, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

// ----------------------------------------------------------------------
// measure: whole jobs, tracing off
// ----------------------------------------------------------------------

/// `DecaServer::new` repetitions timed before the `svc-mix` loop. (A
/// standalone run sets up a fresh session for every job, and those
/// set-ups are the samples: sessions built back to back without a job in
/// between reuse the allocator's just-freed heaps and take a tenth of the
/// time, which no job-running session sees.)
const SERVER_SETUP_REPS: usize = 15;

/// Set up, warm up, then measure in chunks on request: each stdin line
/// `run <ms>` measures jobs for that long (at least one) and answers with
/// one JSON line of samples, so `run.py` can interleave the two modes'
/// processes through a run. A `{"ready": true}` line announces that set-up
/// and warm-up are done; end of input prints the summary line. Each chunk
/// reports the process's peak RSS over that chunk alone.
fn measure(args: &Args, spill: &Path, nproc: usize) -> Json {
    let variants = args.workload.variants(args.seed, args.mode);
    let chunk_budgets = std::io::stdin().lines().map_while(Result::ok).filter_map(|line| {
        let ms = line.strip_prefix("run ")?.trim().parse::<u64>().ok()?;
        Some(Duration::from_millis(ms))
    });
    let ready = || println!("{}", Json::obj(vec![("ready", Json::Bool(true))]).to_compact());
    let chunk = |samples: &[Sample], window: Duration| {
        let doc = Json::obj(vec![
            ("jobs", samples_json(samples)),
            ("window_s", Json::num(window.as_secs_f64())),
            ("peak_rss_mb", Json::num(peak_rss_mb())),
        ]);
        println!("{}", doc.to_compact());
    };
    let (config, setups, warmup) = if args.workload == Workload::SvcMix {
        let config = workloads::server_config(args.mode, spill, false);
        let setups = run::server_setups(&config, SERVER_SETUP_REPS);
        let server = DecaServer::new(EXECUTORS, config.clone());
        let mix = run::ClosedLoop::new(
            &server,
            &variants,
            workloads::mix_sequence(args.seed, variants.len()),
        );
        // Warm-up: the sequence's first round (every catalogue entry once).
        let (warmup, _) = mix.run(1, Duration::ZERO, variants.len(), false);
        ready();
        for budget in chunk_budgets {
            reset_peak_rss();
            let (jobs, window) = mix.run(CLIENTS, budget, 1, false);
            let samples: Vec<Sample> = jobs.into_iter().map(|j| j.sample).collect();
            chunk(&samples, window);
        }
        (config, setups, warmup.into_iter().map(|j| j.sample).collect())
    } else {
        let params = &variants[0];
        let config = params.config(spill, false);
        let mut setups = Vec::new();
        let (warmup, _) = run::measure_standalone(params, &config, Duration::ZERO, args.warmup);
        ready();
        for budget in chunk_budgets {
            reset_peak_rss();
            let (samples, chunk_setups) = run::measure_standalone(params, &config, budget, 1);
            setups.extend(chunk_setups);
            chunk(&samples, samples.iter().map(|s| s.wall).sum());
        }
        (config, setups, warmup)
    };
    Json::obj(vec![
        ("env", env_json(&config, nproc)),
        ("setup_s", secs_json(&setups)),
        ("warmup", samples_json(&warmup)),
    ])
}

// ----------------------------------------------------------------------
// trace: the per-layer ledger
// ----------------------------------------------------------------------

fn trace(args: &Args, spill: &Path, nproc: usize) -> Json {
    let variants = args.workload.variants(args.seed, args.mode);
    // The separate `datagen::*` and UDT timings run after the jobs, on a
    // warm allocator like the in-job calls they stand for.
    let time_inputs = || {
        let datagen: Vec<Duration> =
            variants.iter().map(|v| median((0..5).map(|_| v.time_datagen()).collect())).collect();
        let plan: Vec<Duration> =
            variants.iter().map(|v| median((0..5).map(|_| v.time_plan()).collect())).collect();
        (datagen, plan)
    };
    let chrome =
        args.out.join(format!("{}-{}.trace.json", args.workload.name(), mode_name(args.mode)));
    let (config, samples, ledger, reconcile) = if args.workload == Workload::SvcMix {
        let half = args.budget / 2;
        let sequence = workloads::mix_sequence(args.seed, variants.len());
        let loop_on = |tracing: bool| {
            let config = workloads::server_config(args.mode, spill, tracing);
            let server = DecaServer::new(EXECUTORS, config.clone());
            let mix = run::ClosedLoop::new(&server, &variants, sequence.clone());
            mix.run(1, Duration::ZERO, variants.len(), false);
            let before = run::probe(&server);
            let (jobs, _) = mix.run(CLIENTS, half, 1, tracing);
            let after = run::probe(&server);
            if tracing {
                let text = server.merged_trace().to_chrome_string();
                std::fs::write(&chrome, text).expect("write chrome trace");
            }
            (config, jobs, before, after)
        };
        let (_, plain, _, _) = loop_on(false);
        let (config, traced, before, after) = loop_on(true);
        let (datagen, plan) = time_inputs();
        let walls = |jobs: &[ServedJob]| jobs.iter().map(|j| j.sample.wall).collect::<Vec<_>>();
        let reconcile = ledger::server_reconcile(&traced, &datagen);
        let input = LedgerInput {
            mode: mode_name(args.mode),
            reconcile,
            overhead_pct: overhead_pct(&walls(&plain), &walls(&traced)),
        };
        let ledger = ledger::server_ledger(&input, &traced, &before, &after, &plan);
        let samples: Vec<Sample> = plain.iter().chain(&traced).map(|j| j.sample.clone()).collect();
        (config, samples, ledger, reconcile)
    } else {
        let params = &variants[0];
        let app = params.job();
        let plain_cfg = params.config(spill, false);
        let traced_cfg = params.config(spill, true);
        let mut samples = Vec::new();
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut last = None;
        for _ in 0..TRACE_REPS {
            let run = run::run_standalone(&app, plain_cfg.clone(), EXECUTORS);
            plain.push(run.wall);
            samples.push(Sample { variant: 0, wall: run.wall, result: run.result });
            let run = run::run_standalone(&app, traced_cfg.clone(), EXECUTORS);
            traced.push(run.wall);
            samples.push(Sample { variant: 0, wall: run.wall, result: run.result.clone() });
            if run.session.is_some() {
                last = Some(run);
            }
        }
        let (datagen, plan) = time_inputs();
        let mut reconcile =
            Reconcile { datagen_share: ledger::DATAGEN_SHARE_STANDALONE, ..Reconcile::default() };
        let ledger = match &last {
            Some(run) => {
                let session = run.session.as_ref().expect("kept only finished runs");
                session.export_chrome_trace(&chrome).expect("write chrome trace");
                let spans = ledger::stage_spans(&session.merged_trace());
                reconcile.add(run.wall, datagen[0], spans, run.trace_end_ns);
                let input = LedgerInput {
                    mode: mode_name(args.mode),
                    reconcile,
                    overhead_pct: overhead_pct(&plain, &traced),
                };
                ledger::standalone_ledger(&input, run, plan[0])
            }
            None => Ledger::default(),
        };
        (traced_cfg, samples, ledger, reconcile)
    };
    Json::obj(vec![
        ("env", env_json(&config, nproc)),
        ("jobs", samples_json(&samples)),
        ("ledger", ledger_json(&ledger)),
        ("reconcile", reconcile_json(&reconcile)),
        ("chrome_trace", Json::str(chrome.display().to_string())),
    ])
}

// ----------------------------------------------------------------------
// reference: checksums on a one-executor Deca cluster
// ----------------------------------------------------------------------

fn reference(args: &Args, spill: &Path) -> Json {
    let variants = args.workload.variants(args.seed, ExecutionMode::Deca);
    let samples: Vec<Sample> = variants
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let run = run::run_standalone(&v.job(), v.config(spill, false), 1);
            Sample { variant: i, wall: run.wall, result: run.result }
        })
        .collect();
    Json::obj(vec![("jobs", samples_json(&samples))])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = match pin_env() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spill = args.out.join("spill").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        mode_name(args.mode),
        std::process::id()
    ));
    let doc = match args.command.as_str() {
        "measure" => measure(&args, &spill, nproc),
        "trace" => trace(&args, &spill, nproc),
        "reference" => reference(&args, &spill),
        other => {
            eprintln!("jobbench: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&spill);
    println!("{}", doc.to_compact());
    ExitCode::SUCCESS
}
