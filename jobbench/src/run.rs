//! Running jobs: one standalone job on a fresh session (panics caught and
//! counted), a timed series of them, and the `svc-mix` closed loop over a
//! `DecaServer`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use deca_engine::{
    AppJob, ClusterSession, DecaServer, ExecutorConfig, JobCtx, JobOutput, JobSpec, SchedulerMode,
};

use crate::ledger::ExecSnapshot;
use crate::workloads::{JobParams, EXECUTORS};

/// One standalone job: `ClusterSession::new` → `JobCtx::local` →
/// `AppJob::run` → `finish_job`, by hand so the session (and its trace)
/// stays reachable afterwards.
pub struct Standalone {
    /// Time spent in `ClusterSession::new`.
    pub setup: Duration,
    /// Time spent in `AppJob::run`.
    pub wall: Duration,
    /// The checksum, or why the job produced none (error or panic).
    pub result: Result<f64, String>,
    /// The driver trace clock (ns since the session's trace epoch) just
    /// after `AppJob::run` returned.
    pub trace_end_ns: u64,
    /// The cache footprint the app noted.
    pub cache_bytes: usize,
    /// The finished session; `None` when the job panicked.
    pub session: Option<ClusterSession>,
}

pub fn run_standalone(app: &AppJob, config: ExecutorConfig, executors: usize) -> Standalone {
    capture_panics();
    *FIRST_PANIC.lock().unwrap_or_else(|p| p.into_inner()) = None;
    let mut setup = Duration::ZERO;
    let started = Instant::now();
    let mut job_start = started;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut session = ClusterSession::new(executors, config);
        setup = t.elapsed();
        job_start = Instant::now();
        let (result, cache_bytes) = {
            let mut ctx = JobCtx::local(&mut session);
            let r = app.run(&mut ctx);
            (r, ctx.noted_cache_bytes())
        };
        let wall = job_start.elapsed();
        let trace_end_ns = session.trace().now_ns();
        session.finish_job();
        (wall, result, trace_end_ns, cache_bytes, session)
    }));
    match outcome {
        Ok((wall, result, trace_end_ns, cache_bytes, session)) => Standalone {
            setup,
            wall,
            result: result.map_err(|e| e.to_string()),
            trace_end_ns,
            cache_bytes,
            session: Some(session),
        },
        Err(_) => Standalone {
            setup,
            wall: job_start.elapsed(),
            result: Err(FIRST_PANIC
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or_else(|| "panicked".to_string())),
            trace_end_ns: 0,
            cache_bytes: 0,
            session: None,
        },
    }
}

/// The first panic reported since [`run_standalone`] last cleared it. A
/// panic on an executor thread reaches the caller re-raised by the
/// cluster's join (`executor task: Any { .. }`), so the original message
/// and location are taken from the panic hook instead.
static FIRST_PANIC: Mutex<Option<String>> = Mutex::new(None);

fn capture_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let mut first = FIRST_PANIC.lock().unwrap_or_else(|p| p.into_inner());
            if first.is_none() {
                *first = Some(info.to_string().replace('\n', " "));
            }
            drop(first);
            default(info);
        }));
    });
}

/// One measured job.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the workload's variant list.
    pub variant: usize,
    /// Job completion time (standalone: `AppJob::run`; server: submit to
    /// result).
    pub wall: Duration,
    pub result: Result<f64, String>,
}

/// Run `params`' job on fresh sessions until `budget` is spent (at least
/// `min_jobs` times). Returns the samples and every session set-up time.
pub fn measure_standalone(
    params: &JobParams,
    config: &ExecutorConfig,
    budget: Duration,
    min_jobs: usize,
) -> (Vec<Sample>, Vec<Duration>) {
    let app = params.job();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    while samples.len() < min_jobs || start.elapsed() < budget {
        let run = run_standalone(&app, config.clone(), EXECUTORS);
        setups.push(run.setup);
        samples.push(Sample { variant: 0, wall: run.wall, result: run.result });
    }
    (samples, setups)
}

/// One job of the closed loop, as the client saw it plus what the
/// server handed back.
pub struct ServedJob {
    pub sample: Sample,
    /// From submit to the runner entering the job body.
    pub queue_wait: Duration,
    /// Time in the job body (`AppJob::run` on the runner).
    pub body: Duration,
    pub output: Option<JobOutput>,
}

/// Wrap `app` so the runner stamps when it enters and leaves the body.
fn stamped(app: AppJob, stamps: Arc<Mutex<Option<(Instant, Instant)>>>) -> AppJob {
    AppJob::new(app.name().to_string(), move |ctx| {
        let t0 = Instant::now();
        let r = app.run(ctx);
        *stamps.lock().expect("stamp lock") = Some((t0, Instant::now()));
        r
    })
}

/// The `svc-mix` closed loop over one server: `clients` threads each
/// submit the next catalogue job from a seeded sequence and wait for its
/// result before submitting another. The sequence cursor persists across
/// [`ClosedLoop::run`] calls, so successive chunks continue the sequence.
pub struct ClosedLoop<'a> {
    server: &'a DecaServer,
    apps: Vec<AppJob>,
    sequence: Vec<usize>,
    cursor: AtomicUsize,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(server: &'a DecaServer, variants: &[JobParams], sequence: Vec<usize>) -> Self {
        let apps = variants.iter().map(JobParams::job).collect();
        ClosedLoop { server, apps, sequence, cursor: AtomicUsize::new(0) }
    }

    /// Submit until `budget` is spent and at least `min_jobs` were
    /// submitted. Returns the jobs in completion order and the loop's wall
    /// time (first submit to last result). `keep_outputs` keeps each
    /// job's metrics and trace (the traced run needs them; the measured
    /// run drops them so they do not count towards its peak RSS).
    pub fn run(
        &self,
        clients: usize,
        budget: Duration,
        min_jobs: usize,
        keep_outputs: bool,
    ) -> (Vec<ServedJob>, Duration) {
        let first = self.cursor.load(Ordering::Relaxed);
        let done: Mutex<Vec<ServedJob>> = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..clients {
                s.spawn(|| loop {
                    let i = self.cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= first + min_jobs && start.elapsed() >= budget {
                        break;
                    }
                    let variant = self.sequence[i % self.sequence.len()];
                    let mut job = serve_one(self.server, &self.apps[variant], variant);
                    if !keep_outputs {
                        job.output = None;
                    }
                    done.lock().expect("results lock").push(job);
                });
            }
        });
        let window = start.elapsed();
        (done.into_inner().expect("results lock"), window)
    }
}

fn serve_one(server: &DecaServer, app: &AppJob, variant: usize) -> ServedJob {
    let stamps = Arc::new(Mutex::new(None));
    let spec = JobSpec::new("svc").executors(EXECUTORS).app(stamped(app.clone(), stamps.clone()));
    let submitted = Instant::now();
    let outcome = server
        .submit(spec)
        .map_err(|e| e.to_string())
        .and_then(|h| h.wait().map_err(|e| e.to_string()));
    let wall = submitted.elapsed();
    let (queue_wait, body) = match *stamps.lock().expect("stamp lock") {
        Some((t0, t1)) => (t0 - submitted, t1 - t0),
        None => (wall, Duration::ZERO),
    };
    let (result, output) = match outcome {
        Ok(out) => (Ok(out.checksum), Some(out)),
        Err(e) => (Err(e), None),
    };
    ServedJob { sample: Sample { variant, wall, result }, queue_wait, body, output }
}

/// Time `reps` server constructions (`DecaServer::new`; each server is
/// shut down untimed).
pub fn server_setups(config: &ExecutorConfig, reps: usize) -> Vec<Duration> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut server = DecaServer::new(EXECUTORS, config.clone());
            let setup = t.elapsed();
            server.shutdown();
            setup
        })
        .collect()
}

/// Snapshot the server's physical executors' collector and cache counters
/// through a probe job: one task per executor under the wave scheduler,
/// so task `i` runs on its home executor `i` and nothing is stolen.
pub fn probe(server: &DecaServer) -> ExecSnapshot {
    let out = Arc::new(Mutex::new(ExecSnapshot::default()));
    let sink = out.clone();
    let app = AppJob::new("probe", move |ctx| {
        let parts = ctx.run_stage("probe", EXECUTORS, |_c, e| {
            Ok((e.heap_stats().clone(), e.cache_stats(), e.mm.resident_bytes()))
        })?;
        let mut snap = sink.lock().expect("probe lock");
        for (gc, cache, resident) in parts {
            snap.gc.push(gc);
            snap.cache.push(cache);
            snap.resident_page_bytes += resident;
        }
        Ok(0.0)
    });
    let spec = JobSpec::new("probe").executors(EXECUTORS).scheduler(SchedulerMode::Wave).app(app);
    server.submit(spec).expect("probe admitted").wait().expect("probe job");
    let snap = out.lock().expect("probe lock").clone();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use deca_apps::logreg::LrParams;
    use deca_engine::ExecutionMode;

    /// A known defect must come out as one failed job, not a crash: LR in
    /// Spark mode with 128k points on 16 MB heaps runs its executors out
    /// of heap in the gradient kernel's temporary-vector allocation, which
    /// panics on an executor thread (the app does not handle the OOM).
    #[test]
    fn known_oom_panic_is_counted_as_one_failed_job() {
        let JobParams::Lr(base) = &Workload::LrCache.variants(1, ExecutionMode::Spark)[0] else {
            panic!("lr-cache is an LR workload");
        };
        let params =
            JobParams::Lr(LrParams { points: 128_000, heap_bytes: 16 << 20, ..base.clone() });
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("oom-test-{}", std::process::id()));
        let config = params.config(&dir, false);
        let (samples, setups) = measure_standalone(&params, &config, Duration::ZERO, 1);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(samples.len(), 1, "exactly one job attempted");
        assert_eq!(setups.len(), 1);
        let err = samples[0].result.as_ref().expect_err("the defect input must fail");
        assert!(err.contains("panicked at"), "counted as a caught panic: {err}");
        assert!(err.contains("logreg.rs") && err.contains("temp vector"), "the known OOM: {err}");
    }
}
