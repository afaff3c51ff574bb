//! The multi-job submission service: one shared [`LocalCluster`] (and its
//! tiered cache) multiplexing N concurrent jobs behind a
//! `submit(JobSpec) -> JobHandle` API.
//!
//! ## Why a server
//!
//! The paper's deployment target is a long-lived cluster service (§6.1
//! runs Deca inside Spark's executor processes, which serve many jobs over
//! their lifetime), while this repo historically grew one
//! `run`/`run_cluster`/`run_cluster_faulty`/`run_text_cluster` entry point
//! per app — each spinning up and tearing down a private cluster.
//! [`DecaServer`] replaces that sprawl: apps describe themselves once as
//! an [`AppJob`] (a body over the [`JobCtx`] stage API), and every
//! harness — single-shot CLI runs, the fault matrix, the concurrency
//! soak — submits the same description with a different [`JobSpec`].
//!
//! ## Execution model
//!
//! The server owns `E` physical executors, each bound to one *worker*
//! thread (executor state is only ever touched by a worker holding its
//! mutex, preserving the single-writer discipline the deterministic
//! heap/GC model relies on). `R` *runner* threads drain the submission
//! queue; each runs one job's driver loop ([`ServerJobSession`], a port of
//! the standalone [`ClusterSession`] retry engine) and publishes rounds of
//! claimable task slots into a shared pool — the PR-5 pull scheduler's
//! claim list generalized across jobs.
//!
//! Workers claim slots under the pool lock: **affinity first** (a slot
//! whose home maps to this worker, lowest task index first — pinned
//! fault-affected slots are only ever claimable here), then **steals**
//! (unpinned slots of pull-mode jobs, ascending). When several jobs have
//! claimable work, a worker picks the job with the fewest claims already
//! running (ties to the lowest job id): cross-job **fair sharing** without
//! per-job worker reservations.
//!
//! ## Virtual executors
//!
//! A job runs at a *width* `W` chosen in its [`JobSpec`] — its task→home
//! mapping, retry round-robin, and failure charging all use `W` virtual
//! executors, exactly as a standalone `ClusterSession::new(W, ..)` would.
//! Virtual executor `v` executes on physical worker `v % E`. Injected
//! faults poison the job's *virtual* executor (a per-job atomic flag),
//! never the shared process: one tenant's fault plan cannot take a
//! physical executor away from everyone else. Because app bodies are
//! deterministic in `(task, partition data)` and recompute executor-local
//! state from lineage when it is missing, a job's results are bit-identical
//! to its standalone run at the same width — the server soak asserts this
//! for hundreds of concurrent submissions.
//!
//! ## Tenancy
//!
//! Every job belongs to a tenant. Admission control caps each tenant's
//! in-flight jobs ([`DecaServer::configure_tenant`]), and
//! [`DecaServer::set_tenant_cache_budget`] gives a tenant a shared-cache
//! resident budget enforced by the cache's victim shielding: while a
//! tenant is at or under its budget, other tenants' memory pressure cannot
//! evict its blocks. Job-stamped cache entries are released when the job
//! finishes, so a long-lived server never accumulates dead jobs' state.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cluster::{
    exchange, healthy_after_in, healthy_count_in, healthy_from_in, ExecutorHealth, LocalCluster,
};
use crate::config::{ExecutorConfig, RetryPolicy, SchedulerMode, ServerConfig};
use crate::driver::{
    pin_faulted_slots_in, ClusterSession, MapOutputs, ShufflePayload, TaskContext,
};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::faults::{FaultPlan, FaultSite};
use crate::metrics::{JobMetrics, StageMetrics};
use crate::trace::{dur_ns, RunTrace, TraceEvent, TraceEventKind, TraceRecorder};

/// Lock a mutex, riding through poisoning: a panicking task body is caught
/// at the pool boundary and surfaced as [`EngineError::TaskPanic`], so a
/// poisoned lock only means "a panic unwound here once", never that the
/// protected state is torn (executor state is updated transactionally per
/// task).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn panic_message(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

// ----------------------------------------------------------------------
// AppJob / JobCtx: the unified app description
// ----------------------------------------------------------------------

/// What an app submits: a name and a body that drives stages through a
/// [`JobCtx`] and returns the job's checksum. The same description runs
/// on a [`DecaServer`] (via [`JobSpec::app`]) or standalone (via
/// [`JobCtx::local`] over a [`ClusterSession`] — the apps' `run_local`
/// shims).
#[derive(Clone)]
pub struct AppJob {
    name: String,
    body: Arc<dyn Fn(&mut JobCtx) -> Result<f64, EngineError> + Send + Sync>,
}

impl AppJob {
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&mut JobCtx) -> Result<f64, EngineError> + Send + Sync + 'static,
    ) -> AppJob {
        AppJob { name: name.into(), body: Arc::new(body) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Run the job body against `ctx`, returning its checksum.
    pub fn run(&self, ctx: &mut JobCtx) -> Result<f64, EngineError> {
        (self.body)(ctx)
    }
}

impl std::fmt::Debug for AppJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppJob").field("name", &self.name).finish()
    }
}

enum JobDriver<'a> {
    Local(&'a mut ClusterSession),
    Server(&'a mut ServerJobSession),
}

/// The stage API an [`AppJob`] body runs against — a [`ClusterSession`]
/// standalone or a [`ServerJobSession`] on the server, with identical
/// semantics (same retry engine, same task→home mapping, same
/// deterministic results).
pub struct JobCtx<'a> {
    driver: JobDriver<'a>,
    noted_cache_bytes: usize,
}

impl<'a> JobCtx<'a> {
    /// A context over a standalone session (the apps' `run_local` path).
    pub fn local(session: &'a mut ClusterSession) -> JobCtx<'a> {
        JobCtx { driver: JobDriver::Local(session), noted_cache_bytes: 0 }
    }

    pub(crate) fn server(session: &'a mut ServerJobSession) -> JobCtx<'a> {
        JobCtx { driver: JobDriver::Server(session), noted_cache_bytes: 0 }
    }

    /// The job's executor width (virtual width on the server).
    pub fn executors(&self) -> usize {
        match &self.driver {
            JobDriver::Local(s) => s.executors(),
            JobDriver::Server(s) => s.width(),
        }
    }

    pub fn mode(&self) -> crate::config::ExecutionMode {
        match &self.driver {
            JobDriver::Local(s) => s.mode(),
            JobDriver::Server(s) => s.mode(),
        }
    }

    /// Run one stage; see [`ClusterSession::run_stage`].
    pub fn run_stage<R: Send + 'static>(
        &mut self,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        match &mut self.driver {
            JobDriver::Local(s) => s.run_stage(name, tasks, f),
            JobDriver::Server(s) => s.run_stage(name, tasks, f),
        }
    }

    /// Run a map/exchange/reduce stage pair; see
    /// [`ClusterSession::run_shuffle_job`].
    pub fn run_shuffle_job<R: Send + 'static>(
        &mut self,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        match &mut self.driver {
            JobDriver::Local(s) => s.run_shuffle_job(name, map_tasks, reduce_tasks, map, reduce),
            JobDriver::Server(s) => s.run_shuffle_job(name, map_tasks, reduce_tasks, map, reduce),
        }
    }

    /// Snapshot the job's current cached footprint (resident + spilled)
    /// into [`JobCtx::noted_cache_bytes`]. Apps call this at the point
    /// their caches are fully built (e.g. after the adjacency-build
    /// stage), since end-of-job cleanup releases the blocks.
    pub fn note_cache_bytes(&mut self) {
        self.noted_cache_bytes = match &mut self.driver {
            JobDriver::Local(s) => {
                s.finish_job();
                let m = s.job_summary();
                m.cache_bytes + m.swapped_cache_bytes
            }
            JobDriver::Server(s) => s.job_cache_bytes(),
        };
    }

    /// The footprint recorded by the last [`JobCtx::note_cache_bytes`].
    pub fn noted_cache_bytes(&self) -> usize {
        self.noted_cache_bytes
    }
}

// ----------------------------------------------------------------------
// JobSpec / JobHandle / JobOutput: the submission API
// ----------------------------------------------------------------------

/// A job submission: which tenant it belongs to, what to run, and how —
/// executor width, retry policy, fault plan, scheduler. Unset knobs
/// default to the server's executor configuration.
///
/// ```
/// use deca_engine::{JobSpec, RetryPolicy, SchedulerMode};
/// let spec = JobSpec::new("analytics")
///     .executors(4)
///     .retry(RetryPolicy::resilient())
///     .scheduler(SchedulerMode::Pull);
/// ```
#[derive(Clone, Debug)]
pub struct JobSpec {
    tenant: String,
    executors: usize,
    retry: Option<RetryPolicy>,
    scheduler: Option<SchedulerMode>,
    faults: FaultPlan,
    deadline: Option<Duration>,
    app: Option<AppJob>,
}

impl JobSpec {
    pub fn new(tenant: impl Into<String>) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            executors: 0,
            retry: None,
            scheduler: None,
            faults: FaultPlan::quiet(),
            deadline: None,
            app: None,
        }
    }

    /// The job's virtual executor width (task homes are `task % width`).
    /// Defaults to the server's physical executor count. May exceed it:
    /// virtual executors share physical workers round-robin.
    pub fn executors(mut self, n: usize) -> JobSpec {
        self.executors = n;
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> JobSpec {
        self.retry = Some(policy);
        self
    }

    pub fn scheduler(mut self, mode: SchedulerMode) -> JobSpec {
        self.scheduler = Some(mode);
        self
    }

    /// Install a fault plan for this job. Faults poison the job's virtual
    /// executors only — they never damage the shared physical cluster or
    /// other tenants' jobs.
    pub fn faults(mut self, plan: FaultPlan) -> JobSpec {
        self.faults = plan;
        self
    }

    /// A wall-clock deadline measured from submission. A job past its
    /// deadline is cancelled cooperatively at its next stage or round
    /// boundary (and never starts at all if it is still queued), failing
    /// with [`EngineError::Cancelled`] and releasing its admission slot,
    /// claim-pool slots, and job-stamped cache entries.
    pub fn deadline(mut self, d: Duration) -> JobSpec {
        self.deadline = Some(d);
        self
    }

    pub fn app(mut self, app: AppJob) -> JobSpec {
        self.app = Some(app);
        self
    }
}

/// Everything a finished job hands back: checksum, per-job metric
/// roll-up (stamped with the job id), per-stage metrics, and the job's
/// own deterministic run trace.
#[derive(Clone, Debug)]
pub struct JobOutput {
    pub job: u64,
    pub checksum: f64,
    /// The cache footprint noted by the app via [`JobCtx::note_cache_bytes`]
    /// (resident + spilled cached bytes at the app's snapshot point).
    pub cache_bytes: usize,
    pub metrics: JobMetrics,
    pub stages: Vec<StageMetrics>,
    pub trace: RunTrace,
}

struct JobState {
    id: u64,
    tenant: String,
    /// The cooperative cancel flag, shared with the job's session and its
    /// published rounds so in-flight attempts can observe it.
    cancelled: Arc<AtomicBool>,
    /// Metrics and trace of a job that *failed* (cancelled, deadline,
    /// fatal error): the partial roll-up up to the failure point, so
    /// cancellation remains observable through [`JobHandle::metrics`] and
    /// [`JobHandle::trace`] even though [`JobHandle::wait`] reports an
    /// error.
    partial: Mutex<Option<JobOutput>>,
    result: Mutex<Option<Result<JobOutput, Arc<EngineError>>>>,
    cv: Condvar,
}

/// A submitted job. Cheap to clone; waitable from any thread.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.state.id)
            .field("tenant", &self.state.tenant)
            .finish()
    }
}

impl JobHandle {
    /// The server-assigned job id (1-based; 0 means "standalone session"
    /// everywhere job ids appear in metrics and traces).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    pub fn tenant(&self) -> &str {
        &self.state.tenant
    }

    /// Block until the job finishes.
    pub fn wait(&self) -> Result<JobOutput, Arc<EngineError>> {
        let mut slot = lock(&self.state.result);
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.state.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The result if the job has finished, without blocking.
    pub fn try_result(&self) -> Option<Result<JobOutput, Arc<EngineError>>> {
        lock(&self.state.result).clone()
    }

    /// The job's metric roll-up: the full roll-up of a finished job, or
    /// the partial roll-up of a failed/cancelled one. `None` while the
    /// job is still queued or running.
    pub fn metrics(&self) -> Option<JobMetrics> {
        match self.try_result()? {
            Ok(o) => Some(o.metrics),
            Err(_) => lock(&self.state.partial).as_ref().map(|o| o.metrics.clone()),
        }
    }

    /// The job's run trace: the full trace of a finished job, or the
    /// partial trace of a failed/cancelled one. `None` while the job is
    /// still queued or running.
    pub fn trace(&self) -> Option<RunTrace> {
        match self.try_result()? {
            Ok(o) => Some(o.trace),
            Err(_) => lock(&self.state.partial).as_ref().map(|o| o.trace.clone()),
        }
    }

    /// Request cooperative cancellation. A still-queued job never starts;
    /// a running job fails fast at its next round boundary (in-flight
    /// attempts observe [`TaskContext::is_cancelled`] and fail with
    /// [`EngineError::Cancelled`]), and its tenant admission slot,
    /// claim-pool slots, and job-stamped cache entries are released
    /// through the normal end-of-job cleanup. Idempotent; a no-op once
    /// the job has finished.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// the shared task pool
// ----------------------------------------------------------------------

type ErasedResult = Box<dyn Any + Send>;
type TaskFn<'a> =
    &'a (dyn Fn(&TaskContext, &mut Executor) -> Result<ErasedResult, EngineError> + Sync);

/// What a worker hands back for one executed slot: the attempt outcome
/// plus the task metrics and trace events it produced on the physical
/// executor, routed to the owning job's session for per-job roll-up.
struct SlotDone {
    task: usize,
    attempt: u32,
    vhome: usize,
    result: Result<ErasedResult, EngineError>,
    oom_rerun: bool,
    oom_recovered: bool,
    task_metrics: Vec<crate::metrics::TaskMetrics>,
    events: Vec<TraceEvent>,
}

struct RoundState {
    done: Vec<Option<SlotDone>>,
    completed: usize,
}

/// One scheduling round of one job's stage, published to the pool: the
/// cross-job generalization of the pull scheduler's claim list. Slots are
/// `(task, attempt, virtual home)` sorted ascending by task.
struct Round {
    job: u64,
    tenant: u32,
    stage: String,
    tasks: usize,
    slots: Vec<(usize, u32, usize)>,
    /// Slots that must run at home (fault-affected; see
    /// `pin_faulted_slots_in`). Wave-mode jobs pin everything.
    pinned: Vec<bool>,
    claimed: Vec<AtomicBool>,
    /// Whether non-home workers may claim unpinned slots (pull mode).
    steal: bool,
    shuffle_stage: bool,
    plan: FaultPlan,
    policy: RetryPolicy,
    /// The owning job's virtual-executor poison flags (width-sized,
    /// persistent across the job's stages).
    vpoison: Arc<Vec<AtomicBool>>,
    /// The owning job's cooperative cancel flag: set, remaining attempts
    /// of this round fail fast with [`EngineError::Cancelled`] so the
    /// round still fully retires and releases its claim-pool slots.
    cancel: Arc<AtomicBool>,
    /// Borrowed from the runner's `run_stage` frame. SAFETY: the frame
    /// waits for every slot's `SlotDone` and retires the round from the
    /// pool before returning, so no worker dereferences this afterwards.
    body: TaskFn<'static>,
    state: Mutex<RoundState>,
    done_cv: Condvar,
}

struct QueuedJob {
    id: u64,
    tenant_id: u32,
    spec: JobSpec,
    state: Arc<JobState>,
    /// When the job was admitted — the epoch its deadline counts from.
    submitted: Instant,
}

struct PoolState {
    rounds: Vec<Arc<Round>>,
    queue: VecDeque<QueuedJob>,
    /// Jobs admitted but not yet finished (queued or running). Workers
    /// may only exit when this reaches zero after shutdown.
    active_jobs: usize,
    /// Claims currently executing per job — the fair-share signal.
    running: Vec<(u64, usize)>,
}

fn running_of(pool: &PoolState, job: u64) -> usize {
    pool.running.iter().find(|(j, _)| *j == job).map(|(_, n)| *n).unwrap_or(0)
}

fn bump_running(pool: &mut PoolState, job: u64, up: bool) {
    match pool.running.iter_mut().find(|(j, _)| *j == job) {
        Some(slot) => {
            if up {
                slot.1 += 1;
            } else {
                slot.1 = slot.1.saturating_sub(1);
            }
        }
        None => {
            if up {
                pool.running.push((job, 1));
            }
        }
    }
}

struct TenantState {
    name: String,
    id: u32,
    max_in_flight: usize,
    in_flight: usize,
}

struct ServerInner {
    executors: Vec<Mutex<Executor>>,
    exec_config: ExecutorConfig,
    pool: Mutex<PoolState>,
    /// Workers wait here for claimable slots (and shutdown).
    work_cv: Condvar,
    /// Runners wait here for queued jobs (and shutdown).
    job_cv: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    tenants: Mutex<Vec<TenantState>>,
    default_max_in_flight: usize,
}

// ----------------------------------------------------------------------
// worker threads
// ----------------------------------------------------------------------

/// Pick the best claimable slot for `worker` under the pool lock, or
/// `None` to wait. Affinity candidates (home slot on this worker — the
/// only way pinned slots run) beat steal candidates across all rounds;
/// within a class, prefer the job with the fewest running claims, tie on
/// the lower job id, then the lower task index — deterministic fair
/// sharing.
fn find_claim(pool: &PoolState, worker: usize, executors: usize) -> Option<(usize, usize)> {
    let mut best: Option<((bool, usize, u64, usize), usize, usize)> = None;
    for (ri, round) in pool.rounds.iter().enumerate() {
        let mut cand: Option<(usize, usize, bool)> = None;
        for (j, &(t, _a, v)) in round.slots.iter().enumerate() {
            if round.claimed[j].load(Ordering::Relaxed) {
                continue;
            }
            if v % executors == worker {
                cand = Some((j, t, false));
                break;
            }
        }
        if cand.is_none() && round.steal {
            for (j, &(t, _a, v)) in round.slots.iter().enumerate() {
                if round.pinned[j]
                    || round.claimed[j].load(Ordering::Relaxed)
                    || v % executors == worker
                {
                    continue;
                }
                cand = Some((j, t, true));
                break;
            }
        }
        let Some((j, t, steal)) = cand else { continue };
        let key = (steal, running_of(pool, round.job), round.job, t);
        if best.as_ref().is_none_or(|(k, ..)| key < *k) {
            best = Some((key, ri, j));
        }
    }
    best.map(|(_, ri, j)| (ri, j))
}

/// One physical attempt of slot `(t, a)` of `round` on `worker` — the
/// server port of the driver's `run_attempt`, with the crash machinery
/// redirected at the job's virtual executor `v`: poison checks read and
/// set `vpoison[v]`, never the shared process. Fault decisions are pure
/// functions of `(site, stage, task, attempt)`, so a job's failure
/// scenario is identical to its standalone run at the same width.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    round: &Round,
    e: &mut Executor,
    worker: usize,
    executors: usize,
    t: usize,
    a: u32,
    v: usize,
) -> (Result<ErasedResult, EngineError>, bool, bool) {
    let name = round.stage.as_str();
    let plan = &round.plan;
    let vpoison = &round.vpoison[v];
    let cancel = &*round.cancel;
    let ctx = TaskContext {
        stage: name,
        task: t,
        tasks: round.tasks,
        executor: worker,
        executors,
        cancel,
    };
    let body = round.body;
    // Panics are caught per attempt so one bad job body cannot wedge the
    // shared worker (they surface as fatal `TaskPanic` errors).
    let run_body = |e: &mut Executor| -> Result<ErasedResult, EngineError> {
        match catch_unwind(AssertUnwindSafe(|| body(&ctx, e))) {
            Ok(r) => r,
            Err(p) => Err(EngineError::TaskPanic {
                stage: name.to_string(),
                task: t,
                message: panic_message(p),
            }),
        }
    };
    let mut oom_rerun = false;
    let mut oom_recovered = false;
    let mut r = e.run_task_in(format!("{name}-{t}"), name, t, a, |e| {
        // A cancelled job's remaining attempts fail fast (never running
        // the body) so the round retires promptly and its claim-pool
        // slots free up for other jobs.
        if cancel.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled { reason: "job cancelled".to_string() });
        }
        // Only an at-home attempt observes the virtual executor's death.
        // Stolen slots are fault-free by construction (the pin walk pins
        // every slot a crash dooms), so reading the home's *live* poison
        // flag from a thief would add an ExecutorLost that depends on
        // when the steal ran relative to the crash — a timing-dependent
        // extra retry the serial reference never sees. The driver's
        // analog: a poisoned executor never steals, and a thief checks
        // its own health, not the home's.
        if v % executors == worker && vpoison.load(Ordering::Relaxed) {
            return Err(EngineError::ExecutorLost { executor: v });
        }
        if plan.fires(FaultSite::ExecutorCrash, name, t, a) {
            vpoison.store(true, Ordering::Relaxed);
            return Err(EngineError::ExecutorLost { executor: v });
        }
        if plan.fires(FaultSite::TaskBody, name, t, a) {
            return Err(EngineError::Injected { site: FaultSite::TaskBody });
        }
        if plan.fires(FaultSite::Alloc, name, t, a) {
            return Err(EngineError::Injected { site: FaultSite::Alloc });
        }
        if plan.fires(FaultSite::TaskHang, name, t, a) {
            // The watchdog's verdict on a hung attempt: the whole
            // deadline budget is burned in simulated time, charged at
            // the session's outcome processing.
            return Err(EngineError::Deadline {
                stage: name.to_string(),
                task: t,
                attempt: a,
                budget: round.policy.deadline_budget(),
            });
        }
        let out = run_body(e)?;
        if round.shuffle_stage && plan.fires(FaultSite::ShuffleFrame, name, t, a) {
            return Err(EngineError::Injected { site: FaultSite::ShuffleFrame });
        }
        Ok(out)
    });
    // Spill-path kill points model the executor process dying; on the
    // server that death is virtual. (Job fault plans are not installed
    // into the shared caches, so this only fires for errors the body
    // itself surfaces.)
    if r.as_ref().err().and_then(|err| err.injected_kill()).is_some() {
        vpoison.store(true, Ordering::Relaxed);
    }
    if round.policy.spill_on_oom
        && r.as_ref().is_err_and(|err| err.is_memory_pressure())
        && !vpoison.load(Ordering::Relaxed)
    {
        e.spill_for_memory();
        oom_rerun = true;
        r = e.run_task_in(format!("{name}-{t}-oom-retry"), name, t, a, |e| {
            let out = run_body(e)?;
            if round.shuffle_stage && plan.fires(FaultSite::ShuffleFrame, name, t, a) {
                return Err(EngineError::Injected { site: FaultSite::ShuffleFrame });
            }
            Ok(out)
        });
        oom_recovered = r.is_ok();
    }
    (r, oom_rerun, oom_recovered)
}

/// Execute one claimed slot: lock the physical executor, stamp its trace
/// and cache with the owning job/tenant, run the attempt, and collect the
/// task metrics and trace events it produced for routing to the job.
fn execute_slot(inner: &ServerInner, worker: usize, round: &Round, j: usize) -> SlotDone {
    let executors = inner.executors.len();
    let (t, a, v) = round.slots[j];
    let e = &mut *lock(&inner.executors[worker]);
    e.trace.set_job(round.job);
    e.cache.set_tenant_ctx(Some(round.tenant));
    e.cache.set_job_ctx(Some(round.job));
    let task_mark = e.tasks.len();
    let trace_mark = e.trace.len();
    if v % executors != worker && e.trace.enabled() {
        let now = e.trace.now_ns();
        let sim = dur_ns(e.sim_now());
        e.trace.record(
            TraceEventKind::TaskSteal,
            Some(round.stage.as_str()),
            Some(t),
            Some(a),
            None,
            format!("{}-{t}-steal", round.stage),
            now,
            0,
            sim,
            0,
            0,
            v as u64,
        );
    }
    let (result, oom_rerun, oom_recovered) = run_attempt(round, e, worker, executors, t, a, v);
    let task_metrics = e.tasks[task_mark..].to_vec();
    let mut events = e.trace.drain_from(trace_mark);
    for ev in &mut events {
        ev.executor = ev.executor.or(Some(worker));
    }
    e.cache.set_job_ctx(None);
    e.cache.set_tenant_ctx(None);
    e.trace.set_job(0);
    SlotDone {
        task: t,
        attempt: a,
        vhome: v,
        result,
        oom_rerun,
        oom_recovered,
        task_metrics,
        events,
    }
}

fn worker_loop(inner: Arc<ServerInner>, worker: usize) {
    let executors = inner.executors.len();
    loop {
        let claim = {
            let mut pool = lock(&inner.pool);
            loop {
                if let Some((ri, j)) = find_claim(&pool, worker, executors) {
                    let round = pool.rounds[ri].clone();
                    round.claimed[j].store(true, Ordering::Relaxed);
                    bump_running(&mut pool, round.job, true);
                    break Some((round, j));
                }
                if inner.shutdown.load(Ordering::Relaxed) && pool.active_jobs == 0 {
                    break None;
                }
                pool = inner.work_cv.wait(pool).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some((round, j)) = claim else { return };
        let done = execute_slot(&inner, worker, &round, j);
        {
            let mut pool = lock(&inner.pool);
            bump_running(&mut pool, round.job, false);
        }
        let mut st = lock(&round.state);
        st.done[j] = Some(done);
        st.completed += 1;
        if st.completed == round.slots.len() {
            round.done_cv.notify_all();
        }
    }
}

// ----------------------------------------------------------------------
// ServerJobSession: the per-job driver loop
// ----------------------------------------------------------------------

/// One job's driver state on its runner thread: the standalone
/// [`ClusterSession`] retry engine ported to virtual executors whose
/// attempts execute on the shared pool. Stage lifecycle, failure
/// charging, quarantine/restart decisions, retry routing, and metric
/// roll-up follow the standalone driver line for line — the equivalence
/// the server soak asserts counter for counter.
pub struct ServerJobSession {
    inner: Arc<ServerInner>,
    job: u64,
    tenant: u32,
    width: usize,
    policy: RetryPolicy,
    scheduler: SchedulerMode,
    faults: FaultPlan,
    vhealth: Vec<ExecutorHealth>,
    vpoison: Arc<Vec<AtomicBool>>,
    /// Shared with the [`JobHandle`] and every published round.
    cancel: Arc<AtomicBool>,
    /// Wall-clock deadline measured from `submitted`, checked at stage
    /// and round boundaries.
    deadline: Option<Duration>,
    submitted: Instant,
    stages: Vec<StageMetrics>,
    trace: TraceRecorder,
    /// Executor-side events routed back from workers, job-stamped.
    exec_events: Vec<TraceEvent>,
    metrics: JobMetrics,
    /// Cumulative busy time per virtual executor; the job's `exec` is its
    /// max (virtual executors run in parallel, as a width-W cluster's
    /// physical ones would).
    busy_job: Vec<Duration>,
    sim_now: Duration,
}

impl ServerJobSession {
    #[allow(clippy::too_many_arguments)]
    fn new(
        inner: Arc<ServerInner>,
        job: u64,
        tenant: u32,
        width: usize,
        policy: RetryPolicy,
        scheduler: SchedulerMode,
        faults: FaultPlan,
        cancel: Arc<AtomicBool>,
        deadline: Option<Duration>,
        submitted: Instant,
    ) -> ServerJobSession {
        let tracing = inner.exec_config.tracing;
        let mut trace = TraceRecorder::new(tracing);
        trace.set_job(job);
        ServerJobSession {
            inner,
            job,
            tenant,
            width,
            policy,
            scheduler,
            faults,
            vhealth: vec![ExecutorHealth::default(); width],
            vpoison: Arc::new((0..width).map(|_| AtomicBool::new(false)).collect()),
            cancel,
            deadline,
            submitted,
            stages: Vec::new(),
            trace,
            exec_events: Vec::new(),
            metrics: JobMetrics::default(),
            busy_job: vec![Duration::ZERO; width],
            sim_now: Duration::ZERO,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// The deadline-aware cancellation check, run at stage and round
    /// boundaries. A tripped deadline raises the shared cancel flag so
    /// in-flight attempts fail fast; the first trip emits the
    /// `JobCancelled` event and bumps the job's `cancelled` counter.
    fn check_cancelled(&mut self) -> Result<(), EngineError> {
        let overdue = self.deadline.is_some_and(|d| self.submitted.elapsed() >= d);
        if overdue {
            self.cancel.store(true, Ordering::Relaxed);
        }
        if !self.cancel.load(Ordering::Relaxed) {
            return Ok(());
        }
        let reason = if overdue {
            format!("deadline {:?} exceeded", self.deadline.unwrap_or_default())
        } else {
            "cancelled via JobHandle::cancel".to_string()
        };
        self.note_cancelled(&reason);
        Err(EngineError::Cancelled { reason })
    }

    /// Record the job's cancellation (once): the `cancelled` counter and
    /// the `JobCancelled` trace event, whose label carries the reason.
    fn note_cancelled(&mut self, reason: &str) {
        if self.metrics.cancelled != 0 {
            return;
        }
        self.metrics.cancelled = 1;
        let now = self.trace.now_ns();
        self.trace.record(
            TraceEventKind::JobCancelled,
            None,
            None,
            None,
            None,
            reason.to_string(),
            now,
            0,
            dur_ns(self.sim_now),
            0,
            0,
            0,
        );
    }

    pub fn mode(&self) -> crate::config::ExecutionMode {
        self.inner.exec_config.mode
    }

    /// Cached bytes currently stamped with this job across the shared
    /// executors (all tiers).
    pub fn job_cache_bytes(&self) -> usize {
        self.inner.executors.iter().map(|m| lock(m).cache.job_bytes(self.job)).sum()
    }

    pub fn run_stage<R: Send + 'static>(
        &mut self,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.run_stage_typed(name, tasks, f, false)
    }

    fn run_stage_typed<R: Send + 'static>(
        &mut self,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
        shuffle_stage: bool,
    ) -> Result<Vec<R>, EngineError> {
        let erased = |ctx: &TaskContext, e: &mut Executor| -> Result<ErasedResult, EngineError> {
            f(ctx, e).map(|r| Box::new(r) as ErasedResult)
        };
        let out = self.run_stage_erased(name, tasks, &erased, shuffle_stage)?;
        Ok(out
            .into_iter()
            .map(|b| *b.downcast::<R>().expect("stage results are the stage's result type"))
            .collect())
    }

    pub fn run_shuffle_job<R: Send + 'static>(
        &mut self,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        let map_stage = format!("{name}-map");
        let outputs: Vec<MapOutputs> = self.run_stage_typed(
            &map_stage,
            map_tasks,
            |ctx: &TaskContext, e: &mut Executor| {
                let out = map(ctx, e)?;
                if out.len() != reduce_tasks {
                    return Err(EngineError::Shuffle(format!(
                        "map task {} produced {} reducer outputs, expected {}",
                        ctx.task,
                        out.len(),
                        reduce_tasks
                    ))
                    .in_task(ctx.stage, ctx.task));
                }
                Ok(out)
            },
            true,
        )?;
        let bytes: u64 = outputs.iter().flatten().map(|p| p.len() as u64).sum();
        let pages: u64 = outputs.iter().flatten().map(|p| p.page_count() as u64).sum();
        if let Some(s) = self.stages.last_mut() {
            s.shuffle_bytes = bytes;
            s.shuffle_pages = pages;
        }
        // Payloads move through the exchange; pages change owner, no copy.
        let inputs = exchange(outputs);
        let result = {
            let inputs = &inputs;
            self.run_stage(&format!("{name}-reduce"), reduce_tasks, |ctx, e| {
                reduce(ctx, e, &inputs[ctx.task])
            })
        };
        // Return consumed payload storage to the physical executors' pools.
        if result.is_ok() {
            let n = self.inner.executors.len();
            for (i, p) in inputs.into_iter().flatten().enumerate() {
                lock(&self.inner.executors[i % n]).recycle_payload(p);
            }
        }
        result
    }

    /// The retry engine: the standalone driver's `run_stage_inner` with
    /// task waves replaced by pool rounds and physical health replaced by
    /// the job's virtual health/poison state.
    fn run_stage_erased(
        &mut self,
        name: &str,
        tasks: usize,
        body: TaskFn<'_>,
        shuffle_stage: bool,
    ) -> Result<Vec<ErasedResult>, EngineError> {
        // A job already cancelled (or past its deadline) never starts
        // another stage.
        self.check_cancelled()?;
        // SAFETY: `body` outlives every use — each round is fully executed
        // (every slot's SlotDone deposited) and retired from the pool
        // before this frame continues, and no code between publishing a
        // round and retiring it can panic out of the frame.
        let body: TaskFn<'static> =
            unsafe { std::mem::transmute::<TaskFn<'_>, TaskFn<'static>>(body) };
        assert!(tasks > 0, "a stage needs at least one task");
        let width = self.width;
        let policy = self.policy;
        let plan = self.faults.clone();
        for h in &mut self.vhealth {
            h.stage_failures = 0;
        }

        let stage_wall_start = self.trace.now_ns();
        let stage_sim_start = dur_ns(self.sim_now);
        self.trace.record(
            TraceEventKind::StageStart,
            Some(name),
            None,
            None,
            None,
            name,
            stage_wall_start,
            0,
            stage_sim_start,
            0,
            0,
            tasks as u64,
        );

        if healthy_count_in(&self.vhealth) == 0 {
            let quarantined = width - healthy_count_in(&self.vhealth);
            let err = EngineError::AllExecutorsLost { executors: width, quarantined };
            let mut stage = StageMetrics::new(name);
            stage.aborted = true;
            let now = self.trace.now_ns();
            self.trace.record(
                TraceEventKind::StageEnd,
                Some(name),
                None,
                None,
                None,
                name,
                now,
                now.saturating_sub(stage_wall_start),
                stage_sim_start,
                0,
                0,
                0,
            );
            self.stages.push(stage);
            return Err(err.in_task(name, 0));
        }

        let mut stage = StageMetrics::new(name);
        stage.tasks = tasks;
        let mut results: Vec<Option<ErasedResult>> = (0..tasks).map(|_| None).collect();

        let mut pending: Vec<(usize, u32, usize)> = Vec::with_capacity(tasks);
        for t in 0..tasks {
            let v = healthy_from_in(&self.vhealth, t % width).expect("a healthy executor exists");
            pending.push((t, 0, v));
        }

        let scheduler = self.scheduler;
        let mut busy_stage: Vec<Duration> = vec![Duration::ZERO; width];

        let outcome: Result<(), EngineError> = 'stage: loop {
            if pending.is_empty() {
                break Ok(());
            }
            // Round-boundary watchdog: a cancelled or overdue job stops
            // scheduling new rounds; the stage still records its metrics
            // and StageEnd below.
            if let Err(err) = self.check_cancelled() {
                break 'stage Err(err);
            }
            let mut slots: Vec<(usize, u32, usize)> = pending.drain(..).collect();
            slots.sort_unstable_by_key(|&(t, ..)| t);
            let doomed: Vec<bool> =
                self.vpoison.iter().map(|p| p.load(Ordering::Relaxed)).collect();
            // Wave jobs pin everything (static home queues, no stealing);
            // pull jobs pin exactly the fault-affected slots, as the
            // standalone pull scheduler does.
            let (pinned, steal) = match scheduler {
                SchedulerMode::Wave => (vec![true; slots.len()], false),
                SchedulerMode::Pull => {
                    (pin_faulted_slots_in(&doomed, &slots, name, shuffle_stage, &plan), true)
                }
            };
            let n = slots.len();
            let round = Arc::new(Round {
                job: self.job,
                tenant: self.tenant,
                stage: name.to_string(),
                tasks,
                slots,
                pinned,
                claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
                steal,
                shuffle_stage,
                plan: plan.clone(),
                policy,
                vpoison: self.vpoison.clone(),
                cancel: self.cancel.clone(),
                body,
                state: Mutex::new(RoundState {
                    done: (0..n).map(|_| None).collect(),
                    completed: 0,
                }),
                done_cv: Condvar::new(),
            });
            {
                let mut pool = lock(&self.inner.pool);
                pool.rounds.push(round.clone());
                self.inner.work_cv.notify_all();
            }
            let mut done: Vec<SlotDone> = {
                let mut st = lock(&round.state);
                while st.completed < n {
                    st = round.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
                }
                st.done.iter_mut().map(|d| d.take().expect("completed slot")).collect()
            };
            {
                let mut pool = lock(&self.inner.pool);
                pool.rounds.retain(|r| !Arc::ptr_eq(r, &round));
            }

            // Outcome processing, single-threaded in task order — health
            // and retry decisions never depend on worker interleaving.
            done.sort_by_key(|d| d.task);
            let mut round_busy: Vec<Duration> = vec![Duration::ZERO; width];
            let mut failures: Vec<(usize, u32, usize, EngineError)> = Vec::new();
            for d in done {
                let SlotDone {
                    task: t,
                    attempt: a,
                    vhome: x,
                    result,
                    oom_rerun,
                    oom_recovered,
                    task_metrics,
                    events,
                } = d;
                for tm in &task_metrics {
                    stage.add_task(tm);
                    self.metrics.add_task(tm);
                    round_busy[x] += tm.total();
                }
                self.exec_events.extend(events);
                stage.attempts += 1 + oom_rerun as u64;
                stage.oom_reruns += oom_rerun as u64;
                if oom_recovered {
                    stage.oom_recoveries += 1;
                    let now = self.trace.now_ns();
                    self.trace.record(
                        TraceEventKind::OomRecovery,
                        Some(name),
                        Some(t),
                        Some(a),
                        Some(x),
                        format!("{name}-{t}-oom"),
                        now,
                        0,
                        dur_ns(self.sim_now),
                        0,
                        0,
                        0,
                    );
                }
                match result {
                    Ok(v) => results[t] = Some(v),
                    Err(err) => {
                        // The watchdog's verdict on a hung attempt: the
                        // whole deadline budget was burned, charged in
                        // simulated time (never slept).
                        if let EngineError::Deadline { budget, .. } = &err {
                            stage.timeouts += 1;
                            stage.recovery += *budget;
                            let now = self.trace.now_ns();
                            self.trace.record(
                                TraceEventKind::TaskTimeout,
                                Some(name),
                                Some(t),
                                Some(a),
                                Some(x),
                                format!("{name}-{t}-timeout"),
                                now,
                                0,
                                dur_ns(self.sim_now),
                                dur_ns(*budget),
                                0,
                                0,
                            );
                        }
                        failures.push((t, a, x, err));
                    }
                }
            }
            for v in 0..width {
                busy_stage[v] += round_busy[v];
                self.busy_job[v] += round_busy[v];
            }
            if scheduler == SchedulerMode::Wave {
                stage.exec += round_busy.into_iter().max().unwrap_or(Duration::ZERO);
            }

            for &(_, _, x, _) in &failures {
                self.vhealth[x].stage_failures += 1;
            }
            for x in 0..width {
                let dead = self.vpoison[x].load(Ordering::Relaxed);
                let over = self.vhealth[x].stage_failures >= policy.quarantine_after;
                if (!dead && !over) || self.vhealth[x].quarantined {
                    continue;
                }
                if healthy_count_in(&self.vhealth) == 1 && policy.spare_last_executor {
                    // Virtual restart-in-place: clear the job's poison
                    // flag. The shared physical executor never died, so
                    // there is no cache wipe to rehydrate from — the
                    // job's cached blocks are all still live, and the
                    // rehydration counters stay zero by construction.
                    self.vpoison[x].store(false, Ordering::Relaxed);
                    self.vhealth[x].stage_failures = 0;
                    self.vhealth[x].restarts += 1;
                    stage.restarts += 1;
                    stage.recovery += policy.backoff;
                    let now = self.trace.now_ns();
                    self.trace.record(
                        TraceEventKind::Restart,
                        Some(name),
                        None,
                        None,
                        Some(x),
                        format!("restart-executor-{x}"),
                        now,
                        0,
                        dur_ns(self.sim_now),
                        dur_ns(policy.backoff),
                        0,
                        0,
                    );
                } else {
                    self.vhealth[x].quarantined = true;
                    stage.quarantines += 1;
                    let now = self.trace.now_ns();
                    self.trace.record(
                        TraceEventKind::Quarantine,
                        Some(name),
                        None,
                        None,
                        Some(x),
                        format!("quarantine-executor-{x}"),
                        now,
                        0,
                        dur_ns(self.sim_now),
                        0,
                        0,
                        0,
                    );
                }
            }

            for (t, a, x, err) in failures {
                if !err.is_transient() || a + 1 >= policy.max_attempts {
                    break 'stage Err(err.in_task(name, t));
                }
                let Some(y) = healthy_after_in(&self.vhealth, x) else {
                    break 'stage Err(err.in_task(name, t));
                };
                stage.retries += 1;
                stage.recovery += policy.backoff;
                let now = self.trace.now_ns();
                self.trace.record(
                    TraceEventKind::Retry,
                    Some(name),
                    Some(t),
                    Some(a),
                    Some(x),
                    format!("{name}-{t}-retry"),
                    now,
                    0,
                    dur_ns(self.sim_now),
                    dur_ns(policy.backoff),
                    0,
                    y as u64,
                );
                pending.push((t, a + 1, y));
            }
        };

        if scheduler == SchedulerMode::Pull {
            stage.exec = busy_stage.into_iter().max().unwrap_or(Duration::ZERO);
        }
        self.sim_now += stage.exec + stage.recovery;
        let now = self.trace.now_ns();
        self.trace.record(
            TraceEventKind::StageEnd,
            Some(name),
            None,
            None,
            None,
            name,
            now,
            now.saturating_sub(stage_wall_start),
            stage_sim_start,
            dur_ns(stage.exec + stage.recovery),
            stage.shuffle_bytes,
            stage.attempts,
        );
        self.stages.push(stage);
        outcome?;
        Ok(results.into_iter().map(|r| r.expect("completed stage fills every slot")).collect())
    }

    /// Seal the job: roll stages into the job metrics, stamp the job id,
    /// and build the per-job deterministic trace (driver events first,
    /// then routed executor events — the same order `RunTrace::merge`
    /// uses).
    fn finish(mut self, checksum: f64, cache_bytes: usize) -> JobOutput {
        self.metrics.job = self.job;
        self.metrics.exec = self.busy_job.iter().copied().max().unwrap_or(Duration::ZERO);
        for s in &self.stages {
            self.metrics.add_stage_recovery(s);
        }
        self.metrics.cache_bytes = cache_bytes;
        let mut events = self.trace.drain_from(0);
        events.append(&mut self.exec_events);
        JobOutput {
            job: self.job,
            checksum,
            cache_bytes,
            metrics: self.metrics,
            stages: self.stages,
            trace: RunTrace::from_events(events),
        }
    }
}

// ----------------------------------------------------------------------
// runner threads
// ----------------------------------------------------------------------

fn run_job(inner: &Arc<ServerInner>, q: QueuedJob) {
    let QueuedJob { id, tenant_id, spec, state, submitted } = q;
    let width = if spec.executors == 0 { inner.executors.len() } else { spec.executors };
    let policy = spec.retry.unwrap_or(inner.exec_config.retry);
    let scheduler = spec.scheduler.unwrap_or(inner.exec_config.scheduler);
    let app = spec.app.expect("submit validates the app");
    let mut session = ServerJobSession::new(
        inner.clone(),
        id,
        tenant_id,
        width,
        policy,
        scheduler,
        spec.faults,
        state.cancelled.clone(),
        spec.deadline,
        submitted,
    );
    // A job cancelled (or overdue) while still queued never runs its
    // body; it still flows through the full cleanup path below so its
    // admission slot and any stamped state are released.
    let (result, noted) = match session.check_cancelled() {
        Err(err) => (Err(err), 0),
        Ok(()) => {
            let mut ctx = JobCtx::server(&mut session);
            let r = match catch_unwind(AssertUnwindSafe(|| app.run(&mut ctx))) {
                Ok(r) => r,
                Err(p) => Err(EngineError::TaskPanic {
                    stage: app.name().to_string(),
                    task: 0,
                    message: panic_message(p),
                }),
            };
            (r, ctx.noted_cache_bytes())
        }
    };
    let output = match result {
        Ok(checksum) => Ok(session.finish(checksum, noted)),
        Err(err) => {
            // A cancel observed mid-stage (the tasks failed fast before
            // any boundary check ran) still gets its event and counter.
            if session.cancel.load(Ordering::Relaxed) {
                session.note_cancelled("job cancelled");
            }
            // Keep the failed job's partial roll-up reachable (the
            // JobCancelled event and `cancelled` counter live there).
            *lock(&state.partial) = Some(session.finish(f64::NAN, noted));
            Err(Arc::new(err))
        }
    };
    // End-of-job cleanup: release this job's cache blocks on every shared
    // executor so a long-lived server never accumulates finished jobs'
    // state.
    for m in inner.executors.iter() {
        lock(m).release_job_blocks(id);
    }
    // Release the tenant's admission slot *before* publishing the result:
    // a waiter that wakes on the result and immediately resubmits must not
    // race the slot release into a spurious AdmissionRejected.
    {
        let mut tenants = lock(&inner.tenants);
        if let Some(t) = tenants.iter_mut().find(|t| t.id == tenant_id) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
    }
    {
        let mut slot = lock(&state.result);
        *slot = Some(output);
        state.cv.notify_all();
    }
    {
        let mut pool = lock(&inner.pool);
        pool.active_jobs -= 1;
        // Wake idle workers so they can observe shutdown + drained pool.
        inner.work_cv.notify_all();
    }
}

fn runner_loop(inner: Arc<ServerInner>) {
    loop {
        let next = {
            let mut pool = lock(&inner.pool);
            loop {
                if let Some(q) = pool.queue.pop_front() {
                    break Some(q);
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                pool = inner.job_cv.wait(pool).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(q) = next else { return };
        run_job(&inner, q);
    }
}

// ----------------------------------------------------------------------
// DecaServer
// ----------------------------------------------------------------------

/// The job service. See the module docs for the execution model.
///
/// ```
/// use deca_engine::{AppJob, DecaServer, ExecutionMode, ExecutorConfig, JobSpec};
///
/// let cfg = ExecutorConfig::builder().mode(ExecutionMode::Deca).heap_mb(16).build();
/// let server = DecaServer::new(2, cfg);
/// let job = AppJob::new("sum", |ctx| {
///     let parts = ctx.run_stage("sum", 3, |c, _e| Ok((c.task * 10) as f64))?;
///     Ok(parts.into_iter().sum())
/// });
/// let handle = server.submit(JobSpec::new("docs").app(job)).unwrap();
/// assert_eq!(handle.wait().unwrap().checksum, 30.0);
/// ```
pub struct DecaServer {
    inner: Arc<ServerInner>,
    jobs: Mutex<Vec<Arc<JobState>>>,
    workers: Vec<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl DecaServer {
    /// A server over `executors` identical shared executors, with as many
    /// runner threads and no default admission cap.
    pub fn new(executors: usize, config: ExecutorConfig) -> DecaServer {
        DecaServer::with_config(ServerConfig::new(executors, config))
    }

    pub fn with_config(config: ServerConfig) -> DecaServer {
        assert!(config.executors > 0, "a server needs at least one executor");
        let cluster = LocalCluster::uniform(config.executors, config.executor.clone());
        let executors: Vec<Mutex<Executor>> =
            cluster.executors.into_iter().map(Mutex::new).collect();
        let inner = Arc::new(ServerInner {
            executors,
            exec_config: config.executor,
            pool: Mutex::new(PoolState {
                rounds: Vec::new(),
                queue: VecDeque::new(),
                active_jobs: 0,
                running: Vec::new(),
            }),
            work_cv: Condvar::new(),
            job_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            tenants: Mutex::new(Vec::new()),
            default_max_in_flight: config.default_max_in_flight,
        });
        let workers = (0..config.executors)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("deca-worker-{i}"))
                    .spawn(move || worker_loop(inner, i))
                    .expect("spawn worker")
            })
            .collect();
        let runner_count = if config.runners == 0 { config.executors } else { config.runners };
        let runners = (0..runner_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("deca-runner-{i}"))
                    .spawn(move || runner_loop(inner))
                    .expect("spawn runner")
            })
            .collect();
        DecaServer { inner, jobs: Mutex::new(Vec::new()), workers, runners }
    }

    /// Physical executors shared by all jobs.
    pub fn executors(&self) -> usize {
        self.inner.executors.len()
    }

    /// Submit a job. Fails with [`EngineError::AdmissionRejected`] when
    /// the tenant is at its in-flight cap and
    /// [`EngineError::ServerShutdown`] after shutdown. The spec must
    /// carry an app ([`JobSpec::app`]).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, EngineError> {
        assert!(spec.app.is_some(), "JobSpec needs an app (JobSpec::app)");
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(EngineError::ServerShutdown);
        }
        let tenant_id = {
            let mut tenants = lock(&self.inner.tenants);
            let idx = match tenants.iter().position(|t| t.name == spec.tenant) {
                Some(i) => i,
                None => {
                    let id = tenants.len() as u32 + 1;
                    tenants.push(TenantState {
                        name: spec.tenant.clone(),
                        id,
                        max_in_flight: self.inner.default_max_in_flight,
                        in_flight: 0,
                    });
                    tenants.len() - 1
                }
            };
            let t = &mut tenants[idx];
            if t.in_flight >= t.max_in_flight {
                return Err(EngineError::AdmissionRejected {
                    tenant: t.name.clone(),
                    in_flight: t.in_flight,
                    limit: t.max_in_flight,
                });
            }
            t.in_flight += 1;
            t.id
        };
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let state = Arc::new(JobState {
            id,
            tenant: spec.tenant.clone(),
            cancelled: Arc::new(AtomicBool::new(false)),
            partial: Mutex::new(None),
            result: Mutex::new(None),
            cv: Condvar::new(),
        });
        // Only `merged_trace` reads this list, and an untraced server's job
        // traces are empty, so such a server keeps no finished job's state.
        if self.inner.exec_config.tracing {
            lock(&self.jobs).push(state.clone());
        }
        {
            let mut pool = lock(&self.inner.pool);
            pool.queue.push_back(QueuedJob {
                id,
                tenant_id,
                spec,
                state: state.clone(),
                submitted: Instant::now(),
            });
            pool.active_jobs += 1;
            self.inner.job_cv.notify_one();
        }
        Ok(JobHandle { state })
    }

    /// Cap `tenant`'s concurrently in-flight jobs (creating the tenant if
    /// it was never seen).
    pub fn configure_tenant(&self, tenant: &str, max_in_flight: usize) {
        let mut tenants = lock(&self.inner.tenants);
        match tenants.iter_mut().find(|t| t.name == tenant) {
            Some(t) => t.max_in_flight = max_in_flight.max(1),
            None => {
                let id = tenants.len() as u32 + 1;
                tenants.push(TenantState {
                    name: tenant.to_string(),
                    id,
                    max_in_flight: max_in_flight.max(1),
                    in_flight: 0,
                });
            }
        }
    }

    fn tenant_id(&self, tenant: &str, create: bool) -> Option<u32> {
        let mut tenants = lock(&self.inner.tenants);
        if let Some(t) = tenants.iter().find(|t| t.name == tenant) {
            return Some(t.id);
        }
        if !create {
            return None;
        }
        let id = tenants.len() as u32 + 1;
        tenants.push(TenantState {
            name: tenant.to_string(),
            id,
            max_in_flight: self.inner.default_max_in_flight,
            in_flight: 0,
        });
        Some(id)
    }

    /// Give `tenant` a shared-cache resident budget on every executor:
    /// while at or under it, other tenants' memory pressure cannot evict
    /// its blocks (see the cache's tenant shielding).
    pub fn set_tenant_cache_budget(&self, tenant: &str, bytes: usize) {
        let id = self.tenant_id(tenant, true).expect("tenant created");
        for m in self.inner.executors.iter() {
            lock(m).cache.set_tenant_budget(id, bytes);
        }
    }

    /// Resident in-memory cached bytes owned by `tenant` across the
    /// shared executors.
    pub fn tenant_resident_bytes(&self, tenant: &str) -> usize {
        let Some(id) = self.tenant_id(tenant, false) else { return 0 };
        self.inner
            .executors
            .iter()
            .map(|m| {
                let e = lock(m);
                e.cache.tenant_resident_bytes(id, &e.mm)
            })
            .sum()
    }

    /// Cold-tier evictions charged to `tenant` across the shared
    /// executors.
    pub fn tenant_evictions(&self, tenant: &str) -> u64 {
        let Some(id) = self.tenant_id(tenant, false) else { return 0 };
        self.inner.executors.iter().map(|m| lock(m).cache.tenant_evictions(id)).sum()
    }

    /// Every finished job's trace merged, in submission order. Per-job
    /// views come from [`RunTrace::of_job`]; events never bleed across
    /// jobs because every event is job-stamped at record time. Empty on a
    /// server whose executors do not trace.
    pub fn merged_trace(&self) -> RunTrace {
        let mut events: Vec<TraceEvent> = Vec::new();
        for s in lock(&self.jobs).iter() {
            if let Some(Ok(out)) = lock(&s.result).as_ref() {
                events.extend(out.trace.events.iter().cloned());
            }
        }
        RunTrace { events }
    }

    /// Graceful shutdown: stop accepting submissions, drain the queue
    /// (every already-submitted job completes), and join all threads.
    /// Called by `Drop`; safe to call twice.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        {
            let _pool = lock(&self.inner.pool);
            self.inner.job_cv.notify_all();
            self.inner.work_cv.notify_all();
        }
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
        {
            let _pool = lock(&self.inner.pool);
            self.inner.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DecaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;

    fn cfg() -> ExecutorConfig {
        ExecutorConfig::new(ExecutionMode::Spark, 8 << 20)
    }

    fn sum_job() -> AppJob {
        AppJob::new("sum", |ctx| {
            let parts = ctx.run_stage("sum", 5, |c, _e| Ok((c.task * 10) as f64))?;
            Ok(parts.into_iter().sum())
        })
    }

    #[test]
    fn submits_and_waits() {
        let server = DecaServer::new(2, cfg());
        let h = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        let out = h.wait().unwrap();
        assert_eq!(out.checksum, 100.0);
        assert_eq!(out.job, h.id());
        assert_eq!(out.metrics.job, h.id());
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.stages[0].tasks, 5);
        assert_eq!(out.stages[0].attempts, 5);
    }

    #[test]
    fn shuffle_jobs_exchange_all_to_all() {
        let server = DecaServer::new(3, cfg());
        let job = AppJob::new("x", |ctx| {
            let got = ctx.run_shuffle_job(
                "x",
                3,
                2,
                |c, e| {
                    Ok((0..2)
                        .map(|_| {
                            let mut run = e.new_run();
                            run.push(&mut e.arena, &[c.task as u8]);
                            e.hand_over(run)
                        })
                        .collect())
                },
                |_c, _e, inputs| Ok(inputs.iter().map(|b| b.contiguous()[0] as f64).sum::<f64>()),
            )?;
            assert_eq!(got, vec![3.0, 3.0]);
            Ok(got.into_iter().sum())
        });
        let out = server.submit(JobSpec::new("t").app(job)).unwrap().wait().unwrap();
        assert_eq!(out.checksum, 6.0);
        let map = out.stages.iter().find(|s| s.name == "x-map").unwrap();
        assert_eq!(map.shuffle_bytes, 6);
        assert_eq!(map.shuffle_pages, 6);
    }

    #[test]
    fn width_is_virtual_not_physical() {
        // A width-5 job on a 2-executor server: task homes follow the
        // virtual width, like a standalone 5-executor session.
        let server = DecaServer::new(2, cfg());
        let job = AppJob::new("w", |ctx| {
            assert_eq!(ctx.executors(), 5);
            let v = ctx.run_stage("w", 7, |c, _e| Ok(c.task as f64))?;
            Ok(v.into_iter().sum())
        });
        let out = server.submit(JobSpec::new("t").executors(5).app(job)).unwrap().wait().unwrap();
        assert_eq!(out.checksum, 21.0);
    }

    #[test]
    fn admission_caps_in_flight_jobs_per_tenant() {
        let server = DecaServer::with_config(ServerConfig::new(1, cfg()).runners(1));
        server.configure_tenant("capped", 1);
        // A job that blocks until we let it finish, holding the tenant's
        // only admission slot.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        let blocker = AppJob::new("block", move |ctx| {
            let g = g.clone();
            ctx.run_stage("block", 1, move |_c, _e| {
                let (m, cv) = &*g;
                let mut open = lock(m);
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(0.0)
            })?;
            Ok(0.0)
        });
        let h = server.submit(JobSpec::new("capped").app(blocker)).unwrap();
        let err = server.submit(JobSpec::new("capped").app(sum_job())).unwrap_err();
        match err {
            EngineError::AdmissionRejected { tenant, in_flight, limit } => {
                assert_eq!(tenant, "capped");
                assert_eq!((in_flight, limit), (1, 1));
            }
            other => panic!("expected AdmissionRejected, got {other}"),
        }
        // Another tenant is not affected by the capped tenant's limit.
        // (Queued behind the blocker on this 1-runner server, so release
        // the gate before waiting.)
        let other = server.submit(JobSpec::new("open").app(sum_job())).unwrap();
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        h.wait().unwrap();
        other.wait().unwrap();
        // The slot freed: the capped tenant can submit again.
        let again = server.submit(JobSpec::new("capped").app(sum_job())).unwrap();
        assert_eq!(again.wait().unwrap().checksum, 100.0);
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let mut server = DecaServer::new(2, cfg());
        let h = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        server.shutdown();
        assert_eq!(h.wait().unwrap().checksum, 100.0, "submitted jobs drain");
        let err = server.submit(JobSpec::new("t").app(sum_job())).unwrap_err();
        assert!(matches!(err, EngineError::ServerShutdown), "{err}");
    }

    #[test]
    fn task_panic_is_contained_to_its_job() {
        let server = DecaServer::new(2, cfg());
        let bad = AppJob::new("bad", |ctx| {
            ctx.run_stage("bad", 2, |c, _e| {
                if c.task == 1 {
                    panic!("boom in task");
                }
                Ok(0.0)
            })?;
            Ok(0.0)
        });
        let err = server.submit(JobSpec::new("t").app(bad)).unwrap().wait().unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        // The shared cluster still serves other jobs.
        let ok = server.submit(JobSpec::new("t").app(sum_job())).unwrap().wait().unwrap();
        assert_eq!(ok.checksum, 100.0);
    }

    #[test]
    fn deadline_zero_job_is_cancelled_before_it_starts() {
        let server = DecaServer::new(2, cfg());
        server.configure_tenant("t", 1);
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let job = AppJob::new("late", move |ctx| {
            r.store(true, Ordering::Relaxed);
            let parts = ctx.run_stage("late", 2, |c, _e| Ok(c.task as f64))?;
            Ok(parts.into_iter().sum())
        });
        let h = server.submit(JobSpec::new("t").deadline(Duration::ZERO).app(job)).unwrap();
        let err = h.wait().unwrap_err();
        assert!(matches!(&*err, EngineError::Cancelled { .. }), "{err}");
        assert!(err.to_string().contains("deadline"), "{err}");
        assert!(!ran.load(Ordering::Relaxed), "an overdue queued job never runs its body");
        // The cancellation is observable through the partial roll-up.
        let m = h.metrics().expect("partial metrics of a cancelled job");
        assert_eq!(m.cancelled, 1);
        let trace = h.trace().expect("partial trace of a cancelled job");
        assert_eq!(trace.of_kind(TraceEventKind::JobCancelled).count(), 1);
        // The tenant's admission slot was released by the cleanup path.
        let again = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        assert_eq!(again.wait().unwrap().checksum, 100.0);
    }

    #[test]
    fn cancel_stops_a_running_job_and_frees_its_state() {
        let server = DecaServer::new(2, cfg());
        server.configure_tenant("t", 1);
        // The task cooperatively polls its cancel token; without the
        // cancel it would spin forever.
        let spinner = AppJob::new("spin", |ctx| {
            ctx.run_stage("spin", 2, |c, _e| -> Result<(), EngineError> {
                while !c.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(EngineError::Cancelled { reason: "token observed".to_string() })
            })?;
            Ok(0.0)
        });
        let h = server.submit(JobSpec::new("t").app(spinner)).unwrap();
        h.cancel();
        let err = h.wait().unwrap_err();
        assert!(err.to_string().contains("cancel"), "{err}");
        let m = h.metrics().expect("partial metrics of a cancelled job");
        assert_eq!(m.cancelled, 1);
        // Claim-pool slots and the admission slot are released: the
        // tenant's next job runs to completion on the same server.
        let again = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        assert_eq!(again.wait().unwrap().checksum, 100.0);
    }

    #[test]
    fn job_traces_are_job_scoped() {
        let server = DecaServer::new(2, cfg());
        let a = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        let b = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
        for (h, out) in [(&a, &ra), (&b, &rb)] {
            assert!(!out.trace.is_empty());
            assert!(out.trace.events.iter().all(|e| e.job == h.id()), "no cross-job bleed");
        }
        let merged = server.merged_trace();
        let mut jobs = merged.jobs();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![a.id(), b.id()]);
        assert_eq!(merged.of_job(a.id()).count(), ra.trace.len());
        assert_eq!(merged.of_job(b.id()).count(), rb.trace.len());
    }

    #[test]
    fn untraced_server_keeps_no_finished_jobs() {
        let server = DecaServer::new(2, cfg().tracing(false));
        for _ in 0..3 {
            let h = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
            assert!(h.wait().unwrap().trace.is_empty());
        }
        assert!(lock(&server.jobs).is_empty());
        assert!(server.merged_trace().is_empty());
    }
}
