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
//! The server owns `E` physical executors, each behind a mutex (executor
//! state is only ever touched by the thread holding it, preserving the
//! single-writer discipline the deterministic heap/GC model relies on) and
//! each with one long-lived *worker* thread. `R` *runner* threads drain
//! the submission queue; each runs one job at a time through the same
//! stage engine a standalone [`ClusterSession`] uses. A stage's scheduling
//! round queues claimer `v` (one per virtual executor) on the worker of
//! physical executor `v % E`. Each turn of a claimer locks the executor
//! for one attempt and stamps it with the job and tenant; a claimer with
//! more to do goes to the back of the queue, so concurrent jobs share each
//! executor attempt by attempt, with no per-job reservations.
//!
//! ## Virtual executors
//!
//! A job runs at a *width* `W` chosen in its [`JobSpec`] — its task→home
//! mapping, retry round-robin, and failure charging all use `W` virtual
//! executors, exactly as a standalone `ClusterSession::new(W, ..)` would.
//! Virtual executor `v` executes on physical executor `v % E`. Injected
//! faults poison the job's *virtual* executor (a per-job atomic flag),
//! never the shared process: one tenant's fault plan cannot take a
//! physical executor away from everyone else. Because app bodies are
//! deterministic in `(task, partition data)` and recompute executor-local
//! state from lineage when it is missing, a job's results are bit-identical
//! to its standalone run at the same width — the server soak asserts this
//! for hundreds of concurrent submissions. Served jobs never speculate
//! (see [`JobSpec::retry`]).
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cluster::{ExecutorHealth, LocalCluster};
use crate::config::{ExecutionMode, ExecutorConfig, RetryPolicy, SchedulerMode, ServerConfig};
use crate::driver::{ClusterSession, MapOutputs, ShufflePayload, TaskContext};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::faults::FaultPlan;
use crate::metrics::{JobMetrics, StageMetrics};
use crate::stage::{panic_message, Backend, Claimer, Poison, Slot, StageEngine};
use crate::trace::{RunTrace, TraceEvent};

/// Lock a mutex, riding through poisoning: a panicking task body is caught
/// per attempt and surfaced as [`EngineError::TaskPanic`], so a poisoned
/// lock only means "a panic unwound here once", never that the protected
/// state is torn (executor state is updated transactionally per task).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
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

/// The stage API an [`AppJob`] body runs against: the stage engine over a
/// standalone [`ClusterSession`]'s executors or over a server job's
/// virtual executors, with identical semantics (same retry loop, same
/// task→home mapping, same deterministic results).
pub struct JobCtx<'a> {
    engine: &'a mut StageEngine,
    backend: &'a mut dyn Backend,
    noted_cache_bytes: usize,
}

impl<'a> JobCtx<'a> {
    /// A context over a standalone session (the apps' `run_local` path).
    pub fn local(session: &'a mut ClusterSession) -> JobCtx<'a> {
        let (engine, backend) = session.parts();
        JobCtx { engine, backend, noted_cache_bytes: 0 }
    }

    /// The job's executor width (virtual width on the server).
    pub fn executors(&self) -> usize {
        self.backend.width()
    }

    pub fn mode(&self) -> ExecutionMode {
        self.backend.mode()
    }

    /// Run one stage; see [`ClusterSession::run_stage`].
    pub fn run_stage<R: Send>(
        &mut self,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.engine.run_stage(self.backend, name, tasks, f, false)
    }

    /// Run a map/exchange/reduce stage pair; see
    /// [`ClusterSession::run_shuffle_job`].
    pub fn run_shuffle_job<R: Send>(
        &mut self,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.engine.run_shuffle_job(self.backend, name, map_tasks, reduce_tasks, map, reduce)
    }

    /// Snapshot the job's current cached footprint (resident + spilled)
    /// into [`JobCtx::noted_cache_bytes`]. Apps call this at the point
    /// their caches are fully built (e.g. after the adjacency-build
    /// stage), since end-of-job cleanup releases the blocks.
    pub fn note_cache_bytes(&mut self) {
        self.noted_cache_bytes = self.backend.cache_bytes();
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
    /// virtual executors share physical executors round-robin.
    pub fn executors(mut self, n: usize) -> JobSpec {
        self.executors = n;
        self
    }

    /// The job's retry policy (default: the server's executor config).
    /// Its `speculate` bit is ignored: served jobs never launch
    /// speculative duplicates, because a duplicate would occupy a shared
    /// executor that other tenants' jobs are waiting for.
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
    /// with [`EngineError::Cancelled`] and releasing its admission slot
    /// and job-stamped cache entries.
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
    /// The cooperative cancel flag, shared with the job's stage engine so
    /// in-flight attempts can observe it.
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
    /// [`EngineError::Cancelled`]), and its tenant admission slot and
    /// job-stamped cache entries are released through the normal
    /// end-of-job cleanup. Idempotent; a no-op once the job has finished.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// the server's stage-engine backend
// ----------------------------------------------------------------------

struct QueuedJob {
    id: u64,
    tenant_id: u32,
    spec: JobSpec,
    state: Arc<JobState>,
    /// When the job was admitted — the epoch its deadline counts from.
    submitted: Instant,
}

struct TenantState {
    name: String,
    id: u32,
    max_in_flight: usize,
    in_flight: usize,
}

/// The tenant named `name`, created with cap `default_cap` if never seen.
fn tenant_entry<'t>(
    tenants: &'t mut Vec<TenantState>,
    name: &str,
    default_cap: usize,
) -> &'t mut TenantState {
    let i = match tenants.iter().position(|t| t.name == name) {
        Some(i) => i,
        None => {
            let id = tenants.len() as u32 + 1;
            let name = name.to_string();
            tenants.push(TenantState { name, id, max_in_flight: default_cap, in_flight: 0 });
            tenants.len() - 1
        }
    };
    &mut tenants[i]
}

/// One claimer of a job's round, queued on a worker thread. Each turn
/// runs one claiming step; a claimer with more to do goes to the back of
/// the queue, so a worker alternates between the jobs it serves attempt
/// by attempt.
struct Turn {
    step: &'static (dyn Fn(usize) -> bool + Sync),
    w: usize,
    queue: Sender<Turn>,
    /// Receives the claimer's end: `None`, or the payload of a panic.
    report: Sender<Option<Box<dyn Any + Send>>>,
}

impl Turn {
    fn take(self) {
        match catch_unwind(AssertUnwindSafe(|| (self.step)(self.w))) {
            Ok(true) => {
                let queue = self.queue.clone();
                let _ = queue.send(self);
            }
            outcome => {
                let Turn { report, .. } = self;
                let _ = report.send(outcome.err());
            }
        }
    }
}

struct ServerInner {
    executors: Vec<Mutex<Executor>>,
    /// One queue per executor's worker thread; cleared at shutdown, once
    /// the runners are done, to stop the workers.
    work: Mutex<Vec<Sender<Turn>>>,
    exec_config: ExecutorConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Runners wait here for queued jobs (and shutdown).
    job_cv: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    tenants: Mutex<Vec<TenantState>>,
    default_max_in_flight: usize,
}

/// One job's view of the shared executors: `W` virtual executors, with
/// virtual `v` running on physical `v % E`. Health, poison and restarts
/// are the job's own; the physical executors never die.
struct JobSlots {
    inner: Arc<ServerInner>,
    job: u64,
    tenant: u32,
    health: Vec<ExecutorHealth>,
    poison: Vec<AtomicBool>,
    /// Executor-side events of this job's attempts, routed back job-stamped.
    events: Mutex<Vec<TraceEvent>>,
}

impl Backend for JobSlots {
    fn width(&self) -> usize {
        self.health.len()
    }

    fn mode(&self) -> ExecutionMode {
        self.inner.exec_config.mode
    }

    fn health(&mut self) -> &mut [ExecutorHealth] {
        &mut self.health
    }

    fn poisoned(&self, w: usize) -> bool {
        self.poison[w].load(Ordering::Relaxed)
    }

    /// Virtual restart-in-place: clear the job's poison flag. The shared
    /// physical executor never died, so there is no cache wipe to
    /// rehydrate from — the job's cached blocks are all still live.
    fn restart(&mut self, w: usize, _stage: &str, _ordinal: u32, _rehydrate: bool) -> (u64, u64) {
        self.poison[w].store(false, Ordering::Relaxed);
        (0, 0)
    }

    /// Claimer `w` runs on the worker thread of physical executor
    /// `w % E`, so an executor's attempts always run on the same thread.
    /// This is the one place the server erases a lifetime: the workers
    /// outlive every job, while `step` borrows the calling stage.
    #[allow(unsafe_code)]
    fn run_claimers(&mut self, step: &(dyn Fn(usize, &mut dyn Claimer) -> bool + Sync)) {
        let slots = &*self;
        let step = |w: usize| step(w, &mut Shared { slots, w });
        let step: &(dyn Fn(usize) -> bool + Sync) = &step;
        // SAFETY: each turn sent below either reports on `report` after
        // its last step, or is dropped with its `report` sender. This
        // frame returns only after `width` reports or once every sender is
        // gone, so no worker can still call `step`, or reach what it
        // borrows, after the borrow ends.
        let step: &'static (dyn Fn(usize) -> bool + Sync) = unsafe { std::mem::transmute(step) };
        let width = self.health.len();
        let (report, reports) = channel();
        {
            let work = lock(&self.inner.work);
            for w in 0..width {
                let queue = work[w % work.len()].clone();
                let turn = Turn { step, w, queue: queue.clone(), report: report.clone() };
                queue.send(turn).expect("workers outlive the runners");
            }
        }
        drop(report);
        let mut panic = None;
        for outcome in reports.iter().take(width) {
            panic = panic.or(outcome);
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    fn recycle(&mut self, i: usize, payload: ShufflePayload) {
        lock(&self.inner.executors[i % self.inner.executors.len()]).recycle_payload(payload);
    }

    fn cache_bytes(&mut self) -> usize {
        self.inner.executors.iter().map(|m| lock(m).cache.job_bytes(self.job)).sum()
    }
}

/// A server claimer: virtual executor `w` on the worker of physical
/// executor `w % E`, locking it for one attempt at a time.
struct Shared<'a> {
    slots: &'a JobSlots,
    w: usize,
}

impl Claimer for Shared<'_> {
    fn poisoned(&self) -> bool {
        self.slots.poison[self.w].load(Ordering::Relaxed)
    }

    /// Lock the physical executor, stamp its trace and cache with the job
    /// and tenant, run the attempt (panics caught), and route the trace
    /// events it recorded to the job.
    fn run(&mut self, attempt: &mut dyn FnMut(Slot<'_>)) {
        let s = self.slots;
        let mut e = lock(&s.inner.executors[self.w % s.inner.executors.len()]);
        e.trace.set_job(s.job);
        e.cache.set_tenant_ctx(Some(s.tenant));
        e.cache.set_job_ctx(Some(s.job));
        let mark = e.trace.len();
        let poison = Poison(Some(&s.poison[self.w]));
        attempt(Slot { e: &mut e, poison, catch_panics: true });
        let mut events = e.trace.drain_from(mark);
        e.cache.set_job_ctx(None);
        e.cache.set_tenant_ctx(None);
        e.trace.set_job(0);
        drop(e);
        if !events.is_empty() {
            for ev in &mut events {
                ev.executor = ev.executor.or(Some(self.w));
            }
            lock(&s.events).extend(events);
        }
    }
}

/// Seal a job: roll its stages into the job metrics, stamp the job id,
/// and build the per-job deterministic trace (driver events first, then
/// routed executor events — the same order `RunTrace::merge` uses).
fn finish(engine: StageEngine, slots: JobSlots, checksum: f64, cache_bytes: usize) -> JobOutput {
    let StageEngine { job: mut metrics, stages, mut trace, busy, .. } = engine;
    metrics.job = slots.job;
    // Virtual executors run in parallel, as a width-W cluster's would.
    metrics.exec = busy.into_iter().max().unwrap_or(Duration::ZERO);
    for s in &stages {
        metrics.add_stage_recovery(s);
    }
    metrics.cache_bytes = cache_bytes;
    let mut events = trace.drain_from(0);
    events.append(&mut slots.events.into_inner().unwrap_or_else(|p| p.into_inner()));
    JobOutput {
        job: slots.job,
        checksum,
        cache_bytes,
        metrics,
        stages,
        trace: RunTrace::from_events(events),
    }
}

// ----------------------------------------------------------------------
// runner threads
// ----------------------------------------------------------------------

fn run_job(inner: &Arc<ServerInner>, q: QueuedJob) {
    let QueuedJob { id, tenant_id, spec, state, submitted } = q;
    let width = if spec.executors == 0 { inner.executors.len() } else { spec.executors };
    // The one place a served job's policy is adjusted: no speculation
    // (see `JobSpec::retry`).
    let policy = spec.retry.unwrap_or(inner.exec_config.retry).speculate(false);
    let scheduler = spec.scheduler.unwrap_or(inner.exec_config.scheduler);
    let app = spec.app.expect("submit validates the app");
    let mut engine = StageEngine::new(policy, scheduler, spec.faults, inner.exec_config.tracing);
    engine.trace.set_job(id);
    engine.cancel = state.cancelled.clone();
    engine.deadline = spec.deadline.map(|d| (submitted, d));
    let mut slots = JobSlots {
        inner: inner.clone(),
        job: id,
        tenant: tenant_id,
        health: vec![ExecutorHealth::default(); width],
        poison: (0..width).map(|_| AtomicBool::new(false)).collect(),
        events: Mutex::new(Vec::new()),
    };
    // A job cancelled (or overdue) while still queued never runs its
    // body; it still flows through the full cleanup path below so its
    // admission slot and any stamped state are released.
    let (result, noted) = match engine.check_cancelled() {
        Err(err) => (Err(err), 0),
        Ok(()) => {
            let mut ctx = JobCtx { engine: &mut engine, backend: &mut slots, noted_cache_bytes: 0 };
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
        Ok(checksum) => Ok(finish(engine, slots, checksum, noted)),
        Err(err) => {
            // A cancel observed mid-stage (the tasks failed fast before
            // any boundary check ran) still gets its event and counter.
            if engine.cancel.load(Ordering::Relaxed) {
                engine.note_cancelled("job cancelled");
            }
            // Keep the failed job's partial roll-up reachable (the
            // JobCancelled event and `cancelled` counter live there).
            *lock(&state.partial) = Some(finish(engine, slots, f64::NAN, noted));
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
    let mut slot = lock(&state.result);
    *slot = Some(output);
    state.cv.notify_all();
}

fn runner_loop(inner: Arc<ServerInner>) {
    loop {
        let next = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(q) = queue.pop_front() {
                    break Some(q);
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                queue = inner.job_cv.wait(queue).unwrap_or_else(|p| p.into_inner());
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
        let (senders, workers): (Vec<Sender<Turn>>, Vec<JoinHandle<()>>) = (0..config.executors)
            .map(|i| {
                let (send, queue) = channel::<Turn>();
                let worker = std::thread::Builder::new()
                    .name(format!("deca-worker-{i}"))
                    .spawn(move || queue.into_iter().for_each(Turn::take))
                    .expect("spawn worker");
                (send, worker)
            })
            .unzip();
        let inner = Arc::new(ServerInner {
            executors,
            work: Mutex::new(senders),
            exec_config: config.executor,
            queue: Mutex::new(VecDeque::new()),
            job_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            tenants: Mutex::new(Vec::new()),
            default_max_in_flight: config.default_max_in_flight,
        });
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
            let t = tenant_entry(&mut tenants, &spec.tenant, self.inner.default_max_in_flight);
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
        let submitted = Instant::now();
        lock(&self.inner.queue).push_back(QueuedJob {
            id,
            tenant_id,
            spec,
            state: state.clone(),
            submitted,
        });
        self.inner.job_cv.notify_one();
        Ok(JobHandle { state })
    }

    /// Cap `tenant`'s concurrently in-flight jobs (creating the tenant if
    /// it was never seen).
    pub fn configure_tenant(&self, tenant: &str, max_in_flight: usize) {
        let mut tenants = lock(&self.inner.tenants);
        tenant_entry(&mut tenants, tenant, self.inner.default_max_in_flight).max_in_flight =
            max_in_flight.max(1);
    }

    /// The id of a tenant already seen.
    fn tenant_id(&self, tenant: &str) -> Option<u32> {
        lock(&self.inner.tenants).iter().find(|t| t.name == tenant).map(|t| t.id)
    }

    /// Give `tenant` a shared-cache resident budget on every executor:
    /// while at or under it, other tenants' memory pressure cannot evict
    /// its blocks (see the cache's tenant shielding).
    pub fn set_tenant_cache_budget(&self, tenant: &str, bytes: usize) {
        let id = {
            let mut tenants = lock(&self.inner.tenants);
            tenant_entry(&mut tenants, tenant, self.inner.default_max_in_flight).id
        };
        for m in self.inner.executors.iter() {
            lock(m).cache.set_tenant_budget(id, bytes);
        }
    }

    /// Resident in-memory cached bytes owned by `tenant` across the
    /// shared executors.
    pub fn tenant_resident_bytes(&self, tenant: &str) -> usize {
        let Some(id) = self.tenant_id(tenant) else { return 0 };
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
        let Some(id) = self.tenant_id(tenant) else { return 0 };
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
            let _queue = lock(&self.inner.queue);
            self.inner.job_cv.notify_all();
        }
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
        // No runner is left to hand out work: closing the queues stops the
        // workers.
        lock(&self.inner.work).clear();
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
    use crate::trace::TraceEventKind;

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

    #[test]
    fn served_jobs_never_speculate() {
        // A straggling task under a policy that asks for speculation: on
        // the server the request is dropped, so no duplicate is launched
        // and none is traced.
        let server = DecaServer::new(2, cfg());
        let job = AppJob::new("slow", |ctx| {
            let parts = ctx.run_stage("slow", 8, |c, _e| {
                if c.task == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Ok(c.task as f64)
            })?;
            Ok(parts.into_iter().sum())
        });
        let spec = JobSpec::new("t")
            .scheduler(SchedulerMode::Pull)
            .retry(RetryPolicy::resilient().speculate(true))
            .app(job);
        let out = server.submit(spec).unwrap().wait().unwrap();
        assert_eq!(out.checksum, 28.0);
        assert_eq!(out.stages[0].speculative_launched, 0);
        assert_eq!(out.metrics.speculative_launched, 0);
        assert_eq!(out.trace.of_kind(TraceEventKind::TaskSpeculative).count(), 0);
    }
}
