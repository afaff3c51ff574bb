//! The stage engine: the one retry loop every job runs its stages through.
//!
//! A job runs at a width `W`: task `t`'s *home* is executor `t % W`, and
//! the engine keeps a width-`W` health table (per-stage failure counts,
//! quarantine, restarts) and reads a width-`W` poison table through its
//! [`Backend`]. Each scheduling round runs `W` *claimers* concurrently,
//! one per executor. The engine is generic only over how claimer `w`
//! reaches its executor:
//!
//! * the standalone [`crate::ClusterSession`] runs claimer `w` on a
//!   scoped thread that owns `&mut Executor` for the whole round; poison
//!   is the executor's own flag, and a restart rehydrates the cache from
//!   its spill manifest;
//! * the job service ([`crate::DecaServer`]) runs claimer `w` on the
//!   long-lived worker thread of shared physical executor `w % E`, which
//!   it locks for one attempt at a time. Poison and restarts are
//!   *virtual* (per-job flags), so one job's faults never take a shared
//!   executor away from another job.
//!
//! ## Claiming
//!
//! A round's slots are `(task, attempt, home)` in ascending task order.
//! Claimer `w` first drains its own home slots (affinity), then, under
//! [`SchedulerMode::Pull`], steals the remaining *unpinned* slots in
//! ascending order. [`SchedulerMode::Wave`] is the same loop with every
//! slot pinned, so nothing is stolen and a straggler holds the round.
//! Under pull, every fault-affected slot is pinned to its home before the
//! round runs (see [`pin_faulted_slots`]), so a seeded fault plan charges,
//! poisons and OOM-spills exactly where the wave scheduler would. With
//! [`RetryPolicy::speculate`], idle claimers launch duplicates of
//! stragglers (see [`SpecRound`]).
//!
//! ## Outcomes
//!
//! Attempt outcomes are reconciled single-threaded, in task order, after
//! the round: one canonical attempt per slot enters the counters, failures
//! are charged to the executor that ran them, dead or over-threshold
//! executors are quarantined (or, for the last healthy one under
//! `spare_last_executor`, restarted in place), and failed tasks are
//! re-queued on the next healthy executor. None of these decisions depend
//! on thread interleaving, which is why a job's result and recovery
//! roll-up are the same at every width, under both schedulers, on both
//! backends.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cluster::{
    exchange, healthy_after_in, healthy_count_in, healthy_from_in, ExecutorHealth,
};
use crate::config::{ExecutionMode, RetryPolicy, SchedulerMode};
use crate::driver::{MapOutputs, ShufflePayload, TaskContext};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::faults::{FaultPlan, FaultSite};
use crate::metrics::{JobMetrics, StageMetrics, TaskMetrics};
use crate::trace::{dur_ns, TraceEventKind, TraceRecorder};

/// How a job reaches its `W` executors.
pub(crate) trait Backend {
    /// The job's width `W`.
    fn width(&self) -> usize;
    fn mode(&self) -> ExecutionMode;
    /// The width-`W` health table.
    fn health(&mut self) -> &mut [ExecutorHealth];
    /// Whether executor `w` is dead (read between rounds).
    fn poisoned(&self, w: usize) -> bool;
    /// Restart executor `w` in place; returns the `(blocks, bytes)` it
    /// rehydrated from its spill manifest.
    fn restart(&mut self, w: usize, stage: &str, ordinal: u32, rehydrate: bool) -> (u64, u64);
    /// Drive every claimer `w` of a round, concurrently, by calling
    /// `step(w, claimer)` until it returns false; return once all are
    /// done.
    fn run_claimers(&mut self, step: &(dyn Fn(usize, &mut dyn Claimer) -> bool + Sync));
    /// Return consumed shuffle payload `i`'s storage to an executor arena.
    fn recycle(&mut self, i: usize, payload: ShufflePayload);
    /// The job's cached footprint, resident plus spilled.
    fn cache_bytes(&mut self) -> usize;
}

/// Claimer `w` of one round: its thread's handle on executor `w`.
pub(crate) trait Claimer {
    /// Whether the executor is dead; a dead claimer steals nothing.
    fn poisoned(&self) -> bool;
    /// Run one attempt on the executor.
    fn run(&mut self, attempt: &mut dyn FnMut(Slot<'_>));
}

/// What one attempt runs on.
pub(crate) struct Slot<'a> {
    pub(crate) e: &'a mut Executor,
    pub(crate) poison: Poison<'a>,
    /// Turn a panicking task body into [`EngineError::TaskPanic`] (shared
    /// executors must outlive a bad job); otherwise the panic propagates.
    pub(crate) catch_panics: bool,
}

/// An executor's crash flag: the executor's own (`None`) or a job's
/// virtual one.
#[derive(Clone, Copy)]
pub(crate) struct Poison<'a>(pub(crate) Option<&'a AtomicBool>);

impl Poison<'_> {
    fn get(self, e: &Executor) -> bool {
        self.0.map_or(e.is_poisoned(), |p| p.load(Ordering::Relaxed))
    }

    fn set(self, e: &mut Executor) {
        match self.0 {
            Some(p) => p.store(true, Ordering::Relaxed),
            None => e.poison(),
        }
    }
}

pub(crate) fn panic_message(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// One finished physical attempt.
struct Done<R> {
    task: usize,
    attempt: u32,
    /// The claimer (executor) that ran it.
    executor: usize,
    result: Result<R, EngineError>,
    oom_rerun: bool,
    oom_recovered: bool,
    /// A speculative duplicate rather than the slot's primary copy.
    speculative: bool,
    /// Task metrics the attempt recorded on its executor.
    metrics: Vec<TaskMetrics>,
}

/// Shared bookkeeping for one speculative pull round
/// (`RetryPolicy::speculate`): who is running each slot, since when,
/// whether a finished copy exists, and the cancel token pair
/// (`[primary, duplicate]`) each slot's copies poll.
struct SpecRound {
    epoch: Instant,
    /// Per-slot primary start, ns since `epoch` plus one (0 = unstarted).
    started: Vec<AtomicU64>,
    /// Executor running each slot's primary copy.
    runner: Vec<AtomicUsize>,
    /// A finished copy exists for the slot.
    done: Vec<AtomicBool>,
    /// Wall duration of a finished copy, ns (the watchdog's runtime
    /// estimate sample).
    dur: Vec<AtomicU64>,
    /// A duplicate has been launched for the slot.
    taken: Vec<AtomicBool>,
    /// Cooperative cancel tokens per slot: `[primary, duplicate]`.
    cancels: Vec<[AtomicBool; 2]>,
    /// Slots with a finished copy (the round ends at `slots`).
    finished: AtomicUsize,
}

impl SpecRound {
    fn new(slots: usize) -> SpecRound {
        SpecRound {
            epoch: Instant::now(),
            started: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            runner: (0..slots).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            done: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            dur: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            taken: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            cancels: (0..slots).map(|_| [AtomicBool::new(false), AtomicBool::new(false)]).collect(),
            finished: AtomicUsize::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// One copy of slot `j` finished: record its duration sample, mark
    /// the slot complete, and cancel the other copy cooperatively.
    fn finish(&self, j: usize, started_ns: u64, loser_copy: usize) {
        self.dur[j].store(self.now_ns().saturating_sub(started_ns).max(1), Ordering::Relaxed);
        if !self.done[j].swap(true, Ordering::Relaxed) {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
        self.cancels[j][loser_copy].store(true, Ordering::Relaxed);
    }

    /// Take a duplicate of a straggling slot for claimer `w`: a started,
    /// unfinished, unpinned primary running elsewhere for more than
    /// `stale` ns. Returns the slot and its primary's runner.
    fn straggler(&self, w: usize, stale: u64, pinned: &[bool]) -> Option<(usize, usize)> {
        let now = self.now_ns();
        (0..self.done.len()).find_map(|j| {
            let started = self.started[j].load(Ordering::Relaxed);
            let runner = self.runner[j].load(Ordering::Relaxed);
            let straggling = !pinned[j]
                && !self.done[j].load(Ordering::Relaxed)
                && started != 0
                && runner != w
                && now.saturating_sub(started) > stale;
            (straggling && !self.taken[j].swap(true, Ordering::Relaxed)).then_some((j, runner))
        })
    }

    /// The watchdog's staleness threshold: twice the median duration of
    /// the round's completed copies — available only once at least half
    /// the round has completed (the quantile estimate needs evidence).
    fn stale_threshold_ns(&self, total: usize) -> Option<u64> {
        let completed = self.finished.load(Ordering::Relaxed);
        if completed == 0 || completed * 2 < total {
            return None;
        }
        let mut ds: Vec<u64> = (0..self.done.len())
            .filter(|&j| self.done[j].load(Ordering::Relaxed))
            .map(|j| self.dur[j].load(Ordering::Relaxed))
            .filter(|&d| d > 0)
            .collect();
        if ds.is_empty() {
            return None;
        }
        ds.sort_unstable();
        Some(ds[ds.len() / 2].saturating_mul(2).max(1))
    }
}

/// One job's driver state: policy, fault plan, per-stage metrics, the
/// driver-side trace and the simulated clock. Every stage of every job —
/// standalone or served — runs through [`StageEngine::run_stage`].
pub(crate) struct StageEngine {
    pub(crate) policy: RetryPolicy,
    pub(crate) scheduler: SchedulerMode,
    pub(crate) faults: FaultPlan,
    pub(crate) stages: Vec<StageMetrics>,
    /// Stage lifecycle and fault-handling decisions; executors record
    /// their own events.
    pub(crate) trace: TraceRecorder,
    /// Simulated job clock: cumulative stage critical path plus recovery.
    pub(crate) sim_now: Duration,
    /// Every attempt's task metrics summed, plus the `cancelled` counter
    /// (the job service's per-job roll-up).
    pub(crate) job: JobMetrics,
    /// Busy time per executor over the whole job.
    pub(crate) busy: Vec<Duration>,
    /// The job's cooperative cancel flag (a server job shares it with its
    /// `JobHandle`; a standalone session never sets it).
    pub(crate) cancel: Arc<AtomicBool>,
    /// A wall-clock deadline: `(start, budget)`.
    pub(crate) deadline: Option<(Instant, Duration)>,
}

impl StageEngine {
    pub(crate) fn new(
        policy: RetryPolicy,
        scheduler: SchedulerMode,
        faults: FaultPlan,
        tracing: bool,
    ) -> StageEngine {
        StageEngine {
            policy,
            scheduler,
            faults,
            stages: Vec::new(),
            trace: TraceRecorder::new(tracing),
            sim_now: Duration::ZERO,
            job: JobMetrics::default(),
            busy: Vec::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }

    /// Record a driver-side decision at the current simulated time;
    /// `attempt` is `(task, attempt)`.
    fn note(
        &mut self,
        kind: TraceEventKind,
        stage: Option<&str>,
        attempt: Option<(usize, u32)>,
        executor: Option<usize>,
        label: String,
        sim_dur: Duration,
        count: u64,
    ) {
        let (now, sim) = (self.trace.now_ns(), dur_ns(self.sim_now));
        let (task, attempt) = (attempt.map(|(t, _)| t), attempt.map(|(_, a)| a));
        let sim_dur = dur_ns(sim_dur);
        self.trace
            .record(kind, stage, task, attempt, executor, label, now, 0, sim, sim_dur, 0, count);
    }

    /// The deadline-aware cancellation check, run at stage and round
    /// boundaries. A tripped deadline raises the cancel flag so in-flight
    /// attempts fail fast; the first trip emits the `JobCancelled` event
    /// and bumps the job's `cancelled` counter.
    pub(crate) fn check_cancelled(&mut self) -> Result<(), EngineError> {
        let overdue = self.deadline.filter(|(start, d)| start.elapsed() >= *d);
        if overdue.is_some() {
            self.cancel.store(true, Ordering::Relaxed);
        }
        if !self.cancel.load(Ordering::Relaxed) {
            return Ok(());
        }
        let reason = match overdue {
            Some((_, d)) => format!("deadline {d:?} exceeded"),
            None => "cancelled via JobHandle::cancel".to_string(),
        };
        self.note_cancelled(&reason);
        Err(EngineError::Cancelled { reason })
    }

    /// Record the job's cancellation (once): the `cancelled` counter and
    /// the `JobCancelled` trace event, whose label carries the reason.
    pub(crate) fn note_cancelled(&mut self, reason: &str) {
        if self.job.cancelled != 0 {
            return;
        }
        self.job.cancelled = 1;
        let kind = TraceEventKind::JobCancelled;
        self.note(kind, None, None, None, reason.to_string(), Duration::ZERO, 0);
    }

    /// Run one stage of `tasks` tasks over `b`'s executors and return the
    /// results in task order. `shuffle_stage` marks stages whose outputs
    /// cross the exchange: only those draw [`FaultSite::ShuffleFrame`]
    /// corruption (detected as a failed attempt, so the map task
    /// re-executes and corrupt bytes are never consumed).
    pub(crate) fn run_stage<R: Send>(
        &mut self,
        b: &mut dyn Backend,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
        shuffle_stage: bool,
    ) -> Result<Vec<R>, EngineError> {
        // A job already cancelled (or past its deadline) never starts
        // another stage.
        self.check_cancelled()?;
        assert!(tasks > 0, "a stage needs at least one task");
        let width = b.width();
        let policy = self.policy;
        self.busy.resize(width, Duration::ZERO);
        // Per-stage blacklisting: failure counts reset, quarantine holds.
        for h in b.health() {
            h.stage_failures = 0;
        }

        let wall_start = self.trace.now_ns();
        let sim_start = dur_ns(self.sim_now);
        self.trace.record(
            TraceEventKind::StageStart,
            Some(name),
            None,
            None,
            None,
            name,
            wall_start,
            0,
            sim_start,
            0,
            0,
            tasks as u64,
        );
        let mut stage = StageMetrics::new(name);

        // A fully quarantined cluster cannot schedule anything: abort up
        // front, attributed to the cluster state, with a zeroed row.
        if healthy_count_in(b.health()) == 0 {
            stage.aborted = true;
            self.end_stage(stage, wall_start, sim_start);
            let err = EngineError::AllExecutorsLost { executors: width, quarantined: width };
            return Err(err.in_task(name, 0));
        }

        stage.tasks = tasks;
        let mut results: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
        // Task t starts on the first healthy executor at or after t % W —
        // exactly t % W when nothing is quarantined.
        let mut pending: Vec<(usize, u32, usize)> = (0..tasks)
            .map(|t| (t, 0, healthy_from_in(b.health(), t % width).expect("a healthy executor")))
            .collect();
        let mut busy_stage = vec![Duration::ZERO; width];

        let outcome: Result<(), EngineError> = 'stage: loop {
            if pending.is_empty() {
                break Ok(());
            }
            // Round-boundary watchdog: a cancelled or overdue job stops
            // scheduling rounds; the stage still records its metrics.
            if let Err(err) = self.check_cancelled() {
                break 'stage Err(err);
            }
            // Initial tasks and retries are both queued in task order.
            let slots = std::mem::take(&mut pending);
            let done = self.run_round(b, name, tasks, &slots, &f, shuffle_stage);

            // Every physical attempt's task metrics enter the stage. Under
            // `Wave` the barrier makes each round's critical path its
            // busiest executor, and the stage's path their sum; under
            // `Pull` the stage's path is the busiest executor's total.
            let mut round_busy = vec![Duration::ZERO; width];
            for d in &done {
                for tm in &d.metrics {
                    stage.add_task(tm);
                    self.job.add_task(tm);
                    round_busy[d.executor] += tm.total();
                }
            }
            for (w, busy) in round_busy.iter().enumerate() {
                busy_stage[w] += *busy;
                self.busy[w] += *busy;
            }
            if self.scheduler == SchedulerMode::Wave {
                stage.exec += round_busy.into_iter().max().unwrap_or(Duration::ZERO);
            }

            // Reconcile speculative duplicates: exactly one canonical
            // attempt per slot enters the counters, chosen by rules that
            // never depend on which copy physically finished first. A
            // successful primary always wins; a failed primary loses to a
            // successful duplicate; when both fail, keep the copy that
            // failed for a real reason over one that was merely cancelled.
            let mut failures: Vec<(usize, u32, usize, EngineError)> = Vec::new();
            let mut it = done.into_iter().peekable();
            while let Some(primary) = it.next() {
                let d = match it.next_if(|d| d.speculative && d.task == primary.task) {
                    None => primary,
                    Some(dup) => {
                        stage.speculative_launched += 1;
                        let primary_won = match (&primary.result, &dup.result) {
                            (Ok(_), _) => true,
                            (Err(_), Ok(_)) => false,
                            (Err(pe), Err(de)) => {
                                !matches!(pe, EngineError::Cancelled { .. })
                                    || matches!(de, EngineError::Cancelled { .. })
                            }
                        };
                        if primary_won {
                            primary
                        } else {
                            stage.speculative_wins += 1;
                            dup
                        }
                    }
                };
                let (t, a, x) = (d.task, d.attempt, d.executor);
                // An OOM in-place re-run is a physical task run: count it
                // in `attempts` (and `oom_reruns`), never in `retries`.
                stage.attempts += 1 + d.oom_rerun as u64;
                stage.oom_reruns += d.oom_rerun as u64;
                if d.oom_recovered {
                    stage.oom_recoveries += 1;
                    let label = format!("{name}-{t}-oom");
                    let kind = TraceEventKind::OomRecovery;
                    self.note(kind, Some(name), Some((t, a)), Some(x), label, Duration::ZERO, 0);
                }
                match d.result {
                    Ok(v) => results[t] = Some(v),
                    Err(err) => {
                        // The watchdog's verdict on a hung attempt: the
                        // whole deadline budget was burned, charged to
                        // stage recovery in simulated time (never slept).
                        if let EngineError::Deadline { budget, .. } = &err {
                            stage.timeouts += 1;
                            stage.recovery += *budget;
                            let label = format!("{name}-{t}-timeout");
                            let kind = TraceEventKind::TaskTimeout;
                            self.note(kind, Some(name), Some((t, a)), Some(x), label, *budget, 0);
                        }
                        failures.push((t, a, x, err));
                    }
                }
            }

            // Charge failures to executor health, then deal with dead or
            // repeat offenders: quarantine, or — for the last healthy
            // executor under `spare_last_executor` — restart in place.
            for &(_, _, x, _) in &failures {
                b.health()[x].stage_failures += 1;
            }
            for x in 0..width {
                let h = &b.health()[x];
                let (over, quarantined) =
                    (h.stage_failures >= policy.quarantine_after, h.quarantined);
                if (!b.poisoned(x) && !over) || quarantined {
                    continue;
                }
                if healthy_count_in(b.health()) == 1 && policy.spare_last_executor {
                    // The ordinal (restarts *before* this one) keys the
                    // `Rehydrate` kill point, so a crash during recovery
                    // resolves differently on the next restart.
                    let ordinal = b.health()[x].restarts as u32;
                    let (blocks, bytes) = b.restart(x, name, ordinal, policy.rehydrate);
                    let h = &mut b.health()[x];
                    h.rehydrated_blocks += blocks;
                    h.stage_failures = 0;
                    h.restarts += 1;
                    stage.rehydrated_blocks += blocks;
                    stage.rehydrated_bytes += bytes;
                    stage.restarts += 1;
                    stage.recovery += policy.backoff;
                    let label = format!("restart-executor-{x}");
                    let kind = TraceEventKind::Restart;
                    self.note(kind, Some(name), None, Some(x), label, policy.backoff, 0);
                } else {
                    b.health()[x].quarantined = true;
                    stage.quarantines += 1;
                    let label = format!("quarantine-executor-{x}");
                    let kind = TraceEventKind::Quarantine;
                    self.note(kind, Some(name), None, Some(x), label, Duration::ZERO, 0);
                }
            }

            // Reschedule failed tasks on the next healthy executor, or
            // fail the stage: fatal error, attempts exhausted, or no
            // healthy executor left. The error keeps its innermost task
            // attribution and transient/fatal classification.
            for (t, a, x, err) in failures {
                if !err.is_transient() || a + 1 >= policy.max_attempts {
                    break 'stage Err(err.in_task(name, t));
                }
                let Some(y) = healthy_after_in(b.health(), x) else {
                    break 'stage Err(err.in_task(name, t));
                };
                stage.retries += 1;
                stage.recovery += policy.backoff;
                let label = format!("{name}-{t}-retry");
                let kind = TraceEventKind::Retry;
                self.note(kind, Some(name), Some((t, a)), Some(x), label, policy.backoff, y as u64);
                pending.push((t, a + 1, y));
            }
        };

        if self.scheduler == SchedulerMode::Pull {
            stage.exec = busy_stage.into_iter().max().unwrap_or(Duration::ZERO);
        }
        // The stage is recorded even when it fails: partial work and
        // recovery attempts stay visible in the metrics.
        self.end_stage(stage, wall_start, sim_start);
        outcome?;
        Ok(results.into_iter().map(|r| r.expect("completed stage fills every slot")).collect())
    }

    /// Advance the simulated clock past `stage`, record its `StageEnd`,
    /// and keep its row.
    fn end_stage(&mut self, stage: StageMetrics, wall_start: u64, sim_start: u64) {
        self.sim_now += stage.exec + stage.recovery;
        let now = self.trace.now_ns();
        self.trace.record(
            TraceEventKind::StageEnd,
            Some(&stage.name),
            None,
            None,
            None,
            stage.name.as_str(),
            now,
            now.saturating_sub(wall_start),
            sim_start,
            dur_ns(stage.exec + stage.recovery),
            stage.shuffle_bytes,
            stage.attempts,
        );
        self.stages.push(stage);
    }

    /// One scheduling round: `W` claimers running concurrently. Returns
    /// every physical attempt, tasks ascending, each primary before its
    /// duplicate.
    fn run_round<R: Send>(
        &self,
        b: &mut dyn Backend,
        name: &str,
        tasks: usize,
        slots: &[(usize, u32, usize)],
        f: &(impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync),
        shuffle_stage: bool,
    ) -> Vec<Done<R>> {
        let width = b.width();
        let (policy, plan) = (self.policy, &self.faults);
        let job_cancel = &*self.cancel;
        let steal = self.scheduler == SchedulerMode::Pull;
        let pinned = if steal {
            let doomed: Vec<bool> = (0..width).map(|w| b.poisoned(w)).collect();
            pin_faulted_slots(&doomed, slots, name, shuffle_stage, plan)
        } else {
            vec![true; slots.len()]
        };
        let benched: Vec<bool> = b.health().iter().map(|h| h.quarantined).collect();
        let claimed: Vec<AtomicBool> = slots.iter().map(|_| AtomicBool::new(false)).collect();
        // Physical wall-clock here steers *where* duplicates launch —
        // never what the job computes, because reconciliation is
        // deterministic in task order.
        let spec = (steal && policy.speculate).then(|| SpecRound::new(slots.len()));

        // One physical attempt. Fault decisions are pure functions of
        // (site, stage, task, attempt) and a poison flag is only set by
        // its own claimer, so the failure scenario is identical across
        // widths, backends and interleavings.
        let attempt = |slot: &mut Slot<'_>, w: usize, t: usize, a: u32, cancel: &AtomicBool| {
            let (e, poison, catch_panics) = (&mut *slot.e, slot.poison, slot.catch_panics);
            let ctx =
                TaskContext { stage: name, task: t, tasks, executor: w, executors: width, cancel };
            let body = |e: &mut Executor| -> Result<R, EngineError> {
                let out = if catch_panics {
                    catch_unwind(AssertUnwindSafe(|| f(&ctx, e))).unwrap_or_else(|p| {
                        Err(EngineError::TaskPanic {
                            stage: name.to_string(),
                            task: t,
                            message: panic_message(p),
                        })
                    })?
                } else {
                    f(&ctx, e)?
                };
                if shuffle_stage && plan.fires(FaultSite::ShuffleFrame, name, t, a) {
                    return Err(EngineError::Injected { site: FaultSite::ShuffleFrame });
                }
                Ok(out)
            };
            let mut r = e.run_task_in(format!("{name}-{t}"), name, t, a, |e| {
                // A cancelled job's remaining attempts fail fast, never
                // running the body, so the round retires promptly.
                if job_cancel.load(Ordering::Relaxed) {
                    return Err(EngineError::Cancelled { reason: "job cancelled".to_string() });
                }
                if poison.get(e) {
                    return Err(EngineError::ExecutorLost { executor: w });
                }
                if plan.fires(FaultSite::ExecutorCrash, name, t, a) {
                    poison.set(e);
                    return Err(EngineError::ExecutorLost { executor: w });
                }
                if plan.fires(FaultSite::TaskBody, name, t, a) {
                    return Err(EngineError::Injected { site: FaultSite::TaskBody });
                }
                if plan.fires(FaultSite::Alloc, name, t, a) {
                    return Err(EngineError::Injected { site: FaultSite::Alloc });
                }
                if plan.fires(FaultSite::TaskHang, name, t, a) {
                    // The attempt hangs: it never runs the body and burns
                    // its whole deadline budget, charged to stage recovery
                    // at outcome processing.
                    return Err(EngineError::Deadline {
                        stage: name.to_string(),
                        task: t,
                        attempt: a,
                        budget: policy.deadline_budget(),
                    });
                }
                body(e)
            });
            // A spill-path kill point fired inside the cache: the modelled
            // executor process died mid-spill/restore. Poison it so the
            // restart/quarantine machinery performs the recovery.
            if r.as_ref().err().and_then(|err| err.injected_kill()).is_some() {
                poison.set(e);
            }
            // Graceful OOM degradation: spill the cache, collect, and
            // re-run once in place. An injected Alloc fault models the same
            // pressure, so it is not re-drawn on the re-run.
            let mut oom_rerun = false;
            if policy.spill_on_oom
                && r.as_ref().is_err_and(|err| err.is_memory_pressure())
                && !poison.get(e)
            {
                e.spill_for_memory();
                oom_rerun = true;
                r = e.run_task_in(format!("{name}-{t}-oom-retry"), name, t, a, body);
            }
            let oom_recovered = oom_rerun && r.is_ok();
            (r, oom_rerun, oom_recovered)
        };

        // Run copy `dup` of slot `j` on claimer `w`, first recording the
        // steal or speculation `marker` (kind, label suffix, home) on the
        // executor's trace.
        let exec = |c: &mut dyn Claimer,
                    w: usize,
                    j: usize,
                    marker: Option<(TraceEventKind, &str, usize)>,
                    dup: bool| {
            let (t, a, _) = slots[j];
            let cancel = spec.as_ref().map_or(job_cancel, |s| &s.cancels[j][dup as usize]);
            let mut done = None;
            c.run(&mut |mut slot: Slot<'_>| {
                if let Some((kind, suffix, home)) = marker.filter(|_| slot.e.trace.enabled()) {
                    let sim = dur_ns(slot.e.sim_now());
                    let tr = &mut slot.e.trace;
                    let (now, label) = (tr.now_ns(), format!("{name}-{t}-{suffix}"));
                    tr.record(
                        kind,
                        Some(name),
                        Some(t),
                        Some(a),
                        None,
                        label,
                        now,
                        0,
                        sim,
                        0,
                        0,
                        home as u64,
                    );
                }
                let mark = slot.e.tasks.len();
                let (result, oom_rerun, oom_recovered) = attempt(&mut slot, w, t, a, cancel);
                done = Some(Done {
                    task: t,
                    attempt: a,
                    executor: w,
                    result,
                    oom_rerun,
                    oom_recovered,
                    speculative: dup,
                    metrics: slot.e.tasks[mark..].to_vec(),
                });
            });
            done.expect("the claimer ran the attempt")
        };
        // One primary (non-duplicate) copy. With speculation on, publish
        // who runs it and since when so idle claimers can spot a
        // straggler, and on completion raise the duplicate's cancel token.
        let primary = |c: &mut dyn Claimer, w: usize, j: usize, marker| {
            let Some(s) = &spec else { return exec(c, w, j, marker, false) };
            s.runner[j].store(w, Ordering::Relaxed);
            let start = s.now_ns().max(1);
            s.started[j].store(start, Ordering::Relaxed);
            let d = exec(c, w, j, marker, false);
            s.finish(j, start, 1);
            d
        };

        // One claiming step of claimer `w`: run the next copy it may take,
        // and say whether it may have more to do. Home slots come first,
        // ascending; then, unless the claimer is dead, unpinned steals,
        // ascending; then, with speculation on, the watch for stragglers.
        // Pinned slots are only ever claimed at home, so a crash dooms
        // exactly the affinity suffix a wave would have doomed, and a dead
        // claimer pulls in no work a wave would not have handed it.
        let take = |want: &dyn Fn(usize, usize) -> bool| {
            (0..slots.len())
                .find(|&j| want(j, slots[j].2) && !claimed[j].swap(true, Ordering::Relaxed))
        };
        let done = Mutex::new(Vec::new());
        let step = |w: usize, c: &mut dyn Claimer| -> bool {
            if benched[w] {
                return false;
            }
            let dead = c.poisoned();
            let d = if let Some(j) = take(&|_, home| home == w) {
                primary(c, w, j, None)
            } else if let Some(j) = take(&|j, home| !dead && home != w && !pinned[j]) {
                primary(c, w, j, Some((TraceEventKind::TaskSteal, "steal", slots[j].2)))
            } else {
                // Every slot is claimed, so an idle claimer watches the
                // round. Once at least half of it has completed, a primary
                // running past 2× the median completed duration gets a
                // duplicate launched here. Pinned (fault-affected) slots
                // are never duplicated — their failure must land at home.
                let Some(s) = &spec else { return false };
                if dead || s.finished.load(Ordering::Relaxed) >= slots.len() {
                    return false;
                }
                let stale = s.stale_threshold_ns(slots.len());
                let Some((j, runner)) = stale.and_then(|stale| s.straggler(w, stale, &pinned))
                else {
                    std::thread::sleep(Duration::from_micros(200));
                    return true;
                };
                let start = s.now_ns().max(1);
                let marker = (TraceEventKind::TaskSpeculative, "speculative", runner);
                let d = exec(c, w, j, Some(marker), true);
                s.finish(j, start, 0);
                d
            };
            done.lock().unwrap_or_else(|p| p.into_inner()).push(d);
            true
        };
        b.run_claimers(&step);
        let mut done = done.into_inner().unwrap_or_else(|p| p.into_inner());
        done.sort_by_key(|d| (d.task, d.speculative));
        done
    }

    /// Run a two-stage shuffle job: a map stage producing per-reducer
    /// payloads, an all-to-all exchange, and a reduce stage consuming its
    /// partition's payloads in map-task order. The exchanged volume lands
    /// on the map stage's `shuffle_bytes`/`shuffle_pages`.
    pub(crate) fn run_shuffle_job<R: Send>(
        &mut self,
        b: &mut dyn Backend,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        let map_stage = format!("{name}-map");
        let map = |ctx: &TaskContext, e: &mut Executor| {
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
        };
        let outputs = self.run_stage(b, &map_stage, map_tasks, map, true)?;
        let bytes: u64 = outputs.iter().flatten().map(|p| p.len() as u64).sum();
        let pages: u64 = outputs.iter().flatten().map(|p| p.page_count() as u64).sum();
        if let Some(s) = self.stages.last_mut() {
            s.shuffle_bytes = bytes;
            s.shuffle_pages = pages;
        }

        // All-to-all exchange: inputs[reducer][map task], map-task order.
        // Payloads *move* — page-backed runs change owner here, no copy.
        let inputs = exchange(outputs);
        let reduce_stage = format!("{name}-reduce");
        let result = self.run_stage(
            b,
            &reduce_stage,
            reduce_tasks,
            |ctx, e| reduce(ctx, e, &inputs[ctx.task]),
            false,
        );
        // The exchange's lifetime ends with the reduce stage: return the
        // consumed payloads' storage to the executor arenas so the next
        // shuffle reuses pages/buffers instead of allocating.
        if result.is_ok() {
            for (i, p) in inputs.into_iter().flatten().enumerate() {
                b.recycle(i, p);
            }
        }
        result
    }
}

/// Pull-mode fault pinning: decide, before a round runs, which slots must
/// execute on their home executor so the failure scenario — which
/// executor a fault charges, poisons, or OOM-spills — is identical to
/// wave scheduling. Walks each executor's affinity slots in ascending task
/// order, mirroring exactly what its wave queue would run: a crash dooms
/// every later affinity slot (they fail with `ExecutorLost` at home), and
/// any other firing site pins just its own slot. Fault-free slots stay
/// stealable — they never touch health state, so where they run is
/// observability, not semantics.
fn pin_faulted_slots(
    doomed_at_start: &[bool],
    slots: &[(usize, u32, usize)],
    name: &str,
    shuffle_stage: bool,
    plan: &FaultPlan,
) -> Vec<bool> {
    let mut pinned = vec![false; slots.len()];
    // Fast path: a quiet plan on a healthy cluster pins nothing.
    if plan.is_quiet() && doomed_at_start.iter().all(|&d| !d) {
        return pinned;
    }
    for (i, &start_doomed) in doomed_at_start.iter().enumerate() {
        let mut doomed = start_doomed;
        for (j, &(t, a, home)) in slots.iter().enumerate() {
            if home != i {
                continue;
            }
            if doomed {
                pinned[j] = true;
            } else if plan.fires(FaultSite::ExecutorCrash, name, t, a)
                || FaultSite::SPILL_PATH.iter().any(|&s| plan.fires(s, name, t, a))
            {
                // A crash — or a spill-path kill that *may* fire if the
                // cache reaches its instrumented point — dooms this slot
                // and everything after it. Over-pinning is safe: pinned
                // slots run at home exactly as a wave would run them.
                pinned[j] = true;
                doomed = true;
            } else if plan.fires(FaultSite::TaskBody, name, t, a)
                || plan.fires(FaultSite::Alloc, name, t, a)
                || plan.fires(FaultSite::TaskHang, name, t, a)
                || (shuffle_stage && plan.fires(FaultSite::ShuffleFrame, name, t, a))
            {
                // An in-task failure (a hang included) must be charged to
                // the home executor's health — pin just its own slot.
                pinned[j] = true;
            }
        }
    }
    pinned
}
