//! The per-layer ledger of a traced run, built only from what the program
//! already exposes: its public counters (`JobMetrics`, `StageMetrics`,
//! `GcStats`, `CacheStats`), its `RunTrace`, and timers the benchmark puts
//! around calls into public functions.
//!
//! Every value is per job. The reconciliation identity is
//! `apps.datagen_s + driver.stage_wall_s + driver.unattributed_s ≈ job
//! wall`, where the three terms come from three different clocks: the
//! separately timed `datagen::*` calls, the trace's `StageEnd` durations,
//! and the trace's driver time between and after stages.

use std::time::Duration;

use deca_engine::{CacheStats, ClusterSession, RunTrace, TraceEventKind};
use deca_heap::GcStats;

use crate::run::{ServedJob, Standalone};

/// Largest tolerated |wall − (datagen + stage wall + unattributed)| is
/// a share of the datagen term, plus `RECONCILE_REL` of the wall time,
/// plus `RECONCILE_ABS_S` per job. The residual is the job prologue that
/// is not input generation (UDT classification, PageRank's edge bucketing
/// and degree count) plus the error of standing in for the in-job
/// `datagen::*` calls with separately timed ones, which is why the datagen
/// term carries most of the allowance: `DATAGEN_SHARE_STANDALONE` for a
/// job alone on its cluster, `DATAGEN_SHARE_SERVED` on `svc-mix`, where a
/// job generates its inputs while the other client's job runs on the same
/// two cores and so may take up to twice as long as the isolated timing.
pub const DATAGEN_SHARE_STANDALONE: f64 = 0.3;
pub const DATAGEN_SHARE_SERVED: f64 = 1.0;
pub const RECONCILE_REL: f64 = 0.05;
pub const RECONCILE_ABS_S: f64 = 0.002;

/// Ordered `(name, value, unit)` rows.
#[derive(Default)]
pub struct Ledger {
    pub rows: Vec<(String, f64, &'static str)>,
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }
}

/// Stage coverage of one job's driver timeline, in trace nanoseconds.
#[derive(Default, Debug, Clone, Copy)]
pub struct StageSpans {
    /// Sum of `StageEnd` durations.
    pub stage_wall: u64,
    /// Driver time between consecutive stages.
    pub gaps: u64,
    /// End of the last stage.
    pub last_end: u64,
}

pub fn stage_spans(trace: &RunTrace) -> StageSpans {
    let mut spans: Vec<(u64, u64)> = trace
        .of_kind(TraceEventKind::StageEnd)
        .filter(|e| e.executor.is_none())
        .map(|e| (e.wall_ns - e.dur_ns, e.wall_ns))
        .collect();
    spans.sort_unstable();
    let mut out = StageSpans::default();
    let Some(&(first, _)) = spans.first() else { return out };
    out.last_end = first;
    for &(start, end) in &spans {
        out.stage_wall += end - start;
        out.gaps += start.saturating_sub(out.last_end);
        out.last_end = out.last_end.max(end);
    }
    out
}

/// The ledger's time decomposition of a set of jobs, in seconds.
#[derive(Default, Debug, Clone, Copy)]
pub struct Reconcile {
    /// Share of the datagen term the tolerance allows (see above).
    pub datagen_share: f64,
    pub wall: f64,
    pub datagen: f64,
    pub stage_wall: f64,
    pub unattributed: f64,
    pub jobs: usize,
}

impl Reconcile {
    pub fn add(&mut self, wall: Duration, datagen: Duration, spans: StageSpans, job_end_ns: u64) {
        self.wall += wall.as_secs_f64();
        self.datagen += datagen.as_secs_f64();
        self.stage_wall += ns(spans.stage_wall);
        self.unattributed += ns(spans.gaps + job_end_ns.saturating_sub(spans.last_end));
        self.jobs += 1;
    }

    pub fn residual(&self) -> f64 {
        self.wall - (self.datagen + self.stage_wall + self.unattributed)
    }

    pub fn tolerance(&self) -> f64 {
        self.datagen_share * self.datagen
            + RECONCILE_REL * self.wall
            + RECONCILE_ABS_S * self.jobs as f64
    }

    pub fn holds(&self) -> bool {
        self.jobs > 0 && self.residual().abs() <= self.tolerance()
    }
}

fn ns(n: u64) -> f64 {
    n as f64 * 1e-9
}

/// Trace-derived counts shared by both ledgers.
#[derive(Default)]
struct TraceCounts {
    handover_pages: u64,
    handover_bytes: u64,
    groups_released: u64,
    released_bytes: u64,
    steals: u64,
}

impl TraceCounts {
    fn add(&mut self, trace: &RunTrace) {
        for e in &trace.events {
            match e.kind {
                TraceEventKind::PageHandover => {
                    self.handover_pages += e.count;
                    self.handover_bytes += e.bytes;
                }
                TraceEventKind::PageGroupRelease => {
                    self.groups_released += 1;
                    self.released_bytes += e.bytes;
                }
                TraceEventKind::TaskSteal => self.steals += 1,
                _ => {}
            }
        }
    }
}

/// Collector and cache counters of the physical executors, summed.
#[derive(Clone, Debug, Default)]
pub struct ExecSnapshot {
    pub gc: Vec<GcStats>,
    pub cache: Vec<CacheStats>,
    pub resident_page_bytes: usize,
}

impl ExecSnapshot {
    pub fn of_session(session: &ClusterSession) -> ExecSnapshot {
        let mut snap = ExecSnapshot::default();
        for i in 0..session.executors() {
            let e = session.executor(i);
            snap.gc.push(e.heap_stats().clone());
            snap.cache.push(e.cache_stats());
            snap.resident_page_bytes += e.mm.resident_bytes();
        }
        snap
    }
}

/// Counters accumulated between two snapshots of the same executors.
#[derive(Default)]
struct HeapDelta {
    minor: u64,
    full: u64,
    traced: u64,
    copied: u64,
    promoted: u64,
    max_pause: Duration,
    evictions: u64,
    demotions: u64,
    spill_write: u64,
    spill_read: u64,
    resident_page_bytes: i64,
}

fn delta(before: &ExecSnapshot, after: &ExecSnapshot) -> HeapDelta {
    let mut d = HeapDelta::default();
    for (i, a) in after.gc.iter().enumerate() {
        let b = before.gc.get(i).cloned().unwrap_or_default();
        d.minor += a.minor_collections - b.minor_collections;
        d.full += a.full_collections - b.full_collections;
        d.traced += a.objects_traced - b.objects_traced;
        d.copied += a.bytes_copied - b.bytes_copied;
        d.promoted += a.bytes_promoted - b.bytes_promoted;
        let pause = a
            .events_since(b.events.len())
            .iter()
            .filter(|e| e.kind.is_pause())
            .map(|e| e.duration)
            .max()
            .unwrap_or_default();
        d.max_pause = d.max_pause.max(pause);
    }
    for (i, a) in after.cache.iter().enumerate() {
        let b = before.cache.get(i).cloned().unwrap_or_default();
        d.evictions += a.evictions - b.evictions;
        d.demotions += a.demotions - b.demotions;
        d.spill_write += a.spill_write_bytes - b.spill_write_bytes;
        d.spill_read += a.spill_read_bytes - b.spill_read_bytes;
    }
    d.resident_page_bytes = after.resident_page_bytes as i64 - before.resident_page_bytes as i64;
    d
}

/// Sums over the jobs a ledger covers (divided by `jobs` on output).
#[derive(Default)]
struct Totals {
    jobs: usize,
    gc_pause: f64,
    ser: f64,
    deser: f64,
    shuffle_write: f64,
    shuffle_read: f64,
    shuffle_bytes: u64,
    cache_bytes: u64,
    io_sim: f64,
    tasks: u64,
    attempts: u64,
    queue_wait: f64,
    plan_us: f64,
    trace: TraceCounts,
}

/// Per-mode context of a ledger.
pub struct LedgerInput<'a> {
    /// `"spark"` or `"deca"`: the metric-name prefix.
    pub mode: &'a str,
    pub reconcile: Reconcile,
    pub overhead_pct: f64,
}

fn emit(input: &LedgerInput, t: &Totals, d: &HeapDelta) -> Ledger {
    let jobs = t.jobs.max(1) as f64;
    let per = |v: f64| v / jobs;
    let m = input.mode;
    let mut l = Ledger::default();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        l.put(&format!("{m}.{name}"), value, unit);
    };
    put("heap.gc_pause_s", per(t.gc_pause), "s");
    put("heap.minor_gcs", per(d.minor as f64), "count");
    put("heap.full_gcs", per(d.full as f64), "count");
    put("heap.objects_traced", per(d.traced as f64), "count");
    put("heap.bytes_copied", per(d.copied as f64), "bytes");
    put("heap.bytes_promoted", per(d.promoted as f64), "bytes");
    put("heap.max_pause_ms", d.max_pause.as_secs_f64() * 1e3, "ms");
    if m == "deca" {
        put("udt.plan_us", per(t.plan_us), "us");
        put("core.handover_pages", per(t.trace.handover_pages as f64), "count");
        put("core.handover_bytes", per(t.trace.handover_bytes as f64), "bytes");
        put("core.page_groups_released", per(t.trace.groups_released as f64), "count");
        let page_bytes = t.trace.released_bytes as f64 + d.resident_page_bytes.max(0) as f64;
        put("core.page_bytes", per(page_bytes), "bytes");
    }
    put("serde.ser_s", per(t.ser), "s");
    put("serde.deser_s", per(t.deser), "s");
    put("shuffle.write_s", per(t.shuffle_write), "s");
    put("shuffle.read_s", per(t.shuffle_read), "s");
    put("shuffle.bytes", per(t.shuffle_bytes as f64), "bytes");
    put("cache.bytes", per(t.cache_bytes as f64), "bytes");
    put("cache.evictions", per(d.evictions as f64), "count");
    put("cache.demotions", per(d.demotions as f64), "count");
    put("cache.spill_write_bytes", per(d.spill_write as f64), "bytes");
    put("cache.spill_read_bytes", per(d.spill_read as f64), "bytes");
    let reread = if d.spill_write == 0 { 0.0 } else { d.spill_read as f64 / d.spill_write as f64 };
    put("cache.spill_reread_ratio", reread, "ratio");
    put("cache.io_sim_s", per(t.io_sim), "s");
    put("driver.tasks", per(t.tasks as f64), "count");
    put("driver.attempts", per(t.attempts as f64), "count");
    let useful = if t.attempts == 0 { 0.0 } else { t.tasks as f64 / t.attempts as f64 };
    put("driver.useful_attempt_ratio", useful, "ratio");
    let r = &input.reconcile;
    put("driver.stage_wall_s", per(r.stage_wall), "s");
    put("driver.unattributed_s", per(r.unattributed), "s");
    put("server.queue_wait_s", per(t.queue_wait), "s");
    put("server.steals", per(t.trace.steals as f64), "count");
    put("apps.datagen_s", per(r.datagen), "s");
    put("trace.overhead_pct", input.overhead_pct, "%");
    l
}

/// The ledger of one traced standalone job (fresh session, so its
/// executors' counters are the job's own).
pub fn standalone_ledger(input: &LedgerInput, run: &Standalone, plan: Duration) -> Ledger {
    let session = run.session.as_ref().expect("traced job finished");
    let job = session.job_summary();
    let mut t = Totals {
        jobs: 1,
        gc_pause: job.gc.as_secs_f64(),
        ser: job.ser.as_secs_f64(),
        deser: job.deser.as_secs_f64(),
        shuffle_write: job.shuffle_write.as_secs_f64(),
        shuffle_read: job.shuffle_read.as_secs_f64(),
        shuffle_bytes: session.shuffle_bytes(),
        cache_bytes: run.cache_bytes as u64,
        io_sim: job.io.as_secs_f64(),
        tasks: session.total_tasks() as u64,
        attempts: job.attempts,
        queue_wait: 0.0,
        plan_us: plan.as_secs_f64() * 1e6,
        trace: TraceCounts::default(),
    };
    t.trace.add(&session.merged_trace());
    emit(input, &t, &delta(&ExecSnapshot::default(), &ExecSnapshot::of_session(session)))
}

/// The ledger of a traced closed loop: per-job means over `jobs`, with
/// executor counters from snapshots taken before and after the loop.
/// `datagen`/`plan` give each catalogue entry's separately timed cost.
pub fn server_ledger(
    input: &LedgerInput,
    jobs: &[ServedJob],
    before: &ExecSnapshot,
    after: &ExecSnapshot,
    plan: &[Duration],
) -> Ledger {
    let mut t = Totals::default();
    for j in jobs {
        let Some(out) = &j.output else { continue };
        let m = &out.metrics;
        t.jobs += 1;
        t.gc_pause += m.gc.as_secs_f64();
        t.ser += m.ser.as_secs_f64();
        t.deser += m.deser.as_secs_f64();
        t.shuffle_write += m.shuffle_write.as_secs_f64();
        t.shuffle_read += m.shuffle_read.as_secs_f64();
        t.shuffle_bytes += out.stages.iter().map(|s| s.shuffle_bytes).sum::<u64>();
        t.cache_bytes += out.cache_bytes as u64;
        t.io_sim += m.io.as_secs_f64();
        t.tasks += out.stages.iter().map(|s| s.tasks as u64).sum::<u64>();
        t.attempts += m.attempts;
        t.queue_wait += j.queue_wait.as_secs_f64();
        t.plan_us += plan[j.sample.variant].as_secs_f64() * 1e6;
        t.trace.add(&out.trace);
    }
    emit(input, &t, &delta(before, after))
}

/// Reconcile served jobs' body time: the server session's trace epoch is
/// taken as the runner entering the body (they are microseconds apart).
pub fn server_reconcile(jobs: &[ServedJob], datagen: &[Duration]) -> Reconcile {
    let mut r = Reconcile { datagen_share: DATAGEN_SHARE_SERVED, ..Reconcile::default() };
    for j in jobs {
        let Some(out) = &j.output else { continue };
        let spans = stage_spans(&out.trace);
        let body_ns = u64::try_from(j.body.as_nanos()).unwrap_or(u64::MAX);
        r.add(j.body, datagen[j.sample.variant], spans, body_ns);
    }
    r
}
