//! The daemon core: admission control, worker pool, crash recovery.
//!
//! A [`Daemon`] owns a write-ahead [`Ledger`], a [`FairQueue`], and a pool
//! of worker threads driving jobs through the workflow engine's controlled
//! loop ([`dfl_workflows::run_controlled`]). The transport layer (`net`)
//! and in-process tests both talk to it through [`Daemon::handle`], one
//! parsed request at a time.
//!
//! # Crash safety
//!
//! Every externally visible transition is written to the ledger *before*
//! it is acknowledged: a submit is `accepted` only once its `Queued`
//! record is durable, a worker marks `Running` before dispatching, and
//! results are written to their own file (atomic rename) before the `Done`
//! transition lands. [`Daemon::start`] therefore recovers from `kill -9`
//! at any instant: `Queued` jobs re-enter the queue, `Running` jobs resume
//! from their latest readable checkpoint manifest (torn ones skipped with
//! typed warnings), and the deterministic engine makes the recovered
//! result byte-identical to an uninterrupted run's.
//!
//! # Isolation
//!
//! Jobs run under `catch_unwind`: a panicking worker closure becomes a
//! typed `failed` job, not a dead daemon. An armed chaos fault
//! ([`crate::proto::Request::chaos_at`]) kills only the job — unless
//! [`ServeConfig::abort_on_chaos`] is set, in which case the whole process
//! aborts at the exact dispatch index, which is how the chaos harness
//! produces real `kill -9`s at seeded points.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dfl_iosim::SimError;
use dfl_obs::timeline::SpanOutcome;
use dfl_obs::{
    chrome_trace, exponential_buckets, jsonl, labeled, prometheus_text, HistogramId,
    MetricsRegistry, MetricsSnapshot, ObsConfig,
};
use dfl_workflows::{
    catalog, resume_controlled, run_controlled, CheckpointConfig, CheckpointError,
    ControlledOptions, ControlledOutcome, EngineError, PreemptCause, RunResult, StepControl,
    WatchOptions, WindowSummary,
};
use serde::{Number, Value};

use crate::health::{Health, HealthConfig, HealthDiagnosis, HealthSample, TenantObs};
use crate::ledger::{JobRecord, JobState, Ledger};
use crate::obs::ServeObs;
use crate::proto::{resp, RejectReason, Request};
use crate::sched::FairQueue;

/// Bounded ring of recent health diagnoses kept for `metrics` replies.
const DIAG_RING: usize = 64;

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where the ledger, per-job checkpoints, result files, and transport
    /// endpoints live. The daemon's whole durable state is this directory.
    pub state_dir: PathBuf,
    /// Admission queue capacity; submits beyond it are shed with
    /// `rejected{reason:"capacity"}`.
    pub queue_cap: usize,
    /// Worker threads. Zero is allowed (admission and queueing only — jobs
    /// wait for a restart with workers; tests use this to exercise
    /// admission deterministically).
    pub workers: usize,
    /// Per-job checkpoint cadence in sim-time ms.
    pub ckpt_ms: u64,
    /// Per-job stream window width in sim-time ms.
    pub window_ms: u64,
    /// Abort the whole process (as if `kill -9`ed) when a job's armed
    /// chaos fault fires — the deterministic crash injector behind
    /// `datalife chaos --serve`. Off: the chaos kill strands the job in
    /// `running` (the daemon survives; restart recovers the job).
    pub abort_on_chaos: bool,
    /// Wall-clock health watchdog thresholds (queue-stall, shed-spike,
    /// ledger-latency, tenant-starvation).
    pub health: HealthConfig,
    /// Health monitor poll cadence in wall ms. `0` disables the monitor
    /// thread; detectors can still be driven deterministically via
    /// [`Daemon::health_tick`] (what the tests do).
    pub health_poll_ms: u64,
}

impl ServeConfig {
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            state_dir: state_dir.into(),
            queue_cap: 64,
            workers: 2,
            ckpt_ms: 25,
            window_ms: 100,
            abort_on_chaos: false,
            health: HealthConfig::default(),
            health_poll_ms: 200,
        }
    }
}

/// One message to a `stream` subscriber.
enum StreamMsg {
    Line(String),
    /// Terminal line; the subscriber loop ends after emitting it.
    End(String),
}

/// Mutable daemon state, one mutex.
struct Core {
    ledger: Ledger,
    queue: FairQueue,
    /// Jobs currently on a worker.
    running: HashSet<u64>,
    /// Cancellation flags polled by running jobs at pause points.
    cancel: HashSet<u64>,
    draining: bool,
    shutdown: bool,
    subs: HashMap<u64, Vec<SyncSender<StreamMsg>>>,
    metrics: MetricsRegistry,
    /// Wall-clock lifecycle recorder (spans/instants; never sim state).
    obs: ServeObs,
    /// Edge-triggered wall-clock health detectors.
    health: Health,
    /// Recent diagnoses, surfaced in `metrics` replies.
    diags: VecDeque<HealthDiagnosis>,
    /// Cumulative capacity sheds (shed-spike detector input).
    sheds: u64,
    /// Worst ledger commit latency (µs) since the last health tick.
    max_commit_us: u64,
    /// Wall ms of the most recent dispatch (0 = none yet).
    last_dispatch_ms: u64,
    /// Per-tenant wall ms of last dispatch (or first enqueue if never
    /// served) — the starvation detector's waiting-since clock.
    tenant_wait: HashMap<String, u64>,
    /// Ledger-derived durable-state gauges, seeded by replay at start and
    /// maintained incrementally after.
    jobs_completed: u64,
    jobs_recovered: u64,
    /// Open client connections (gauge backing store).
    conns_open: u64,
    h_submit_us: HistogramId,
    h_commit_us: HistogramId,
    h_job_wall_ms: HistogramId,
}

impl Core {
    fn count(&mut self, name: &str, by: u64) {
        let id = self.metrics.counter(name);
        self.metrics.inc(id, by);
    }

    fn set_gauge(&mut self, name: &str, value: f64) {
        let id = self.metrics.gauge(name);
        self.metrics.set(id, value);
    }

    fn gauges(&mut self) {
        let q = self.queue.len() as f64;
        let r = self.running.len() as f64;
        self.set_gauge("serve_queue_depth", q);
        self.set_gauge("serve_running", r);
        self.set_gauge("serve_jobs_total", self.ledger.jobs().len() as f64);
        self.set_gauge("serve_jobs_completed", self.jobs_completed as f64);
        self.set_gauge("serve_jobs_recovered", self.jobs_recovered as f64);
        self.set_gauge("serve_connections_open", self.conns_open as f64);
        // Per-tenant scheduler picture as labeled gauges (the label rides
        // inside the instrument name; the Prometheus writer splits it out).
        let mut running_by: HashMap<String, u64> = HashMap::new();
        for id in &self.running {
            if let Some(rec) = self.ledger.get(*id) {
                *running_by.entry(rec.tenant.clone()).or_insert(0) += 1;
            }
        }
        for st in self.queue.tenant_stats() {
            let l = |base: &str| labeled(base, &[("tenant", &st.name)]);
            self.set_gauge(&l("serve_tenant_queued"), st.queued as f64);
            self.set_gauge(&l("serve_tenant_vtime_lag"), st.vtime_lag as f64);
            self.set_gauge(&l("serve_tenant_dispatched"), st.dispatched as f64);
            let running = running_by.get(&st.name).copied().unwrap_or(0);
            self.set_gauge(&l("serve_tenant_running"), running as f64);
        }
    }

    /// The write-ahead commit, timed: every ledger write feeds the commit
    /// latency histogram, the wall timeline, and the slow-commit detector.
    fn commit_ledger(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let r = self.ledger.commit();
        let us = t.elapsed().as_micros() as u64;
        self.metrics.observe(self.h_commit_us, us as f64);
        self.count("serve_ledger_commits", 1);
        self.obs.ledger_commit(us);
        self.max_commit_us = self.max_commit_us.max(us);
        r
    }

    /// Sends the terminal line to (and drops) all subscribers of `job`.
    fn end_streams(&mut self, job: u64, line: &str) {
        for tx in self.subs.remove(&job).unwrap_or_default() {
            let _ = tx.try_send(StreamMsg::End(line.to_owned()));
        }
    }
}

/// Runs every health detector against the daemon's current wall-clock
/// state, recording fired diagnoses (counter + timeline instant + ring).
fn tick_health(c: &mut Core, workers: usize) -> Vec<HealthDiagnosis> {
    let now_ms = c.obs.now_ms();
    let tenants = c
        .queue
        .tenant_stats()
        .into_iter()
        .map(|st| TenantObs {
            waiting_since_ms: c.tenant_wait.get(&st.name).copied().unwrap_or(0),
            name: st.name,
            queued: st.queued,
        })
        .collect();
    let sample = HealthSample {
        now_ms,
        queue_depth: c.queue.len(),
        running: c.running.len(),
        workers,
        draining: c.draining,
        sheds: c.sheds,
        max_commit_us: std::mem::take(&mut c.max_commit_us),
        last_dispatch_ms: c.last_dispatch_ms,
        tenants,
    };
    let fired = c.health.tick(&sample);
    for d in &fired {
        c.count("serve_diagnoses", 1);
        c.obs.diagnosis(d);
        c.diags.push_back(d.clone());
        while c.diags.len() > DIAG_RING {
            c.diags.pop_front();
        }
    }
    fired
}

struct Inner {
    cfg: ServeConfig,
    core: Mutex<Core>,
    cv: Condvar,
}

/// The analysis daemon. See the module docs.
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Daemon {
    /// Opens the state directory, recovers any jobs interrupted by a
    /// previous death, and spawns the worker pool.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, String> {
        let ledger = Ledger::open(&cfg.state_dir)?;
        // Pre-register every instrument so snapshot order is stable from
        // the first stats call.
        let mut metrics = MetricsRegistry::new();
        for name in [
            "serve_submitted",
            "serve_accepted",
            "serve_rejected_capacity",
            "serve_rejected_deadline",
            "serve_rejected_bad_request",
            "serve_rejected_draining",
            "serve_completed",
            "serve_failed",
            "serve_cancelled",
            "serve_deadline_preempted",
            "serve_parked",
            "serve_recovered",
            "serve_panics",
            "serve_chaos_crashes",
            "serve_torn_manifests",
            "serve_stale_checkpoints",
            "serve_stream_dropped",
            "serve_ledger_commits",
            "serve_diagnoses",
            "serve_connections",
            "serve_malformed",
            "serve_scrapes",
        ] {
            metrics.counter(name);
        }
        for name in [
            "serve_queue_depth",
            "serve_running",
            "serve_jobs_total",
            "serve_jobs_completed",
            "serve_jobs_recovered",
            "serve_connections_open",
            "serve_uptime_ms",
        ] {
            metrics.gauge(name);
        }
        // Wall-clock latencies span µs to seconds — exponential edges, not
        // the linear sim-time bounds (which would land everything in one
        // bucket).
        let h_submit_us = metrics.histogram("serve_submit_us", &exponential_buckets(50.0, 2.0, 16));
        let h_commit_us =
            metrics.histogram("serve_ledger_commit_us", &exponential_buckets(50.0, 2.0, 16));
        let h_job_wall_ms =
            metrics.histogram("serve_job_wall_ms", &exponential_buckets(1.0, 2.0, 20));

        let mut core = Core {
            ledger,
            queue: FairQueue::new(),
            running: HashSet::new(),
            cancel: HashSet::new(),
            draining: false,
            shutdown: false,
            subs: HashMap::new(),
            metrics,
            obs: ServeObs::new(),
            health: Health::new(cfg.health.clone()),
            diags: VecDeque::new(),
            sheds: 0,
            max_commit_us: 0,
            last_dispatch_ms: 0,
            tenant_wait: HashMap::new(),
            jobs_completed: 0,
            jobs_recovered: 0,
            conns_open: 0,
            h_submit_us,
            h_commit_us,
            h_job_wall_ms,
        };

        // Metrics replay: counters describing durable state are rebuilt
        // from the ledger, so a restart (including after `kill -9`) does
        // not zero the history of work already on disk.
        let mut by_state = [0u64; 6];
        for j in core.ledger.jobs() {
            let i = match j.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
                JobState::Deadline => 5,
            };
            by_state[i] += 1;
        }
        let total: u64 = by_state.iter().sum();
        core.count("serve_accepted", total);
        core.count("serve_completed", by_state[2]);
        core.count("serve_failed", by_state[3]);
        core.count("serve_cancelled", by_state[4]);
        core.count("serve_deadline_preempted", by_state[5]);
        core.jobs_completed = by_state[2];

        // Recovery: everything the previous incarnation left queued or
        // running goes back on the queue; `run_one` decides fresh-vs-resume
        // per job from its checkpoint directory.
        let interrupted: Vec<(String, u64, JobState)> = core
            .ledger
            .jobs()
            .iter()
            .filter(|j| j.state.needs_recovery())
            .map(|j| (j.tenant.clone(), j.id, j.state))
            .collect();
        for (tenant, id, state) in &interrupted {
            core.queue.push(tenant, *id);
            core.obs.job_queued(*id, tenant);
            let now_ms = core.obs.now_ms();
            core.tenant_wait.entry(tenant.clone()).or_insert(now_ms);
            if *state == JobState::Running {
                core.count("serve_recovered", 1);
                core.jobs_recovered += 1;
                core.ledger.set_state(*id, JobState::Queued, "recovered: queued for resume");
            }
        }
        if !interrupted.is_empty() {
            core.commit_ledger()?;
        }
        core.gauges();

        let inner = Arc::new(Inner { cfg: cfg.clone(), core: Mutex::new(core), cv: Condvar::new() });
        let mut workers: Vec<JoinHandle<()>> = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dfl-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        if cfg.health_poll_ms > 0 {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("dfl-serve-health".to_owned())
                    .spawn(move || health_loop(&inner))
                    .expect("spawn health monitor"),
            );
        }
        Ok(Daemon { inner, workers: Mutex::new(workers) })
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.inner.core.lock().unwrap()
    }

    /// Parses and handles one request line. Returns `true` when the client
    /// asked the daemon to shut down (the transport layer stops serving).
    pub fn handle_line(&self, line: &str, emit: &mut dyn FnMut(String)) -> bool {
        match Request::parse(line) {
            Ok(req) => self.handle(req, emit),
            Err(e) => {
                self.lock().count("serve_malformed", 1);
                emit(resp::error(&e));
                false
            }
        }
    }

    /// Handles one parsed request, emitting response lines. `stream`
    /// blocks in here, pumping window lines until the job is terminal.
    pub fn handle(&self, req: Request, emit: &mut dyn FnMut(String)) -> bool {
        match req.op.as_str() {
            "ping" => emit(resp::pong()),
            "submit" => emit(self.submit(&req)),
            "status" => emit(self.status(req.job)),
            "cancel" => emit(self.cancel(req.job)),
            "stats" => {
                let c = self.lock();
                emit(resp::stats(&c.metrics.snapshot()));
            }
            "metrics" => emit(self.metrics_reply()),
            "trace" => {
                let c = self.lock();
                let tl = c.obs.timeline(&c.metrics);
                emit(resp::trace(&chrome_trace(&tl), &jsonl(&tl)));
            }
            "drain" => {
                self.drain();
                emit(resp::ok("drained"));
            }
            "shutdown" => {
                self.drain();
                emit(resp::ok("shutdown"));
                return true;
            }
            "stream" => self.stream(req.job, emit),
            other => emit(resp::error(&format!("unknown op '{other}'"))),
        }
        false
    }

    /// Convenience for tests: handles one line, collecting every emitted
    /// response line.
    pub fn request(&self, line: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.handle_line(line, &mut |l| out.push(l));
        out
    }

    /// Current metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().metrics.snapshot()
    }

    /// The Prometheus text-exposition page (what `GET /metrics` on the
    /// scrape listener serves).
    pub fn prometheus(&self) -> String {
        let mut c = self.lock();
        c.count("serve_scrapes", 1);
        let up = c.obs.now_ms() as f64;
        c.set_gauge("serve_uptime_ms", up);
        c.gauges();
        prometheus_text(&c.metrics.snapshot())
    }

    /// The typed wall-clock `metrics` reply (what `datalife top` polls):
    /// queue/worker picture, per-tenant scheduler accounting, latency
    /// quantiles, raw counters/gauges, and recent health diagnoses.
    pub fn metrics_reply(&self) -> String {
        let mut c = self.lock();
        let up = c.obs.now_ms();
        c.set_gauge("serve_uptime_ms", up as f64);
        c.gauges();
        let n = |x: u64| Value::Number(Number::U64(x));
        let f = |x: f64| Value::Number(Number::F64(x));
        let s = |x: &str| Value::String(x.to_owned());
        let mut running_by: HashMap<String, u64> = HashMap::new();
        for id in &c.running {
            if let Some(rec) = c.ledger.get(*id) {
                *running_by.entry(rec.tenant.clone()).or_insert(0) += 1;
            }
        }
        let tenants = Value::Array(
            c.queue
                .tenant_stats()
                .into_iter()
                .map(|st| {
                    Value::Object(vec![
                        ("name".to_owned(), s(&st.name)),
                        ("queued".to_owned(), n(st.queued as u64)),
                        (
                            "running".to_owned(),
                            n(running_by.get(&st.name).copied().unwrap_or(0)),
                        ),
                        ("vtime_lag".to_owned(), n(st.vtime_lag)),
                        ("dispatched".to_owned(), n(st.dispatched)),
                    ])
                })
                .collect(),
        );
        let snap = c.metrics.snapshot();
        let hist = |name: &str| {
            let h = snap.histogram(name).expect("pre-registered histogram");
            Value::Object(vec![
                ("p50".to_owned(), f(h.quantile(0.5))),
                ("p99".to_owned(), f(h.quantile(0.99))),
                ("mean".to_owned(), f(h.mean())),
                ("max".to_owned(), f(h.max)),
                ("count".to_owned(), n(h.count)),
            ])
        };
        let latency = Value::Object(vec![
            ("submit_us".to_owned(), hist("serve_submit_us")),
            ("ledger_commit_us".to_owned(), hist("serve_ledger_commit_us")),
            ("job_wall_ms".to_owned(), hist("serve_job_wall_ms")),
        ]);
        let counters =
            Value::Object(snap.counters.iter().map(|x| (x.name.clone(), n(x.value))).collect());
        let gauges =
            Value::Object(snap.gauges.iter().map(|x| (x.name.clone(), f(x.value))).collect());
        let diagnoses = Value::Array(c.diags.iter().map(|d| d.to_value()).collect());
        resp::metrics(vec![
            ("uptime_ms", n(up)),
            ("queue_depth", n(c.queue.len() as u64)),
            ("running", n(c.running.len() as u64)),
            ("workers", n(self.inner.cfg.workers as u64)),
            ("draining", Value::Bool(c.draining)),
            ("tenants", tenants),
            ("latency", latency),
            ("counters", counters),
            ("gauges", gauges),
            ("diagnoses", diagnoses),
        ])
    }

    /// Runs the health detectors once against current wall-clock state —
    /// exactly what the monitor thread does every poll. Public so tests
    /// (with `health_poll_ms: 0`) drive detection deterministically.
    pub fn health_tick(&self) -> Vec<HealthDiagnosis> {
        let mut c = self.lock();
        tick_health(&mut c, self.inner.cfg.workers)
    }

    /// Transport hook: a client connection opened.
    pub fn conn_opened(&self) {
        let mut c = self.lock();
        c.count("serve_connections", 1);
        c.conns_open += 1;
        let v = c.conns_open as f64;
        c.set_gauge("serve_connections_open", v);
    }

    /// Transport hook: a client connection closed.
    pub fn conn_closed(&self) {
        let mut c = self.lock();
        c.conns_open = c.conns_open.saturating_sub(1);
        let v = c.conns_open as f64;
        c.set_gauge("serve_connections_open", v);
    }

    /// Admission: every check produces a typed rejection; a job is
    /// `accepted` only after its ledger record is durable.
    fn submit(&self, req: &Request) -> String {
        let t_submit = Instant::now();
        let mut c = self.lock();
        c.count("serve_submitted", 1);
        let workers = self.inner.cfg.workers;
        let reject = |c: &mut Core, r: RejectReason, d: &str| {
            c.count(&format!("serve_rejected_{}", r.label()), 1);
            let depth = c.queue.len() as u64;
            // Only load sheds carry a back-off hint: a bad request will be
            // just as bad in 250ms.
            let hint = matches!(r, RejectReason::Capacity | RejectReason::Draining)
                .then(|| retry_after_hint(depth, workers));
            if r == RejectReason::Capacity {
                c.sheds += 1;
            }
            c.obs.shed(r.label(), depth);
            resp::rejected(r, d, depth, hint)
        };
        if c.draining || c.shutdown {
            return reject(&mut c, RejectReason::Draining, "daemon is draining");
        }
        if req.deadline_ms == Some(0) {
            return reject(
                &mut c,
                RejectReason::Deadline,
                "deadline already exhausted at admission (zero sim-time budget)",
            );
        }
        let Some(workflow) = req.workflow.clone() else {
            return reject(&mut c, RejectReason::BadRequest, "submit requires a workflow");
        };
        let scale = req.scale.clone().unwrap_or_else(|| "tiny".into());
        if let Err(e) = catalog::Scale::parse(&scale) {
            return reject(&mut c, RejectReason::BadRequest, &e);
        }
        if !catalog::WORKFLOWS.contains(&workflow.as_str()) {
            return reject(
                &mut c,
                RejectReason::BadRequest,
                &format!("unknown workflow '{workflow}'"),
            );
        }
        if c.queue.len() >= self.inner.cfg.queue_cap {
            return reject(
                &mut c,
                RejectReason::Capacity,
                &format!("admission queue at capacity ({})", self.inner.cfg.queue_cap),
            );
        }
        let tenant = req.tenant.clone().unwrap_or_else(|| "anon".into());
        let id = c.ledger.alloc_id();
        c.ledger.push(JobRecord {
            id,
            tenant: tenant.clone(),
            workflow,
            scale,
            nodes: req.nodes.unwrap_or(2).clamp(1, 64),
            seed: req.seed.unwrap_or(0),
            deadline_ms: req.deadline_ms,
            chaos_at: req.chaos_at,
            panic: req.panic.unwrap_or(false),
            state: JobState::Queued,
            detail: String::new(),
        });
        // Write-ahead: the accept reply exists only if this commit did.
        if let Err(e) = c.commit_ledger() {
            return resp::error(&format!("ledger write failed: {e}"));
        }
        c.queue.push(&tenant, id);
        c.count("serve_accepted", 1);
        c.obs.job_queued(id, &tenant);
        let now_ms = c.obs.now_ms();
        c.tenant_wait.entry(tenant).or_insert(now_ms);
        let us = t_submit.elapsed().as_micros() as f64;
        let h = c.h_submit_us;
        c.metrics.observe(h, us);
        c.gauges();
        self.inner.cv.notify_all();
        resp::accepted(id)
    }

    fn status(&self, job: Option<u64>) -> String {
        let c = self.lock();
        match job.and_then(|id| c.ledger.get(id)) {
            Some(j) => resp::job(j.id, j.state.label(), &j.detail, &j.tenant),
            None => resp::error("unknown job"),
        }
    }

    fn cancel(&self, job: Option<u64>) -> String {
        let mut c = self.lock();
        let Some(rec) = job.and_then(|id| c.ledger.get(id)).cloned() else {
            return resp::error("unknown job");
        };
        match rec.state {
            // Worker dispatch holds the same lock, so `Queued` here means
            // the job really is still in the queue.
            JobState::Queued if c.queue.remove(rec.id) => {
                c.ledger.set_state(rec.id, JobState::Cancelled, "cancelled before dispatch");
                if let Err(e) = c.commit_ledger() {
                    return resp::error(&format!("ledger write failed: {e}"));
                }
                c.count("serve_cancelled", 1);
                c.obs.job_dequeued(rec.id);
                c.gauges();
                let line =
                    resp::job(rec.id, "cancelled", "cancelled before dispatch", &rec.tenant);
                c.end_streams(rec.id, &line);
                line
            }
            JobState::Queued | JobState::Running => {
                // Preempted at the job's next pause point via the control
                // callback; the state is parked, not discarded.
                c.cancel.insert(rec.id);
                resp::job(rec.id, rec.state.label(), "cancel requested", &rec.tenant)
            }
            terminal => resp::job(rec.id, terminal.label(), &rec.detail, &rec.tenant),
        }
    }

    /// Blocks pumping `window` lines for `job` until it reaches a terminal
    /// state (or was already terminal).
    fn stream(&self, job: Option<u64>, emit: &mut dyn FnMut(String)) {
        let rx: Receiver<StreamMsg> = {
            let mut c = self.lock();
            let Some(rec) = job.and_then(|id| c.ledger.get(id)).cloned() else {
                emit(resp::error("unknown job"));
                return;
            };
            match rec.state {
                JobState::Queued | JobState::Running => {
                    let (tx, rx) = sync_channel(256);
                    c.subs.entry(rec.id).or_default().push(tx);
                    rx
                }
                terminal => {
                    emit(resp::job(rec.id, terminal.label(), &rec.detail, &rec.tenant));
                    return;
                }
            }
        };
        loop {
            match rx.recv() {
                Ok(StreamMsg::Line(l)) => emit(l),
                Ok(StreamMsg::End(l)) => {
                    emit(l);
                    return;
                }
                // Sender dropped without a terminal line (chaos kill path):
                // report the job's current state and stop.
                Err(_) => {
                    emit(self.status(job));
                    return;
                }
            }
        }
    }

    /// Graceful drain: stop admitting, preempt running jobs at their next
    /// pause point (their state parks in checkpoint manifests), and return
    /// once the pool is idle. Queued and parked jobs stay in the ledger
    /// for a later restart to pick up.
    pub fn drain(&self) {
        let mut c = self.lock();
        c.draining = true;
        self.inner.cv.notify_all();
        while !c.running.is_empty() {
            c = self.inner.cv.wait(c).unwrap();
        }
    }

    /// Drains, stops the workers, and joins them.
    pub fn shutdown(&self) {
        self.drain();
        {
            let mut c = self.lock();
            c.shutdown = true;
            self.inner.cv.notify_all();
        }
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let rec: JobRecord = {
            let mut c = inner.core.lock().unwrap();
            loop {
                if c.shutdown {
                    return;
                }
                if !c.draining {
                    if let Some((tenant, id)) = c.queue.pop() {
                        c.ledger.set_state(id, JobState::Running, "running");
                        if let Err(e) = c.commit_ledger() {
                            eprintln!("serve: ledger write failed: {e}");
                        }
                        c.running.insert(id);
                        c.obs.job_dispatched(id, &tenant);
                        // `.max(1)`: 0 is the "never dispatched" sentinel.
                        let now_ms = c.obs.now_ms().max(1);
                        c.last_dispatch_ms = now_ms;
                        c.tenant_wait.insert(tenant, now_ms);
                        c.gauges();
                        break c.ledger.get(id).expect("queued job has a record").clone();
                    }
                }
                c = inner.cv.wait(c).unwrap();
            }
        };
        run_one(inner, &rec);
    }
}

/// Runs one job start-to-terminal-state, with panic isolation.
fn run_one(inner: &Arc<Inner>, rec: &JobRecord) {
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(inner, rec)));
    let mut c = inner.core.lock().unwrap();
    c.running.remove(&rec.id);
    c.cancel.remove(&rec.id);
    let (state, detail) = match outcome {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => {
            if let EngineError::Sim(SimError::CoordinatorCrash { at_event }) = &e {
                // The armed chaos fault fired and `abort_on_chaos` is off:
                // model the kill without dying. The ledger keeps saying
                // `running` — exactly what a real `kill -9` leaves behind —
                // so a restarted daemon recovers the job by resume.
                c.count("serve_chaos_crashes", 1);
                c.obs.job_finished(rec.id, SpanOutcome::Cancelled);
                c.gauges();
                c.end_streams(
                    rec.id,
                    &resp::job(
                        rec.id,
                        JobState::Running.label(),
                        &format!("chaos kill at dispatch {at_event}; restart to recover"),
                        &rec.tenant,
                    ),
                );
                self_notify(inner);
                return;
            }
            (JobState::Failed, format!("engine error: {e}"))
        }
        Err(panic) => {
            c.count("serve_panics", 1);
            (JobState::Failed, format!("worker panic: {}", panic_message(&panic)))
        }
    };
    match state {
        JobState::Done => c.count("serve_completed", 1),
        JobState::Failed => c.count("serve_failed", 1),
        JobState::Cancelled => c.count("serve_cancelled", 1),
        JobState::Deadline => c.count("serve_deadline_preempted", 1),
        JobState::Running => c.count("serve_parked", 1),
        JobState::Queued => {}
    }
    let span_outcome = match state {
        JobState::Done => SpanOutcome::Ok,
        JobState::Failed => SpanOutcome::Failed,
        _ => SpanOutcome::Cancelled,
    };
    if let Some(wall_ms) = c.obs.job_finished(rec.id, span_outcome) {
        let h = c.h_job_wall_ms;
        c.metrics.observe(h, wall_ms);
    }
    if state == JobState::Done {
        c.jobs_completed += 1;
    }
    c.ledger.set_state(rec.id, state, &detail);
    if let Err(e) = c.commit_ledger() {
        eprintln!("serve: ledger write failed: {e}");
    }
    c.gauges();
    c.end_streams(rec.id, &resp::job(rec.id, state.label(), &detail, &rec.tenant));
    self_notify(inner);
}

fn self_notify(inner: &Arc<Inner>) {
    inner.cv.notify_all();
}

/// The health monitor thread: run every detector each poll, park on the
/// condvar between polls so shutdown wakes (and ends) it promptly.
fn health_loop(inner: &Arc<Inner>) {
    let poll = Duration::from_millis(inner.cfg.health_poll_ms.max(1));
    let mut c = inner.core.lock().unwrap();
    loop {
        if c.shutdown {
            return;
        }
        let fired = tick_health(&mut c, inner.cfg.workers);
        for d in &fired {
            eprintln!("serve: health: {} {} ({})", d.kind.label(), d.subject, d.detail);
        }
        let (guard, _) = inner.cv.wait_timeout(c, poll).unwrap();
        c = guard;
    }
}

/// Back-off hint for shed clients (ms): a rough queue-drain estimate
/// (~250ms of daemon work per queued job, split across the pool), clamped
/// to a sane band. With no workers nothing drains until a restart, so the
/// hint is just "a while".
fn retry_after_hint(queue_depth: u64, workers: usize) -> u64 {
    if workers == 0 {
        return 1000;
    }
    ((queue_depth * 250) / workers as u64).clamp(100, 5000)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Builds the job's `(spec, config)` from the catalog and drives it under
/// the controlled loop, resuming from checkpoints when the job directory
/// already has them (recovery). Returns the terminal `(state, detail)`.
fn execute(inner: &Arc<Inner>, rec: &JobRecord) -> Result<(JobState, String), EngineError> {
    if rec.panic {
        panic!("injected worker panic (submit had panic=true)");
    }
    let scale = catalog::Scale::parse(&rec.scale).map_err(EngineError::InvalidSpec)?;
    let (spec, mut cfg) =
        catalog::build(&rec.workflow, scale, rec.nodes as usize).map_err(EngineError::InvalidSpec)?;
    cfg.faults = cfg.faults.clone().seed(rec.seed);
    cfg.obs = Some(ObsConfig::default());
    let job_dir = inner.cfg.state_dir.join(format!("job-{}", rec.id));
    cfg.checkpoint =
        Some(CheckpointConfig::to_dir(&job_dir).every_sim_ns(inner.cfg.ckpt_ms.max(1) * 1_000_000));
    let opts = ControlledOptions {
        watch: WatchOptions {
            window_ns: inner.cfg.window_ms.max(1) * 1_000_000,
            ..WatchOptions::default()
        },
        deadline_ns: rec.deadline_ms.map(|ms| ms * 1_000_000),
    };

    let id = rec.id;
    let on_window = |w: &WindowSummary| push_window(inner, id, w);
    let control = || {
        let c = inner.core.lock().unwrap();
        if c.shutdown || c.draining || c.cancel.contains(&id) {
            StepControl::Preempt
        } else {
            StepControl::Continue
        }
    };

    // Fresh vs resume: a previous incarnation's checkpoints make this a
    // recovery. Chaos is armed only on fresh runs — a resumed simulator
    // must not re-fire the kill it already died from.
    let has_ckpts = std::fs::read_dir(&job_dir)
        .map(|d| d.filter_map(|e| e.ok()).count() > 0)
        .unwrap_or(false);
    let outcome = if has_ckpts {
        match resume_controlled(&spec, &cfg, &opts, on_window, control) {
            Ok((outcome, torn)) => {
                if !torn.is_empty() {
                    let mut c = inner.core.lock().unwrap();
                    c.count("serve_torn_manifests", torn.len() as u64);
                    for t in &torn {
                        eprintln!("serve: job {id}: {t}");
                    }
                }
                outcome
            }
            // Every manifest torn (killed during the very first write):
            // nothing usable, restart the deterministic run from scratch.
            Err(EngineError::Checkpoint(
                CheckpointError::AllTorn { torn, .. },
            )) => {
                {
                    let mut c = inner.core.lock().unwrap();
                    c.count("serve_torn_manifests", torn.len() as u64);
                }
                let _ = std::fs::remove_dir_all(&job_dir);
                run_fresh(inner, rec, &spec, &cfg, &opts)?
            }
            // Intact checkpoints this build cannot resume: an older
            // manifest or snapshot layout, a config-hash drift, or a
            // snapshot the simulator rejects. The ledger holds the submit
            // parameters and the run is deterministic, so a fresh run
            // yields the result the resume would have.
            Err(
                e @ (EngineError::Checkpoint(
                    CheckpointError::VersionMismatch { .. } | CheckpointError::HashMismatch { .. },
                )
                | EngineError::Sim(SimError::Snapshot(_))),
            ) => {
                eprintln!("serve: job {id}: discarding unusable checkpoints: {e}");
                inner.core.lock().unwrap().count("serve_stale_checkpoints", 1);
                let _ = std::fs::remove_dir_all(&job_dir);
                run_fresh(inner, rec, &spec, &cfg, &opts)?
            }
            Err(e) => return Err(e),
        }
    } else {
        run_fresh(inner, rec, &spec, &cfg, &opts)?
    };

    match outcome {
        ControlledOutcome::Completed(r) => {
            write_result(inner, rec, &r).map_err(|e| {
                eprintln!("serve: job {id}: result write failed: {e}");
                EngineError::InvalidSpec(format!("result write failed: {e}"))
            })?;
            Ok((JobState::Done, format!("ok: makespan {:.4}s", r.makespan_s)))
        }
        ControlledOutcome::Preempted { cause: PreemptCause::Deadline, sim_time_ns, .. } => {
            Ok((
                JobState::Deadline,
                format!("deadline preempted at {sim_time_ns}ns; attempt ledger parked"),
            ))
        }
        ControlledOutcome::Preempted {
            cause: PreemptCause::Control,
            sim_time_ns,
            parked_seq,
            ..
        } => {
            let cancelled = inner.core.lock().unwrap().cancel.contains(&id);
            let seq = parked_seq.map_or_else(|| "-".into(), |s| s.to_string());
            if cancelled {
                Ok((
                    JobState::Cancelled,
                    format!("cancelled at {sim_time_ns}ns (parked manifest seq {seq})"),
                ))
            } else {
                // Drain/shutdown: park as `running` so a restart resumes it.
                Ok((
                    JobState::Running,
                    format!("parked for drain at {sim_time_ns}ns (manifest seq {seq})"),
                ))
            }
        }
    }
}

/// Runs a job from scratch, arming its chaos fault (if any) and honoring
/// `abort_on_chaos` — the deterministic stand-in for `kill -9`.
fn run_fresh(
    inner: &Arc<Inner>,
    rec: &JobRecord,
    spec: &dfl_workflows::WorkflowSpec,
    cfg: &dfl_workflows::RunConfig,
    opts: &ControlledOptions,
) -> Result<ControlledOutcome, EngineError> {
    let mut cfg = cfg.clone();
    if let Some(at) = rec.chaos_at {
        cfg.faults = cfg.faults.chaos_crash(at);
    }
    let id = rec.id;
    let on_window = |w: &WindowSummary| push_window(inner, id, w);
    let control = || {
        let c = inner.core.lock().unwrap();
        if c.shutdown || c.draining || c.cancel.contains(&id) {
            StepControl::Preempt
        } else {
            StepControl::Continue
        }
    };
    match run_controlled(spec, &cfg, opts, on_window, control) {
        Err(EngineError::Sim(SimError::CoordinatorCrash { .. })) if inner.cfg.abort_on_chaos => {
            // Die exactly like kill -9: no unwinding, no ledger write, no
            // flush. The restart proves recovery.
            std::process::abort();
        }
        other => other,
    }
}

fn push_window(inner: &Arc<Inner>, job: u64, w: &WindowSummary) {
    let mut c = inner.core.lock().unwrap();
    if let Some(tenant) = c.ledger.get(job).map(|r| r.tenant.clone()) {
        c.obs.window(job, &tenant);
    }
    let Some(subs) = c.subs.get_mut(&job) else { return };
    let line = resp::window(job, w);
    let mut dropped = 0u64;
    subs.retain(|tx| match tx.try_send(StreamMsg::Line(line.clone())) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            // Slow consumer: drop the line, keep the subscription, count it.
            dropped += 1;
            true
        }
        Err(TrySendError::Disconnected(_)) => false,
    });
    if dropped > 0 {
        c.count("serve_stream_dropped", dropped);
    }
}

/// Writes `job-{id}-result.json` (atomic rename): the job's fingerprint —
/// reports plus *both* timeline exports — used by the chaos harness to
/// prove recovered runs byte-identical to uninterrupted ones. The makespan
/// travels as IEEE-754 bits so the comparison is exact, not formatted.
fn write_result(inner: &Arc<Inner>, rec: &JobRecord, r: &RunResult) -> Result<(), String> {
    let n = |x: u64| Value::Number(Number::U64(x));
    let s = |x: &str| Value::String(x.to_owned());
    let reports = Value::Array(
        r.reports
            .iter()
            .map(|j| {
                Value::Array(vec![s(&j.name), n(j.end_ns), Value::Bool(j.failed)])
            })
            .collect(),
    );
    let timeline = r.timeline.as_ref().ok_or("job ran without a timeline")?;
    let v = Value::Object(
        [
            ("job".to_owned(), n(rec.id)),
            ("workflow".to_owned(), s(&rec.workflow)),
            ("scale".to_owned(), s(&rec.scale)),
            ("nodes".to_owned(), n(rec.nodes)),
            ("seed".to_owned(), n(rec.seed)),
            ("makespan_bits".to_owned(), n(r.makespan_s.to_bits())),
            ("events_dispatched".to_owned(), n(r.events_dispatched)),
            ("reports".to_owned(), reports),
            ("chrome_trace".to_owned(), s(&chrome_trace(timeline))),
            ("jsonl".to_owned(), s(&jsonl(timeline))),
        ]
        .into_iter()
        .collect(),
    );
    let json = serde_json::to_string(&v).map_err(|e| e.to_string())?;
    let path = inner.cfg.state_dir.join(format!("job-{}-result.json", rec.id));
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    Ok(())
}
