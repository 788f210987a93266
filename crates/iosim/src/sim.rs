//! The discrete-event simulation engine: jobs, cores, I/O, caching, and
//! measurement.
//!
//! A *job* is one workflow task instance: a node assignment, a dependency
//! list, and a sequence of [`Action`]s (compute intervals and POSIX-style
//! I/O). Jobs occupy one core while running. I/O actions become flows in the
//! [`crate::flow::FlowNet`] fair-share bandwidth model, optionally
//! after a cache lookup ([`crate::cache::CacheState`]); every
//! operation is simultaneously reported to the attached
//! [`dfl_trace::Monitor`], producing DFL measurements as a side effect of
//! execution.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use dfl_obs::{ObsConfig, SpanKind, Timeline};
use dfl_trace::{IoTiming, Monitor, MonitorState, OpenMode, TaskContext, TaskSnapshot};
use serde::{Deserialize, Serialize};

use crate::breakdown::{Breakdown, FlowTag};
use crate::cache::{CacheConfig, CacheSnapshot, CacheState};
use crate::cluster::ClusterSpec;
use crate::error::{SimError, StuckJob};
use crate::fault::{ChaosKind, DegradeTarget, FailureCause, FailureReport, FaultPlan, JobFailure};
use crate::flow::{FlowKey, FlowNet, FlowNetSnapshot, FlowOwner, ResourceId};
use crate::fs::{FileIdx, FileMeta, SimFs};
use crate::obs::{SimObs, SimObsState};
use crate::storage::{TierKind, TierRef};
use crate::time::SimTime;

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u32);

/// One step of a job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Action {
    /// Pure computation for `ns` nanoseconds.
    Compute { ns: u64 },
    /// Open a file (pays the tier's metadata cost; starts trace shadowing).
    Open { file: String, write: bool },
    /// Read `len` bytes at `offset` (or the sequential cursor when `None`);
    /// `len == 0` means "to end of file".
    Read { file: String, offset: Option<u64>, len: u64 },
    /// Append `len` bytes. `tier` places the file on first write; default is
    /// the cluster's default tier.
    Write { file: String, len: u64, tier: Option<TierRef> },
    /// Close a file (flushes trace shadow state).
    Close { file: String },
    /// Copy a whole file to another tier (staging); subsequent readers pick
    /// the closest replica. `from` forces the copy source (e.g. always the
    /// WAN origin, as plain FTP would); `None` picks the closest replica.
    Stage { file: String, to: TierRef, from: Option<TierRef>, tag: FlowTag },
}

impl Action {
    /// Convenience: a whole-file sequential read (`open`, read-to-end,
    /// `close` are implied by the engine's implicit-open handling).
    pub fn read_file(file: &str) -> Action {
        Action::Read { file: file.into(), offset: None, len: 0 }
    }

    /// Convenience: an appending write of `len` bytes.
    pub fn write_file(file: &str, len: u64) -> Action {
        Action::Write { file: file.into(), len, tier: None }
    }

    pub fn compute_ms(ms: u64) -> Action {
        Action::Compute { ns: ms * 1_000_000 }
    }

    pub fn stage(file: &str, to: TierRef) -> Action {
        Action::Stage { file: file.into(), to, from: None, tag: FlowTag::Stage }
    }
}

/// A job specification (builder-style).
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub name: String,
    /// Logical (template) name; defaults to the prefix of `name` before `-`.
    pub logical: Option<String>,
    pub node: u32,
    pub actions: Vec<Action>,
    pub deps: Vec<JobId>,
    /// Arrival offset from simulation start, ns.
    pub submit_delay_ns: u64,
    /// Recovery work (lineage re-runs, re-staging): its flows are tagged
    /// [`FlowTag::Recovery`] so the breakdown shows what faults cost.
    pub recovery: bool,
}

impl JobSpec {
    pub fn new(name: &str, node: u32) -> Self {
        Self {
            name: name.to_owned(),
            logical: None,
            node,
            actions: Vec::new(),
            deps: Vec::new(),
            submit_delay_ns: 0,
            recovery: false,
        }
    }

    pub fn logical(mut self, logical: &str) -> Self {
        self.logical = Some(logical.to_owned());
        self
    }

    pub fn action(mut self, a: Action) -> Self {
        self.actions.push(a);
        self
    }

    pub fn actions(mut self, a: impl IntoIterator<Item = Action>) -> Self {
        self.actions.extend(a);
        self
    }

    pub fn dep(mut self, j: JobId) -> Self {
        self.deps.push(j);
        self
    }

    pub fn deps(mut self, ds: impl IntoIterator<Item = JobId>) -> Self {
        self.deps.extend(ds);
        self
    }

    pub fn delay_ns(mut self, ns: u64) -> Self {
        self.submit_delay_ns = ns;
        self
    }

    pub fn recovery(mut self, recovery: bool) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Which origins route through the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CacheOrigins {
    /// Only remote (WAN) reads are cached — TAZeR's primary use.
    #[default]
    RemoteOnly,
    /// All reads are cached.
    All,
}

/// When reads and transfers check content digests against the filesystem's
/// recorded values. Verification is not free: it costs extra simulated
/// latency proportional to the bytes checked (modeling a checksum pass at
/// ~4 bytes/ns), so "verify everything" vs "verify nothing and pay the
/// taint cone on detection" is a measurable trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VerifyPolicy {
    /// No verification: corruption propagates silently until an external
    /// check (or nothing) catches it.
    #[default]
    Off,
    /// Every read verifies the replica it is served from.
    OnRead,
    /// Every staging transfer verifies the source replica before copying.
    OnTransfer,
    /// Every `n`-th read per job verifies (1 behaves like `OnRead`;
    /// 0 disables, like `Off`). Models spot-checking.
    Sample(u32),
}

/// Simulation-wide configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Attach a DFL monitor (default: yes, with default config).
    pub monitor: Option<dfl_trace::MonitorConfig>,
    /// Enable a cache hierarchy.
    pub cache: Option<CacheConfig>,
    pub cache_origins: CacheOrigins,
    /// Buffered writes: tasks return from writes at memory speed while the
    /// data drains to its tier in the background — the Table 1 "write
    /// buffering" remediation. Consumers still wait for the producer *task*
    /// (the usual workflow dependency), not for the drain.
    pub write_buffering: bool,
    /// Fault schedule injected through the event loop. The default
    /// ([`FaultPlan::none`]) injects nothing and leaves the trajectory
    /// byte-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Content-digest verification on reads/transfers. The default
    /// ([`VerifyPolicy::Off`]) adds no latency and leaves the trajectory
    /// byte-identical to builds without the integrity machinery.
    pub verify: VerifyPolicy,
    /// Observability: record a sim-time timeline (spans, instants, samples)
    /// retrievable via [`Simulation::take_timeline`]. `None` (the default)
    /// disables recording entirely — the run pays one branch per potential
    /// emission site and allocates nothing.
    pub obs: Option<ObsConfig>,
}

impl Default for SimConfig {
    /// Measurement on by default: a monitor with default settings rides
    /// along, matching how the real collector shadows every workflow run.
    fn default() -> Self {
        SimConfig {
            monitor: Some(dfl_trace::MonitorConfig::default()),
            cache: None,
            cache_origins: CacheOrigins::default(),
            write_buffering: false,
            faults: FaultPlan::none(),
            verify: VerifyPolicy::Off,
            obs: None,
        }
    }
}

impl SimConfig {
    pub fn with_monitor() -> Self {
        SimConfig { monitor: Some(dfl_trace::MonitorConfig::default()), ..Default::default() }
    }

    pub fn with_cache(cache: CacheConfig) -> Self {
        SimConfig {
            monitor: Some(dfl_trace::MonitorConfig::default()),
            cache: Some(cache),
            ..Default::default()
        }
    }
}

/// Post-run per-job report.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub name: String,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub breakdown: Breakdown,
    /// This attempt failed (crash, transient I/O error, lost input); a
    /// replacement job carries the retry.
    pub failed: bool,
}

impl JobReport {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Lifecycle state of one job. Public only for snapshot transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    WaitingDeps,
    Queued,
    Running,
    Done,
    /// The attempt failed (crash, transient error, lost input). Terminal for
    /// this job; a coordination layer may resubmit a replacement.
    Failed,
}

/// Kind of an in-flight I/O action. Public only for snapshot transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoKind {
    Read,
    Write,
    Stage,
}

/// An I/O action between its latency event and its flow completions.
/// Public only for snapshot transport.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PendingIo {
    pub kind: IoKind,
    pub file: FileIdx,
    pub offset: u64,
    pub len: u64,
    pub started: SimTime,
    /// For staging: destination replica.
    pub stage_to: Option<TierRef>,
    /// The written/staged replica lands corrupt, tainted by this root file
    /// (decided up front so the outcome is schedule-independent).
    pub corrupt: Option<FileIdx>,
    /// Flow descriptors awaiting launch (after the latency event).
    pub launch: Vec<(Vec<ResourceId>, f64, FlowTag)>,
}

struct Job {
    name: String,
    logical: String,
    node: u32,
    actions: VecDeque<Action>,
    deps_left: usize,
    /// Original dependency list (kept for deadlock diagnostics).
    deps: Vec<u32>,
    dependents: Vec<u32>,
    state: JobState,
    pending_flows: usize,
    io: Option<PendingIo>,
    ctx: Option<TaskContext>,
    fds: HashMap<FileIdx, dfl_trace::handle::Fd>,
    cursor: HashMap<FileIdx, u64>,
    start: Option<SimTime>,
    end: Option<SimTime>,
    breakdown: Breakdown,
    submit_delay_ns: u64,
    /// Recovery work: flows tagged [`FlowTag::Recovery`].
    recovery: bool,
    /// Replacement (retry) for an earlier failed job: completing this job
    /// also releases the original's dependents.
    replaces: Option<u32>,
    /// Active flow keys (for cancellation when the job fails).
    flows: Vec<FlowKey>,
    /// Per-job I/O operation counter: the schedule-independent input to
    /// [`FaultPlan::io_op_fails`].
    io_ops: u64,
    /// Bytes this job has moved through the flow network.
    moved_bytes: f64,
    /// This attempt read corrupt data without verifying it: everything it
    /// writes from now on is tainted by this root file.
    taint: Option<FileIdx>,
    /// Reads issued by this job so far (drives [`VerifyPolicy::Sample`]).
    reads_seen: u64,
}

/// An entry in the simulator's event log. Public only for snapshot
/// transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Event {
    Arrive(u32),
    ComputeDone(u32),
    IoLatencyDone(u32),
    OpenDone(u32),
    /// Apply the pre-registered capacity change at this index.
    CapacityChange(u32),
    /// Crash `faults.crashes[i]` fires.
    NodeCrash(u32),
    /// The node of `faults.crashes[i]` restarts.
    NodeRecover(u32),
}

/// Named bandwidth resources for the cluster.
struct Resources {
    /// Shared tier resources by kind.
    shared: HashMap<TierKind, ResourceId>,
    /// Node-local tier resources: `[node][kind]`.
    node_tier: Vec<HashMap<TierKind, ResourceId>>,
    /// Per-node NIC.
    nic: Vec<ResourceId>,
    /// Cache-serving resources per level: either per-node or cluster-wide.
    cache_levels: Vec<CacheLevelRes>,
}

enum CacheLevelRes {
    PerNode(Vec<ResourceId>),
    Shared(ResourceId),
}

/// How a bounded run ended (see [`Simulation::run_to_incident`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every submitted job reached a terminal state with no failure left to
    /// report.
    Completed,
    /// One or more job attempts failed; the simulation is paused at the
    /// failure time so the caller can submit recovery/retry jobs.
    Failures(Vec<JobFailure>),
    /// A requested pause point was reached (see [`Simulation::set_pause_at`]
    /// and [`Simulation::set_pause_on_job_complete`]): the clock stands at
    /// the pause time, nothing has been dispatched past it, and calling
    /// `run_to_incident` again continues exactly where the run left off.
    /// Checkpoint policies snapshot at these transparent pause points.
    Paused,
}

/// Counters feeding [`Simulation::failure_report`]. Public only for
/// snapshot transport.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultStats {
    pub crashes: u32,
    pub transient_io_errors: u32,
    pub failed_attempts: u32,
    pub lost_replicas: u32,
    pub lost_files: u32,
    pub lost_bytes: u64,
    pub wasted_ns: u64,
    pub wasted_bytes: f64,
    pub recovery_bytes: f64,
    pub total_moved: f64,
    pub corruptions_injected: u32,
    pub corruptions_detected: u32,
    pub quarantined_files: u32,
    pub quarantined_bytes: u64,
    pub verified_bytes: u64,
}

/// The simulator.
pub struct Simulation {
    cluster: ClusterSpec,
    net: FlowNet,
    res: Resources,
    fs: SimFs,
    cache: Option<CacheState>,
    /// Per-level read latency (ns), derived from the cache config at
    /// construction (empty when `cache` is `None`).
    cache_lat: Vec<u64>,
    cache_origins: CacheOrigins,
    monitor: Option<Monitor>,
    jobs: Vec<Job>,
    /// Pending events inline in the heap entries (`(time, seq, event)`;
    /// `Event` is a two-word `Copy` payload, so there is no side event log
    /// to grow or slab to manage — queue memory is bounded by in-flight
    /// events). `seq` is unique, so the `Event` ordering is never consulted.
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    capacity_changes: Vec<(ResourceId, f64)>,
    write_buffering: bool,
    next_seq: u64,
    now: SimTime,
    free_cores: Vec<u32>,
    ready: Vec<VecDeque<u32>>,
    finished: usize,
    faults: FaultPlan,
    verify: VerifyPolicy,
    node_up: Vec<bool>,
    /// Failures observed since the last `run_to_incident` return.
    pending_failures: Vec<JobFailure>,
    /// A hard error raised inside an event handler (e.g. missing file).
    fatal: Option<SimError>,
    stats: FaultStats,
    /// Timeline recorder; `None` = observability disabled (zero overhead).
    obs: Option<Box<SimObs>>,
    /// The configuration this simulator was built from (embedded in
    /// snapshots so restore can rebuild the derived layout).
    config: SimConfig,
    /// Total dispatches so far (heap events + flow completions). Always
    /// counted: it is the chaos-plan coordinate system and rides along in
    /// snapshots so crash points line up across crash/resume boundaries.
    events_dispatched: u64,
    /// Armed chaos fault: the coordinator dies just before this dispatch.
    chaos: Option<ChaosKind>,
    /// Transparent pause request: return [`RunOutcome::Paused`] before
    /// dispatching anything strictly after this sim-time. One-shot.
    pause_at: Option<u64>,
    /// Pause after every job completion (stage-granular checkpoints).
    pause_on_job_complete: bool,
    /// A pause was requested by a completion hook; honored at loop top.
    pause_pending: bool,
}

impl Simulation {
    /// Builds a simulator for `cluster`. `config.monitor` controls DFL
    /// measurement: `SimConfig::default()` attaches a monitor with default
    /// settings, while an explicit `monitor: None` runs without one (and
    /// [`Simulation::measurements`] then returns `None`).
    pub fn new(cluster: ClusterSpec, config: SimConfig) -> Self {
        let retained_config = config.clone();
        let mut net = FlowNet::new();

        let mut shared = HashMap::new();
        for t in &cluster.tiers {
            if !t.kind.is_node_local() {
                shared.insert(t.kind, net.add_resource(&format!("tier:{}", t.kind.label()), t.read_bw));
            }
        }
        let mut node_tier = Vec::new();
        let mut nic = Vec::new();
        for n in 0..cluster.node_count() {
            let mut m = HashMap::new();
            for t in &cluster.tiers {
                if t.kind.is_node_local() {
                    m.insert(
                        t.kind,
                        net.add_resource(&format!("{}:{n}", t.kind.label()), t.read_bw),
                    );
                }
            }
            node_tier.push(m);
            nic.push(net.add_resource(&format!("nic:{n}"), cluster.nic_bw));
        }

        let cache = config.cache.map(CacheState::new);
        // Per-level read latencies, flattened out of the cache config once —
        // the read hot path maxes over these instead of cloning the level
        // table per access.
        let cache_lat: Vec<u64> = cache
            .as_ref()
            .map(|c| c.config().levels.iter().map(|l| l.latency_ns).collect())
            .unwrap_or_default();
        let cache_levels = match &cache {
            None => Vec::new(),
            Some(c) => c
                .config()
                .levels
                .iter()
                .enumerate()
                .map(|(i, lvl)| match lvl.scope {
                    crate::cache::CacheScope::ClusterWide => CacheLevelRes::Shared(
                        net.add_resource(&format!("cache{}:shared", i + 1), lvl.read_bw),
                    ),
                    _ => CacheLevelRes::PerNode(
                        (0..cluster.node_count())
                            .map(|n| {
                                net.add_resource(&format!("cache{}:{n}", i + 1), lvl.read_bw)
                            })
                            .collect(),
                    ),
                })
                .collect(),
        };

        let monitor = config.monitor.map(Monitor::new);
        // Integrity machinery active? Gates the obs-layer corruption
        // counters so runs without it record byte-identical timelines.
        let integrity =
            config.verify != VerifyPolicy::Off || config.faults.has_corruption();
        // The flow network is fully populated at this point, so the track
        // layout (nodes, then resources in registration order) is final.
        let obs = config
            .obs
            .as_ref()
            .map(|c| Box::new(SimObs::new(c, cluster.node_count(), &net, integrity)));
        let free_cores = cluster.nodes.iter().map(|n| n.cores).collect();
        let ready = (0..cluster.node_count()).map(|_| VecDeque::new()).collect();
        let node_up = vec![true; cluster.node_count()];

        let mut sim = Self {
            cluster,
            net,
            res: Resources { shared, node_tier, nic, cache_levels },
            fs: SimFs::new(),
            cache,
            cache_lat,
            cache_origins: config.cache_origins,
            monitor,
            jobs: Vec::new(),
            heap: BinaryHeap::new(),
            capacity_changes: Vec::new(),
            write_buffering: config.write_buffering,
            next_seq: 0,
            now: SimTime::ZERO,
            free_cores,
            ready,
            finished: 0,
            faults: config.faults,
            verify: config.verify,
            node_up,
            pending_failures: Vec::new(),
            fatal: None,
            stats: FaultStats::default(),
            obs,
            chaos: retained_config.faults.chaos,
            config: retained_config,
            events_dispatched: 0,
            pause_at: None,
            pause_on_job_complete: false,
            pause_pending: false,
        };
        sim.schedule_fault_plan();
        sim
    }

    /// Turns the fault plan into ordinary events so faults interleave with
    /// flow completions through the same deterministic loop.
    fn schedule_fault_plan(&mut self) {
        for i in 0..self.faults.crashes.len() {
            let c = self.faults.crashes[i];
            assert!(
                (c.node as usize) < self.cluster.node_count(),
                "crash node {} out of range",
                c.node
            );
            self.push_event(SimTime(c.at_ns), Event::NodeCrash(i as u32));
        }
        for i in 0..self.faults.degradations.len() {
            let d = self.faults.degradations[i];
            let (resource, base) = match d.target {
                DegradeTarget::Tier(t) => {
                    assert!(
                        self.cluster.tier(t.kind).is_some(),
                        "degraded tier {} not on this cluster",
                        t.kind.label()
                    );
                    (self.tier_resource(t), self.tier_spec(t.kind).read_bw)
                }
                DegradeTarget::Nic(n) => {
                    assert!(
                        (n as usize) < self.cluster.node_count(),
                        "degraded nic {n} out of range"
                    );
                    (self.nic_resource(n), self.cluster.nic_bw)
                }
            };
            self.schedule_capacity_change(d.at_ns, resource, base * d.factor);
            self.schedule_capacity_change(d.at_ns.saturating_add(d.duration_ns), resource, base);
        }
    }

    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    pub fn fs_mut(&mut self) -> &mut SimFs {
        &mut self.fs
    }

    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref()
    }

    /// Current simulated time (the makespan once `run` returns).
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Submits a job; it arrives at `submit_delay_ns` and starts when its
    /// dependencies finish and a core on its node frees up.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        assert!(
            (spec.node as usize) < self.cluster.node_count(),
            "node {} out of range",
            spec.node
        );
        let id = self.jobs.len() as u32;
        let logical = spec
            .logical
            .clone()
            .unwrap_or_else(|| spec.name.split('-').next().unwrap_or(&spec.name).to_owned());
        let mut deps_left = 0;
        for d in &spec.deps {
            let dj = &mut self.jobs[d.0 as usize];
            if dj.state != JobState::Done {
                dj.dependents.push(id);
                deps_left += 1;
            }
        }
        self.jobs.push(Job {
            name: spec.name,
            logical,
            node: spec.node,
            actions: spec.actions.into(),
            deps_left,
            deps: spec.deps.iter().map(|d| d.0).collect(),
            dependents: Vec::new(),
            state: JobState::WaitingDeps,
            pending_flows: 0,
            io: None,
            ctx: None,
            fds: HashMap::new(),
            cursor: HashMap::new(),
            start: None,
            end: None,
            breakdown: Breakdown::new(),
            submit_delay_ns: spec.submit_delay_ns,
            recovery: spec.recovery,
            replaces: None,
            flows: Vec::new(),
            io_ops: 0,
            moved_bytes: 0.0,
            taint: None,
            reads_seen: 0,
        });
        self.push_event(SimTime(spec.submit_delay_ns), Event::Arrive(id));
        JobId(id)
    }

    /// Submits `spec` as a replacement (retry) of failed job `original`:
    /// when the replacement completes, jobs that depended on the original
    /// are released as if the original had finished.
    ///
    /// Depending on a *failed* job never releases (failure is terminal), so
    /// retries chain replacements back to the same original to keep a single
    /// release point.
    pub fn resubmit(&mut self, original: JobId, spec: JobSpec) -> JobId {
        assert!((original.0 as usize) < self.jobs.len(), "unknown original job");
        let id = self.submit(spec);
        self.jobs[id.0 as usize].replaces = Some(original.0);
        id
    }

    /// Whether a job reached `Done` (vs pending or failed).
    pub fn job_done(&self, id: JobId) -> bool {
        self.jobs
            .get(id.0 as usize)
            .is_some_and(|j| j.state == JobState::Done)
    }

    fn push_event(&mut self, at: SimTime, ev: Event) {
        self.heap.push(Reverse((at.ns(), self.next_seq, ev)));
        self.next_seq += 1;
    }

    /// Runs until every submitted job completes, ignoring job failures
    /// (failed jobs stay failed; no retries). Callers that react to
    /// failures drive [`Self::run_to_incident`] instead.
    pub fn run(&mut self) -> Result<(), SimError> {
        loop {
            match self.run_to_incident()? {
                RunOutcome::Completed => return Ok(()),
                RunOutcome::Failures(_) | RunOutcome::Paused => {}
            }
        }
    }

    /// Requests a transparent pause: the next `run_to_incident` call returns
    /// [`RunOutcome::Paused`] before dispatching anything strictly after
    /// sim-time `at_ns`, with the clock advanced to the pause point. The
    /// request is one-shot (cleared when it fires) and changes nothing about
    /// the trajectory — re-entering dispatches exactly what an uninterrupted
    /// run would have dispatched next.
    pub fn set_pause_at(&mut self, at_ns: Option<u64>) {
        self.pause_at = at_ns;
    }

    /// When enabled, `run_to_incident` returns [`RunOutcome::Paused`] after
    /// each job completion (before the next dispatch) — the hook for
    /// stage-granular checkpoint policies.
    pub fn set_pause_on_job_complete(&mut self, on: bool) {
        self.pause_on_job_complete = on;
    }

    /// Arms (or disarms) a chaos fault. Snapshots never carry chaos, so a
    /// restored simulator is disarmed until the driver re-arms it.
    pub fn set_chaos(&mut self, chaos: Option<ChaosKind>) {
        self.chaos = chaos;
    }

    /// Whether failures raised since the last [`RunOutcome::Failures`]
    /// return are still undelivered. [`Self::snapshot`] is illegal at such
    /// a point — recovery actions (e.g. quarantining a running cone job)
    /// can raise fresh failures mid-handling, and a checkpoint must wait
    /// for the follow-up incident that delivers them.
    pub fn has_pending_failures(&self) -> bool {
        !self.pending_failures.is_empty()
    }

    /// Total dispatches so far (heap events + flow completions) — the
    /// coordinate system for [`ChaosKind::CoordinatorCrash`].
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Runs until everything completes or a job attempt fails. On
    /// [`RunOutcome::Failures`] the clock is paused at the failure point:
    /// the caller inspects the failures, submits recovery/retry jobs (see
    /// [`Self::resubmit`]), and calls `run_to_incident` again.
    pub fn run_to_incident(&mut self) -> Result<RunOutcome, SimError> {
        self.validate_tiers()?;
        loop {
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            if !self.pending_failures.is_empty() {
                return Ok(RunOutcome::Failures(std::mem::take(&mut self.pending_failures)));
            }
            let heap_next = self.heap.peek().map(|Reverse((t, s, e))| (*t, *s, *e));
            let flow_next = self.net.next_completion();
            // Stop once every job finished and all flows (e.g. buffered
            // write drains) have landed: remaining events can only be
            // fault-plan injections, which cannot affect a completed run
            // (and would otherwise inflate the makespan).
            if self.finished == self.jobs.len() && flow_next.is_none() {
                break;
            }
            // Pause hooks run before sampling and dispatch so a checkpoint
            // taken at the pause captures exactly the pre-dispatch state an
            // uninterrupted run would pass through.
            if self.pause_pending {
                self.pause_pending = false;
                return Ok(RunOutcome::Paused);
            }
            let t_next = match (heap_next, flow_next) {
                (Some((ht, _, _)), Some((ft, _))) => Some(ht.min(ft.ns())),
                (Some((ht, _, _)), None) => Some(ht),
                (None, Some((ft, _))) => Some(ft.ns()),
                (None, None) => None,
            };
            if let (Some(p), Some(t)) = (self.pause_at, t_next) {
                if t > p {
                    // Advance the clock to the pause deadline (behavior
                    // neutral: the next dispatch sets `now` to `t >= p`
                    // anyway) so repeated pause requests always progress.
                    self.now = SimTime(p.max(self.now.ns()));
                    self.pause_at = None;
                    return Ok(RunOutcome::Paused);
                }
            }
            if let Some(ChaosKind::CoordinatorCrash { at_event }) = self.chaos {
                if t_next.is_some() && self.events_dispatched >= at_event {
                    return Err(SimError::CoordinatorCrash { at_event });
                }
            }
            self.take_samples_until(t_next.unwrap_or(0));
            match (heap_next, flow_next) {
                (None, None) => break,
                (Some((ht, _, _)), Some((ft, fk))) if ft.ns() < ht => {
                    self.events_dispatched += 1;
                    self.complete_flow(ft, fk);
                }
                (Some((t, _, ev)), _) => {
                    self.events_dispatched += 1;
                    self.heap.pop();
                    self.now = SimTime(t.max(self.now.ns()));
                    self.handle_event(ev);
                }
                (None, Some((ft, fk))) => {
                    self.events_dispatched += 1;
                    self.complete_flow(ft, fk);
                }
            }
        }
        if self.finished < self.jobs.len() {
            return Err(self.deadlock_error());
        }
        Ok(RunOutcome::Completed)
    }

    /// Names the stuck jobs and what each is waiting on (first few, with
    /// unfinished deps and lost/missing input files called out).
    fn deadlock_error(&self) -> SimError {
        const MAX_LISTED: usize = 8;
        let mut stuck = Vec::new();
        for (i, job) in self.jobs.iter().enumerate() {
            if matches!(job.state, JobState::Done | JobState::Failed) {
                continue;
            }
            if stuck.len() >= MAX_LISTED {
                break;
            }
            let mut waiting_on = Vec::new();
            for &d in &job.deps {
                let dj = &self.jobs[d as usize];
                match dj.state {
                    JobState::Done => {}
                    JobState::Failed => waiting_on.push(format!("failed dep '{}'", dj.name)),
                    _ => waiting_on.push(format!("dep '{}'", dj.name)),
                }
            }
            // The next few actions reveal unreadable inputs.
            for a in job.actions.iter().take(4) {
                let file = match a {
                    Action::Read { file, .. } | Action::Stage { file, .. } => file,
                    Action::Open { file, write: false } => file,
                    _ => continue,
                };
                match self.fs.lookup(file) {
                    None => waiting_on.push(format!("missing file {file}")),
                    Some(idx) if self.fs.is_lost(idx) => {
                        waiting_on.push(format!("lost file {file}"));
                    }
                    Some(_) => {}
                }
            }
            if !self.node_up[job.node as usize] {
                waiting_on.push(format!("node {} down", job.node));
            }
            let state = match job.state {
                JobState::WaitingDeps => "waiting-deps",
                JobState::Queued => "queued",
                JobState::Running => "running",
                JobState::Done | JobState::Failed => unreachable!("filtered above"),
            };
            stuck.push(StuckJob {
                job: i as u32,
                name: job.name.clone(),
                node: job.node,
                state,
                waiting_on,
            });
        }
        SimError::Deadlock { pending: self.jobs.len() - self.finished, stuck }
    }

    fn complete_flow(&mut self, at: SimTime, key: FlowKey) {
        self.now = SimTime(at.ns().max(self.now.ns()));
        let (owner, elapsed, bytes) = self.net.complete(self.now, key);
        self.stats.total_moved += bytes;
        let j = owner.job as usize;
        let job = &mut self.jobs[j];
        job.breakdown.add(owner.tag, elapsed);
        job.moved_bytes += bytes;
        if let Some(p) = job.flows.iter().position(|&k| k == key) {
            job.flows.swap_remove(p);
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.flow_completed(key.0, elapsed, self.now.ns());
        }
        if owner.background {
            return; // buffered-write drain: nothing waits on it
        }
        let job = &mut self.jobs[j];
        job.pending_flows -= 1;
        if job.pending_flows == 0 {
            self.finish_io(owner.job);
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Arrive(j) => {
                let job = &mut self.jobs[j as usize];
                // A dependency completing at the same timestamp may have
                // already queued this job; only queue from WaitingDeps.
                if job.deps_left == 0 && job.state == JobState::WaitingDeps {
                    job.state = JobState::Queued;
                    let node = job.node;
                    self.ready[node as usize].push_back(j);
                    self.obs_job_queued(j);
                    self.try_start(node);
                }
            }
            // Compute/open/latency events of a job failed in the meantime
            // are stale; only a Running job advances.
            Event::ComputeDone(j) | Event::OpenDone(j) => {
                if self.jobs[j as usize].state == JobState::Running {
                    self.advance(j);
                }
            }
            Event::IoLatencyDone(j) => {
                if self.jobs[j as usize].state == JobState::Running {
                    self.launch_flows(j);
                }
            }
            Event::CapacityChange(idx) => {
                let (r, capacity) = self.capacity_changes[idx as usize];
                self.net.set_capacity(self.now, r, capacity);
                if let Some(o) = self.obs.as_deref_mut() {
                    let track = o.res_track(r);
                    o.capacity_changed(track, capacity, self.now.ns());
                }
            }
            Event::NodeCrash(i) => self.on_node_crash(i),
            Event::NodeRecover(i) => {
                let node = self.faults.crashes[i as usize].node;
                if node as usize >= self.node_up.len() {
                    self.fatal = Some(SimError::BadNode(node));
                    return;
                }
                if !self.node_up[node as usize] {
                    self.node_up[node as usize] = true;
                    // Every core is free: the crash failed all running jobs.
                    self.free_cores[node as usize] = self.cluster.nodes[node as usize].cores;
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.node_recovered(node, self.now.ns());
                    }
                    self.try_start(node);
                }
            }
        }
    }

    fn on_node_crash(&mut self, i: u32) {
        let crash = self.faults.crashes[i as usize];
        let node = crash.node;
        if node as usize >= self.node_up.len() {
            // Crash (and the cache invalidation it implies) aimed at a node
            // outside the cluster: typed error instead of an index panic.
            self.fatal = Some(SimError::BadNode(node));
            return;
        }
        if !self.node_up[node as usize] {
            return; // overlapping crash windows: already down
        }
        self.stats.crashes += 1;
        self.node_up[node as usize] = false;
        self.free_cores[node as usize] = 0;
        let cache_invalidated = self.cache.is_some();
        if let Some(o) = self.obs.as_deref_mut() {
            o.node_crashed(node, cache_invalidated, self.now.ns());
        }
        let running: Vec<u32> = (0..self.jobs.len() as u32)
            .filter(|&j| {
                let job = &self.jobs[j as usize];
                job.node == node && job.state == JobState::Running
            })
            .collect();
        for j in running {
            self.fail_job(j, FailureCause::NodeCrash { node });
        }
        // Node-local replicas and node-wide cache contents are gone.
        let loss = self.fs.fail_node(node);
        self.stats.lost_replicas += loss.replicas_lost;
        self.stats.lost_files += loss.lost_files.len() as u32;
        self.stats.lost_bytes += loss.bytes;
        if let Some(c) = &mut self.cache {
            c.invalidate_node(node);
        }
        if crash.down_ns != u64::MAX {
            self.push_event(self.now.add_ns(crash.down_ns), Event::NodeRecover(i));
        }
    }

    /// Fails a running job attempt: cancels its in-flight flows (progress
    /// made so far counts as wasted transfer), frees its core, and queues a
    /// [`JobFailure`] for the next `run_to_incident` return.
    fn fail_job(&mut self, j: u32, cause: FailureCause) {
        debug_assert_eq!(self.jobs[j as usize].state, JobState::Running);
        let node = self.jobs[j as usize].node;
        let flows = std::mem::take(&mut self.jobs[j as usize].flows);
        for key in flows {
            if self.net.bytes_of(key).is_none() {
                // Flow-accounting invariant broken (was a panic): surface a
                // typed error on the next `run_to_incident` return instead
                // of tearing the process down mid-event.
                self.fatal = Some(SimError::UntrackedFlow { job: j, key: key.0 });
                continue;
            }
            let (owner, elapsed, remaining, total) = self.net.cancel(self.now, key);
            let moved = (total - remaining).max(0.0);
            self.stats.total_moved += moved;
            let job = &mut self.jobs[j as usize];
            job.breakdown.add(owner.tag, elapsed);
            job.moved_bytes += moved;
            if let Some(o) = self.obs.as_deref_mut() {
                o.flow_cancelled(key.0, self.now.ns());
            }
        }
        let job = &mut self.jobs[j as usize];
        job.state = JobState::Failed;
        job.end = Some(self.now);
        job.io = None;
        job.pending_flows = 0;
        if let Some(ctx) = job.ctx.take() {
            ctx.finish(self.now.ns());
        }
        let started = job.start.map_or(self.now, |s| s);
        self.stats.wasted_ns += self.now.since(started);
        self.stats.wasted_bytes += job.moved_bytes;
        self.stats.failed_attempts += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.job_failed(j, self.now.ns());
        }
        self.finished += 1;
        let name = job.name.clone();
        self.pending_failures.push(JobFailure {
            job: JobId(j),
            name,
            node,
            at_ns: self.now.ns(),
            cause,
        });
        // A core frees up unless the node itself went down.
        if self.node_up[node as usize] {
            self.free_cores[node as usize] += 1;
            self.try_start(node);
        }
    }

    /// Schedule-independent transient-error check for the job's next I/O
    /// operation; on a hit the attempt fails. Returns true when the caller
    /// must abandon the operation.
    fn io_faulted(&mut self, j: u32, file: &str) -> bool {
        let op = self.jobs[j as usize].io_ops;
        self.jobs[j as usize].io_ops += 1;
        if self.faults.io_op_fails(j, op) {
            self.stats.transient_io_errors += 1;
            if let Some(o) = self.obs.as_deref_mut() {
                o.io_error(j, file, self.now.ns());
            }
            self.fail_job(j, FailureCause::IoError { file: file.to_owned() });
            true
        } else {
            false
        }
    }

    fn try_start(&mut self, node: u32) {
        if !self.node_up[node as usize] {
            return;
        }
        while self.free_cores[node as usize] > 0 {
            let Some(j) = self.ready[node as usize].pop_front() else { break };
            self.free_cores[node as usize] -= 1;
            let job = &mut self.jobs[j as usize];
            job.state = JobState::Running;
            job.start = Some(self.now);
            if let Some(m) = &self.monitor {
                job.ctx = Some(m.begin_task_logical(&job.name, &job.logical.clone(), self.now.ns()));
            }
            self.obs_job_started(j);
            self.advance(j);
        }
    }

    /// Executes the job's next action (or completes it).
    fn advance(&mut self, j: u32) {
        let Some(action) = self.jobs[j as usize].actions.pop_front() else {
            self.complete_job(j);
            return;
        };
        match action {
            Action::Compute { ns } => {
                self.jobs[j as usize].breakdown.add(FlowTag::Compute, ns);
                self.push_event(self.now.add_ns(ns), Event::ComputeDone(j));
            }
            Action::Open { file, write } => self.do_open(j, &file, write),
            Action::Read { file, offset, len } => self.do_read(j, &file, offset, len),
            Action::Write { file, len, tier } => self.do_write(j, &file, len, tier),
            Action::Close { file } => {
                self.do_close(j, &file);
                self.advance(j);
            }
            Action::Stage { file, to, from, tag } => self.do_stage(j, &file, to, from, tag),
        }
    }

    fn complete_job(&mut self, j: u32) {
        let node;
        {
            let job = &mut self.jobs[j as usize];
            debug_assert_eq!(job.state, JobState::Running);
            job.state = JobState::Done;
            job.end = Some(self.now);
            node = job.node;
            if let Some(ctx) = job.ctx.take() {
                ctx.finish(self.now.ns());
            }
            if job.recovery {
                self.stats.recovery_bytes += job.moved_bytes;
            }
        }
        self.finished += 1;
        self.free_cores[node as usize] += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.job_completed(j, self.now.ns());
        }

        let dependents = std::mem::take(&mut self.jobs[j as usize].dependents);
        self.release_dependents(dependents);
        // A replacement completing stands in for every failed attempt it
        // (transitively) replaces: each one's dependents are released
        // exactly once (`take` empties the list), so work that depended on
        // any attempt in the chain proceeds once one of them succeeds.
        let mut replaced = self.jobs[j as usize].replaces;
        while let Some(orig) = replaced {
            let orig_deps = std::mem::take(&mut self.jobs[orig as usize].dependents);
            self.release_dependents(orig_deps);
            replaced = self.jobs[orig as usize].replaces;
        }
        self.try_start(node);
        if self.pause_on_job_complete {
            self.pause_pending = true;
        }
    }

    fn release_dependents(&mut self, dependents: Vec<u32>) {
        for d in dependents {
            let dep = &mut self.jobs[d as usize];
            dep.deps_left -= 1;
            if dep.deps_left == 0 && dep.state == JobState::WaitingDeps && dep.submit_delay_ns <= self.now.ns() {
                dep.state = JobState::Queued;
                let n = dep.node;
                self.ready[n as usize].push_back(d);
                self.obs_job_queued(d);
                self.try_start(n);
            }
        }
    }

    // ---- file helpers ----

    fn tier_spec(&self, kind: TierKind) -> &crate::storage::TierSpec {
        self.cluster.tier(kind).expect("tier present on cluster")
    }

    /// Checks a single tier reference against the cluster (kind provisioned,
    /// node index in range).
    fn check_tier(&self, tier: TierRef) -> Result<(), SimError> {
        if !self.cluster.has_tier(tier.kind) {
            return Err(SimError::NoSuchTier(tier.kind.label().to_owned()));
        }
        match tier.node {
            Some(n) if (n as usize) >= self.cluster.node_count() => Err(SimError::BadNode(n)),
            _ => Ok(()),
        }
    }

    /// Validates every externally supplied tier reference — file replicas
    /// plus `Write`/`Stage` targets in not-yet-executed actions — so a spec
    /// naming a tier the cluster does not provide surfaces as
    /// [`SimError::NoSuchTier`] instead of a panic deep in the run.
    fn validate_tiers(&self) -> Result<(), SimError> {
        for i in 0..self.fs.file_count() {
            for &r in &self.fs.meta(FileIdx(i as u32)).replicas {
                self.check_tier(r)?;
            }
        }
        for job in &self.jobs {
            for a in &job.actions {
                match a {
                    Action::Write { tier: Some(t), .. } => self.check_tier(*t)?,
                    Action::Stage { to, from, .. } => {
                        self.check_tier(*to)?;
                        if let Some(f) = from {
                            self.check_tier(*f)?;
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Resources along the read path from `tier` to `node`.
    fn read_path(&self, tier: TierRef, node: u32) -> Vec<ResourceId> {
        match (tier.kind.is_node_local(), tier.node) {
            (true, Some(m)) if m == node => vec![self.res.node_tier[m as usize][&tier.kind]],
            (true, Some(m)) => vec![
                self.res.node_tier[m as usize][&tier.kind],
                self.res.nic[m as usize],
                self.res.nic[node as usize],
            ],
            _ => vec![self.res.shared[&tier.kind], self.res.nic[node as usize]],
        }
    }

    /// Tag for a read served by `tier` (no cache involvement).
    fn read_tag(&self, tier: TierRef) -> FlowTag {
        if tier.kind.is_remote() {
            FlowTag::NetworkRead
        } else if tier.kind.is_node_local() {
            FlowTag::LocalRead
        } else {
            FlowTag::SharedRead
        }
    }

    /// Write-bandwidth asymmetry: flows carry "read-equivalent" bytes, so a
    /// write of `len` on a tier with write_bw < read_bw is inflated.
    fn write_equiv_bytes(&self, tier: TierKind, len: u64) -> f64 {
        let spec = self.tier_spec(tier);
        len as f64 * (spec.read_bw / spec.write_bw)
    }

    /// Ensures the job has a trace fd for `file`; returns it. Implicit opens
    /// use read-write mode with the current size as hint.
    fn ensure_fd(&mut self, j: u32, file: FileIdx) -> Option<dfl_trace::handle::Fd> {
        let size = self.fs.meta(file).size;
        let path = self.fs.meta(file).path.clone();
        let job = &mut self.jobs[j as usize];
        if let Some(&fd) = job.fds.get(&file) {
            return Some(fd);
        }
        let ctx = job.ctx.as_ref()?;
        let fd = ctx.open(&path, OpenMode::ReadWrite, Some(size), self.now.ns());
        job.fds.insert(file, fd);
        Some(fd)
    }

    // ---- actions ----

    /// Raises a hard (spec-level) error: the current `run_to_incident` call
    /// returns it before processing the next event.
    fn raise_fatal(&mut self, j: u32, file: &str) {
        self.fatal = Some(SimError::MissingFile {
            file: file.to_owned(),
            job: self.jobs[j as usize].name.clone(),
        });
    }

    fn do_open(&mut self, j: u32, file: &str, write: bool) {
        let node = self.jobs[j as usize].node;
        let idx = match self.fs.lookup(file) {
            Some(i) if !write => i,
            _ if write => {
                let tier = TierRef::shared(self.cluster.default_tier);
                self.fs.create_for_write(file, tier)
            }
            _ => {
                self.raise_fatal(j, file);
                return;
            }
        };
        if !write && self.fs.is_lost(idx) {
            self.fail_job(j, FailureCause::LostFile { file: file.to_owned() });
            return;
        }
        let tier = self.fs.best_replica(idx, node);
        let open_ns = self.tier_spec(tier.kind).open_ns;

        let size = self.fs.meta(idx).size;
        let job = &mut self.jobs[j as usize];
        if let Some(ctx) = &job.ctx {
            let mode = if write { OpenMode::ReadWrite } else { OpenMode::Read };
            let fd = ctx.open(file, mode, Some(size), self.now.ns());
            job.fds.insert(idx, fd);
        }
        job.cursor.insert(idx, 0);
        job.breakdown.add(FlowTag::Metadata, open_ns);
        self.push_event(self.now.add_ns(open_ns), Event::OpenDone(j));
    }

    fn do_close(&mut self, j: u32, file: &str) {
        let Some(idx) = self.fs.lookup(file) else { return };
        let job = &mut self.jobs[j as usize];
        if let (Some(ctx), Some(fd)) = (&job.ctx, job.fds.remove(&idx)) {
            let _ = ctx.close(fd, self.now.ns());
        }
    }

    fn do_read(&mut self, j: u32, file: &str, offset: Option<u64>, len: u64) {
        if self.io_faulted(j, file) {
            return;
        }
        let Some(idx) = self.fs.lookup(file) else {
            self.raise_fatal(j, file);
            return;
        };
        if self.fs.is_lost(idx) {
            self.fail_job(j, FailureCause::LostFile { file: file.to_owned() });
            return;
        }
        let node = self.jobs[j as usize].node;
        let size = self.fs.meta(idx).size;
        let off = offset.unwrap_or_else(|| *self.jobs[j as usize].cursor.get(&idx).unwrap_or(&0));
        let off = off.min(size);
        let n = if len == 0 { size - off } else { len.min(size - off) };
        let tier = self.fs.best_replica(idx, node);

        // Integrity: decide up front (schedule-independently) whether this
        // read observes corrupt data — stored on the serving replica, or
        // flipped in flight — and whether this read verifies its digest.
        let mut verify_ns = 0;
        if self.verify != VerifyPolicy::Off || self.faults.has_corruption() {
            let op = self.jobs[j as usize].io_ops - 1;
            self.jobs[j as usize].reads_seen += 1;
            let reads_seen = self.jobs[j as usize].reads_seen;
            let verified = match self.verify {
                VerifyPolicy::OnRead => true,
                VerifyPolicy::Sample(k) if k > 0 => reads_seen % u64::from(k) == 0,
                _ => false,
            };
            let stored_root = self.fs.replica_corrupt(idx, tier);
            let flipped = self.faults.read_corrupts(j, op);
            if stored_root.is_some() || flipped {
                if verified {
                    let root = stored_root.map(|r| self.fs.meta(r).path.clone());
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.corruption_detected(j, file, self.now.ns());
                    }
                    self.stats.corruptions_detected += 1;
                    self.fail_job(
                        j,
                        FailureCause::CorruptData { file: file.to_owned(), root },
                    );
                    return;
                }
                // Silent: the job consumed bad bytes; everything it writes
                // from here is tainted. A transient flip with no stored
                // root conservatively roots the taint at this file.
                let job = &mut self.jobs[j as usize];
                if job.taint.is_none() {
                    job.taint = stored_root.or(Some(idx));
                }
            } else if verified {
                // Clean verified read: pay the checksum pass (~4 bytes/ns).
                verify_ns = n / 4;
                self.jobs[j as usize].breakdown.add(FlowTag::Metadata, verify_ns);
                self.stats.verified_bytes += n;
                if self.fs.clear_reverify(idx) {
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.reverified(file, self.now.ns());
                    }
                }
            }
        }

        self.ensure_fd(j, idx);

        let mut launch: Vec<(Vec<ResourceId>, f64, FlowTag)> = Vec::new();
        let mut latency = self.tier_spec(tier.kind).latency_ns;

        // A cache-less config never enters the cache branch: the access is
        // bound inside the `if let`, so there is no unwrap to reach.
        let cache_result = match &mut self.cache {
            Some(cache)
                if n > 0 && (self.cache_origins == CacheOrigins::All || tier.kind.is_remote()) =>
            {
                Some(cache.access(j, node, idx.0, off, n))
            }
            _ => None,
        };
        if let Some(result) = cache_result {
            latency = 0;
            for (lvl, &bytes) in result.level_bytes.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                latency = latency.max(self.cache_lat[lvl]);
                let path = match &self.res.cache_levels[lvl] {
                    CacheLevelRes::PerNode(v) => vec![v[node as usize]],
                    CacheLevelRes::Shared(r) => vec![*r, self.res.nic[node as usize]],
                };
                if let Some(o) = self.obs.as_deref_mut() {
                    let track = o.res_track(path[0]);
                    o.cache_hit(track, file, bytes, self.now.ns());
                }
                let tag = match lvl {
                    0 => FlowTag::CacheL1,
                    1 => FlowTag::CacheL2,
                    2 => FlowTag::CacheL3,
                    _ => FlowTag::CacheL4,
                };
                launch.push((path, bytes as f64, tag));
            }
            for (lvl, &evicted) in result.evictions.iter().enumerate() {
                if evicted == 0 {
                    continue;
                }
                let r = match &self.res.cache_levels[lvl] {
                    CacheLevelRes::PerNode(v) => v[node as usize],
                    CacheLevelRes::Shared(r) => *r,
                };
                if let Some(o) = self.obs.as_deref_mut() {
                    let track = o.res_track(r);
                    o.cache_evicted(track, evicted, self.now.ns());
                }
            }
            if result.miss_bytes > 0 {
                latency = latency.max(self.tier_spec(tier.kind).latency_ns);
                let path = self.read_path(tier, node);
                if let Some(o) = self.obs.as_deref_mut() {
                    let track = o.res_track(path[0]);
                    o.cache_miss(track, file, result.miss_bytes, self.now.ns());
                }
                launch.push((path, result.miss_bytes as f64, self.read_tag(tier)));
            }
        } else if n > 0 {
            launch.push((self.read_path(tier, node), n as f64, self.read_tag(tier)));
        }

        let job = &mut self.jobs[j as usize];
        job.io = Some(PendingIo {
            kind: IoKind::Read,
            file: idx,
            offset: off,
            len: n,
            started: self.now,
            stage_to: None,
            corrupt: None,
            launch,
        });
        self.push_event(
            self.now.add_ns(latency.saturating_add(verify_ns)),
            Event::IoLatencyDone(j),
        );
    }

    fn do_write(&mut self, j: u32, file: &str, len: u64, tier: Option<TierRef>) {
        if self.io_faulted(j, file) {
            return;
        }
        let node = self.jobs[j as usize].node;
        // Single placement decision: a fresh file is created once on the
        // requested (or default) tier; an explicit tier re-places an
        // existing file only while it still has no data.
        let idx = match self.fs.lookup(file) {
            Some(i) => {
                if let Some(t) = tier {
                    if self.fs.meta(i).size == 0 {
                        self.fs.create_for_write(file, t);
                    }
                }
                i
            }
            None => {
                let t = tier.unwrap_or(TierRef::shared(self.cluster.default_tier));
                self.fs.create_for_write(file, t)
            }
        };
        if self.fs.is_lost(idx) {
            // Appending to a file whose replicas were all lost: the partial
            // data is gone, so the attempt fails (a retry re-creates the
            // file from the top via its open-for-write).
            self.fail_job(j, FailureCause::LostFile { file: file.to_owned() });
            return;
        }
        self.ensure_fd(j, idx);

        let dst = self.fs.meta(idx).replicas[0];
        let offset = self.fs.meta(idx).size;

        // Integrity: does this write land corrupt? Either the writer
        // already consumed bad bytes (taint propagation), or the fault
        // plan silently flips this write. Decided here — not at flow
        // completion — so the outcome is schedule-independent. Only a
        // direct injection on a currently-clean replica counts as a new
        // corruption (propagation rides the original root's count).
        let corrupt = if self.faults.has_corruption() || self.jobs[j as usize].taint.is_some() {
            let op = self.jobs[j as usize].io_ops - 1;
            match self.jobs[j as usize].taint {
                Some(root) => Some(root),
                None => {
                    let direct = self.faults.write_corrupts(j, op)
                        || (self.faults.corrupts_file(file)
                            && self.fs.meta(idx).version == 1);
                    if direct {
                        if self.fs.replica_corrupt(idx, dst).is_none() {
                            self.stats.corruptions_injected += 1;
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.corruption_injected(j, file, self.now.ns());
                            }
                        }
                        Some(idx)
                    } else {
                        None
                    }
                }
            }
        } else {
            None
        };

        if self.write_buffering && len > 0 {
            // Buffered write: the task continues immediately; the drain runs
            // as a background flow accounted to the job.
            let path = self.read_path(dst, node);
            let bytes = self.write_equiv_bytes(dst.kind, len);
            let tag = if self.jobs[j as usize].recovery { FlowTag::Recovery } else { FlowTag::Write };
            let endpoints = self.obs.is_some().then(|| {
                let first = path[0];
                let src = self.net.resource(first).name.clone();
                let dst = self.net.resource(*path.last().expect("non-empty path")).name.clone();
                (first, src, dst)
            });
            let key = self.net.start(
                self.now,
                &path,
                bytes,
                FlowOwner { job: j, tag, background: true },
            );
            self.jobs[j as usize].flows.push(key);
            if let (Some((first, src, dst)), Some(o)) = (endpoints, self.obs.as_deref_mut()) {
                let track = o.res_track(first);
                o.flow_started(
                    key.0,
                    track,
                    tag.label(),
                    j,
                    src,
                    dst,
                    bytes.round() as u64,
                    self.now.ns(),
                );
            }
            self.fs.grow(idx, len);
            if let Some(root) = corrupt {
                self.fs.mark_corrupt(idx, dst, root);
            }
            let job = &mut self.jobs[j as usize];
            if let (Some(ctx), Some(&fd)) = (&job.ctx, job.fds.get(&idx)) {
                let _ = ctx.write_at(fd, offset, len, IoTiming::new(self.now.ns(), 0));
            }
            self.advance(j);
            return;
        }

        let latency = self.tier_spec(dst.kind).latency_ns;
        let launch = if len > 0 {
            vec![(
                self.read_path(dst, node),
                self.write_equiv_bytes(dst.kind, len),
                FlowTag::Write,
            )]
        } else {
            Vec::new()
        };

        let job = &mut self.jobs[j as usize];
        job.io = Some(PendingIo {
            kind: IoKind::Write,
            file: idx,
            offset,
            len,
            started: self.now,
            stage_to: None,
            corrupt,
            launch,
        });
        self.push_event(self.now.add_ns(latency), Event::IoLatencyDone(j));
    }

    fn do_stage(&mut self, j: u32, file: &str, to: TierRef, from: Option<TierRef>, tag: FlowTag) {
        if self.io_faulted(j, file) {
            return;
        }
        let Some(idx) = self.fs.lookup(file) else {
            self.raise_fatal(j, file);
            return;
        };
        if self.fs.is_lost(idx) {
            self.fail_job(j, FailureCause::LostFile { file: file.to_owned() });
            return;
        }
        let node = self.jobs[j as usize].node;
        let size = self.fs.meta(idx).size;
        let src = from.unwrap_or_else(|| self.fs.best_replica(idx, node));
        if src == to || size == 0 {
            // Already there (or empty): record the replica and move on.
            self.fs.add_replica(idx, to);
            self.advance(j);
            return;
        }
        // Integrity: a transfer either carries stored corruption from the
        // source replica to the destination, or flips in flight (replica
        // divergence: the destination lands corrupt while the source stays
        // clean). `OnTransfer` checks the source digest before copying.
        let mut verify_ns = 0;
        let mut corrupt = None;
        if self.verify != VerifyPolicy::Off || self.faults.has_corruption() {
            let op = self.jobs[j as usize].io_ops - 1;
            let stored_root = self.fs.replica_corrupt(idx, src);
            let flipped = self.faults.transfer_corrupts(j, op);
            if flipped && stored_root.is_none() {
                self.stats.corruptions_injected += 1;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.corruption_injected(j, file, self.now.ns());
                }
            }
            if self.verify == VerifyPolicy::OnTransfer {
                if stored_root.is_some() || flipped {
                    let root = stored_root.map(|r| self.fs.meta(r).path.clone());
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.corruption_detected(j, file, self.now.ns());
                    }
                    self.stats.corruptions_detected += 1;
                    self.fail_job(
                        j,
                        FailureCause::CorruptData { file: file.to_owned(), root },
                    );
                    return;
                }
                verify_ns = size / 4;
                self.jobs[j as usize].breakdown.add(FlowTag::Metadata, verify_ns);
                self.stats.verified_bytes += size;
                if self.fs.clear_reverify(idx) {
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.reverified(file, self.now.ns());
                    }
                }
            } else {
                corrupt = stored_root.or(if flipped { Some(idx) } else { None });
            }
        }

        let mut path = self.read_path(src, node);
        for r in self.read_path(to, node) {
            if !path.contains(&r) {
                path.push(r);
            }
        }
        let latency = self
            .tier_spec(src.kind)
            .latency_ns
            .max(self.tier_spec(to.kind).latency_ns)
            .saturating_add(verify_ns);

        let job = &mut self.jobs[j as usize];
        job.io = Some(PendingIo {
            kind: IoKind::Stage,
            file: idx,
            offset: 0,
            len: size,
            started: self.now,
            stage_to: Some(to),
            corrupt,
            launch: vec![(path, size as f64, tag)],
        });
        self.push_event(self.now.add_ns(latency), Event::IoLatencyDone(j));
    }

    fn launch_flows(&mut self, j: u32) {
        let launch = {
            let job = &mut self.jobs[j as usize];
            match job.io.as_mut() {
                Some(io) => std::mem::take(&mut io.launch),
                None => {
                    self.fatal = Some(SimError::CorruptState("flow launch with no pending io"));
                    return;
                }
            }
        };
        if launch.is_empty() {
            self.finish_io(j);
            return;
        }
        self.jobs[j as usize].pending_flows = launch.len();
        let recovery = self.jobs[j as usize].recovery;
        for (path, bytes, tag) in launch {
            let tag = if recovery { FlowTag::Recovery } else { tag };
            let endpoints = self.obs.is_some().then(|| {
                let first = path[0];
                let src = self.net.resource(first).name.clone();
                let dst = self.net.resource(*path.last().expect("non-empty path")).name.clone();
                (first, src, dst)
            });
            let key =
                self.net.start(self.now, &path, bytes, FlowOwner { job: j, tag, background: false });
            self.jobs[j as usize].flows.push(key);
            if let (Some((first, src, dst)), Some(o)) = (endpoints, self.obs.as_deref_mut()) {
                let track = o.res_track(first);
                o.flow_started(
                    key.0,
                    track,
                    tag.label(),
                    j,
                    src,
                    dst,
                    bytes.round() as u64,
                    self.now.ns(),
                );
            }
        }
    }

    fn finish_io(&mut self, j: u32) {
        let Some(io) = self.jobs[j as usize].io.take() else {
            self.fatal = Some(SimError::CorruptState("io completion with no pending io"));
            return;
        };
        let timing = IoTiming::new(io.started.ns(), self.now.since(io.started));
        match io.kind {
            IoKind::Read => {
                let job = &mut self.jobs[j as usize];
                if let (Some(ctx), Some(&fd)) = (&job.ctx, job.fds.get(&io.file)) {
                    let _ = ctx.read_at(fd, io.offset, io.len, timing);
                }
                job.cursor.insert(io.file, io.offset + io.len);
            }
            IoKind::Write => {
                self.fs.grow(io.file, io.len);
                if let Some(root) = io.corrupt {
                    let dst = self.fs.meta(io.file).replicas[0];
                    self.fs.mark_corrupt(io.file, dst, root);
                }
                let job = &mut self.jobs[j as usize];
                if let (Some(ctx), Some(&fd)) = (&job.ctx, job.fds.get(&io.file)) {
                    let _ = ctx.write_at(fd, io.offset, io.len, timing);
                }
            }
            IoKind::Stage => {
                let Some(to) = io.stage_to else {
                    self.fatal =
                        Some(SimError::CorruptState("stage completion with no destination"));
                    return;
                };
                self.fs.add_replica(io.file, to);
                if let Some(root) = io.corrupt {
                    self.fs.mark_corrupt(io.file, to, root);
                }
            }
        }
        self.advance(j);
    }

    // ---- failure / straggler injection ----

    /// The bandwidth resource backing a tier instance.
    pub fn tier_resource(&self, tier: TierRef) -> ResourceId {
        match tier.node {
            Some(n) => self.res.node_tier[n as usize][&tier.kind],
            None => self.res.shared[&tier.kind],
        }
    }

    /// The NIC resource of a node.
    pub fn nic_resource(&self, node: u32) -> ResourceId {
        self.res.nic[node as usize]
    }

    /// Schedules a capacity change (straggler/degradation injection) at
    /// `at_ns`. Takes effect mid-run: in-flight transfers keep their
    /// progress and re-profile at the new capacity.
    pub fn schedule_capacity_change(&mut self, at_ns: u64, resource: ResourceId, capacity: f64) {
        assert!(capacity > 0.0);
        let idx = self.capacity_changes.len() as u32;
        self.capacity_changes.push((resource, capacity));
        self.push_event(SimTime(at_ns), Event::CapacityChange(idx));
    }

    // ---- integrity / quarantine ----

    /// Whether any replica of `path` is currently corrupt.
    pub fn file_corrupt(&self, path: &str) -> bool {
        self.fs.lookup(path).is_some_and(|i| self.fs.any_corrupt(i))
    }

    /// Quarantines `path`: every replica (clean or corrupt — once one
    /// replica diverges none can be trusted without re-verification) is
    /// taken out of service and the file is flagged for re-verification on
    /// its next verified read. Returns the bytes quarantined; no-op for
    /// unknown or already-empty files.
    pub fn quarantine_file(&mut self, path: &str) -> u64 {
        let Some(idx) = self.fs.lookup(path) else { return 0 };
        if self.fs.meta(idx).replicas.is_empty() {
            return 0;
        }
        let bytes = self.fs.quarantine(idx);
        self.stats.quarantined_files += 1;
        self.stats.quarantined_bytes += bytes;
        if let Some(o) = self.obs.as_deref_mut() {
            o.quarantined(path, bytes, self.now.ns());
        }
        bytes
    }

    /// Fails a running job attempt that sits inside a taint cone (its
    /// in-progress work consumed data rooted at `root`). Returns `false`
    /// when the job is not currently running — completed or failed
    /// attempts are the coordination layer's problem (re-execution).
    pub fn quarantine_job(&mut self, id: JobId, root: &str) -> bool {
        match self.jobs.get(id.0 as usize) {
            Some(job) if job.state == JobState::Running => {
                self.fail_job(
                    id.0,
                    FailureCause::CorruptData {
                        file: root.to_owned(),
                        root: Some(root.to_owned()),
                    },
                );
                true
            }
            _ => false,
        }
    }

    // ---- observability ----

    /// Emits periodic utilization/queue-depth samples up to `horizon` (the
    /// next event time): per-resource active-flow counts and per-node queue
    /// depth and busy cores. State persists across `run_to_incident`
    /// returns, so recovery-driven re-entries keep one steady cadence.
    fn take_samples_until(&mut self, horizon: u64) {
        let Some(o) = self.obs.as_deref_mut() else { return };
        let Some(every) = o.sample_every else { return };
        while o.next_sample <= horizon {
            let t = o.next_sample;
            for r in 0..self.net.resource_count() {
                let id = ResourceId(r as u32);
                let track = o.res_track(id);
                o.rec.sample(track, t, "active_flows", f64::from(self.net.load_of(id)));
            }
            for n in 0..self.cluster.node_count() {
                let track = o.node_track(n as u32);
                o.rec.sample(track, t, "queue_depth", self.ready[n].len() as f64);
                let busy = self.cluster.nodes[n].cores - self.free_cores[n];
                o.rec.sample(track, t, "busy_cores", f64::from(busy));
            }
            if o.has_watchdog() {
                let depths: Vec<u64> =
                    (0..self.cluster.node_count()).map(|n| self.ready[n].len() as u64).collect();
                o.watchdog_sample(&depths, t);
            }
            o.next_sample += every;
        }
    }

    fn obs_job_queued(&mut self, j: u32) {
        let Some(o) = self.obs.as_deref_mut() else { return };
        let job = &self.jobs[j as usize];
        o.job_queued(j, job.node, &job.name, self.now.ns());
    }

    fn obs_job_started(&mut self, j: u32) {
        let Some(o) = self.obs.as_deref_mut() else { return };
        let job = &self.jobs[j as usize];
        let kind = if job.recovery {
            SpanKind::Recovery
        } else if job.replaces.is_some() {
            SpanKind::Retry
        } else {
            SpanKind::Run
        };
        o.job_started(j, job.node, &job.name, kind, self.now.ns());
    }

    /// Observability layer, when enabled (engine stage spans, custom
    /// metrics).
    pub fn obs_mut(&mut self) -> Option<&mut SimObs> {
        self.obs.as_deref_mut()
    }

    /// Read-only view of the observability layer, when enabled.
    pub fn obs(&self) -> Option<&SimObs> {
        self.obs.as_deref()
    }

    /// Attaches a live subscriber to the timeline recorder; `None` when
    /// observability is disabled. See [`dfl_obs::Recorder::subscribe`].
    pub fn subscribe(&mut self, capacity: usize) -> Option<dfl_obs::EventStream> {
        self.obs.as_deref_mut().map(|o| o.subscribe(capacity))
    }

    /// Watchdog diagnoses fired so far (empty when observability or
    /// watchdogs are disabled).
    pub fn diagnoses(&self) -> &[dfl_obs::Diagnosis] {
        self.obs.as_deref().map_or(&[], SimObs::diagnoses)
    }

    /// Records an engine-stage span on the stage track; no-op when
    /// observability is disabled.
    pub fn record_stage_span(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if let Some(o) = self.obs.as_deref_mut() {
            let track = o.stage_track();
            o.rec.record_span(
                track,
                start_ns,
                end_ns,
                name,
                SpanKind::Stage,
                dfl_obs::SpanMeta::default(),
            );
        }
    }

    /// Finalizes and takes the recorded timeline. Returns `None` when
    /// observability was disabled or the timeline was already taken;
    /// recording stops once taken.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.obs.take().map(|o| o.finish(self.now.ns()))
    }

    // ---- reports ----

    /// Report for a completed job.
    pub fn job_report(&self, id: JobId) -> Option<JobReport> {
        let job = self.jobs.get(id.0 as usize)?;
        Some(JobReport {
            name: job.name.clone(),
            node: job.node,
            start_ns: job.start.map_or(0, SimTime::ns),
            end_ns: job.end.map_or(0, SimTime::ns),
            breakdown: job.breakdown.clone(),
            failed: job.state == JobState::Failed,
        })
    }

    /// Reports for every job, in submission order.
    pub fn reports(&self) -> Vec<JobReport> {
        (0..self.jobs.len() as u32)
            .map(|i| self.job_report(JobId(i)).expect("in range"))
            .collect()
    }

    /// Aggregate breakdown over all jobs.
    pub fn total_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::new();
        for j in &self.jobs {
            b.merge(&j.breakdown);
        }
        b
    }

    /// Snapshot of the attached monitor's measurements.
    pub fn measurements(&self) -> Option<dfl_trace::MeasurementSet> {
        self.monitor.as_ref().map(Monitor::snapshot)
    }

    /// Aggregate cost of faults and recovery so far. `retries` and
    /// `recovery_jobs` are zero here — the workflow engine fills them in
    /// (the simulator doesn't know which jobs are retries of which tasks).
    pub fn failure_report(&self) -> FailureReport {
        let recovery_ns = self.jobs.iter().map(|j| j.breakdown.get(FlowTag::Recovery)).sum();
        FailureReport {
            crashes: self.stats.crashes,
            transient_io_errors: self.stats.transient_io_errors,
            failed_attempts: self.stats.failed_attempts,
            retries: 0,
            recovery_jobs: 0,
            lost_replicas: self.stats.lost_replicas,
            lost_files: self.stats.lost_files,
            lost_bytes: self.stats.lost_bytes,
            wasted_ns: self.stats.wasted_ns,
            wasted_bytes: self.stats.wasted_bytes.round() as u64,
            recovery_ns,
            recovery_bytes: self.stats.recovery_bytes.round() as u64,
            total_bytes: self.stats.total_moved.round() as u64,
            final_time_ns: self.now.ns(),
            corruptions_injected: self.stats.corruptions_injected,
            corruptions_detected: self.stats.corruptions_detected,
            quarantined_files: self.stats.quarantined_files,
            quarantined_bytes: self.stats.quarantined_bytes,
            verified_bytes: self.stats.verified_bytes,
        }
    }

    // ---- checkpoint snapshot / restore ----

    /// Captures the complete simulator state as a serializable value.
    ///
    /// Only legal at a quiescent point: no fatal error pending and no
    /// unreported failures (i.e. between `run_to_incident` returns). The
    /// embedded config strips any chaos clause so snapshot bytes agree
    /// between chaos-injected and clean runs, and a restored simulator
    /// never re-inherits the fault that killed its predecessor.
    pub fn snapshot(&self) -> Result<SimSnapshot, SimError> {
        if let Some(e) = &self.fatal {
            return Err(SimError::Snapshot(format!("fatal error pending: {e}")));
        }
        if !self.pending_failures.is_empty() {
            return Err(SimError::Snapshot(format!(
                "{} unreported failures pending",
                self.pending_failures.len()
            )));
        }
        let mut config = self.config.clone();
        config.faults = config.faults.without_chaos();
        // Heap iteration order is an implementation detail; sorting by the
        // unique `(time, seq)` makes the serialized queue canonical.
        let mut heap: Vec<(u64, u64, Event)> = self.heap.iter().map(|Reverse(e)| *e).collect();
        heap.sort_unstable();
        Ok(SimSnapshot {
            version: SNAPSHOT_VERSION,
            cluster: self.cluster.clone(),
            config,
            net: self.net.snapshot(),
            files: self.fs.snapshot(),
            cache: self.cache.as_ref().map(CacheState::snapshot),
            monitor: self.monitor.as_ref().map(Monitor::state),
            jobs: self
                .jobs
                .iter()
                .map(|job| JobSnapshot {
                    name: job.name.clone(),
                    logical: job.logical.clone(),
                    node: job.node,
                    actions: job.actions.iter().cloned().collect(),
                    deps_left: job.deps_left,
                    deps: job.deps.clone(),
                    dependents: job.dependents.clone(),
                    state: job.state,
                    pending_flows: job.pending_flows,
                    io: job.io.clone(),
                    ctx: job.ctx.as_ref().map(TaskContext::snapshot),
                    fds: job.fds.iter().map(|(&f, &fd)| (f, fd.0)).collect(),
                    cursor: job.cursor.clone(),
                    start: job.start,
                    end: job.end,
                    breakdown: job.breakdown.clone(),
                    submit_delay_ns: job.submit_delay_ns,
                    recovery: job.recovery,
                    replaces: job.replaces,
                    flows: job.flows.iter().map(|k| k.0).collect(),
                    io_ops: job.io_ops,
                    moved_bytes: job.moved_bytes,
                    taint: job.taint,
                    reads_seen: job.reads_seen,
                })
                .collect(),
            heap,
            capacity_changes: self.capacity_changes.clone(),
            next_seq: self.next_seq,
            now_ns: self.now.ns(),
            free_cores: self.free_cores.clone(),
            ready: self.ready.iter().map(|q| q.iter().copied().collect()).collect(),
            finished: self.finished,
            node_up: self.node_up.clone(),
            stats: self.stats.clone(),
            events_dispatched: self.events_dispatched,
            obs: self.obs.as_deref().map(SimObs::state),
        })
    }

    /// Rebuilds a simulator from a [`Simulation::snapshot`].
    ///
    /// The derived layout (flow-network registration order, cache levels,
    /// observability tracks and metric ids) is reconstructed by re-running
    /// the normal constructor on the embedded cluster/config; the dynamic
    /// state is then overlaid wholesale. A restored simulator continues
    /// byte-identically to the one that was snapshotted. Chaos is always
    /// disarmed after restore.
    pub fn restore(snap: SimSnapshot) -> Result<Simulation, SimError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(SimError::Snapshot(format!(
                "snapshot version {} (this build expects {})",
                snap.version, SNAPSHOT_VERSION
            )));
        }
        let mut sim = Simulation::new(snap.cluster, snap.config);
        sim.net = FlowNet::from_snapshot(snap.net);
        sim.fs = SimFs::from_snapshot(snap.files);
        match (sim.cache.is_some(), snap.cache) {
            (true, Some(cs)) => sim.cache = Some(CacheState::from_snapshot(cs)),
            (false, None) => {}
            _ => {
                return Err(SimError::Snapshot(
                    "cache presence mismatch between config and snapshot".into(),
                ));
            }
        }
        match (&sim.monitor, snap.monitor) {
            (Some(m), Some(st)) => m.restore_state(st),
            (None, None) => {}
            _ => {
                return Err(SimError::Snapshot(
                    "monitor presence mismatch between config and snapshot".into(),
                ));
            }
        }
        let jobs: Vec<Job> = snap
            .jobs
            .into_iter()
            .map(|js| Job {
                ctx: match (&js.ctx, &sim.monitor) {
                    (Some(ts), Some(m)) => Some(m.resume_task(ts)),
                    _ => None,
                },
                name: js.name,
                logical: js.logical,
                node: js.node,
                actions: js.actions.into(),
                deps_left: js.deps_left,
                deps: js.deps,
                dependents: js.dependents,
                state: js.state,
                pending_flows: js.pending_flows,
                io: js.io,
                fds: js
                    .fds
                    .into_iter()
                    .map(|(f, fd)| (f, dfl_trace::handle::Fd(fd)))
                    .collect(),
                cursor: js.cursor,
                start: js.start,
                end: js.end,
                breakdown: js.breakdown,
                submit_delay_ns: js.submit_delay_ns,
                recovery: js.recovery,
                replaces: js.replaces,
                flows: js.flows.into_iter().map(FlowKey).collect(),
                io_ops: js.io_ops,
                moved_bytes: js.moved_bytes,
                taint: js.taint,
                reads_seen: js.reads_seen,
            })
            .collect();
        sim.jobs = jobs;
        sim.capacity_changes = snap.capacity_changes;
        // Every queued event must name state the snapshot carries: a
        // dangling referent would index out of bounds at dispatch, so a
        // queue that disagrees with its jobs, fault table, or capacity
        // registrations fails typed rather than panicking or diverging.
        for &(_, _, ev) in &snap.heap {
            let (idx, len, what) = match ev {
                Event::Arrive(j)
                | Event::ComputeDone(j)
                | Event::IoLatencyDone(j)
                | Event::OpenDone(j) => (j, sim.jobs.len(), "jobs"),
                Event::CapacityChange(i) => (i, sim.capacity_changes.len(), "capacity changes"),
                Event::NodeCrash(i) | Event::NodeRecover(i) => {
                    (i, sim.faults.crashes.len(), "crashes")
                }
            };
            if idx as usize >= len {
                return Err(SimError::Snapshot(format!(
                    "queued event {ev:?} is out of range: the snapshot has {len} {what}"
                )));
            }
        }
        sim.heap = snap.heap.into_iter().map(Reverse).collect();
        sim.next_seq = snap.next_seq;
        sim.now = SimTime(snap.now_ns);
        sim.free_cores = snap.free_cores;
        sim.ready = snap.ready.into_iter().map(VecDeque::from).collect();
        sim.finished = snap.finished;
        sim.node_up = snap.node_up;
        sim.pending_failures = Vec::new();
        sim.fatal = None;
        sim.stats = snap.stats;
        sim.events_dispatched = snap.events_dispatched;
        match (sim.obs.as_deref_mut(), snap.obs) {
            (Some(o), Some(st)) => o.restore(st),
            (None, None) => {}
            _ => {
                return Err(SimError::Snapshot(
                    "obs presence mismatch between config and snapshot".into(),
                ));
            }
        }
        sim.chaos = None;
        Ok(sim)
    }
}

/// Version tag embedded in every [`SimSnapshot`]; bump on layout changes.
/// v2: events inline in `heap` entries (the side `events` log is gone).
/// v3: integrity fields — file digests/corruption state, job taint and
/// read counters, pending-I/O corruption outcome, corruption stats.
/// v4: flow sizes owned by the flow network (the side `flow_bytes` map is
/// gone), group-coverage flow-heap entries, node-keyed event cursors.
/// v5: the event cursors (`cursors`, `shared_queued`) are gone; the queue
/// travels as one sorted list.
/// v6: monitor block histograms travel as run-length rows, one per run of
/// contiguous equal blocks, instead of one `[key, stats]` pair per block.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Serializable state of one [`Simulation`] job (see [`SimSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSnapshot {
    pub name: String,
    pub logical: String,
    pub node: u32,
    pub actions: Vec<Action>,
    pub deps_left: usize,
    pub deps: Vec<u32>,
    pub dependents: Vec<u32>,
    pub state: JobState,
    pub pending_flows: usize,
    pub io: Option<PendingIo>,
    pub ctx: Option<TaskSnapshot>,
    /// `FileIdx -> Fd.0` for open trace fds.
    pub fds: HashMap<FileIdx, u64>,
    pub cursor: HashMap<FileIdx, u64>,
    pub start: Option<SimTime>,
    pub end: Option<SimTime>,
    pub breakdown: Breakdown,
    pub submit_delay_ns: u64,
    pub recovery: bool,
    pub replaces: Option<u32>,
    /// Active flow keys (`FlowKey.0`).
    pub flows: Vec<u64>,
    pub io_ops: u64,
    pub moved_bytes: f64,
    pub taint: Option<FileIdx>,
    pub reads_seen: u64,
}

/// Complete serializable state of a [`Simulation`] at a quiescent point.
///
/// Produced by [`Simulation::snapshot`], consumed by
/// [`Simulation::restore`]; the round trip is exact by construction: every
/// dynamic field travels verbatim (floats here are always finite), while
/// derived indices (`by_path`, lane heaps, track ids, interner ids) are
/// deterministic functions of what does travel and are rebuilt on restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSnapshot {
    pub version: u32,
    pub cluster: ClusterSpec,
    /// Config with any chaos clause stripped (chaos never survives a
    /// checkpoint: the resumed run must not re-crash at the same point).
    pub config: SimConfig,
    pub net: FlowNetSnapshot,
    pub files: Vec<FileMeta>,
    pub cache: Option<CacheSnapshot>,
    pub monitor: Option<MonitorState>,
    pub jobs: Vec<JobSnapshot>,
    /// Pending event-heap entries `(time, seq, event)`, sorted ascending
    /// (heap order is fully determined by content — all entries are
    /// distinct).
    pub heap: Vec<(u64, u64, Event)>,
    pub capacity_changes: Vec<(ResourceId, f64)>,
    pub next_seq: u64,
    pub now_ns: u64,
    pub free_cores: Vec<u32>,
    pub ready: Vec<Vec<u32>>,
    pub finished: usize,
    pub node_up: Vec<bool>,
    pub stats: FaultStats,
    pub events_dispatched: u64,
    pub obs: Option<SimObsState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> u64 {
        n << 20
    }

    fn simple_sim() -> Simulation {
        Simulation::new(ClusterSpec::gpu_cluster(2), SimConfig::default())
    }

    #[test]
    fn single_read_job_runs() {
        let mut sim = simple_sim();
        sim.fs_mut().create_external("in.dat", mb(100), TierRef::shared(TierKind::Nfs));
        let j = sim.submit(JobSpec::new("reader-0", 0).action(Action::read_file("in.dat")));
        sim.run().unwrap();
        let r = sim.job_report(j).unwrap();
        // 100 MiB at 500 MiB/s ≈ 0.2 s plus latency.
        let dur = r.duration_ns() as f64 / 1e9;
        assert!(dur > 0.19 && dur < 0.3, "duration {dur}");
        assert!(r.breakdown.get(FlowTag::SharedRead) > 0);
    }

    #[test]
    fn cacheless_config_with_cache_all_origins_reads_fine() {
        // Regression: `cache_origins: All` with `cache: None` used to steer
        // reads toward the cache branch, which unwrapped the absent cache
        // state. The branch must simply be skipped.
        let config = SimConfig { cache: None, cache_origins: CacheOrigins::All, ..Default::default() };
        let mut sim = Simulation::new(ClusterSpec::gpu_cluster(1), config);
        sim.fs_mut().create_external("in.dat", mb(64), TierRef::shared(TierKind::Nfs));
        let j = sim.submit(JobSpec::new("reader-0", 0).action(Action::read_file("in.dat")));
        sim.run().unwrap();
        let r = sim.job_report(j).unwrap();
        assert!(r.breakdown.get(FlowTag::SharedRead) > 0, "read went through the tier path");
    }

    #[test]
    fn write_then_read_roundtrip_with_measurement() {
        let mut sim = simple_sim();
        let w = sim.submit(
            JobSpec::new("writer-0", 0)
                .action(Action::Write { file: "mid".into(), len: mb(10), tier: Some(TierRef::shared(TierKind::Beegfs)) }),
        );
        let r = sim.submit(JobSpec::new("reader-0", 1).dep(w).action(Action::read_file("mid")));
        sim.run().unwrap();
        assert!(sim.job_report(r).unwrap().start_ns >= sim.job_report(w).unwrap().end_ns);

        let set = sim.measurements().unwrap();
        assert_eq!(set.tasks.len(), 2);
        let wrec = set.records.iter().find(|x| x.task_name == "writer-0").unwrap();
        let rrec = set.records.iter().find(|x| x.task_name == "reader-0").unwrap();
        assert_eq!(wrec.bytes_written, mb(10));
        assert_eq!(rrec.bytes_read, mb(10));
    }

    #[test]
    fn core_limit_serializes_jobs() {
        let mut cluster = ClusterSpec::gpu_cluster(1);
        cluster.nodes[0].cores = 1;
        let mut sim = Simulation::new(cluster, SimConfig::default());
        let a = sim.submit(JobSpec::new("a", 0).action(Action::compute_ms(100)));
        let b = sim.submit(JobSpec::new("b", 0).action(Action::compute_ms(100)));
        sim.run().unwrap();
        let (ra, rb) = (sim.job_report(a).unwrap(), sim.job_report(b).unwrap());
        assert!(rb.start_ns >= ra.end_ns, "one core: b waits for a");
        assert_eq!(sim.time().ns(), 200_000_000);
    }

    #[test]
    fn parallel_jobs_on_separate_nodes_overlap() {
        let mut sim = simple_sim();
        let a = sim.submit(JobSpec::new("a", 0).action(Action::compute_ms(100)));
        let b = sim.submit(JobSpec::new("b", 1).action(Action::compute_ms(100)));
        sim.run().unwrap();
        assert_eq!(sim.job_report(a).unwrap().start_ns, 0);
        assert_eq!(sim.job_report(b).unwrap().start_ns, 0);
        assert_eq!(sim.time().ns(), 100_000_000);
    }

    #[test]
    fn contention_slows_shared_tier() {
        // Two concurrent 100 MiB reads from NFS share 500 MiB/s.
        let mut sim = simple_sim();
        sim.fs_mut().create_external("x", mb(100), TierRef::shared(TierKind::Nfs));
        sim.fs_mut().create_external("y", mb(100), TierRef::shared(TierKind::Nfs));
        let a = sim.submit(JobSpec::new("a", 0).action(Action::read_file("x")));
        let b = sim.submit(JobSpec::new("b", 1).action(Action::read_file("y")));
        sim.run().unwrap();
        let da = sim.job_report(a).unwrap().duration_ns() as f64 / 1e9;
        let db = sim.job_report(b).unwrap().duration_ns() as f64 / 1e9;
        assert!(da > 0.38 && da < 0.5, "shared: {da}");
        assert!(db > 0.38 && db < 0.5, "shared: {db}");
    }

    #[test]
    fn node_local_reads_do_not_contend_across_nodes() {
        let mut sim = simple_sim();
        sim.fs_mut().create_external("x", mb(100), TierRef::node(TierKind::Ssd, 0));
        sim.fs_mut().create_external("y", mb(100), TierRef::node(TierKind::Ssd, 1));
        let a = sim.submit(JobSpec::new("a", 0).action(Action::read_file("x")));
        let b = sim.submit(JobSpec::new("b", 1).action(Action::read_file("y")));
        sim.run().unwrap();
        let da = sim.job_report(a).unwrap().duration_ns() as f64 / 1e9;
        // 100 MiB at 2000 MiB/s = 50 ms.
        assert!(da < 0.07, "independent SSDs: {da}");
        assert!(sim.job_report(b).unwrap().breakdown.get(FlowTag::LocalRead) > 0);
        let _ = b;
    }

    #[test]
    fn staging_changes_replica_choice() {
        let mut sim = simple_sim();
        sim.fs_mut().create_external("in", mb(100), TierRef::shared(TierKind::Nfs));
        let s = sim.submit(
            JobSpec::new("stage-0", 0).action(Action::stage("in", TierRef::node(TierKind::Ramdisk, 0))),
        );
        let r = sim.submit(JobSpec::new("reader-0", 0).dep(s).action(Action::read_file("in")));
        sim.run().unwrap();
        let rr = sim.job_report(r).unwrap();
        assert!(rr.breakdown.get(FlowTag::LocalRead) > 0, "read served from ramdisk");
        assert_eq!(rr.breakdown.get(FlowTag::SharedRead), 0);
        // Ramdisk read should be fast: 100 MiB at 8 GiB/s ≈ 12 ms.
        assert!(rr.duration_ns() < 40_000_000, "{}", rr.duration_ns());
    }

    #[test]
    fn remote_reads_via_cache_hit_after_warmup() {
        let mut sim = Simulation::new(
            ClusterSpec::cpu_cluster_with_data_server(1),
            SimConfig::with_cache(CacheConfig::tazer_table4()),
        );
        sim.fs_mut().create_external("ds", mb(64), TierRef::shared(TierKind::Wan));
        let a = sim.submit(JobSpec::new("t1-0", 0).action(Action::read_file("ds")));
        let b = sim.submit(JobSpec::new("t2-0", 0).dep(a).action(Action::read_file("ds")));
        sim.run().unwrap();
        let ra = sim.job_report(a).unwrap();
        let rb = sim.job_report(b).unwrap();
        assert!(ra.breakdown.get(FlowTag::NetworkRead) > 0, "cold read over WAN");
        assert_eq!(rb.breakdown.get(FlowTag::NetworkRead), 0, "warm read hits cache");
        assert!(rb.breakdown.get(FlowTag::CacheL2) > 0, "node-wide L2 serves task 2");
        assert!(rb.duration_ns() < ra.duration_ns() / 4, "cache ≫ WAN");
    }

    #[test]
    fn open_pays_metadata_cost() {
        let mut sim = simple_sim();
        sim.fs_mut().create_external("f", mb(1), TierRef::shared(TierKind::Nfs));
        let j = sim.submit(
            JobSpec::new("o", 0)
                .action(Action::Open { file: "f".into(), write: false })
                .action(Action::Read { file: "f".into(), offset: None, len: 0 })
                .action(Action::Close { file: "f".into() }),
        );
        sim.run().unwrap();
        let r = sim.job_report(j).unwrap();
        assert!(r.breakdown.get(FlowTag::Metadata) >= 1_000_000, "NFS open ≈ 1.5 ms");
    }

    #[test]
    fn dependency_chain_ordering() {
        let mut sim = simple_sim();
        let a = sim.submit(JobSpec::new("a", 0).action(Action::compute_ms(10)));
        let b = sim.submit(JobSpec::new("b", 0).dep(a).action(Action::compute_ms(10)));
        let c = sim.submit(JobSpec::new("c", 1).dep(b).action(Action::compute_ms(10)));
        sim.run().unwrap();
        let (ra, rb, rc) = (
            sim.job_report(a).unwrap(),
            sim.job_report(b).unwrap(),
            sim.job_report(c).unwrap(),
        );
        assert!(ra.end_ns <= rb.start_ns && rb.end_ns <= rc.start_ns);
        assert_eq!(sim.time().ns(), 30_000_000);
    }

    #[test]
    fn determinism_across_runs() {
        let build = || {
            let mut sim = simple_sim();
            sim.fs_mut().create_external("x", mb(64), TierRef::shared(TierKind::Beegfs));
            for i in 0..8 {
                sim.submit(
                    JobSpec::new(&format!("t-{i}"), i % 2)
                        .action(Action::read_file("x"))
                        .action(Action::compute_ms(5))
                        .action(Action::write_file(&format!("o{i}"), mb(4))),
                );
            }
            sim.run().unwrap();
            (sim.time(), sim.reports().iter().map(|r| r.end_ns).collect::<Vec<_>>())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn empty_job_completes_immediately() {
        let mut sim = simple_sim();
        let j = sim.submit(JobSpec::new("noop", 0));
        sim.run().unwrap();
        assert_eq!(sim.job_report(j).unwrap().duration_ns(), 0);
    }

    #[test]
    fn delayed_arrival() {
        let mut sim = simple_sim();
        let j = sim.submit(JobSpec::new("late", 0).delay_ns(50_000_000).action(Action::compute_ms(1)));
        sim.run().unwrap();
        assert_eq!(sim.job_report(j).unwrap().start_ns, 50_000_000);
    }

    #[test]
    fn monitor_none_disables_measurement() {
        // Regression: `monitor: None` used to be silently replaced with a
        // default monitor, so measurement could never be turned off.
        let mut sim = Simulation::new(
            ClusterSpec::gpu_cluster(1),
            SimConfig { monitor: None, ..SimConfig::default() },
        );
        sim.fs_mut().create_external("in.dat", mb(1), TierRef::shared(TierKind::Nfs));
        sim.submit(JobSpec::new("reader-0", 0).action(Action::read_file("in.dat")));
        sim.run().unwrap();
        assert!(sim.measurements().is_none(), "opting out of the monitor must stick");
        // The default config still attaches one.
        let mut sim = simple_sim();
        sim.submit(JobSpec::new("noop-0", 0).action(Action::compute_ms(1)));
        sim.run().unwrap();
        assert!(sim.measurements().is_some());
    }

    #[test]
    fn first_write_places_file_exactly_once() {
        // Regression: a fresh file written with an explicit tier used to go
        // through `create_for_write` twice; the collapsed placement decision
        // must leave exactly the requested replica.
        let tier = TierRef::node(TierKind::Ssd, 0);
        let mut sim = simple_sim();
        sim.submit(
            JobSpec::new("writer-0", 0)
                .action(Action::Write { file: "out".into(), len: mb(4), tier: Some(tier) }),
        );
        sim.run().unwrap();
        let idx = sim.fs().lookup("out").unwrap();
        assert_eq!(sim.fs().meta(idx).replicas, vec![tier]);
        assert_eq!(sim.fs().meta(idx).size, mb(4));
    }

    #[test]
    fn tier_on_nonempty_file_does_not_replace() {
        // A tier request only places a file while it has no data: once
        // bytes exist, later writes must not silently re-home them.
        let first = TierRef::shared(TierKind::Beegfs);
        let second = TierRef::node(TierKind::Ssd, 0);
        let mut sim = simple_sim();
        let w1 = sim.submit(
            JobSpec::new("writer-0", 0)
                .action(Action::Write { file: "out".into(), len: mb(2), tier: Some(first) }),
        );
        sim.submit(
            JobSpec::new("writer-1", 0)
                .dep(w1)
                .action(Action::Write { file: "out".into(), len: mb(2), tier: Some(second) }),
        );
        sim.run().unwrap();
        let idx = sim.fs().lookup("out").unwrap();
        assert_eq!(sim.fs().meta(idx).replicas, vec![first]);
        assert_eq!(sim.fs().meta(idx).size, mb(4));
    }
}

#[cfg(test)]
mod buffering_and_failure_tests {
    use super::*;

    fn mb(n: u64) -> u64 {
        n << 20
    }

    #[test]
    fn write_buffering_takes_writes_off_the_task_path() {
        let run_with = |buffered: bool| {
            let mut sim = Simulation::new(
                ClusterSpec::gpu_cluster(1),
                SimConfig { write_buffering: buffered, ..SimConfig::default() },
            );
            let j = sim.submit(
                JobSpec::new("writer-0", 0)
                    .action(Action::Write {
                        file: "out".into(),
                        len: mb(200),
                        tier: Some(TierRef::shared(TierKind::Nfs)),
                    })
                    .action(Action::compute_ms(10)),
            );
            sim.run().unwrap();
            (sim.job_report(j).unwrap().duration_ns(), sim.time().ns())
        };
        let (synchronous, _) = run_with(false);
        let (buffered, makespan) = run_with(true);
        // 200 MiB to NFS at 350 MiB/s ≈ 0.57 s synchronous; buffered the
        // task only pays its compute.
        assert!(buffered < synchronous / 10, "{buffered} vs {synchronous}");
        // …but the drain still happens before the simulation ends.
        assert!(makespan >= 500_000_000, "drain occupies the makespan: {makespan}");
    }

    #[test]
    fn buffered_writes_still_measured() {
        let mut sim = Simulation::new(
            ClusterSpec::gpu_cluster(1),
            SimConfig { write_buffering: true, ..SimConfig::default() },
        );
        sim.submit(JobSpec::new("w-0", 0).action(Action::write_file("f", mb(10))));
        sim.run().unwrap();
        let set = sim.measurements().unwrap();
        assert_eq!(set.records[0].bytes_written, mb(10));
    }

    #[test]
    fn straggler_nic_slows_transfer_mid_flight() {
        let base = {
            let mut sim = Simulation::new(ClusterSpec::gpu_cluster(1), SimConfig::default());
            sim.fs_mut().create_external("x", mb(100), TierRef::shared(TierKind::Beegfs));
            sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("x")));
            sim.run().unwrap();
            sim.time().ns()
        };
        let degraded = {
            let mut sim = Simulation::new(ClusterSpec::gpu_cluster(1), SimConfig::default());
            sim.fs_mut().create_external("x", mb(100), TierRef::shared(TierKind::Beegfs));
            let nic = sim.nic_resource(0);
            // Halfway through the ~50ms transfer, the NIC collapses to 1%.
            sim.schedule_capacity_change(25_000_000, nic, 12.5 * (1 << 20) as f64);
            sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("x")));
            sim.run().unwrap();
            sim.time().ns()
        };
        assert!(degraded > base * 3, "straggler visible: {degraded} vs {base}");
    }

    #[test]
    fn tier_degradation_shifts_makespan() {
        let mut sim = Simulation::new(ClusterSpec::gpu_cluster(2), SimConfig::default());
        sim.fs_mut().create_external("x", mb(200), TierRef::shared(TierKind::Nfs));
        let tier = sim.tier_resource(TierRef::shared(TierKind::Nfs));
        sim.schedule_capacity_change(0, tier, 50.0 * (1 << 20) as f64);
        let j = sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("x")));
        sim.run().unwrap();
        // 200 MiB at 50 MiB/s = 4s.
        let dur = sim.job_report(j).unwrap().duration_ns() as f64 / 1e9;
        assert!(dur > 3.9 && dur < 4.3, "{dur}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::Degradation;

    fn mb(n: u64) -> u64 {
        n << 20
    }

    fn sim_with(faults: FaultPlan) -> Simulation {
        Simulation::new(ClusterSpec::gpu_cluster(2), SimConfig { faults, ..SimConfig::default() })
    }

    #[test]
    fn missing_read_is_an_error_not_a_panic() {
        let mut sim = sim_with(FaultPlan::none());
        sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("ghost")));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::MissingFile { file: "ghost".into(), job: "r-0".into() });
    }

    #[test]
    fn missing_open_and_stage_are_errors_too() {
        let mut sim = sim_with(FaultPlan::none());
        sim.submit(JobSpec::new("o-0", 0).action(Action::Open { file: "ghost".into(), write: false }));
        assert!(matches!(sim.run(), Err(SimError::MissingFile { .. })));
        let mut sim = sim_with(FaultPlan::none());
        sim.submit(
            JobSpec::new("s-0", 0).action(Action::stage("ghost", TierRef::node(TierKind::Ssd, 0))),
        );
        assert!(matches!(sim.run(), Err(SimError::MissingFile { .. })));
    }

    #[test]
    fn unprovisioned_tier_is_an_error_not_a_panic() {
        // gpu_cluster provisions no WAN tier: an external file placed there
        // used to panic inside `tier_spec` on the first read.
        let mut sim = sim_with(FaultPlan::none());
        sim.fs_mut().create_external("remote", mb(64), TierRef::shared(TierKind::Wan));
        sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("remote")));
        assert_eq!(sim.run().unwrap_err(), SimError::NoSuchTier("wan".into()));

        // Same for a stage action targeting an absent tier...
        let mut sim = sim_with(FaultPlan::none());
        sim.fs_mut().create_external("x", mb(1), TierRef::shared(TierKind::Nfs));
        sim.submit(
            JobSpec::new("s-0", 0).action(Action::stage("x", TierRef::shared(TierKind::Lustre))),
        );
        assert!(matches!(sim.run(), Err(SimError::NoSuchTier(_))));

        // ...and a replica pinned to a node index outside the cluster.
        let mut sim = sim_with(FaultPlan::none());
        sim.fs_mut().create_external("y", mb(1), TierRef::node(TierKind::Ssd, 99));
        sim.submit(JobSpec::new("r-1", 0).action(Action::read_file("y")));
        assert_eq!(sim.run().unwrap_err(), SimError::BadNode(99));
    }

    #[test]
    fn crash_fails_running_job_and_loses_local_files() {
        // Job on node 0 writes to ramdisk then computes; the crash lands in
        // the compute interval, after the local file exists.
        let faults = FaultPlan::seeded(1).crash(0, 80_000_000, 40_000_000);
        let mut sim = sim_with(faults);
        let j = sim.submit(
            JobSpec::new("w-0", 0)
                .action(Action::Write {
                    file: "local".into(),
                    len: mb(16),
                    tier: Some(TierRef::node(TierKind::Ramdisk, 0)),
                })
                .action(Action::compute_ms(500)),
        );
        let outcome = sim.run_to_incident().unwrap();
        let RunOutcome::Failures(fs) = outcome else { panic!("expected failures") };
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].job, j);
        assert_eq!(fs[0].cause, FailureCause::NodeCrash { node: 0 });
        assert_eq!(fs[0].at_ns, 80_000_000);
        let idx = sim.fs().lookup("local").unwrap();
        assert!(sim.fs().is_lost(idx), "ramdisk replica died with the node");
        assert!(!sim.job_done(j));
        let report = sim.failure_report();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.failed_attempts, 1);
        assert_eq!(report.lost_files, 1);
        assert_eq!(report.lost_bytes, mb(16));
        assert!(report.wasted_ns > 0);
        // Nothing left to do: the run finishes with the failure recorded.
        assert!(matches!(sim.run_to_incident().unwrap(), RunOutcome::Completed));
    }

    #[test]
    fn resubmit_releases_dependents_of_the_failed_original() {
        let faults = FaultPlan::seeded(1).crash(0, 50_000_000, 10_000_000);
        let mut sim = sim_with(faults);
        let w = sim.submit(
            JobSpec::new("w-0", 0)
                .action(Action::compute_ms(100))
                .action(Action::write_file("out", mb(4))),
        );
        let consumer =
            sim.submit(JobSpec::new("c-0", 1).dep(w).action(Action::read_file("out")));
        let RunOutcome::Failures(fs) = sim.run_to_incident().unwrap() else {
            panic!("crash expected")
        };
        assert_eq!(fs[0].job, w);
        // Retry on the surviving node, replacing the failed original.
        let retry = sim.resubmit(
            w,
            JobSpec::new("w-0~r1", 1)
                .delay_ns(sim.time().ns())
                .action(Action::compute_ms(100))
                .action(Action::write_file("out", mb(4))),
        );
        sim.run().unwrap();
        assert!(sim.job_done(retry) && sim.job_done(consumer));
        let rr = sim.job_report(consumer).unwrap();
        let retry_end = sim.job_report(retry).unwrap().end_ns;
        assert!(rr.start_ns >= retry_end, "consumer waited for the retry");
    }

    #[test]
    fn crashed_node_rejects_work_until_recovery() {
        // Node 0 is down 100..200 ms; a job arriving at 150 ms must start
        // only after recovery.
        let faults = FaultPlan::seeded(1).crash(0, 100_000_000, 100_000_000);
        let mut sim = sim_with(faults);
        let j = sim.submit(
            JobSpec::new("late-0", 0).delay_ns(150_000_000).action(Action::compute_ms(10)),
        );
        sim.run().unwrap();
        assert_eq!(sim.job_report(j).unwrap().start_ns, 200_000_000);
    }

    #[test]
    fn transient_io_error_fails_the_attempt() {
        // Probability ~1 makes the very first read fail deterministically.
        let faults = FaultPlan::seeded(3).io_errors(0.999_999);
        let mut sim = sim_with(faults);
        sim.fs_mut().create_external("x", mb(8), TierRef::shared(TierKind::Nfs));
        let j = sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("x")));
        let RunOutcome::Failures(fs) = sim.run_to_incident().unwrap() else {
            panic!("io error expected")
        };
        assert_eq!(fs[0].job, j);
        assert_eq!(fs[0].cause, FailureCause::IoError { file: "x".into() });
        assert_eq!(sim.failure_report().transient_io_errors, 1);
    }

    #[test]
    fn degradation_window_slows_then_restores() {
        let window = |faults: FaultPlan| {
            let mut sim = sim_with(faults);
            sim.fs_mut().create_external("x", mb(100), TierRef::shared(TierKind::Beegfs));
            sim.submit(JobSpec::new("r-0", 0).action(Action::read_file("x")));
            sim.run().unwrap();
            sim.time().ns()
        };
        let clean = window(FaultPlan::none());
        // Throttle BeeGFS to 1% for the middle of the ~50ms transfer.
        let degraded = window(FaultPlan::seeded(1).degrade(Degradation {
            target: DegradeTarget::Tier(TierRef::shared(TierKind::Beegfs)),
            at_ns: 10_000_000,
            duration_ns: 50_000_000,
            factor: 0.01,
        }));
        assert!(degraded > clean + 40_000_000, "window visible: {degraded} vs {clean}");
        // After the window, capacity is restored: a second, later read is
        // full speed again.
        let mut sim = sim_with(FaultPlan::seeded(1).degrade(Degradation {
            target: DegradeTarget::Tier(TierRef::shared(TierKind::Beegfs)),
            at_ns: 0,
            duration_ns: 1_000_000,
            factor: 0.01,
        }));
        sim.fs_mut().create_external("x", mb(100), TierRef::shared(TierKind::Beegfs));
        let j = sim
            .submit(JobSpec::new("r-0", 0).delay_ns(2_000_000).action(Action::read_file("x")));
        sim.run().unwrap();
        // Full speed again: the 1250 MiB/s NIC bounds the read at ~80 ms.
        let dur = sim.job_report(j).unwrap().duration_ns();
        assert!(dur < 90_000_000, "restored: {dur}");
    }

    #[test]
    fn none_plan_is_byte_identical_to_default_config() {
        let run = |cfg: SimConfig| {
            let mut sim = Simulation::new(ClusterSpec::gpu_cluster(2), cfg);
            sim.fs_mut().create_external("x", mb(64), TierRef::shared(TierKind::Beegfs));
            for i in 0..6 {
                sim.submit(
                    JobSpec::new(&format!("t-{i}"), i % 2)
                        .action(Action::read_file("x"))
                        .action(Action::compute_ms(3))
                        .action(Action::write_file(&format!("o{i}"), mb(2))),
                );
            }
            sim.run().unwrap();
            let ends: Vec<u64> = sim.reports().iter().map(|r| r.end_ns).collect();
            (sim.time().ns(), ends)
        };
        let base = run(SimConfig::default());
        let with_plan = run(SimConfig {
            faults: FaultPlan::seeded(12345), // seeded but inert
            ..SimConfig::default()
        });
        assert_eq!(base, with_plan);
    }

    #[test]
    fn deadlock_report_names_lost_files_and_failed_deps() {
        // Producer writes to ramdisk, crash destroys it, consumer waits on
        // the failed producer forever (no retry submitted).
        let faults = FaultPlan::seeded(1).crash(0, 60_000_000, 10_000_000);
        let mut sim = sim_with(faults);
        let w = sim.submit(
            JobSpec::new("prod-0", 0)
                .action(Action::Write {
                    file: "mid".into(),
                    len: mb(8),
                    tier: Some(TierRef::node(TierKind::Ramdisk, 0)),
                })
                .action(Action::compute_ms(200)),
        );
        sim.submit(JobSpec::new("cons-0", 1).dep(w).action(Action::read_file("mid")));
        let err = sim.run().unwrap_err();
        let SimError::Deadlock { pending, stuck } = &err else { panic!("deadlock expected") };
        assert_eq!(*pending, 1);
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].name, "cons-0");
        assert!(stuck[0].waiting_on.iter().any(|w| w.contains("failed dep 'prod-0'")), "{err}");
        assert!(stuck[0].waiting_on.iter().any(|w| w.contains("lost file mid")), "{err}");
    }

    #[test]
    fn recovery_jobs_tag_flows_as_recovery() {
        let mut sim = sim_with(FaultPlan::none());
        sim.fs_mut().create_external("x", mb(16), TierRef::shared(TierKind::Nfs));
        let j = sim.submit(
            JobSpec::new("rec-0", 0)
                .recovery(true)
                .action(Action::read_file("x"))
                .action(Action::write_file("y", mb(4))),
        );
        sim.run().unwrap();
        let r = sim.job_report(j).unwrap();
        assert!(r.breakdown.get(FlowTag::Recovery) > 0);
        assert_eq!(r.breakdown.get(FlowTag::SharedRead), 0);
        assert_eq!(r.breakdown.get(FlowTag::Write), 0);
        assert!(sim.failure_report().recovery_bytes >= mb(16 + 4));
    }

    #[test]
    fn failure_report_deterministic_across_runs() {
        let run = || {
            let faults = FaultPlan::seeded(42).crash(0, 30_000_000, 20_000_000).io_errors(0.05);
            let mut sim = sim_with(faults);
            sim.fs_mut().create_external("x", mb(32), TierRef::shared(TierKind::Beegfs));
            for i in 0..8 {
                sim.submit(
                    JobSpec::new(&format!("t-{i}"), i % 2)
                        .action(Action::read_file("x"))
                        .action(Action::compute_ms(20))
                        .action(Action::write_file(&format!("o{i}"), mb(2))),
                );
            }
            // Drive to completion ignoring failures.
            sim.run().unwrap();
            sim.failure_report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn obs_timeline_records_without_monitor() {
        // "Monitoring disabled" must not disable the timeline: DFL
        // measurement and observability are independent layers.
        let mut sim = Simulation::new(
            ClusterSpec::gpu_cluster(2),
            SimConfig {
                monitor: None,
                obs: Some(ObsConfig::sampled(50_000_000)),
                ..SimConfig::default()
            },
        );
        sim.fs_mut().create_external("in.dat", mb(100), TierRef::shared(TierKind::Nfs));
        let w = sim.submit(JobSpec::new("reader-0", 0).action(Action::read_file("in.dat")));
        sim.submit(
            JobSpec::new("writer-0", 1).dep(w).action(Action::write_file("out.dat", mb(10))),
        );
        sim.run().unwrap();
        assert!(sim.measurements().is_none());
        let tl = sim.take_timeline().expect("obs enabled");
        assert!(sim.take_timeline().is_none(), "timeline taken once");
        // Queued + run spans for both jobs, one flow span each.
        let runs: Vec<_> = tl
            .spans()
            .filter(|s| s.kind == dfl_obs::SpanKind::Run)
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(runs, vec!["reader-0", "writer-0"]);
        assert_eq!(tl.spans().filter(|s| s.kind == dfl_obs::SpanKind::Queued).count(), 2);
        assert_eq!(tl.spans().filter(|s| s.kind == dfl_obs::SpanKind::Flow).count(), 2);
        assert!(tl.samples().count() > 0, "sampling cadence produced samples");
        assert_eq!(tl.end_ns, sim.time().ns());
        assert_eq!(tl.metrics.counter("jobs_completed"), 2);
        assert_eq!(tl.metrics.counter("flows_completed"), 2);
        // The flow span records src/dst endpoints and byte size.
        let flow = tl.spans().find(|s| s.kind == dfl_obs::SpanKind::Flow).unwrap();
        assert_eq!(flow.meta.src.as_deref(), Some("tier:nfs"));
        assert_eq!(flow.meta.bytes, Some(mb(100)));
    }

    #[test]
    fn obs_timeline_is_deterministic_under_faults() {
        let build = || {
            let faults = FaultPlan::seeded(7).crash(0, 30_000_000, 20_000_000).io_errors(0.05);
            let mut sim = Simulation::new(
                ClusterSpec::gpu_cluster(2),
                SimConfig {
                    obs: Some(ObsConfig::sampled(10_000_000)),
                    faults,
                    ..SimConfig::default()
                },
            );
            sim.fs_mut().create_external("x", mb(32), TierRef::shared(TierKind::Beegfs));
            for i in 0..8 {
                sim.submit(
                    JobSpec::new(&format!("t-{i}"), i % 2)
                        .action(Action::read_file("x"))
                        .action(Action::compute_ms(20))
                        .action(Action::write_file(&format!("o{i}"), mb(2))),
                );
            }
            sim.run().unwrap();
            sim.take_timeline().expect("obs enabled")
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        // Faults left marks: failed attempts close spans as Failed.
        assert!(a.spans().any(|s| s.outcome == dfl_obs::SpanOutcome::Failed));
        assert!(a.instants().any(|i| i.kind == dfl_obs::InstantKind::NodeCrash));
    }

    #[test]
    fn obs_disabled_returns_no_timeline() {
        let mut sim = sim_with(FaultPlan::none());
        sim.submit(JobSpec::new("a", 0).action(Action::compute_ms(1)));
        sim.run().unwrap();
        assert!(sim.take_timeline().is_none());
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use serde::Value;

    fn mb(n: u64) -> u64 {
        n << 20
    }

    /// A workload exercising every snapshot surface at once: monitor, cache,
    /// observability, node crash, transient I/O errors, cross-node flows.
    fn workload(faults: FaultPlan) -> Simulation {
        let mut sim = Simulation::new(
            ClusterSpec::gpu_cluster(2),
            SimConfig {
                cache: Some(CacheConfig::tazer_table4()),
                cache_origins: CacheOrigins::All,
                obs: Some(ObsConfig::sampled(10_000_000)),
                faults,
                ..SimConfig::default()
            },
        );
        sim.fs_mut().create_external("x", mb(32), TierRef::shared(TierKind::Beegfs));
        for i in 0..8 {
            sim.submit(
                JobSpec::new(&format!("t-{i}"), i % 2)
                    .action(Action::read_file("x"))
                    .action(Action::compute_ms(20))
                    .action(Action::write_file(&format!("o{i}"), mb(2))),
            );
        }
        sim
    }

    fn base_faults() -> FaultPlan {
        FaultPlan::seeded(42).crash(0, 30_000_000, 20_000_000).io_errors(0.05)
    }

    /// Drives to completion and returns every comparable outcome surface.
    type Finish = (u64, u64, Vec<(String, u64, bool)>, FailureReport, Value, Timeline);

    fn finish(mut sim: Simulation) -> Finish {
        sim.run().unwrap();
        let reports =
            sim.reports().iter().map(|r| (r.name.clone(), r.end_ns, r.failed)).collect();
        let report = sim.failure_report();
        let measurements = sim.measurements().expect("monitor attached").to_value();
        let tl = sim.take_timeline().expect("obs attached");
        (sim.time().ns(), sim.events_dispatched(), reports, report, measurements, tl)
    }

    #[test]
    fn snapshot_restore_mid_run_is_exact() {
        let golden = finish(workload(base_faults()));

        let mut sim = workload(base_faults());
        sim.set_pause_at(Some(45_000_000));
        loop {
            match sim.run_to_incident().unwrap() {
                RunOutcome::Paused => break,
                RunOutcome::Failures(_) => {}
                RunOutcome::Completed => panic!("pause expected before completion"),
            }
        }
        let snap = sim.snapshot().unwrap();
        // Full serialize/deserialize round trip through the value tree.
        let restored = Simulation::restore(SimSnapshot::from_value(&snap.to_value()).unwrap())
            .unwrap();
        assert_eq!(finish(restored), golden, "restored run diverged from golden");
        // The paused original is also unperturbed.
        assert_eq!(finish(sim), golden, "pause was not transparent");
    }

    #[test]
    fn pause_on_job_complete_is_transparent() {
        let golden = finish(workload(base_faults()));
        let mut sim = workload(base_faults());
        sim.set_pause_on_job_complete(true);
        let mut pauses = 0;
        loop {
            match sim.run_to_incident().unwrap() {
                RunOutcome::Paused => pauses += 1,
                RunOutcome::Failures(_) => {}
                RunOutcome::Completed => break,
            }
        }
        assert!(pauses > 0, "at least one completion pause");
        sim.set_pause_on_job_complete(false);
        sim.run().unwrap();
        let reports: Vec<(String, u64, bool)> =
            sim.reports().iter().map(|r| (r.name.clone(), r.end_ns, r.failed)).collect();
        assert_eq!(sim.time().ns(), golden.0);
        assert_eq!(sim.events_dispatched(), golden.1);
        assert_eq!(reports, golden.2);
        assert_eq!(sim.take_timeline().unwrap(), golden.5);
    }

    #[test]
    fn chaos_crash_then_resume_reproduces_golden() {
        let golden = finish(workload(base_faults()));
        let total = golden.1;
        assert!(total > 10, "workload must dispatch enough events: {total}");

        for at_event in [total / 4, total / 2, (3 * total) / 4] {
            // Periodic checkpoints every 20 sim-ms; chaos kills the
            // coordinator just before dispatch `at_event`.
            let mut sim = workload(base_faults().chaos_crash(at_event));
            let mut latest = sim.snapshot().unwrap();
            let mut next_ckpt = 20_000_000;
            sim.set_pause_at(Some(next_ckpt));
            loop {
                match sim.run_to_incident() {
                    Ok(RunOutcome::Paused) => {
                        latest = sim.snapshot().unwrap();
                        next_ckpt += 20_000_000;
                        sim.set_pause_at(Some(next_ckpt));
                    }
                    Ok(RunOutcome::Failures(_)) => {}
                    Ok(RunOutcome::Completed) => panic!("chaos must kill before completion"),
                    Err(SimError::CoordinatorCrash { at_event: e }) => {
                        assert_eq!(e, at_event);
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            // Resume from the latest surviving manifest bytes.
            let restored =
                Simulation::restore(SimSnapshot::from_value(&latest.to_value()).unwrap())
                    .unwrap();
            assert_eq!(
                finish(restored),
                golden,
                "crash before dispatch {at_event} did not resume byte-identically"
            );
        }
    }

    #[test]
    fn restore_rejects_version_mismatch() {
        let sim = workload(FaultPlan::none());
        let mut snap = sim.snapshot().unwrap();
        snap.version = SNAPSHOT_VERSION + 1;
        match Simulation::restore(snap) {
            Err(SimError::Snapshot(msg)) => assert!(msg.contains("version"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("version mismatch must be rejected"),
        }
    }

    #[test]
    fn snapshot_allowed_at_quiescent_points() {
        let mut sim = workload(base_faults());
        sim.set_pause_at(Some(29_000_000));
        let mut saw_failures = false;
        loop {
            match sim.run_to_incident().unwrap() {
                RunOutcome::Paused => break,
                // Failures handed to the caller leave the sim quiescent:
                // snapshots are legal between `run_to_incident` returns.
                RunOutcome::Failures(_) => {
                    saw_failures = true;
                    assert!(sim.snapshot().is_ok(), "post-incident point is quiescent");
                }
                RunOutcome::Completed => panic!("pause expected before completion"),
            }
        }
        assert!(saw_failures, "workload injects failures before the pause");
        assert!(sim.snapshot().is_ok(), "paused point is quiescent");
    }

    #[test]
    fn snapshot_strips_chaos_from_config() {
        let sim = workload(base_faults().chaos_crash(5));
        let snap = sim.snapshot().unwrap();
        assert!(snap.config.faults.chaos.is_none(), "chaos must not survive a snapshot");
        // And byte-equality with the clean-config snapshot holds.
        let clean = workload(base_faults()).snapshot().unwrap();
        assert_eq!(snap.to_value(), clean.to_value());
    }
}
