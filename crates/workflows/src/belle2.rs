//! Belle II Monte Carlo (§6.1, §6.4; Figs. 2c, 4c, 8; Tables 3–4).
//!
//! Each MC task draws a pseudo-random subset of a shared dataset pool served
//! from a remote (WAN) data server, reading each dataset partially and with
//! strong spatial locality — the DFL signatures are inter-task file reuse
//! and small consecutive access distances. The case study compares the
//! FTP-copy baseline against TAZeR-style distributed caching, then explores
//! the Table 3 emulated optimizations (defragmentation, ensembles,
//! near-storage filters) by trace replay.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dfl_iosim::replay::{TaskTrace, TraceOp};

use crate::spec::{FileProduce, FileUse, TaskSpec, WorkflowSpec};

const MB: u64 = 1 << 20;

/// Generator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Belle2Config {
    /// Concurrent MC tasks. Paper: 240 (10 nodes × 24 cores).
    pub tasks: u32,
    /// Dataset pool size.
    pub pool: u32,
    /// Size of each dataset file.
    pub dataset_bytes: u64,
    /// Datasets drawn per task. Paper: 16 (I/O-intensive configuration).
    pub datasets_per_task: u32,
    /// Fraction of each dataset a task actually reads (field selections).
    pub read_fraction: f64,
    /// Read operation size (small ops ⇒ locality statistics).
    pub op_bytes: u64,
    /// Compute per task, ms.
    pub compute_ms: u64,
    /// RNG seed for dataset draws.
    pub seed: u64,
}

impl Default for Belle2Config {
    fn default() -> Self {
        Belle2Config {
            tasks: 240,
            pool: 48,
            dataset_bytes: 1024 * MB,
            datasets_per_task: 16,
            read_fraction: 0.5,
            op_bytes: 8 * MB,
            compute_ms: 120_000,
            seed: 0xBE11E2,
        }
    }
}

impl Belle2Config {
    /// A campaign-scale configuration for the Table 3 replay scenarios: the
    /// dataset pool (1.4 TiB) exceeds even the cluster-wide L4 cache
    /// (512 GB), so cross-node redundancy reaches the WAN — the regime in
    /// which the paper's ensembles pay off by eliminating redundant remote
    /// fetches.
    pub fn campaign() -> Self {
        Belle2Config {
            pool: 1440,
            read_fraction: 0.4,
            compute_ms: 60_000,
            ..Belle2Config::default()
        }
    }

    /// Miniature instance for tests.
    pub fn tiny() -> Self {
        Belle2Config {
            tasks: 8,
            pool: 4,
            dataset_bytes: 16 * MB,
            datasets_per_task: 2,
            read_fraction: 0.5,
            op_bytes: MB,
            compute_ms: 20,
            seed: 7,
        }
    }

    /// Dataset path by index.
    pub fn dataset_path(i: u32) -> String {
        format!("mcprod/dataset-{i:03}.root")
    }

    /// Deterministic dataset draw for one task.
    ///
    /// Draws are *block-structured*, mirroring MC production blocks: tasks
    /// in the same block of 4 share half of their datasets (the
    /// block's slice of the campaign), plus a per-task random remainder.
    /// This is what makes the paper's 4-task ensembles effective: grouping a
    /// block onto one node turns its shared draws into node-cache hits.
    pub fn draws_for(&self, task: u32) -> Vec<u32> {
        let want = self.datasets_per_task.min(self.pool) as usize;
        let shared_n = want / 2;

        let mut block_rng = StdRng::seed_from_u64(self.seed ^ (u64::from(task / 4) << 20));
        let mut all: Vec<u32> = (0..self.pool).collect();
        all.shuffle(&mut block_rng);
        let mut draws: Vec<u32> = all[..shared_n].to_vec();

        let mut task_rng = StdRng::seed_from_u64(self.seed ^ 0x9e37 ^ (u64::from(task) << 8));
        let mut rest: Vec<u32> = all[shared_n..].to_vec();
        rest.shuffle(&mut task_rng);
        draws.extend_from_slice(&rest[..want - shared_n]);
        draws
    }
}

/// How the workflow obtains its remote data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataAccess {
    /// The "typical practice": FTP-copy every drawn dataset to node-local
    /// SSD before the task starts, then read locally.
    FtpCopy,
    /// Direct remote reads through the TAZeR cache hierarchy.
    Cached,
}

/// Generates the MC campaign workflow.
pub fn generate(cfg: &Belle2Config, access: DataAccess) -> WorkflowSpec {
    let mut w = WorkflowSpec::new(match access {
        DataAccess::FtpCopy => "belle2-ftp",
        DataAccess::Cached => "belle2-cached",
    });
    for i in 0..cfg.pool {
        w.input(&Belle2Config::dataset_path(i), cfg.dataset_bytes);
    }

    let read_bytes = (cfg.dataset_bytes as f64 * cfg.read_fraction) as u64;
    let ops = (read_bytes / cfg.op_bytes).max(1) as u32;
    for t in 0..cfg.tasks {
        let mut task = TaskSpec::new(&format!("mc-{t}"), "mc", 1)
            .write(FileProduce::new(&format!("mdst-{t}.root"), 50 * MB))
            .compute_ms(cfg.compute_ms);
        for d in cfg.draws_for(t) {
            // Partial sequential read of a leading region: intra-task
            // spatial locality (consecutive distances ≈ op size).
            task = task.read(FileUse::region(&Belle2Config::dataset_path(d), 0, read_bytes).ops(ops));
        }
        w.task(task);
    }
    let _ = access; // structure identical; access mode is a RunConfig matter
    w
}

/// Run configuration for the case study: CPU cluster + WAN data server.
pub fn run_config(cfg: &Belle2Config, access: DataAccess, nodes: usize) -> crate::engine::RunConfig {
    use crate::engine::{Placement, RunConfig, Staging};
    use dfl_iosim::cache::CacheConfig;
    use dfl_iosim::sim::CacheOrigins;
    use dfl_iosim::storage::TierKind;

    let mut rc = RunConfig {
        cluster: dfl_iosim::ClusterSpec::cpu_cluster_with_data_server(nodes),
        placement: Placement::RoundRobin,
        staging: Staging::local_intermediates(TierKind::Wan, TierKind::Ssd),
        cache: None,
        cache_origins: CacheOrigins::RemoteOnly,
        write_buffering: false,
        monitor: dfl_trace::MonitorConfig::default(),
        faults: dfl_iosim::FaultPlan::none(),
        verify: dfl_iosim::sim::VerifyPolicy::Off,
        retry: crate::engine::RetryPolicy::default(),
        obs: None,
        checkpoint: None,
    };
    match access {
        DataAccess::FtpCopy => {
            // Whole-file FTP from the data server to node SSDs before tasks
            // run — always from the origin, as plain FTP has no peer copies.
            rc.staging.stage_inputs = Some(TierKind::Ssd);
            rc.staging.stage_from_origin = true;
        }
        DataAccess::Cached => {
            rc.cache = Some(CacheConfig::tazer_table4());
        }
    }
    let _ = cfg;
    rc
}

/// Synthesizes per-task I/O traces for the Table 3 replay scenarios.
///
/// Both patterns cover the *same* leading region of each dataset (field
/// selections are determined by physics, not layout). The "real"
/// (fragmented) pattern reads it in shuffled order with overlapping ops —
/// poor spatial locality re-fetches boundary data — while the `regular`
/// (defragmented) pattern reads aligned, sequential, non-overlapping ops.
///
/// With `shared_draws` (the ensemble scenarios), the 4 tasks of a
/// production block run the *same* dataset assignment ("4 tasks per
/// dataset"), which is what makes co-scheduling them onto one node's caches
/// effective.
pub fn synth_traces(cfg: &Belle2Config, fragmented: bool, shared_draws: bool) -> Vec<TaskTrace> {
    let read_bytes = (cfg.dataset_bytes as f64 * cfg.read_fraction) as u64;
    // Fragmented ops overlap by 1/8 op (stride 7/8), re-transferring
    // boundary bytes.
    let frag_stride = cfg.op_bytes * 7 / 8;
    let compute_total = cfg.compute_ms * 1_000_000;

    (0..cfg.tasks)
        .map(|t| {
            let draws = if shared_draws { cfg.draws_for(t / 4 * 4) } else { cfg.draws_for(t) };
            let primary = Belle2Config::dataset_path(draws[0]);
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ace ^ u64::from(t));
            let mut ops_list = Vec::new();
            for d in &draws {
                let file = Belle2Config::dataset_path(*d);
                let mut offsets: Vec<u64> = if fragmented {
                    let n = read_bytes.saturating_sub(cfg.op_bytes) / frag_stride + 1;
                    let mut v: Vec<u64> = (0..n).map(|k| k * frag_stride).collect();
                    v.shuffle(&mut rng);
                    v
                } else {
                    (0..read_bytes / cfg.op_bytes).map(|k| k * cfg.op_bytes).collect()
                };
                if offsets.is_empty() {
                    offsets.push(0);
                }
                for off in offsets {
                    ops_list.push(TraceOp {
                        file: file.clone(),
                        offset: off,
                        len: cfg.op_bytes,
                        read: true,
                        compute_ns: 0,
                    });
                }
            }
            // Spread the task's compute evenly across its ops so replay
            // interleaves I/O and computation.
            let per_op = compute_total / ops_list.len() as u64;
            for op in &mut ops_list {
                op.compute_ns = per_op;
            }
            TaskTrace { name: format!("mc-{t}"), dataset: primary, ops: ops_list, ensemble: None }
        })
        .collect()
}

/// The Table 3 emulated-optimization scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Real (fragmented) pattern, no ensemble, no filter — the TAZeR
    /// baseline (relative time 1).
    S1,
    /// Regularized (defragmented) pattern.
    S2,
    /// Real pattern + 4-task ensembles.
    S3,
    /// Regular pattern + ensembles.
    S4,
    /// Regular pattern + 4× near-storage filter.
    S5,
    /// Regular pattern + ensembles + filter.
    S6,
}

impl Scenario {
    pub fn all() -> [Scenario; 6] {
        [Scenario::S1, Scenario::S2, Scenario::S3, Scenario::S4, Scenario::S5, Scenario::S6]
    }

    pub fn label(self) -> &'static str {
        match self {
            Scenario::S1 => "S1 real",
            Scenario::S2 => "S2 regular",
            Scenario::S3 => "S3 real+ens",
            Scenario::S4 => "S4 regular+ens",
            Scenario::S5 => "S5 regular+filter",
            Scenario::S6 => "S6 regular+ens+filter",
        }
    }

    pub fn fragmented(self) -> bool {
        matches!(self, Scenario::S1 | Scenario::S3)
    }

    pub fn ensemble(self) -> bool {
        matches!(self, Scenario::S3 | Scenario::S4 | Scenario::S6)
    }

    pub fn filter(self) -> bool {
        matches!(self, Scenario::S5 | Scenario::S6)
    }

    /// Builds this scenario's task traces. Ensembles both share dataset
    /// assignments within a 4-task block and co-locate the block on one node.
    pub fn traces(self, cfg: &Belle2Config) -> Vec<TaskTrace> {
        use dfl_iosim::replay::{apply, Transform};
        let mut traces = synth_traces(cfg, self.fragmented(), self.ensemble());
        if self.ensemble() {
            apply(&mut traces, Transform::Ensemble { k: 4 });
        }
        if self.filter() {
            apply(&mut traces, Transform::Filter { factor: 4 });
        }
        traces
    }
}

/// Outcome of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    pub makespan_s: f64,
    pub breakdown: dfl_iosim::breakdown::Breakdown,
}

/// Replays `traces` on the CPU cluster + WAN data server through the TAZeR
/// cache (Table 4), including per-node executable staging ("transfer of
/// code"). With `local_data`, all datasets are pre-staged on every node's
/// SSD and no code transfer is needed — the paper's "optimal" time-0
/// reference.
pub fn run_replay(
    cfg: &Belle2Config,
    traces: &[dfl_iosim::replay::TaskTrace],
    nodes: usize,
    local_data: bool,
) -> ReplayOutcome {
    use dfl_iosim::breakdown::FlowTag;
    use dfl_iosim::cache::CacheConfig;
    use dfl_iosim::replay::to_jobs;
    use dfl_iosim::sim::{Action, SimConfig, Simulation};
    use dfl_iosim::storage::TierKind;
    use dfl_iosim::{ClusterSpec, TierRef};

    let cluster = ClusterSpec::cpu_cluster_with_data_server(nodes);
    let sim_cfg = if local_data {
        SimConfig::with_monitor()
    } else {
        SimConfig::with_cache(CacheConfig::tazer_table4())
    };
    let mut sim = Simulation::new(cluster, sim_cfg);

    for i in 0..cfg.pool {
        let f = Belle2Config::dataset_path(i);
        let idx = sim.fs_mut().create_external(&f, cfg.dataset_bytes, TierRef::shared(TierKind::Wan));
        if local_data {
            for n in 0..nodes as u32 {
                sim.fs_mut().add_replica(idx, TierRef::node(TierKind::Ssd, n));
            }
        }
    }

    // Code transfer: the basf2 release staged once per node.
    let code_bytes: u64 = 1 << 30;
    sim.fs_mut()
        .create_external("basf2-release.tar", code_bytes, TierRef::shared(TierKind::Wan));
    let mut code_job_of_node = Vec::new();
    if !local_data {
        for n in 0..nodes as u32 {
            let j = sim.submit(
                dfl_iosim::sim::JobSpec::new(&format!("codestage-{n}"), n)
                    .logical("codestage")
                    .action(Action::Stage {
                        file: "basf2-release.tar".into(),
                        to: TierRef::node(TierKind::Ssd, n),
                        from: None,
                        tag: FlowTag::CodeTransfer,
                    }),
            );
            code_job_of_node.push(j);
        }
    }

    for mut job in to_jobs(traces, nodes as u32) {
        if !local_data {
            let code_job = code_job_of_node[job.node as usize];
            job = job.dep(code_job);
        }
        sim.submit(job);
    }
    sim.run().expect("replay simulation");

    ReplayOutcome { makespan_s: sim.time().secs(), breakdown: sim.total_breakdown() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;

    #[test]
    fn draws_are_deterministic_and_in_pool() {
        let cfg = Belle2Config::default();
        let a = cfg.draws_for(17);
        let b = cfg.draws_for(17);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|&d| d < cfg.pool));
        // No duplicate datasets within one task.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_ne!(cfg.draws_for(0), cfg.draws_for(1), "tasks draw differently");
    }

    #[test]
    fn workflow_counts() {
        let cfg = Belle2Config::default();
        let w = generate(&cfg, DataAccess::Cached);
        assert_eq!(w.tasks.len(), 240);
        assert_eq!(w.inputs.len(), 48);
        assert_eq!(w.tasks[0].reads.len(), 16);
        w.validate().unwrap();
    }

    #[test]
    fn cached_beats_ftp_copy() {
        let cfg = Belle2Config::tiny();
        let ftp = run(&generate(&cfg, DataAccess::FtpCopy), &run_config(&cfg, DataAccess::FtpCopy, 2)).unwrap();
        let cached = run(&generate(&cfg, DataAccess::Cached), &run_config(&cfg, DataAccess::Cached, 2)).unwrap();
        assert!(
            cached.makespan_s < ftp.makespan_s,
            "cached {:.1}s vs ftp {:.1}s",
            cached.makespan_s,
            ftp.makespan_s
        );
    }

    #[test]
    fn graph_shows_intertask_reuse_and_subsets() {
        let cfg = Belle2Config::tiny();
        let r = run(&generate(&cfg, DataAccess::Cached), &run_config(&cfg, DataAccess::Cached, 2)).unwrap();
        let g = dfl_core::DflGraph::from_measurements(&r.measurements);
        // Some dataset is read by multiple tasks (pool 4, 8 tasks × 2 draws).
        let max_consumers = g.data_vertices().map(|d| g.out_degree(d)).max().unwrap();
        assert!(max_consumers >= 2, "inter-task file reuse");
        // Reads cover only half of each dataset (read_fraction 0.5).
        let (_, sub) = g
            .edges()
            .find(|(_, e)| e.props.subset_fraction > 0.0 && e.props.subset_fraction < 1.0)
            .expect("subset pattern present");
        assert!(sub.props.subset_fraction < 0.7);
    }

    #[test]
    fn scenario_flags_match_table3() {
        assert!(Scenario::S1.fragmented() && !Scenario::S1.ensemble() && !Scenario::S1.filter());
        assert!(!Scenario::S2.fragmented() && !Scenario::S2.ensemble() && !Scenario::S2.filter());
        assert!(Scenario::S3.fragmented() && Scenario::S3.ensemble());
        assert!(!Scenario::S4.fragmented() && Scenario::S4.ensemble() && !Scenario::S4.filter());
        assert!(Scenario::S5.filter() && !Scenario::S5.ensemble());
        assert!(Scenario::S6.ensemble() && Scenario::S6.filter());
    }

    #[test]
    fn block_structured_draws_share_within_block() {
        let cfg = Belle2Config::default();
        let a = cfg.draws_for(0);
        let b = cfg.draws_for(1);
        let shared = a.iter().filter(|d| b.contains(d)).count();
        assert!(shared >= 8, "block members share ≥ half of their draws: {shared}");
        let c = cfg.draws_for(4); // different block
        let cross = a.iter().filter(|d| c.contains(d)).count();
        assert!(cross < shared, "cross-block overlap is smaller");
    }

    #[test]
    fn replay_scenarios_improve_monotonically_enough() {
        let cfg = Belle2Config::tiny();
        let s1 = run_replay(&cfg, &Scenario::S1.traces(&cfg), 2, false);
        let s6 = run_replay(&cfg, &Scenario::S6.traces(&cfg), 2, false);
        let opt = run_replay(&cfg, &Scenario::S6.traces(&cfg), 2, true);
        assert!(s6.makespan_s < s1.makespan_s, "S6 {:.2} < S1 {:.2}", s6.makespan_s, s1.makespan_s);
        assert!(opt.makespan_s <= s6.makespan_s, "optimal is the floor");
        use dfl_iosim::breakdown::FlowTag;
        assert!(s1.breakdown.get(FlowTag::CodeTransfer) > 0);
        assert_eq!(opt.breakdown.get(FlowTag::CodeTransfer), 0);
    }

    #[test]
    fn traces_regular_vs_fragmented() {
        let cfg = Belle2Config::tiny();
        let reg = synth_traces(&cfg, false, false);
        let frag = synth_traces(&cfg, true, false);
        assert_eq!(reg.len(), cfg.tasks as usize);
        // Regular offsets ascend per file; fragmented generally do not.
        let asc = |t: &TaskTrace| t.ops.windows(2).all(|w| w[0].file != w[1].file || w[0].offset <= w[1].offset);
        assert!(reg.iter().all(asc));
        assert!(frag.iter().any(|t| !asc(t)));
        // Fragmented covers the same region but with more (overlapping) ops.
        assert!(frag[0].ops.len() > reg[0].ops.len());
    }

    #[test]
    fn shared_draws_unify_blocks() {
        let cfg = Belle2Config::default();
        let shared = synth_traces(&cfg, false, true);
        fn files(t: &TaskTrace) -> Vec<String> {
            let mut f: Vec<String> = t.ops.iter().map(|o| o.file.clone()).collect();
            f.dedup();
            f.sort_unstable();
            f.dedup();
            f
        }
        assert_eq!(files(&shared[0]), files(&shared[3]), "block members share all datasets");
        assert_ne!(files(&shared[0]), files(&shared[4]));
    }
}
