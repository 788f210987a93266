//! Benchmarks the execution substrate: discrete-event throughput of the
//! fair-share flow network, cache access rates, and an end-to-end tiny
//! workflow simulation — plus an ablation of fair-share contention vs
//! uncontended flows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfl_iosim::breakdown::FlowTag;
use dfl_iosim::cache::{CacheConfig, CacheState};
use dfl_iosim::cluster::ClusterSpec;
use dfl_iosim::flow::{naive::NaiveFlowNet, FlowNet, FlowOwner};
use dfl_iosim::sim::{Action, JobSpec, SimConfig, Simulation};
use dfl_iosim::storage::{TierKind, TierRef};
use dfl_iosim::time::SimTime;
use dfl_workflows::engine::{run, RunConfig};
use dfl_workflows::genomes::{generate, GenomesConfig};
use dfl_workflows::{FaultPlan, VerifyPolicy};

fn bench_flow_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_flow_events");
    // Ablation: contended (all jobs on one shared tier) vs uncontended
    // (node-local tiers) — the contended case re-profiles more flows.
    for (label, local) in [("contended_shared", false), ("uncontended_local", true)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut sim = Simulation::new(ClusterSpec::gpu_cluster(4), SimConfig::default());
                for i in 0..64 {
                    let node = i % 4;
                    let tier = if local {
                        TierRef::node(TierKind::Ssd, node)
                    } else {
                        TierRef::shared(TierKind::Beegfs)
                    };
                    sim.fs_mut().create_external(&format!("f{i}"), 8 << 20, tier);
                    sim.submit(
                        JobSpec::new(&format!("j-{i}"), node)
                            .action(Action::read_file(&format!("f{i}")))
                            .action(Action::compute_ms(1)),
                    );
                }
                sim.run().unwrap();
                sim.time()
            })
        });
    }
    group.finish();
}

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(1));
    for &span in &[1u64 << 20, 8 << 20] {
        let mut cache = CacheState::new(CacheConfig::tazer_table4());
        let mut off = 0u64;
        group.bench_function(BenchmarkId::new("read", format!("{}MiB", span >> 20)), |b| {
            b.iter(|| {
                let r = cache.access(0, 0, 0, off % (64 << 30), span);
                off += span;
                r
            })
        });
    }
    group.finish();
}

/// The 1k-flow stress scenario: staggered flows over 16 shared tiers ×
/// 64 NICs, drained to empty. Parameterized over the engine so the
/// incremental `FlowNet` can be compared against the naive full-recompute
/// baseline (the pre-rewrite algorithm).
macro_rules! drain_stress {
    ($net:expr, $flows:expr) => {{
        let mut net = $net;
        let tiers: Vec<_> = (0..16u64).map(|i| net.add_resource(&format!("tier{i}"), 8_000.0)).collect();
        let nics: Vec<_> = (0..64u64).map(|i| net.add_resource(&format!("nic{i}"), 1_000.0)).collect();
        for i in 0..$flows {
            let bytes = 1_000.0 + (i as f64 * 97.0) % 5_000.0;
            let path = vec![tiers[(i % 16) as usize], nics[(i % 64) as usize]];
            let owner = FlowOwner { job: i as u32, tag: FlowTag::LocalRead, background: false };
            net.start(SimTime(i * 1_000_000), &path, bytes, owner);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, k)) = net.next_completion() {
            last = t;
            net.complete(t, k);
        }
        last
    }};
}

fn bench_flow_stress(c: &mut Criterion) {
    const FLOWS: u64 = 1024;
    let mut group = c.benchmark_group("flow_stress_1k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FLOWS));
    group.bench_function("incremental", |b| {
        b.iter(|| drain_stress!(FlowNet::new(), std::hint::black_box(FLOWS)))
    });
    group.bench_function("naive_baseline", |b| {
        b.iter(|| drain_stress!(NaiveFlowNet::new(), std::hint::black_box(FLOWS)))
    });
    // Full simulator: 1024 jobs saturating 32 nodes × 32 cores, all
    // streaming distinct files off the shared BeeGFS tier.
    group.bench_function("sim_1024_jobs_shared_tier", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(ClusterSpec::gpu_cluster(32), SimConfig::default());
            for i in 0..1024usize {
                let file = format!("in{i}");
                sim.fs_mut().create_external(&file, (1 << 20) + (i as u64) * 4096, TierRef::shared(TierKind::Beegfs));
                sim.submit(JobSpec::new(&format!("j-{i}"), (i % 32) as u32).action(Action::read_file(&file)));
            }
            sim.run().unwrap();
            sim.time()
        })
    });
    group.finish();
}

fn bench_end_to_end_workflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let spec = generate(&GenomesConfig::tiny());
    group.bench_function("genomes_tiny_simulate_and_measure", |b| {
        b.iter(|| run(std::hint::black_box(&spec), &RunConfig::default_gpu(2)).unwrap().makespan_s)
    });
    group.finish();
}

/// Cost of the observability layer on the end-to-end genomes run:
/// `disabled` must track `baseline` (the ≤2% budget in DESIGN.md — a
/// disabled run pays one branch per potential emission and nothing else);
/// `enabled`/`enabled_sampled` show the full recording cost.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    let spec = generate(&GenomesConfig::tiny());
    // `baseline_no_obs` and `disabled` run the identical configuration
    // back to back: their delta is the measured cost of carrying the
    // (disabled) observability layer, which the ≤2% budget bounds. Keeping
    // them adjacent inside one group cancels the slow throughput drift a
    // shared CI runner imposes across a long bench suite.
    let configs: [(&str, Option<dfl_obs::ObsConfig>); 4] = [
        ("baseline_no_obs", None),
        ("disabled", None),
        ("enabled", Some(dfl_obs::ObsConfig::default())),
        ("enabled_sampled_10ms", Some(dfl_obs::ObsConfig::sampled(10_000_000))),
    ];
    for (label, obs) in configs {
        let mut cfg = RunConfig::default_gpu(2);
        cfg.obs = obs;
        group.bench_function(label, |b| {
            b.iter(|| run(std::hint::black_box(&spec), &cfg).unwrap().makespan_s)
        });
    }
    // Watchdogs armed but silent: must cost no more than plain recording.
    {
        let mut cfg = RunConfig::default_gpu(2);
        cfg.obs = Some(
            dfl_obs::ObsConfig::sampled(10_000_000)
                .with_watchdogs(dfl_obs::WatchdogConfig::default()),
        );
        group.bench_function("enabled_watchdogs_10ms", |b| {
            b.iter(|| run(std::hint::black_box(&spec), &cfg).unwrap().makespan_s)
        });
    }
    // Full live-monitoring pipeline: subscriber + windowed blame + the
    // incremental critical-path refresh at every 100 ms window boundary.
    {
        let cfg = RunConfig::default_gpu(2);
        let opts = dfl_workflows::watch::WatchOptions::default();
        group.bench_function("watched_100ms_windows", |b| {
            b.iter(|| {
                dfl_workflows::watch::run_watched(
                    std::hint::black_box(&spec),
                    &cfg,
                    &opts,
                    |w| {
                        std::hint::black_box(w.events);
                    },
                )
                .unwrap()
                .makespan_s
            })
        });
    }
    group.finish();
}

/// Cost of the integrity machinery on the end-to-end genomes run:
/// `verify_off` must track `baseline` (with `VerifyPolicy::Off` and no
/// corruption in the plan the integrity branch is dead and the run stays
/// byte-identical); `verify_on_read`/`verify_sample_4` price the checksum
/// modeling, and `corrupt_recover` prices a full detect → quarantine →
/// cone-recovery cycle.
fn bench_fault_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_recovery");
    group.sample_size(10);
    let spec = generate(&GenomesConfig::tiny());
    let policies: [(&str, VerifyPolicy); 4] = [
        ("baseline", VerifyPolicy::Off),
        ("verify_off", VerifyPolicy::Off),
        ("verify_on_read", VerifyPolicy::OnRead),
        ("verify_sample_4", VerifyPolicy::Sample(4)),
    ];
    for (label, verify) in policies {
        let mut cfg = RunConfig::default_gpu(2);
        cfg.verify = verify;
        group.bench_function(label, |b| {
            b.iter(|| run(std::hint::black_box(&spec), &cfg).unwrap().makespan_s)
        });
    }
    // Detect-and-recover: random write flips under sampled verification
    // exercise taint propagation, cone quarantine, and lineage re-execution.
    {
        let mut cfg = RunConfig::default_gpu(2);
        cfg.verify = VerifyPolicy::Sample(4);
        cfg.faults = FaultPlan::seeded(42).corrupt_writes(0.02);
        cfg.retry.max_attempts = 30;
        group.bench_function("corrupt_recover", |b| {
            b.iter(|| run(std::hint::black_box(&spec), &cfg).unwrap().makespan_s)
        });
    }
    group.finish();
}

// `flow_stress_1k` runs first: its 1024-job scenario is compared against
// a fixed budget, and the long suite's slow drift (allocator state,
// frequency throttling) would otherwise tax the later group.
criterion_group!(
    benches,
    bench_flow_stress,
    bench_flow_events,
    bench_cache_access,
    bench_end_to_end_workflow,
    bench_obs_overhead,
    bench_fault_recovery
);
criterion_main!(benches);
