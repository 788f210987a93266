//! Deterministic chaos (DST) harness: crash-kill the coordinator at seeded
//! dispatch indices, resume from the latest on-disk checkpoint manifest,
//! and require the final outcome — makespan, per-job reports, failure
//! report, and the *exported timeline bytes* — to be identical to the
//! uninterrupted golden run with the same checkpoint cadence.
//!
//! This is the FoundationDB-style argument applied to the workflow engine:
//! the simulator is deterministic and checkpoints are crash-consistent, so
//! "kill anywhere, resume from disk" is required to be a no-op on the final
//! answer, not merely "close enough".
//!
//! Honours `DFL_CHAOS_SEEDS` (comma-separated, default eight seeds) so CI
//! can sweep seeds in a matrix.

use std::collections::BTreeSet;
use std::path::PathBuf;

use proptest::prelude::*;

use dfl_iosim::fault::unit_hash;
use dfl_iosim::sim::Event;
use dfl_iosim::{FaultPlan, SimError, TierKind};
use dfl_workflows::checkpoint::{
    load_latest, load_manifest, latest_manifest, CheckpointConfig, CheckpointManifest,
};
use dfl_workflows::engine::{resume_from, resume_latest, run, Placement, RunConfig, RunResult, Staging};
use dfl_workflows::spec::{FileProduce, FileUse, TaskSpec, WorkflowSpec};
use dfl_workflows::{genomes, CheckpointError, EngineError, MANIFEST_VERSION};

/// Three stages with cross-node data dependencies and enough compute that
/// crash points land mid-stage: two producers (one per node), a consumer
/// joining both, and a final reducer.
fn workload() -> WorkflowSpec {
    let mut w = WorkflowSpec::new("chaos");
    w.input("in.dat", 8 << 20);
    w.task(
        TaskSpec::new("prod-0", "prod", 1)
            .read(FileUse::whole("in.dat"))
            .write(FileProduce::new("m0.dat", 16 << 20))
            .compute_ms(40),
    );
    w.task(
        TaskSpec::new("prod-1", "prod", 1)
            .read(FileUse::whole("in.dat"))
            .write(FileProduce::new("m1.dat", 16 << 20))
            .compute_ms(40),
    );
    w.task(
        TaskSpec::new("cons-0", "cons", 2)
            .read(FileUse::whole("m0.dat"))
            .read(FileUse::whole("m1.dat"))
            .write(FileProduce::new("join.dat", 8 << 20))
            .compute_ms(120),
    );
    w.task(
        TaskSpec::new("reduce-0", "reduce", 3)
            .read(FileUse::whole("join.dat"))
            .write(FileProduce::new("out.dat", 2 << 20))
            .compute_ms(60),
    );
    w
}

/// Tiny genomes, the catalog workflow the crash+resume sweep and the
/// resume-rejection regressions also run on.
fn genomes_tiny() -> WorkflowSpec {
    genomes::generate(&genomes::GenomesConfig::tiny())
}

/// Node faults + observability + a full checkpoint policy (time cadence,
/// stage boundaries, incidents) writing into `dir`.
fn chaos_cfg(seed: u64, dir: &std::path::Path) -> RunConfig {
    let mut cfg = RunConfig::default_gpu(2);
    cfg.placement = Placement::RoundRobin;
    cfg.staging = Staging::local_intermediates(TierKind::Beegfs, TierKind::Ramdisk);
    cfg.faults = FaultPlan::seeded(seed).crash(0, 250_000_000, 80_000_000).io_errors(0.005);
    cfg.retry.max_attempts = 30;
    cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
    cfg.checkpoint = Some(
        CheckpointConfig::to_dir(dir)
            .every_sim_ns(60_000_000)
            .every_stages(1)
            .on_incident(),
    );
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfl-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a consumer can observe about a finished run, with timeline
/// compared through both export formats' literal bytes.
type Outcome = (String, Vec<(String, u64, u64, bool)>, String, String, String, u64);

fn outcome(r: &RunResult) -> Outcome {
    let tl = r.timeline.as_ref().expect("obs enabled");
    (
        format!("{:.9}/{:?}", r.makespan_s, r.stage_spans),
        r.reports.iter().map(|j| (j.name.clone(), j.start_ns, j.end_ns, j.failed)).collect(),
        format!("{:?}", r.failure),
        dfl_obs::chrome_trace(tl),
        dfl_obs::jsonl(tl),
        r.events_dispatched,
    )
}

/// At least three distinct seeded crash points strictly inside the golden
/// run's dispatch range, ascending.
fn crash_points(seed: u64, total_events: u64) -> Vec<u64> {
    assert!(total_events > 4, "golden run too short to crash inside");
    let mut pts: BTreeSet<u64> = BTreeSet::new();
    let mut i = 0u64;
    while pts.len() < 3 && i < 64 {
        let f = unit_hash(seed ^ 0xc4a0_5eed, i, total_events);
        pts.insert((1 + (f * (total_events - 2) as f64) as u64).min(total_events - 1));
        i += 1;
    }
    pts.into_iter().collect()
}

/// Runs the workload, killing the coordinator at each point in `points` in
/// turn (each kill resumes a *fresh* engine from the latest manifest on
/// disk, exactly as an external supervisor would) until it completes.
/// Returns the final result plus how many kills actually fired.
fn crash_resume_run(spec: &WorkflowSpec, cfg: &RunConfig, points: &[u64]) -> (RunResult, usize) {
    let mut kills = 0;
    let mut armed = cfg.clone();
    armed.faults = armed.faults.chaos_crash(points[0]);
    let mut res: Result<RunResult, String> =
        run(spec, &armed).map_err(|e| e.to_string());
    loop {
        match res {
            Ok(r) => return (r, kills),
            Err(msg) => {
                assert!(
                    msg.contains("chaos"),
                    "only the planned chaos kill may fail the run: {msg}"
                );
                kills += 1;
                let mut next = cfg.clone();
                if kills < points.len() {
                    next.faults = next.faults.chaos_crash(points[kills]);
                }
                res = resume_latest(spec, &next).map_err(|e| e.to_string());
            }
        }
    }
}

/// For every seed: ≥3 seeded crash points, each crash resumed from disk,
/// final outcome of `spec` byte-identical to golden.
fn assert_crash_resume_matches_golden(name: &str, spec: &WorkflowSpec) {
    for seed in dfl_tests::seed_matrix("DFL_CHAOS_SEEDS", "1,2,3,7,11,42,1234,20260806") {
        let dir = fresh_dir(&format!("{name}-seed{seed}"));
        let cfg = chaos_cfg(seed, &dir);

        let golden = run(spec, &cfg).expect("golden run completes");
        let golden_out = outcome(&golden);
        let pts = crash_points(seed, golden.events_dispatched);
        assert!(pts.len() >= 3, "{name} seed {seed}: {pts:?}");

        // Every crash point individually: kill once, resume once.
        for &at in &pts {
            let _ = std::fs::remove_dir_all(&dir);
            let (r, kills) = crash_resume_run(spec, &cfg, &[at]);
            assert_eq!(kills, 1, "{name} seed {seed}: kill at {at} must fire");
            assert_eq!(golden_out, outcome(&r), "{name} seed {seed}, crash at {at}");
        }

        // And the full gauntlet: all crash points in one lifetime,
        // resuming after each kill.
        let _ = std::fs::remove_dir_all(&dir);
        let (r, kills) = crash_resume_run(spec, &cfg, &pts);
        assert!(kills >= 1, "{name} seed {seed}: at least the first kill fires");
        assert_eq!(golden_out, outcome(&r), "{name} seed {seed}, gauntlet {pts:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The tentpole acceptance test, on the three-stage chaos workload.
#[test]
fn chaos_crash_resume_matches_golden_across_seeds() {
    assert_crash_resume_matches_golden("chaos", &workload());
}

/// The same sweep on a catalog workflow.
#[test]
fn genomes_crash_resume_matches_golden_across_seeds() {
    assert_crash_resume_matches_golden("genomes", &genomes_tiny());
}

/// A manifest from a different `(spec, config)` pair is refused with a
/// typed error — never resumed into a silently wrong answer.
#[test]
fn resume_refuses_mismatched_config_hash() {
    let dir = fresh_dir("hash");
    let spec = workload();
    let cfg = chaos_cfg(5, &dir);
    run(&spec, &cfg).unwrap();

    let manifest = load_latest(&dir).unwrap();
    let mut drifted = cfg.clone();
    drifted.staging = Staging::all_shared(TierKind::Beegfs);
    match resume_from(&spec, &drifted, manifest) {
        Err(EngineError::Checkpoint(CheckpointError::HashMismatch { manifest, config })) => {
            assert_ne!(manifest, config);
        }
        other => panic!("expected HashMismatch, got {:?}", other.map(|r| r.makespan_s)),
    }

    // Spec drift is caught too, even with the original config.
    let manifest = load_latest(&dir).unwrap();
    let mut spec2 = workload();
    spec2.input("extra.dat", 1 << 20);
    match resume_from(&spec2, &cfg, manifest) {
        Err(EngineError::Checkpoint(CheckpointError::HashMismatch { .. })) => {}
        other => panic!("expected HashMismatch, got {:?}", other.map(|r| r.makespan_s)),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// On-disk version tampering is rejected before the payload is decoded.
#[test]
fn manifest_version_gate_rejects_future_versions() {
    let dir = fresh_dir("version");
    let spec = workload();
    let cfg = chaos_cfg(6, &dir);
    run(&spec, &cfg).unwrap();

    let path = latest_manifest(&dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let current = format!("{{\"version\":{MANIFEST_VERSION},");
    assert!(text.starts_with(&current), "manifest leads with its version");
    std::fs::write(&path, text.replacen(&current, "{\"version\":42,", 1)).unwrap();
    match load_manifest(&path) {
        Err(CheckpointError::VersionMismatch { found: 42, expected: MANIFEST_VERSION }) => {}
        other => panic!("expected VersionMismatch, got {:?}", other.map(|m| m.seq)),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs tiny genomes to completion with checkpoints into a fresh `tag`
/// directory and returns its config plus the newest manifest on disk.
fn checkpointed_genomes(tag: &str) -> (WorkflowSpec, RunConfig, CheckpointManifest) {
    let spec = genomes_tiny();
    let cfg = chaos_cfg(9, &fresh_dir(tag));
    run(&spec, &cfg).expect("checkpointed run completes");
    let dir = &cfg.checkpoint.as_ref().unwrap().dir;
    let manifest = load_latest(dir).expect("manifest on disk");
    let _ = std::fs::remove_dir_all(dir);
    (spec, cfg, manifest)
}

/// Regression: a manifest embedding a snapshot from an older
/// `SNAPSHOT_VERSION` must be refused with a typed error, not misread.
#[test]
fn resume_rejects_old_snapshot_version() {
    let (spec, cfg, mut manifest) = checkpointed_genomes("oldsnap");
    manifest.sim.version -= 1;
    match resume_from(&spec, &cfg, manifest) {
        Err(EngineError::Sim(SimError::Snapshot(msg))) => {
            assert!(msg.contains("version"), "{msg}");
        }
        other => panic!("expected typed snapshot-version rejection, got {other:?}"),
    }
}

/// Regression: a manifest from the previous `MANIFEST_VERSION` is refused
/// before its payload is interpreted.
#[test]
fn resume_rejects_old_manifest_version() {
    let (spec, cfg, mut manifest) = checkpointed_genomes("oldmanifest");
    manifest.version = MANIFEST_VERSION - 1;
    match resume_from(&spec, &cfg, manifest) {
        Err(EngineError::Checkpoint(CheckpointError::VersionMismatch { found, .. })) => {
            assert_eq!(found, MANIFEST_VERSION - 1);
        }
        other => panic!("expected typed manifest-version rejection, got {other:?}"),
    }
}

/// Regression: a queued event naming a job, crash, or capacity change the
/// snapshot does not carry is refused with a typed error at restore, not
/// an index panic at dispatch.
#[test]
fn resume_rejects_queued_events_naming_missing_state() {
    let (spec, cfg, manifest) = checkpointed_genomes("dangling");
    let sim = &manifest.sim;
    for ev in [
        Event::Arrive(sim.jobs.len() as u32 + 100),
        Event::NodeCrash(sim.config.faults.crashes.len() as u32),
        Event::CapacityChange(sim.capacity_changes.len() as u32),
    ] {
        let mut bad = manifest.clone();
        bad.sim.heap.push((bad.sim.now_ns, bad.sim.next_seq, ev));
        match resume_from(&spec, &cfg, bad) {
            Err(EngineError::Sim(SimError::Snapshot(msg))) => {
                assert!(msg.contains("out of range"), "{ev:?}: {msg}");
            }
            other => panic!("expected typed snapshot rejection for {ev:?}, got {other:?}"),
        }
    }
}

/// Checkpoint spans and counters ride the timeline: the golden run records
/// one zero-duration span per manifest written, and a resumed run carries
/// the pre-crash spans from the snapshot rather than re-recording them.
#[test]
fn checkpoint_spans_and_metrics_are_recorded_once() {
    let dir = fresh_dir("spans");
    let spec = workload();
    let cfg = chaos_cfg(8, &dir);
    let golden = run(&spec, &cfg).unwrap();
    let tl = golden.timeline.as_ref().unwrap();

    let manifests = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref().unwrap().file_name().to_string_lossy().starts_with("manifest-")
        })
        .count();
    let spans: Vec<String> = tl
        .spans()
        .filter(|s| s.kind == dfl_obs::SpanKind::Checkpoint)
        .map(|s| s.name.clone())
        .collect();
    assert_eq!(spans.len(), manifests, "one span per manifest: {spans:?}");
    assert!(spans.iter().any(|s| s == "checkpoint-0"), "{spans:?}");
    assert_eq!(
        tl.metrics.counter("checkpoint_stalls"),
        manifests as u64,
        "stall counter counts manifests"
    );
    assert!(tl.metrics.counter("checkpoint_bytes") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash anywhere: an arbitrary seed and an arbitrary kill fraction of
    /// the golden dispatch count still resumes to the golden outcome.
    #[test]
    fn any_crash_point_resumes_to_golden(seed in 0u64..1_000_000, percent in 1u64..100) {
        let dir = fresh_dir(&format!("prop-{seed}-{percent}"));
        let spec = workload();
        let cfg = chaos_cfg(seed, &dir);
        let golden = run(&spec, &cfg).expect("golden run completes");
        let golden_out = outcome(&golden);

        let at = 1 + percent * (golden.events_dispatched - 2) / 100;
        let _ = std::fs::remove_dir_all(&dir);
        let (r, kills) = crash_resume_run(&spec, &cfg, &[at]);
        prop_assert_eq!(kills, 1);
        let out = outcome(&r);
        prop_assert_eq!(&golden_out.0, &out.0);
        prop_assert_eq!(&golden_out.1, &out.1);
        prop_assert_eq!(&golden_out.2, &out.2);
        prop_assert_eq!(&golden_out.3, &out.3);
        prop_assert_eq!(&golden_out.4, &out.4);
        prop_assert_eq!(golden_out.5, out.5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
