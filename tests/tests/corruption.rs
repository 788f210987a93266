//! End-to-end data integrity: silent-corruption faults, checksum
//! verification, and taint-cone recovery.
//!
//! Covers the acceptance scenarios: late detection k≥2 hops downstream of
//! the corrupting write with exact-cone quarantine and minimal
//! re-execution, detection during a retry attempt, corruption recovery
//! across a coordinator crash + `resume_latest`, seed-swept determinism
//! (honours `DFL_CORRUPT_SEEDS`, default "1,42,7,20260806" for the CI
//! matrix), silent replica divergence on transfers, and typed
//! unrecoverable corruption of external inputs.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dfl_iosim::{FaultPlan, SimError, TierKind};
use dfl_workflows::checkpoint::CheckpointConfig;
use dfl_workflows::engine::{
    resume_latest, run, EngineError, Placement, RunConfig, RunResult, Staging,
};
use dfl_workflows::spec::{FileProduce, FileUse, TaskSpec, WorkflowSpec};
use dfl_workflows::{taint_cone, VerifyPolicy};

/// in.dat → t0 → a.dat → t1 → b.dat → t2 → c.dat. t1 reads a.dat in a
/// single op (never sampled under `Sample(3)`) while t2 reads b.dat in
/// three, so corruption planted in a.dat is consumed *unverified* by t1
/// (the taint rides into b.dat) and is only caught two hops downstream,
/// by t2's third read.
fn chain() -> WorkflowSpec {
    let mut w = WorkflowSpec::new("chain");
    w.input("in.dat", 8 << 20);
    w.task(
        TaskSpec::new("t0", "gen", 1)
            .read(FileUse::whole("in.dat"))
            .write(FileProduce::new("a.dat", 8 << 20))
            .compute_ms(20),
    );
    w.task(
        TaskSpec::new("t1", "xform", 2)
            .read(FileUse::whole("a.dat").ops(1))
            .write(FileProduce::new("b.dat", 8 << 20))
            .compute_ms(20),
    );
    w.task(
        TaskSpec::new("t2", "sink", 3)
            .read(FileUse::whole("b.dat").ops(3))
            .write(FileProduce::new("c.dat", 4 << 20))
            .compute_ms(20),
    );
    w
}

fn chain_cfg() -> RunConfig {
    let mut cfg = RunConfig::default_gpu(2);
    cfg.placement = Placement::RoundRobin;
    cfg
}

fn final_sizes(r: &RunResult) -> BTreeMap<String, u64> {
    r.measurements.files.iter().map(|f| (f.path.clone(), f.size)).collect()
}

fn names(r: &RunResult) -> Vec<&str> {
    r.reports.iter().map(|j| j.name.as_str()).collect()
}

/// The tentpole scenario: a silently corrupted intermediate detected two
/// hops downstream quarantines exactly the forward-reachable taint cone and
/// re-executes exactly the minimal producer set.
#[test]
fn late_detection_quarantines_exact_cone_and_reruns_minimal_set() {
    let spec = chain();
    let clean = run(&spec, &chain_cfg()).unwrap();

    // The cone of a.dat is everything downstream: files {a,b,c}.dat and
    // tasks {t1, t2} — in.dat and t0 are upstream and stay untouched.
    let cone = taint_cone(&spec, "a.dat");
    assert_eq!(
        cone.files.iter().map(String::as_str).collect::<Vec<_>>(),
        ["a.dat", "b.dat", "c.dat"]
    );
    assert_eq!(cone.tasks.iter().copied().collect::<Vec<_>>(), [1, 2]);

    let mut cfg = chain_cfg();
    cfg.verify = VerifyPolicy::Sample(3);
    cfg.faults = FaultPlan::seeded(5).corrupt_file("a.dat");
    cfg.retry.max_attempts = 10;
    let r = run(&spec, &cfg).unwrap();

    // One planted corruption, one (late) detection.
    assert_eq!(r.failure.corruptions_injected, 1, "{}", r.failure);
    assert_eq!(r.failure.corruptions_detected, 1, "{}", r.failure);

    // Quarantine is the cone restricted to files that exist at detection
    // time: a.dat and b.dat each hold one 8 MiB shared-FS replica; c.dat
    // was never written (t2 died mid-read).
    assert_eq!(r.failure.quarantined_files, 2, "{}", r.failure);
    assert_eq!(r.failure.quarantined_bytes, 2 * (8 << 20), "{}", r.failure);

    // Minimal re-execution: lineage re-runs exactly the producers of the
    // quarantined chain (t0 for a.dat, t1 for b.dat) and retries only the
    // detector. Nothing upstream of the root is touched.
    let n = names(&r);
    assert_eq!(r.failure.recovery_jobs, 2, "minimal producer set: {n:?}");
    assert!(n.contains(&"t0~rec1"), "{n:?}");
    assert!(n.contains(&"t1~rec1"), "{n:?}");
    assert_eq!(r.failure.retries, 1, "one retry of the detector: {n:?}");
    assert!(n.contains(&"t2~r1"), "{n:?}");
    assert_eq!(n.iter().filter(|x| x.starts_with("t0")).count(), 2, "{n:?}");
    assert_eq!(n.iter().filter(|x| x.starts_with("t1")).count(), 2, "{n:?}");

    // Wasted and recovery traffic are accounted separately from goodput.
    assert!(r.failure.wasted_bytes > 0, "{}", r.failure);
    assert!(r.failure.recovery_bytes > 0, "{}", r.failure);
    assert!(r.failure.goodput_bytes() < r.failure.total_bytes);

    // The repaired run converges to the fault-free outputs, at a cost.
    assert_eq!(final_sizes(&r), final_sizes(&clean));
    assert!(r.makespan_s > clean.makespan_s, "recovery costs time");
}

/// A transient read flip (no stored root) is detected, retried without any
/// cone recovery, and — with a high flip probability — detected *again*
/// during retry attempts before an attempt finally passes verification.
#[test]
fn corruption_detected_during_retry_attempt_converges() {
    let mut w = WorkflowSpec::new("single");
    w.input("in.dat", 4 << 20);
    w.task(
        TaskSpec::new("t0", "t", 1)
            .read(FileUse::whole("in.dat").ops(1))
            .write(FileProduce::new("out.dat", 1 << 20))
            .compute_ms(10),
    );

    let mut cfg = RunConfig::default_gpu(1);
    cfg.verify = VerifyPolicy::OnRead;
    cfg.faults = FaultPlan::seeded(2).corrupt_reads(0.8);
    cfg.retry.max_attempts = 30;
    let r = run(&w, &cfg).unwrap();

    // The first attempt detects, and so does at least one retry attempt.
    assert!(r.failure.failed_attempts >= 2, "{}", r.failure);
    assert_eq!(r.failure.corruptions_detected, r.failure.failed_attempts);
    assert_eq!(r.failure.retries, r.failure.failed_attempts);
    let n = names(&r);
    assert!(n.contains(&"t0~r1") && n.contains(&"t0~r2"), "{n:?}");

    // Transient flips have no root: plain retries, no lineage recovery.
    assert_eq!(r.failure.recovery_jobs, 0, "{}", r.failure);
    assert_eq!(r.failure.quarantined_files, 0, "{}", r.failure);

    let mut clean_cfg = RunConfig::default_gpu(1);
    clean_cfg.verify = VerifyPolicy::OnRead;
    let clean = run(&w, &clean_cfg).unwrap();
    assert_eq!(final_sizes(&r), final_sizes(&clean));
}

/// Everything a consumer can observe about a finished run, with the
/// timeline compared through both export formats' literal bytes.
type Outcome = (String, Vec<(String, u64, u64, bool)>, String, String, String);

fn outcome(r: &RunResult) -> Outcome {
    let tl = r.timeline.as_ref().expect("obs enabled");
    (
        format!("{:.9}/{:?}", r.makespan_s, r.stage_spans),
        r.reports.iter().map(|j| (j.name.clone(), j.start_ns, j.end_ns, j.failed)).collect(),
        format!("{:?}", r.failure),
        dfl_obs::chrome_trace(tl),
        dfl_obs::jsonl(tl),
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfl-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Corruption of a checkpointed file across a coordinator crash: killing
/// the engine mid-run (including mid-recovery) and resuming from the
/// latest manifest converges to the golden outcome byte-for-byte.
#[test]
fn corruption_recovery_survives_crash_and_resume() {
    let spec = chain();
    let cfg_for = |dir: &PathBuf| {
        let mut cfg = chain_cfg();
        cfg.verify = VerifyPolicy::Sample(3);
        cfg.faults = FaultPlan::seeded(5).corrupt_file("a.dat");
        cfg.retry.max_attempts = 10;
        cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
        cfg.checkpoint = Some(
            CheckpointConfig::to_dir(dir).every_sim_ns(30_000_000).every_stages(1).on_incident(),
        );
        cfg
    };

    let golden_dir = fresh_dir("golden");
    let golden = run(&spec, &cfg_for(&golden_dir)).expect("golden run completes");
    let golden_out = outcome(&golden);
    assert_eq!(golden.failure.corruptions_detected, 1, "{}", golden.failure);

    // Kill at three points spread across the dispatch range — before,
    // around, and after the detection/recovery window.
    let total = golden.events_dispatched;
    assert!(total > 8, "golden run too short: {total}");
    for (i, point) in [total / 4, total / 2, 3 * total / 4].into_iter().enumerate() {
        let dir = fresh_dir(&format!("kill{i}"));
        let cfg = cfg_for(&dir);
        let mut armed = cfg.clone();
        armed.faults = armed.faults.chaos_crash(point);
        match run(&spec, &armed) {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("chaos"), "kill {i}: only the planned kill fails: {msg}");
                let r = resume_latest(&spec, &cfg).expect("resume completes");
                assert_eq!(outcome(&r), golden_out, "kill {i} at event {point} diverges");
            }
            // The kill landed after completion-relevant events; the run
            // finishing unharmed must still match golden exactly.
            Ok(r) => assert_eq!(outcome(&r), golden_out, "kill {i} at event {point}"),
        }
    }
}

/// One corruption-heavy scenario, run with a given seed: persistent write
/// flips (cone recovery) plus transient read flips (plain retries) under
/// sampled verification.
fn corrupt_run(seed: u64) -> RunResult {
    let mut cfg = chain_cfg();
    cfg.verify = VerifyPolicy::Sample(2);
    cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
    cfg.faults = FaultPlan::seeded(seed).corrupt_writes(0.25).corrupt_reads(0.05);
    cfg.retry.max_attempts = 30;
    run(&chain(), &cfg).expect("recoverable corruption scenario")
}

/// CI sweeps this via `DFL_CORRUPT_SEEDS=<seed>`; locally it covers the
/// default matrix. Same seed + same plan ⇒ bit-identical failure report
/// and timeline exports, and the run still converges to fault-free
/// outputs.
#[test]
fn corruption_suite_is_deterministic_across_seeds() {
    let clean = run(&chain(), &chain_cfg()).unwrap();
    for seed in dfl_tests::seed_matrix("DFL_CORRUPT_SEEDS", "1,42,7,20260806") {
        let a = corrupt_run(seed);
        let b = corrupt_run(seed);
        assert_eq!(a.failure, b.failure, "seed {seed}");
        assert_eq!(outcome(&a), outcome(&b), "seed {seed}: timelines diverge");
        assert_eq!(final_sizes(&a), final_sizes(&clean), "seed {seed}");
    }
}

/// Replica divergence without verification: a transfer flips in flight,
/// the destination replica lands corrupt while the source stays clean, and
/// nothing notices — the run is bit-identical in timing to a fault-free
/// one, only the integrity ledger differs.
#[test]
fn unverified_transfer_divergence_is_silent_and_timing_invisible() {
    let spec = chain();
    let staged = |faults: FaultPlan| {
        let mut cfg = chain_cfg();
        cfg.staging = Staging::staged(TierKind::Beegfs, TierKind::Ramdisk);
        cfg.faults = faults;
        run(&spec, &cfg).unwrap()
    };
    let clean = staged(FaultPlan::none());
    let r = staged(FaultPlan::seeded(9).corrupt_transfers(1.0));

    assert!(r.failure.corruptions_injected >= 1, "{}", r.failure);
    assert_eq!(r.failure.corruptions_detected, 0, "silent: {}", r.failure);
    assert!(!r.failure.is_clean());
    assert_eq!(r.makespan_s, clean.makespan_s, "silent corruption must not perturb timing");
    assert_eq!(
        r.measurements.to_json().unwrap(),
        clean.measurements.to_json().unwrap(),
        "silent corruption must not perturb the measured schedule"
    );
    assert_eq!(final_sizes(&r), final_sizes(&clean));
}

/// The same divergence under `OnRead` is caught at the first consumer —
/// and since the corrupt file is an external input with no producer to
/// re-run, the engine surfaces a typed, unrecoverable integrity error.
#[test]
fn corrupt_external_input_surfaces_integrity_violation() {
    let mut cfg = chain_cfg();
    cfg.staging = Staging::staged(TierKind::Beegfs, TierKind::Ramdisk);
    cfg.verify = VerifyPolicy::OnRead;
    cfg.faults = FaultPlan::seeded(9).corrupt_transfers(1.0);
    cfg.retry.max_attempts = 10;
    match run(&chain(), &cfg) {
        Err(EngineError::Sim(SimError::IntegrityViolation { file })) => {
            assert_eq!(file, "in.dat", "the root is the unreproducible input");
        }
        other => panic!("expected IntegrityViolation for an external input, got {other:?}"),
    }
}

/// Verification on a clean run: every read pays its checksum pass (more
/// simulated time, verified bytes accounted), the ledger stays clean, and
/// outputs are unchanged.
#[test]
fn clean_verified_run_pays_checksum_latency_and_stays_clean() {
    let spec = chain();
    let off = run(&spec, &chain_cfg()).unwrap();
    let mut cfg = chain_cfg();
    cfg.verify = VerifyPolicy::OnRead;
    let on = run(&spec, &cfg).unwrap();

    assert!(off.failure.is_clean() && on.failure.is_clean());
    assert_eq!(off.failure.verified_bytes, 0);
    assert!(on.failure.verified_bytes > 0, "{}", on.failure);
    assert!(on.makespan_s > off.makespan_s, "verification costs simulated time");
    assert_eq!(final_sizes(&off), final_sizes(&on));
}

/// A diamond where detection races a sibling consumer: t2's sampled read
/// catches the corrupt a.dat while t1 (also in the cone) is still
/// running, so handling the incident quarantines t1 and raises a *fresh*
/// failure mid-recovery. An `on_incident` checkpoint must defer to the
/// follow-up incident rather than snapshot with undelivered failures
/// (regression: `datalife chaos` over a corruption plan died with
/// "snapshot restore failed: N unreported failures pending").
#[test]
fn on_incident_checkpoint_defers_while_quarantine_failures_pending() {
    let mut w = WorkflowSpec::new("diamond");
    w.input("in.dat", 8 << 20);
    w.task(
        TaskSpec::new("t0", "gen", 1)
            .read(FileUse::whole("in.dat"))
            .write(FileProduce::new("a.dat", 8 << 20))
            .compute_ms(20),
    );
    // Long compute: still running when its sibling detects.
    w.task(
        TaskSpec::new("t1", "slow", 2)
            .read(FileUse::whole("a.dat").ops(1))
            .write(FileProduce::new("b.dat", 8 << 20))
            .compute_ms(200),
    );
    w.task(
        TaskSpec::new("t2", "detect", 2)
            .read(FileUse::whole("a.dat").ops(3))
            .write(FileProduce::new("c.dat", 4 << 20))
            .compute_ms(20),
    );

    let cfg_for = |dir: &PathBuf| {
        let mut cfg = chain_cfg();
        cfg.verify = VerifyPolicy::Sample(3);
        cfg.faults = FaultPlan::seeded(5).corrupt_file("a.dat");
        cfg.retry.max_attempts = 10;
        cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
        cfg.checkpoint = Some(CheckpointConfig::to_dir(dir).on_incident());
        cfg
    };

    let golden_dir = fresh_dir("diamond-golden");
    let golden = run(&w, &cfg_for(&golden_dir)).expect("on_incident checkpointing completes");
    assert!(golden.failure.corruptions_detected >= 1, "{}", golden.failure);
    // Both the detector's failed attempt and the quarantined sibling are
    // counted — the scenario really did raise a failure mid-recovery.
    assert!(golden.failure.failed_attempts >= 2, "{}", golden.failure);
    let n = names(&golden);
    assert!(n.contains(&"t1~r1") && n.contains(&"t2~r1"), "{n:?}");

    // The deferred checkpoints are still valid resume points: kill around
    // the incident window and resume to the golden outcome.
    let golden_out = outcome(&golden);
    let total = golden.events_dispatched;
    for (i, point) in [total / 2, 2 * total / 3].into_iter().enumerate() {
        let dir = fresh_dir(&format!("diamond-kill{i}"));
        let cfg = cfg_for(&dir);
        let mut armed = cfg.clone();
        armed.faults = armed.faults.chaos_crash(point);
        match run(&w, &armed) {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("chaos"), "kill {i}: only the planned kill fails: {msg}");
                let r = resume_latest(&w, &cfg).expect("resume completes");
                assert_eq!(outcome(&r), golden_out, "kill {i} at event {point} diverges");
            }
            Ok(r) => assert_eq!(outcome(&r), golden_out, "kill {i} at event {point}"),
        }
    }
}
