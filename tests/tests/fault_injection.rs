//! End-to-end fault injection and recovery: crash/retry correctness,
//! lineage-minimal recovery, schedule-independent determinism (same fault
//! seed ⇒ bit-identical outcome), and fault-free equivalence.
//!
//! The fixed-seed suite honours `DFL_FAULT_SEEDS` (comma-separated list,
//! default "1,42,7") so CI can sweep seeds in a matrix.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dfl_iosim::{FaultPlan, SimError, TierKind};
use dfl_workflows::engine::{run, EngineError, Placement, RetryPolicy, RunConfig, RunResult, Staging};
use dfl_workflows::spec::{FileProduce, FileUse, TaskSpec, WorkflowSpec};

/// Two producers on different nodes write node-local intermediates; one
/// consumer on node 0 reads both and computes long enough to be crashed
/// mid-flight.
fn diamond() -> WorkflowSpec {
    let mut w = WorkflowSpec::new("diamond");
    w.input("in.dat", 8 << 20);
    w.task(
        TaskSpec::new("prod-0", "prod", 1)
            .read(FileUse::whole("in.dat"))
            .write(FileProduce::new("m0.dat", 16 << 20))
            .compute_ms(50),
    );
    w.task(
        TaskSpec::new("prod-1", "prod", 1)
            .read(FileUse::whole("in.dat"))
            .write(FileProduce::new("m1.dat", 16 << 20))
            .compute_ms(50),
    );
    w.task(
        TaskSpec::new("cons-0", "cons", 2)
            .read(FileUse::whole("m0.dat"))
            .read(FileUse::whole("m1.dat"))
            .write(FileProduce::new("out.dat", 8 << 20))
            .compute_ms(500),
    );
    w
}

/// RoundRobin on 2 nodes: prod-0 and cons-0 on node 0, prod-1 on node 1.
/// Intermediates go to node-local RAM disk, so crashing node 0 destroys
/// m0.dat but not m1.dat.
fn diamond_cfg() -> RunConfig {
    let mut cfg = RunConfig::default_gpu(2);
    cfg.placement = Placement::RoundRobin;
    cfg.staging = Staging::local_intermediates(TierKind::Beegfs, TierKind::Ramdisk);
    cfg
}

fn final_sizes(r: &RunResult) -> BTreeMap<String, u64> {
    r.measurements.files.iter().map(|f| (f.path.clone(), f.size)).collect()
}

#[test]
fn crash_recovers_minimal_producer_set_and_outputs_match() {
    let clean = run(&diamond(), &diamond_cfg()).unwrap();

    let mut cfg = diamond_cfg();
    // Crash node 0 while cons-0 is computing (producers are long done):
    // cons-0's attempt dies and m0.dat — only replica on node 0's RAM
    // disk — is lost. m1.dat (node 1) survives.
    cfg.faults = FaultPlan::seeded(3).crash(0, 300_000_000, 100_000_000);
    let r = run(&diamond(), &cfg).unwrap();

    assert_eq!(r.failure.crashes, 1);
    assert_eq!(r.failure.failed_attempts, 1, "only cons-0 was running");
    assert!(r.failure.lost_files >= 1, "m0.dat lost: {}", r.failure);

    // Lineage recovery re-runs ONLY prod-0 (producer of the lost file) and
    // retries the consumer; prod-1's surviving output is reused as-is.
    let names: Vec<&str> = r.reports.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(r.failure.recovery_jobs, 1, "minimal producer set: {names:?}");
    assert_eq!(r.failure.retries, 1, "one retry of cons-0: {names:?}");
    assert!(names.contains(&"prod-0~rec1"), "{names:?}");
    assert!(names.contains(&"cons-0~r1"), "{names:?}");
    assert_eq!(names.iter().filter(|n| n.starts_with("prod-1")).count(), 1, "{names:?}");

    // Recovery traffic is accounted separately from useful traffic.
    assert!(r.failure.recovery_bytes > 0);
    assert!(r.failure.wasted_bytes > 0 || r.failure.wasted_ns > 0);
    assert!(r.failure.goodput_bytes() < r.failure.total_bytes);

    // The workflow's final outputs are identical to the fault-free run.
    assert_eq!(final_sizes(&r), final_sizes(&clean));
    assert!(r.makespan_s > clean.makespan_s, "crash + recovery cost time");
}

#[test]
fn none_plan_matches_fault_free_run_exactly() {
    let base = run(&diamond(), &diamond_cfg()).unwrap();
    let mut cfg = diamond_cfg();
    cfg.faults = FaultPlan::none().seed(1234); // seeded but inert
    let r = run(&diamond(), &cfg).unwrap();
    assert_eq!(r.makespan_s, base.makespan_s);
    assert_eq!(
        r.measurements.to_json().unwrap(),
        base.measurements.to_json().unwrap(),
        "an empty fault plan must not perturb the schedule"
    );
    assert!(r.failure.is_clean());
}

#[test]
fn transient_io_errors_retry_until_success() {
    let mut cfg = diamond_cfg();
    cfg.faults = FaultPlan::seeded(11).io_errors(0.05);
    cfg.retry.max_attempts = 20;
    let r = run(&diamond(), &cfg).unwrap();
    // With ~60 I/O ops at p=0.05 some attempt almost surely fails; if the
    // seed happens to spare us the run is simply clean.
    assert_eq!(r.failure.transient_io_errors, r.failure.failed_attempts);
    assert_eq!(final_sizes(&r), final_sizes(&run(&diamond(), &diamond_cfg()).unwrap()));
}

#[test]
fn retries_exhausted_surfaces_as_error() {
    let mut cfg = diamond_cfg();
    cfg.faults = FaultPlan::seeded(3).crash(0, 300_000_000, 100_000_000);
    cfg.retry = RetryPolicy::none();
    match run(&diamond(), &cfg) {
        Err(EngineError::Sim(SimError::RetriesExhausted { job, attempts: 1 })) => {
            assert_eq!(job, "cons-0");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn stage_budget_caps_retries() {
    let mut cfg = diamond_cfg();
    // A down-forever node makes every retry of cons-0 fail again.
    cfg.faults = FaultPlan::seeded(3).crash(0, 300_000_000, u64::MAX);
    cfg.retry.max_attempts = 50;
    cfg.retry.stage_budget = Some(2);
    match run(&diamond(), &cfg) {
        Err(EngineError::Sim(SimError::RetriesExhausted { .. })) => {}
        Err(EngineError::Sim(SimError::Deadlock { .. })) => {} // retries queue on the dead node
        other => panic!("expected exhaustion or deadlock, got {other:?}"),
    }
}

/// One fault scenario, run with a given seed.
fn seeded_run(seed: u64) -> RunResult {
    let mut cfg = diamond_cfg();
    cfg.faults =
        FaultPlan::seeded(seed).crash(0, 300_000_000, 100_000_000).io_errors(0.01);
    cfg.retry.max_attempts = 30;
    run(&diamond(), &cfg).expect("recoverable scenario")
}

/// CI sweeps this via `DFL_FAULT_SEEDS=<seed>`; locally it covers a small
/// default set. Same seed ⇒ bit-identical failure report, makespan, and
/// measurement JSON.
#[test]
fn fault_suite_is_deterministic_across_seeds() {
    for seed in dfl_tests::seed_matrix("DFL_FAULT_SEEDS", "1,42,7") {
        let a = seeded_run(seed);
        let b = seeded_run(seed);
        assert_eq!(a.failure, b.failure, "seed {seed}");
        assert_eq!(a.makespan_s, b.makespan_s, "seed {seed}");
        assert_eq!(
            a.measurements.to_json().unwrap(),
            b.measurements.to_json().unwrap(),
            "seed {seed}"
        );
        assert_eq!(a.failure.crashes, 1, "seed {seed}: the planned crash fires");
        // And the workflow still finished correctly.
        assert_eq!(final_sizes(&a), final_sizes(&run(&diamond(), &diamond_cfg()).unwrap()));
    }
}

/// Same scenario as [`seeded_run`] but with the timeline recorder on.
fn seeded_run_obs(seed: u64) -> RunResult {
    let mut cfg = diamond_cfg();
    cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
    cfg.faults =
        FaultPlan::seeded(seed).crash(0, 300_000_000, 100_000_000).io_errors(0.01);
    cfg.retry.max_attempts = 30;
    run(&diamond(), &cfg).expect("recoverable scenario")
}

/// Same seed ⇒ bit-identical exported timeline, even under a fault plan
/// with crashes, cancelled flows, retries, and recovery jobs. Sweeps the
/// same `DFL_FAULT_SEEDS` matrix as the failure-report suite.
#[test]
fn fault_timelines_are_byte_identical_across_seeds() {
    for seed in dfl_tests::seed_matrix("DFL_FAULT_SEEDS", "1,42,7") {
        let a = seeded_run_obs(seed);
        let b = seeded_run_obs(seed);
        let (ta, tb) = (a.timeline.as_ref().unwrap(), b.timeline.as_ref().unwrap());
        assert_eq!(ta, tb, "seed {seed}: timelines diverge");
        assert_eq!(
            dfl_obs::chrome_trace(ta),
            dfl_obs::chrome_trace(tb),
            "seed {seed}: chrome-trace export diverges"
        );
        assert_eq!(dfl_obs::jsonl(ta), dfl_obs::jsonl(tb), "seed {seed}: jsonl diverges");

        // The recorder is a pure observer: the run itself is unchanged
        // from the unrecorded one, and the timeline reflects the faults.
        let plain = seeded_run(seed);
        assert_eq!(a.failure, plain.failure, "seed {seed}: recording perturbed the run");
        assert_eq!(a.makespan_s, plain.makespan_s, "seed {seed}");
        assert!(ta.instants().any(|i| i.kind == dfl_obs::InstantKind::NodeCrash));
        assert_eq!(
            ta.metrics.counter("node_crashes"),
            u64::from(a.failure.crashes),
            "seed {seed}"
        );
        assert_eq!(
            ta.metrics.counter("attempts_failed"),
            u64::from(a.failure.failed_attempts),
            "seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism holds across arbitrary seeds and crash windows, not just
    /// hand-picked ones.
    #[test]
    fn failure_reports_are_reproducible(
        seed in any::<u64>(),
        crash_ms in 10u64..600,
        down_ms in 10u64..300,
    ) {
        let mk = || {
            let mut cfg = diamond_cfg();
            cfg.faults = FaultPlan::seeded(seed)
                .crash(0, crash_ms * 1_000_000, down_ms * 1_000_000)
                .io_errors(0.002);
            cfg.retry.max_attempts = 30;
            run(&diamond(), &cfg)
        };
        match (mk(), mk()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.failure, b.failure);
                prop_assert_eq!(a.makespan_s, b.makespan_s);
                prop_assert_eq!(
                    a.measurements.to_json().unwrap(),
                    b.measurements.to_json().unwrap()
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
        }
    }
}

/// A recovery job crashing *itself*: the first crash kills cons-0 and
/// destroys m0.dat, so prod-0~rec1 is issued; the second crash window is
/// timed to kill prod-0~rec1 mid-flight (it runs 400–465 ms on node 0), so
/// the resubmit replaces-chain must issue prod-0~rec2 and point cons-0's
/// dependency at it. The consumer must be released exactly once — a
/// double-release would show up as two successful cons-0 attempts.
#[test]
fn crashed_recovery_job_is_reissued_and_releases_dependents_once() {
    let mut cfg = diamond_cfg();
    cfg.faults = FaultPlan::seeded(3)
        .crash(0, 300_000_000, 100_000_000)
        .crash(0, 430_000_000, 50_000_000);
    cfg.retry.max_attempts = 30;
    let r = run(&diamond(), &cfg).unwrap();

    let names: Vec<&str> = r.reports.iter().map(|j| j.name.as_str()).collect();
    assert!(names.contains(&"prod-0~rec1"), "{names:?}");
    assert!(names.contains(&"prod-0~rec2"), "rec1 crashed, rec2 reissued: {names:?}");
    assert!(r.failure.recovery_jobs >= 2, "{}", r.failure);
    assert_eq!(r.failure.crashes, 2, "{}", r.failure);

    // The crashed rec1 attempt is reported failed; exactly one rec attempt
    // succeeds, and the consumer runs to completion exactly once.
    let rec_ok =
        r.reports.iter().filter(|j| j.name.starts_with("prod-0~rec") && !j.failed).count();
    assert_eq!(rec_ok, 1, "{names:?}");
    let cons_ok =
        r.reports.iter().filter(|j| j.name.starts_with("cons-0") && !j.failed).count();
    assert_eq!(cons_ok, 1, "dependents released exactly once: {names:?}");

    // And the final outputs still match the fault-free run byte-for-byte.
    assert_eq!(final_sizes(&r), final_sizes(&run(&diamond(), &diamond_cfg()).unwrap()));
}
