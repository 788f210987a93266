//! Determinism: the whole stack (generators → simulator → monitor →
//! graph → analysis) must be bit-reproducible run-to-run, or measurement
//! comparisons across configurations would be meaningless.

use proptest::prelude::*;

use dfl_core::analysis::cost::CostModel;
use dfl_core::analysis::critical_path::critical_path;
use dfl_core::analysis::patterns::{analyze, AnalysisConfig};
use dfl_core::DflGraph;
use dfl_tests::{assert_same_measurements, quick_run};
use dfl_workflows::engine::{run, RunResult};
use dfl_workflows::{belle2, catalog, ddmd, genomes, FaultPlan, VerifyPolicy};

#[test]
fn genomes_runs_identically_twice() {
    let spec = genomes::generate(&genomes::GenomesConfig::tiny());
    let a = quick_run(&spec, 3);
    let b = quick_run(&spec, 3);
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_same_measurements(&a.measurements, &b.measurements);
}

#[test]
fn ddmd_runs_identically_twice() {
    let spec = ddmd::generate(&ddmd::DdmdConfig::tiny(), ddmd::Pipeline::Shortened);
    let a = quick_run(&spec, 2);
    let b = quick_run(&spec, 2);
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_same_measurements(&a.measurements, &b.measurements);
}

#[test]
fn belle2_cached_run_is_deterministic() {
    let cfg = belle2::Belle2Config::tiny();
    let spec = belle2::generate(&cfg, belle2::DataAccess::Cached);
    let rc = belle2::run_config(&cfg, belle2::DataAccess::Cached, 2);
    let a = dfl_workflows::engine::run(&spec, &rc).unwrap();
    let b = dfl_workflows::engine::run(&spec, &rc).unwrap();
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_same_measurements(&a.measurements, &b.measurements);
}

/// Everything a consumer can observe about a run, as bytes: timing,
/// per-job reports, failure report, measurement JSON, both timeline
/// exports, and the dispatch count.
fn observables(r: &RunResult) -> Vec<String> {
    let tl = r.timeline.as_ref().expect("obs enabled");
    let reports: Vec<_> =
        r.reports.iter().map(|j| (&j.name, j.start_ns, j.end_ns, j.failed)).collect();
    vec![
        format!("{:.9}/{:?}/{:?}", r.makespan_s, r.stage_spans, r.total_breakdown),
        format!("{reports:?}"),
        format!("{:?}", r.failure),
        r.measurements.to_json().expect("measurements serialize"),
        dfl_obs::chrome_trace(tl),
        dfl_obs::jsonl(tl),
        r.events_dispatched.to_string(),
    ]
}

/// The catalog's built-in workflows.
const BUILTINS: [&str; 5] = ["genomes", "ddmd", "belle2", "montage", "seismic"];

/// Runs the tiny `name` workflow twice under `faults`/`verify` and asserts
/// the two runs are byte-identical. Errors are folded into the outcome, so
/// a deterministic failure must repeat exactly too.
fn assert_runs_identically_twice(name: &str, faults: &FaultPlan, verify: VerifyPolicy) {
    let (spec, mut cfg) = catalog::build(name, catalog::Scale::Tiny, 8).unwrap();
    cfg.faults = faults.clone();
    cfg.verify = verify;
    cfg.retry.max_attempts = 30;
    cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
    let once = || run(&spec, &cfg).map(|r| observables(&r)).map_err(|e| e.to_string());
    assert_eq!(once(), once(), "{name} under {faults:?}");
}

#[test]
fn builtin_workflows_run_identically_twice() {
    for name in BUILTINS {
        assert_runs_identically_twice(name, &FaultPlan::none(), VerifyPolicy::Off);
    }
}

#[test]
fn fault_plans_run_identically_twice_across_seeds() {
    for seed in dfl_tests::seed_matrix("DFL_FAULT_SEEDS", "1,42,20260806") {
        let faults = FaultPlan::seeded(seed).crash(1, 50_000_000, 30_000_000).io_errors(0.004);
        for name in BUILTINS {
            assert_runs_identically_twice(name, &faults, VerifyPolicy::Off);
        }
    }
}

#[test]
fn corruption_plans_run_identically_twice_across_seeds() {
    for seed in dfl_tests::seed_matrix("DFL_CORRUPT_SEEDS", "1,42,20260806") {
        let faults = FaultPlan::seeded(seed).corrupt_writes(0.01);
        for name in BUILTINS {
            assert_runs_identically_twice(name, &faults, VerifyPolicy::OnRead);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Randomized sweep: any built-in, any I/O-error seed, clean or faulty.
    #[test]
    fn random_workflow_and_fault_seed_run_identically_twice(
        which in 0usize..5,
        seed in 1u64..1_000_000,
        faulty in 0u8..2,
    ) {
        let faults =
            if faulty == 1 { FaultPlan::seeded(seed).io_errors(0.004) } else { FaultPlan::none() };
        assert_runs_identically_twice(BUILTINS[which], &faults, VerifyPolicy::Off);
    }
}

#[test]
fn analysis_is_deterministic_on_same_graph() {
    let spec = genomes::generate(&genomes::GenomesConfig::tiny());
    let r = quick_run(&spec, 2);
    let g = DflGraph::from_measurements(&r.measurements);

    let cp1 = critical_path(&g, &CostModel::Volume);
    let cp2 = critical_path(&g, &CostModel::Volume);
    assert_eq!(cp1.vertices, cp2.vertices);

    let cfg = AnalysisConfig::default();
    let a: Vec<String> = analyze(&g, &cfg).iter().map(|o| o.evidence.clone()).collect();
    let b: Vec<String> = analyze(&g, &cfg).iter().map(|o| o.evidence.clone()).collect();
    assert_eq!(a, b, "opportunity ordering stable");
}

#[test]
fn generator_outputs_are_deterministic() {
    let a = belle2::Belle2Config::default();
    for t in [0u32, 7, 239] {
        assert_eq!(a.draws_for(t), a.draws_for(t));
    }
    let s1 = belle2::Scenario::S1.traces(&belle2::Belle2Config::tiny());
    let s2 = belle2::Scenario::S1.traces(&belle2::Belle2Config::tiny());
    assert_eq!(s1.len(), s2.len());
    for (x, y) in s1.iter().zip(&s2) {
        assert_eq!(x.ops, y.ops);
    }
}
