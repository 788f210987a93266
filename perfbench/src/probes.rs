//! Per-layer probes for one catalog entry, as a daemon job runs it.
//!
//! Each probe times a public call of the code under test from outside and
//! peels one layer off the previous one:
//!
//! - `engine::run` with observability off: the engine and the I/O simulator;
//! - the same with `ObsConfig`: plus timeline recording;
//! - `run_controlled` (what a daemon job calls): plus the window loop;
//! - `run_controlled` with `CheckpointConfig`: plus checkpoint manifests;
//! - `chrome_trace` + `jsonl` + JSON encoding: the job's result file.

use std::path::Path;

use dfl_obs::{chrome_trace, jsonl, ObsConfig};
use dfl_serve::ServeConfig;
use dfl_workflows::{
    catalog, engine, run_controlled, CheckpointConfig, ControlledOptions, ControlledOutcome,
    RunConfig, RunResult, StepControl, WatchOptions, WorkflowSpec,
};
use serde::{Number, Value};

use crate::stats::{dir_usage, median, median_ms, timed};

/// The `(spec, config)` a daemon job runs for a tiny submit without a seed,
/// before the daemon adds its observability and checkpoint settings.
fn job_config(workflow: &str, nodes: usize) -> Result<(WorkflowSpec, RunConfig), String> {
    let (spec, mut cfg) = catalog::build(workflow, catalog::Scale::Tiny, nodes)?;
    cfg.faults = cfg.faults.clone().seed(0);
    Ok((spec, cfg))
}

/// The controlled-loop options a daemon with `serve` settings passes.
fn daemon_opts(serve: &ServeConfig) -> ControlledOptions {
    ControlledOptions {
        watch: WatchOptions {
            window_ns: serve.window_ms.max(1) * 1_000_000,
            ..WatchOptions::default()
        },
        deadline_ns: None,
    }
}

fn controlled(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
    opts: &ControlledOptions,
) -> Result<RunResult, String> {
    match run_controlled(spec, cfg, opts, |_| {}, || StepControl::Continue) {
        Ok(ControlledOutcome::Completed(r)) => Ok(*r),
        Ok(ControlledOutcome::Preempted { .. }) => Err("uncontrolled run was preempted".into()),
        Err(e) => Err(format!("engine error: {e}")),
    }
}

/// What a correct daemon result for a catalog entry must carry: the
/// fingerprint of a direct `run_controlled` of the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub makespan_bits: u64,
    pub events: u64,
}

pub fn reference(workflow: &str, nodes: usize, serve: &ServeConfig) -> Result<Reference, String> {
    let (spec, cfg) = job_config(workflow, nodes)?;
    let r = controlled(&spec, &cfg, &daemon_opts(serve))?;
    Ok(Reference {
        makespan_bits: r.makespan_s.to_bits(),
        events: r.events_dispatched,
    })
}

/// Encodes a job result exactly as the daemon's result writer does.
pub fn encode_result(workflow: &str, nodes: u64, r: &RunResult) -> Result<String, String> {
    let n = |x: u64| Value::Number(Number::U64(x));
    let s = |x: &str| Value::String(x.to_owned());
    let reports = r
        .reports
        .iter()
        .map(|j| Value::Array(vec![s(&j.name), n(j.end_ns), Value::Bool(j.failed)]))
        .collect();
    let timeline = r.timeline.as_ref().ok_or("run has no timeline")?;
    let v = Value::Object(vec![
        ("job".to_owned(), n(0)),
        ("workflow".to_owned(), s(workflow)),
        ("scale".to_owned(), s("tiny")),
        ("nodes".to_owned(), n(nodes)),
        ("seed".to_owned(), n(0)),
        ("makespan_bits".to_owned(), n(r.makespan_s.to_bits())),
        ("events_dispatched".to_owned(), n(r.events_dispatched)),
        ("reports".to_owned(), Value::Array(reports)),
        ("chrome_trace".to_owned(), s(&chrome_trace(timeline))),
        ("jsonl".to_owned(), s(&jsonl(timeline))),
    ]);
    serde_json::to_string(&v).map_err(|e| e.to_string())
}

/// One catalog entry's layer costs, wall ms per job unless noted.
#[derive(Debug, Clone, Default)]
pub struct EntryProbe {
    pub build_us: f64,
    pub engine_ms: f64,
    pub events: u64,
    pub obs_ms: f64,
    pub watch_ms: f64,
    pub ckpt_ms: f64,
    pub ckpt_files: u64,
    pub ckpt_bytes: u64,
    pub encode_ms: f64,
}

/// Probes one entry: `reps` timings of each fast layer and `ckpt_reps` of the
/// checkpointed run (which writes manifests under `scratch`).
pub fn probe_entry(
    workflow: &str,
    nodes: usize,
    serve: &ServeConfig,
    reps: usize,
    ckpt_reps: usize,
    scratch: &Path,
) -> Result<EntryProbe, String> {
    let build_us = 1e3 * median_ms(21, || catalog::build(workflow, catalog::Scale::Tiny, nodes));
    let (spec, bare) = job_config(workflow, nodes)?;
    let opts = daemon_opts(serve);
    let mut obs = bare.clone();
    obs.obs = Some(ObsConfig::default());

    let mut engine_samples = Vec::new();
    let mut events = None;
    for _ in 0..reps.max(1) {
        let (r, ms) = timed(|| engine::run(&spec, &bare));
        let r = r.map_err(|e| format!("engine error: {e}"))?;
        if events.is_some_and(|ev| ev != r.events_dispatched) {
            return Err(format!("nondeterminism: {workflow}/{nodes} dispatched a different event count on a repeat run"));
        }
        events = Some(r.events_dispatched);
        engine_samples.push(ms);
    }
    let engine_ms = median(&engine_samples);
    let obs_total = median_ms(reps, || engine::run(&spec, &obs));
    let watch_total = median_ms(reps, || controlled(&spec, &obs, &opts));

    let dir = scratch.join(format!("ckpt-{workflow}-{nodes}"));
    let mut ckpt = obs.clone();
    ckpt.checkpoint =
        Some(CheckpointConfig::to_dir(&dir).every_sim_ns(serve.ckpt_ms.max(1) * 1_000_000));
    let mut ckpt_samples = Vec::new();
    let mut usage = None;
    for _ in 0..ckpt_reps.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        let (r, ms) = timed(|| controlled(&spec, &ckpt, &opts));
        r?;
        let u = dir_usage(&dir);
        if usage.is_some_and(|prev| prev != u) {
            return Err(format!(
                "nondeterminism: {workflow}/{nodes} checkpoint files/bytes differ on a repeat run"
            ));
        }
        usage = Some(u);
        ckpt_samples.push(ms);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (ckpt_files, ckpt_bytes) = usage.unwrap_or_default();

    let done = controlled(&spec, &obs, &opts)?;
    encode_result(workflow, nodes as u64, &done)?;
    let encode_ms = median_ms(reps, || encode_result(workflow, nodes as u64, &done));

    Ok(EntryProbe {
        build_us,
        engine_ms,
        events: events.unwrap_or_default(),
        obs_ms: obs_total - engine_ms,
        watch_ms: watch_total - obs_total,
        ckpt_ms: median(&ckpt_samples) - watch_total,
        ckpt_files,
        ckpt_bytes,
        encode_ms,
    })
}
