//! `datalife` — command-line front end for the DataLife-rs reproduction.
//!
//! ```text
//! datalife run <workflow> [--scale tiny|paper] [--nodes N] [-o out.json]
//! datalife analyze <measurements.json> [--cost volume|time|branchjoin|fanin]
//! datalife rank <measurements.json> [--what pc|data|task]
//! datalife caterpillar <measurements.json> [--cost ...]
//! datalife sankey <measurements.json> [-o out.json]
//! datalife html <measurements.json> [-o out.html]
//! datalife casestudy <genomes|ddmd|belle2>
//! datalife chaos <workflow> [--seeds LIST] [--crashes K] [--ckpt-ms MS]
//! ```
//!
//! `run` simulates one of the five paper workflows under DFL monitoring and
//! writes the measurement set as JSON; the other commands analyze such a
//! file, mirroring the original DataLife collector/analyzer split.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use dfl_core::analysis::caterpillar::{caterpillar, CaterpillarRule};
use dfl_core::analysis::cost::CostModel;
use dfl_core::analysis::critical_path::critical_path;
use dfl_core::analysis::patterns::{analyze, report, AnalysisConfig};
use dfl_core::analysis::ranking::{
    rank_data_vertices, rank_producer_consumer, rank_task_vertices, DataMetric, TaskMetric,
};
use dfl_core::viz::render_ascii;
use dfl_core::viz::sankey::{SankeyDiagram, SankeyOptions};
use dfl_core::DflGraph;
use dfl_obs::{diagnosis_kind_label, ObsConfig, WatchdogConfig};
use dfl_serve::{Client, Daemon, Endpoints, NetServer, Request, ServeConfig};
use dfl_trace::MeasurementSet;
use dfl_workflows::engine::{resume_latest, run as run_workflow, RunConfig, RunResult};
use dfl_workflows::VerifyPolicy;
use dfl_workflows::spec::WorkflowSpec;
use dfl_workflows::watch::{run_watched, WatchOptions, WindowSummary};
use dfl_workflows::{belle2, catalog, ddmd, genomes, CheckpointConfig, FaultPlan};

const USAGE: &str = "\
datalife — data flow lifecycle analysis for distributed workflows

USAGE:
  datalife run <genomes|ddmd|belle2|montage|seismic> [--scale tiny|paper] [--nodes N] [-o FILE]
               [--faults SPEC] [--verify POLICY] [--retries N] [--trace-out FILE]
  datalife profile <genomes|ddmd|belle2|montage|seismic> [--scale tiny|paper] [--nodes N]
               [--trace-out FILE] [--jsonl FILE] [--sample-ms MS] [--faults SPEC]
               [--verify POLICY] [--retries N]
  datalife watch <genomes|ddmd|belle2|montage|seismic> [--scale tiny|paper] [--nodes N]
               [--window-ms MS] [--sample-ms MS] [--faults SPEC] [--verify POLICY] [--retries N]
               [--headless] [--jsonl]
  datalife analyze <measurements.json> [--cost volume|time|branchjoin|fanin]
  datalife rank <measurements.json> [--what pc|data|task]
  datalife caterpillar <measurements.json> [--cost volume|time|branchjoin|fanin]
  datalife sankey <measurements.json> [-o FILE]
  datalife html <measurements.json> [-o FILE]
  datalife advise <measurements.json>
  datalife casestudy <genomes|ddmd|belle2>
  datalife chaos <genomes|ddmd|belle2|montage|seismic> [--scale tiny|paper] [--nodes N]
               [--seeds LIST] [--crashes K] [--ckpt-ms MS] [--dir DIR] [--faults SPEC]
               [--verify POLICY] [--retries N]
  datalife chaos <workflow> --serve [--scale tiny|paper] [--nodes N] [--seed N]
               [--crashes K] [--ckpt-ms MS] [--dir DIR]
  datalife serve [--dir DIR] [--workers N] [--queue-cap N] [--ckpt-ms MS] [--window-ms MS]
               [--abort-on-chaos] [--metrics-addr HOST:PORT]
  datalife top [--dir DIR | --addr HOST:PORT] [--interval-ms MS] [--once] [--jsonl]

`run` simulates the workflow on the paper's Table 2 machines while the DFL
monitor records lifecycle measurements (written as JSON, default
measurements.json). The analysis commands consume that JSON.

--faults injects a deterministic fault plan, e.g.
  --faults 'seed=42,crash=0@2s+1s,ioerr=0.001,degrade=nfs@1s+2s*0.1'
(crash node 0 at t=2s for 1s, 0.1% transient I/O error rate, NFS at 10%
bandwidth from 1s to 3s). Failed attempts are retried with exponential
backoff (--retries, default 3 attempts) after lineage-based recovery of
any lost intermediate files; the run then prints a failure report.

Silent-corruption faults flip bits without failing the I/O:
  --faults 'seed=42,corrupt=write@0.001,corrupt=file@mid.dat' --verify on-read
(0.1% of writes corrupt the stored replica; the first version of mid.dat
is corrupted outright). --verify turns on checksum checking: 'on-read'
checks every read, 'on-transfer' checks staging copies, 'sample:N'
checks every Nth read per task, 'off' (the default) detects nothing —
corrupt bytes silently taint downstream outputs. A detected corruption
quarantines the root file's whole forward cone (every downstream file
and task) and re-runs the minimal producer set; the failure report
counts corruptions injected/detected, quarantined files/bytes, and
verified volume, so verify-early vs verify-late is measurable.

`profile` runs the workflow with the observability layer on and prints an
ASCII timeline summary. --trace-out (default trace.json) writes a
Chrome-trace file: open https://ui.perfetto.dev and drag it in. --jsonl
writes the raw timeline as compact JSON lines. --sample-ms sets the
utilization/queue-depth sampling cadence in sim-time milliseconds
(default 100; 0 disables sampling, leaving spans and instants only).
`run --trace-out FILE` records the same trace alongside measurements.

`watch` runs the workflow live with anomaly watchdogs on and refreshes an
ASCII dashboard at every --window-ms of sim-time (default 100): progress,
the top-5 blame breakdown, the current critical-path head, and any
diagnoses (stall, tier saturation, cache thrash, queue imbalance) the
watchdogs fired. --headless prints one summary line per window instead;
add --jsonl to stream each window summary as one JSON object per line
(the machine-readable schema). --sample-ms (default 20) is the cadence
that drives the detectors' clock.

`chaos` is the deterministic crash/restore driver: it runs the workflow
once to completion with crash-consistent checkpoints on (the golden run),
then for each seed kills the coordinator at --crashes seeded dispatch
indices, resuming from the latest on-disk manifest after every kill, and
verifies the final result — makespan, job reports, failure report, and
exported timeline — is byte-identical to the golden run. --ckpt-ms sets
the checkpoint cadence in sim-time milliseconds (default 50); manifests
go to --dir (default a per-process temp directory). Exits nonzero if any
seed diverges.

`chaos --serve` chaoses the daemon instead of the in-process engine: it
runs one golden job through a real `datalife serve` child process, then
for each of --crashes seeded dispatch points starts a fresh daemon with
--abort-on-chaos, submits the job with the kill switch armed, watches the
process die mid-job (`kill -9` semantics: no destructors, no flushes),
restarts the daemon on the same state directory, and requires the
recovered result file — report plus both timeline exports — to be
byte-identical to the golden one.

`serve` starts the analysis daemon: JSON Lines over TCP (loopback,
ephemeral port) and a Unix socket, endpoints published in
<dir>/endpoint.json. Submitted jobs are durably ledgered before they are
acknowledged, run on --workers threads under per-tenant fair-share
scheduling, and survive `kill -9` via checkpoint resume on restart. The
daemon also serves a Prometheus text-exposition page at
http://<metrics-addr>/metrics (--metrics-addr, default an ephemeral
loopback port published in endpoint.json). See README for the
request/response schema.

`top` is the live daemon dashboard: it polls the `metrics` request every
--interval-ms (default 1000) and redraws an ANSI screen — queue/worker
picture, per-tenant scheduler accounting, latency quantiles, recent
health diagnoses. --once renders a single frame and exits; --jsonl
prints the raw metrics reply lines instead (machine-readable).

Exit codes: 0 success; 1 runtime failure; 2 usage error (unknown
command/workflow/flag, bad flag value); 3 chaos divergence (a recovered
run was not byte-identical to its golden run).";

/// Typed CLI failure, mapped to the process exit code: usage errors exit
/// 2, runtime failures 1, chaos divergence 3 (success is 0).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
    Divergence(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Runtime(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Divergence(_) => 3,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Runtime(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Runtime(msg.into())
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Every `--flag` some command reads. An argument spelled like a flag but
/// missing here is a usage error, so a mistyped or retired flag is never
/// silently ignored.
const KNOWN_FLAGS: &[&str] = &[
    "--abort-on-chaos", "--addr", "--ckpt-ms", "--cost", "--crashes", "--dir", "--faults",
    "--headless", "--interval-ms", "--jsonl", "--metrics-addr", "--nodes", "--once",
    "--queue-cap", "--retries", "--sample-ms", "--scale", "--seed", "--seeds", "--serve",
    "--trace-out", "--verify", "--what", "--window-ms", "--workers",
];

fn check_flags(args: &[String]) -> Result<(), CliError> {
    match args.iter().find(|a| a.starts_with("--") && !KNOWN_FLAGS.contains(&a.as_str())) {
        Some(flag) => Err(usage_err(format!("unknown flag '{flag}'"))),
        None => Ok(()),
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parse_cost(args: &[String]) -> Result<CostModel, CliError> {
    match arg_value(args, "--cost").as_deref() {
        None | Some("volume") => Ok(CostModel::Volume),
        Some("time") => Ok(CostModel::Time),
        Some("branchjoin") => Ok(CostModel::BranchJoin { branch_threshold: 2 }),
        Some("fanin") => Ok(CostModel::TaskFanIn),
        Some("footprint") => Ok(CostModel::Footprint),
        Some(other) => Err(usage_err(format!(
            "bad --cost '{other}' (volume|time|branchjoin|fanin|footprint)"
        ))),
    }
}

fn load(path: &str) -> Result<DflGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let set = MeasurementSet::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(DflGraph::from_measurements(&set))
}

/// Builds the spec + run configuration shared by `run` and `profile`:
/// workflow selection, scale, node count, fault plan, and retry policy.
fn select_workflow(args: &[String]) -> Result<(WorkflowSpec, RunConfig), CliError> {
    let workflow = args.first().ok_or_else(|| usage_err("missing workflow name"))?;
    let scale = match arg_value(args, "--scale") {
        Some(s) => catalog::Scale::parse(&s).map_err(usage_err)?,
        None => catalog::Scale::Tiny,
    };
    let nodes: usize = arg_value(args, "--nodes").and_then(|v| v.parse().ok()).unwrap_or(2);
    let faults = match arg_value(args, "--faults") {
        Some(s) => Some(FaultPlan::parse(&s).map_err(|e| usage_err(format!("bad --faults: {e}")))?),
        None => None,
    };
    let retries: Option<u32> = match arg_value(args, "--retries") {
        Some(s) => Some(s.parse().map_err(|_| usage_err(format!("bad --retries '{s}'")))?),
        None => None,
    };
    let verify = match arg_value(args, "--verify") {
        Some(s) => Some(parse_verify(&s).map_err(usage_err)?),
        None => None,
    };

    let (spec, mut cfg) = catalog::build(workflow, scale, nodes).map_err(usage_err)?;
    if let Some(p) = faults {
        cfg.faults = p;
    }
    if let Some(n) = retries {
        cfg.retry.max_attempts = n.max(1);
    }
    if let Some(v) = verify {
        cfg.verify = v;
    }
    Ok((spec, cfg))
}

fn parse_verify(s: &str) -> Result<VerifyPolicy, String> {
    match s {
        "off" => Ok(VerifyPolicy::Off),
        "on-read" => Ok(VerifyPolicy::OnRead),
        "on-transfer" => Ok(VerifyPolicy::OnTransfer),
        other => match other.strip_prefix("sample:") {
            Some(n) => {
                let n: u32 =
                    n.parse().map_err(|_| format!("bad --verify sample count '{n}'"))?;
                if n == 0 {
                    return Err("--verify sample:N needs N >= 1".into());
                }
                Ok(VerifyPolicy::Sample(n))
            }
            None => Err(format!("bad --verify '{other}' (off|on-read|on-transfer|sample:N)")),
        },
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let out = arg_value(args, "-o").unwrap_or_else(|| "measurements.json".into());
    let trace_out = arg_value(args, "--trace-out");
    let (spec, mut cfg) = select_workflow(args)?;
    if trace_out.is_some() {
        cfg.obs = Some(ObsConfig::default());
    }
    let faults_on = args.iter().any(|a| a == "--faults");

    let result = run_workflow(&spec, &cfg).map_err(|e| e.to_string())?;
    println!("{}", result.stage_summary());
    if faults_on || !result.failure.is_clean() {
        println!("{}", result.failure);
    }
    let json = result.measurements.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} tasks, {} files, {} task-file records",
        result.measurements.tasks.len(),
        result.measurements.files.len(),
        result.measurements.records.len()
    );
    if let Some(path) = trace_out {
        let tl = result.timeline.as_ref().expect("obs enabled for --trace-out");
        std::fs::write(&path, dfl_obs::chrome_trace(tl)).map_err(|e| e.to_string())?;
        println!("wrote {path}: {} timeline events (open in ui.perfetto.dev)", tl.events.len());
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let trace_out = arg_value(args, "--trace-out").unwrap_or_else(|| "trace.json".into());
    let jsonl_out = arg_value(args, "--jsonl");
    let sample_ms: u64 = match arg_value(args, "--sample-ms") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --sample-ms '{s}'")))?,
        None => 100,
    };
    let (spec, mut cfg) = select_workflow(args)?;
    cfg.obs = Some(if sample_ms == 0 {
        ObsConfig::default()
    } else {
        ObsConfig::sampled(sample_ms * 1_000_000)
    });

    let result = run_workflow(&spec, &cfg).map_err(|e| e.to_string())?;
    let tl = result.timeline.as_ref().expect("obs enabled for profile");
    print!("{}", dfl_obs::ascii_summary(tl));
    println!();
    println!("{}", result.stage_summary());
    std::fs::write(&trace_out, dfl_obs::chrome_trace(tl)).map_err(|e| e.to_string())?;
    println!("wrote {trace_out}: {} timeline events (open in ui.perfetto.dev)", tl.events.len());
    if let Some(path) = jsonl_out {
        std::fs::write(&path, dfl_obs::jsonl(tl)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Renders one dashboard frame (ANSI clear + home, then ~a screenful).
fn render_dashboard(workflow: &str, w: &WindowSummary, recent_diags: &[String]) {
    let bar_w = 24usize;
    let filled = (bar_w * w.tasks_done).checked_div(w.tasks_total).unwrap_or(0);
    let bar: String =
        "#".repeat(filled) + &".".repeat(bar_w - filled.min(bar_w));
    print!("\x1b[2J\x1b[H");
    println!(
        "datalife watch — {workflow}   window {}   t = {:.3} s{}",
        w.window,
        w.t1_ns as f64 / 1e9,
        if w.final_window { "   [final]" } else { "" }
    );
    println!(
        "progress  [{bar}] {}/{} tasks   moved {:.1} MiB   failed {}   crashes {}",
        w.tasks_done,
        w.tasks_total,
        w.moved_bytes as f64 / (1 << 20) as f64,
        w.failed_attempts,
        w.crashes
    );
    if w.wasted_bytes > 0 || w.recovery_bytes > 0 || w.quarantined_files > 0 {
        println!(
            "integrity  wasted {:.1} MiB   recovery {:.1} MiB   quarantined {} file(s)",
            w.wasted_bytes as f64 / (1 << 20) as f64,
            w.recovery_bytes as f64 / (1 << 20) as f64,
            w.quarantined_files
        );
    }
    match &w.head {
        Some(h) => println!(
            "critical path  {} '{}'  cost {:.3e}  ({} vertices)",
            h.kind, h.vertex, h.total_cost, h.path_len
        ),
        None => println!("critical path  (no completed tasks yet)"),
    }
    println!("top blame this window:");
    if w.blame.is_empty() {
        println!("  (idle window)");
    }
    for b in w.blame.iter().take(5) {
        println!("  {:10} {:24} {:>12.3} ms", b.category, b.subject, b.busy_ns as f64 / 1e6);
    }
    println!("diagnoses ({} total):", recent_diags.len());
    if recent_diags.is_empty() {
        println!("  none");
    }
    for d in recent_diags.iter().rev().take(5) {
        println!("  {d}");
    }
    println!("events: {} this window, {} dropped at subscriber", w.events, w.stream_dropped);
}

fn cmd_watch(args: &[String]) -> Result<(), CliError> {
    let headless = args.iter().any(|a| a == "--headless");
    let jsonl = args.iter().any(|a| a == "--jsonl");
    let window_ms: u64 = match arg_value(args, "--window-ms") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --window-ms '{s}'")))?,
        None => 100,
    };
    if window_ms == 0 {
        return Err(usage_err("--window-ms must be positive"));
    }
    let sample_ms: u64 = match arg_value(args, "--sample-ms") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --sample-ms '{s}'")))?,
        None => 20,
    };
    let workflow = args.first().cloned().unwrap_or_default();
    let (spec, mut cfg) = select_workflow(args)?;
    // Watchdogs need the sampling clock for their stall/saturation timers.
    cfg.obs = Some(
        ObsConfig::sampled(sample_ms.max(1) * 1_000_000).with_watchdogs(WatchdogConfig::default()),
    );

    let opts = WatchOptions { window_ns: window_ms * 1_000_000, ..WatchOptions::default() };
    let mut recent_diags: Vec<String> = Vec::new();
    let result = run_watched(&spec, &cfg, &opts, |w| {
        for d in &w.diagnoses {
            recent_diags.push(format!(
                "{:>10.3} ms  {:15} {}  — {}",
                d.t_ns as f64 / 1e6,
                diagnosis_kind_label(d.kind),
                d.subject,
                d.detail
            ));
        }
        if jsonl {
            println!("{}", serde_json::to_string(w).expect("window summary serializes"));
        } else if headless {
            println!(
                "window {:>4}  t={:>9.3}s  tasks {}/{}  events {:>6}  blame#{}  diag+{}",
                w.window,
                w.t1_ns as f64 / 1e9,
                w.tasks_done,
                w.tasks_total,
                w.events,
                w.blame.len(),
                w.diagnoses.len()
            );
        } else {
            render_dashboard(&workflow, w, &recent_diags);
        }
    })
    .map_err(|e| e.to_string())?;

    if !jsonl {
        println!();
        println!("{}", result.stage_summary());
        if !result.failure.is_clean() {
            println!("{}", result.failure);
        }
        if result.diagnoses.is_empty() {
            println!("watchdogs: no anomalies diagnosed");
        } else {
            println!("watchdogs: {} diagnosis(es) fired:", result.diagnoses.len());
            for d in &result.diagnoses {
                println!(
                    "  {:>10.3} ms  {:15} {}  — {}",
                    d.t_ns as f64 / 1e6,
                    diagnosis_kind_label(d.kind),
                    d.subject,
                    d.detail
                );
            }
        }
        if let Some(tl) = &result.timeline {
            if tl.dropped > 0 {
                println!("note: {} timeline event(s) dropped at the recorder limit", tl.dropped);
            }
        }
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("missing measurements file"))?;
    let cost = parse_cost(args)?;
    let g = load(path)?;
    println!(
        "DFL-DAG: {} vertices ({} tasks, {} data), {} edges; acyclic: {}\n",
        g.vertex_count(),
        g.task_vertices().count(),
        g.data_vertices().count(),
        g.edge_count(),
        g.is_dag()
    );
    print!("{}", dfl_core::analysis::graph_stats(&g));
    println!();
    let cfg = AnalysisConfig { cost, ..Default::default() };
    let ops = analyze(&g, &cfg);
    print!("{}", report(&g, &ops));
    Ok(())
}

fn cmd_html(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("missing measurements file"))?;
    let g = load(path)?;
    let cp = critical_path(&g, &CostModel::Volume);
    let out = arg_value(args, "-o").unwrap_or_else(|| "lifecycle.html".into());
    std::fs::write(&out, dfl_core::viz::to_html(&g, path, Some(&cp))).map_err(|e| e.to_string())?;
    println!("wrote {out}; open it in a browser");
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("missing measurements file"))?;
    let g = load(path)?;
    let ops = analyze(&g, &AnalysisConfig::default());
    let advice = dfl_core::analysis::advise(&g, &ops);
    if advice.is_empty() {
        println!("no mechanically-applicable coordination changes found");
    }
    if !advice.stage_inputs.is_empty() {
        println!("stage these inputs to node-local storage:");
        for f in &advice.stage_inputs {
            println!("  {f}");
        }
    }
    if advice.local_intermediates {
        println!("write intermediates to node-local tiers");
    }
    if advice.colocate_consumers {
        println!("co-schedule consumers of shared files (group-aware placement)");
    }
    if !advice.cache_files.is_empty() {
        println!("cache these re-read files:");
        for f in &advice.cache_files {
            println!("  {f}");
        }
    }
    if advice.buffer_writes {
        println!("enable write buffering for critical producers");
    }
    if !advice.rationale.is_empty() {
        println!("
rationale:");
        for r in &advice.rationale {
            println!("  - {r}");
        }
    }
    Ok(())
}

fn cmd_rank(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("missing measurements file"))?;
    let g = load(path)?;
    match arg_value(args, "--what").as_deref() {
        Some("data") => println!("{}", rank_data_vertices(&g, DataMetric::TotalVolume)),
        Some("task") => println!("{}", rank_task_vertices(&g, TaskMetric::TotalVolume)),
        _ => println!("{}", rank_producer_consumer(&g)),
    }
    Ok(())
}

fn cmd_caterpillar(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("missing measurements file"))?;
    let cost = parse_cost(args)?;
    let g = load(path)?;
    let cp = critical_path(&g, &cost);
    let cat = caterpillar(&g, &cp, CaterpillarRule::Dfl);
    println!(
        "critical path by {} (cost {:.3e}): {} vertices",
        cost.label(),
        cp.total_cost,
        cp.vertices.len()
    );
    for v in &cp.vertices {
        println!("  {}", g.vertex(*v).name);
    }
    println!(
        "caterpillar: +{} legs, +{} distance-2 producers ({} of {} vertices)\n",
        cat.legs.len(),
        cat.extended.len(),
        cat.len(),
        g.vertex_count()
    );
    println!("{}", render_ascii(&g, Some(&cp)));
    Ok(())
}

fn cmd_sankey(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("missing measurements file"))?;
    let g = load(path)?;
    let cp = critical_path(&g, &CostModel::Volume);
    let s = SankeyDiagram::from_graph(
        &g,
        &SankeyOptions { title: path.clone(), critical_path: Some(cp), ..Default::default() },
    );
    let out = arg_value(args, "-o").unwrap_or_else(|| "sankey.json".into());
    std::fs::write(&out, s.to_json().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    println!("wrote {out} ({} nodes, {} links)", s.nodes.len(), s.links.len());
    Ok(())
}

fn cmd_casestudy(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("genomes") => {
            let spec = genomes::generate(&genomes::GenomesConfig::default());
            for v in genomes::Fig6Config::all() {
                let r = run_workflow(&spec, &v.run_config()).map_err(|e| e.to_string())?;
                println!("{:<20} {:>8.2}s", v.label(), r.makespan_s);
            }
            Ok(())
        }
        Some("ddmd") => {
            for v in ddmd::Fig7Config::all() {
                let spec = ddmd::generate(&ddmd::DdmdConfig::default(), v.pipeline());
                let r = run_workflow(&spec, &v.run_config()).map_err(|e| e.to_string())?;
                println!("{:<20} {:>8.2}s", v.label(), r.makespan_s);
            }
            Ok(())
        }
        Some("belle2") => {
            let cfg = belle2::Belle2Config::default();
            for access in [belle2::DataAccess::FtpCopy, belle2::DataAccess::Cached] {
                let spec = belle2::generate(&cfg, access);
                let rc = belle2::run_config(&cfg, access, 10);
                let r = run_workflow(&spec, &rc).map_err(|e| e.to_string())?;
                println!("{access:?}: {:.2}s", r.makespan_s);
            }
            Ok(())
        }
        other => Err(usage_err(format!("unknown case study {other:?} (genomes|ddmd|belle2)"))),
    }
}

/// Everything a consumer can observe about a finished run, flattened to
/// strings so "byte-identical" is literal.
fn run_fingerprint(r: &RunResult) -> (String, String, String, u64) {
    let reports: Vec<(&str, u64, u64, bool)> =
        r.reports.iter().map(|j| (j.name.as_str(), j.start_ns, j.end_ns, j.failed)).collect();
    let trace = r.timeline.as_ref().map(dfl_obs::chrome_trace).unwrap_or_default();
    (
        format!("{:.9}/{:?}", r.makespan_s, r.stage_spans),
        format!("{reports:?}"),
        format!("{:?}/{trace}", r.failure),
        r.events_dispatched,
    )
}

/// Deterministic chaos driver: run the workflow to completion with
/// checkpoints on (the golden run), then per seed kill the coordinator at
/// seeded dispatch indices, resume from the latest manifest after each
/// kill, and require the final outcome to be byte-identical to golden.
fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--serve") {
        return cmd_chaos_serve(args);
    }
    let seeds: Vec<u64> = arg_value(args, "--seeds")
        .unwrap_or_else(|| "1,42,7".into())
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse::<u64>().map_err(|_| usage_err(format!("bad --seeds entry '{s}'"))))
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err(usage_err("--seeds must name at least one seed"));
    }
    let crashes: usize = match arg_value(args, "--crashes") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --crashes '{s}'")))?,
        None => 3,
    };
    let ckpt_ms: u64 = match arg_value(args, "--ckpt-ms") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --ckpt-ms '{s}'")))?,
        None => 50,
    };
    // A user-named --dir is left on disk (with the final run's manifests)
    // for inspection; the default per-process temp dir is cleaned up.
    let named_dir = arg_value(args, "--dir").map(PathBuf::from);
    let keep_dir = named_dir.is_some();
    let dir = named_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("datalife-chaos-{}", std::process::id()))
    });
    let (spec, base_cfg) = select_workflow(args)?;

    let mut diverged = 0usize;
    for &seed in &seeds {
        let mut cfg = base_cfg.clone();
        cfg.obs = Some(ObsConfig::sampled(20_000_000));
        cfg.faults = cfg.faults.seed(seed);
        cfg.checkpoint = Some(
            CheckpointConfig::to_dir(&dir).every_sim_ns(ckpt_ms.max(1) * 1_000_000).on_incident(),
        );

        let _ = std::fs::remove_dir_all(&dir);
        let golden = run_workflow(&spec, &cfg).map_err(|e| format!("golden run: {e}"))?;
        let golden_fp = run_fingerprint(&golden);
        let total = golden.events_dispatched;
        if total < 4 {
            return Err(format!("workflow dispatches only {total} events, too short for chaos").into());
        }

        // Seeded, strictly-ascending crash points inside the dispatch range.
        let mut points = std::collections::BTreeSet::new();
        let mut i = 0u64;
        while points.len() < crashes && i < 64 + 4 * crashes as u64 {
            let f = dfl_iosim::fault::unit_hash(seed ^ 0xc4a0_5eed, i, total);
            points.insert((1 + (f * (total - 2) as f64) as u64).min(total - 1));
            i += 1;
        }
        let points: Vec<u64> = points.into_iter().collect();

        // Kill/resume until the workflow completes, then compare.
        let _ = std::fs::remove_dir_all(&dir);
        let mut kills = 0usize;
        let mut armed = cfg.clone();
        armed.faults = armed.faults.chaos_crash(points[0]);
        let mut res = run_workflow(&spec, &armed).map_err(|e| e.to_string());
        let last = loop {
            match res {
                Ok(r) => break r,
                Err(msg) => {
                    if !msg.contains("chaos") {
                        return Err(format!("seed {seed}: unplanned failure: {msg}").into());
                    }
                    kills += 1;
                    let mut next = cfg.clone();
                    if kills < points.len() {
                        next.faults = next.faults.chaos_crash(points[kills]);
                    }
                    res = resume_latest(&spec, &next).map_err(|e| e.to_string());
                }
            }
        };
        let ok = run_fingerprint(&last) == golden_fp;
        println!(
            "seed {seed}: {} — {kills} kills at dispatch {points:?} of {total}",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            diverged += 1;
        }
    }
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if diverged > 0 {
        return Err(CliError::Divergence(format!(
            "{diverged}/{} seeds diverged from the golden run",
            seeds.len()
        )));
    }
    println!("all {} seeds byte-identical to the golden run", seeds.len());
    Ok(())
}

/// Starts the analysis daemon and blocks until a client sends `shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let dir = PathBuf::from(arg_value(args, "--dir").unwrap_or_else(|| "serve-state".into()));
    let mut cfg = ServeConfig::new(&dir);
    if let Some(s) = arg_value(args, "--workers") {
        cfg.workers = s.parse().map_err(|_| usage_err(format!("bad --workers '{s}'")))?;
    }
    if let Some(s) = arg_value(args, "--queue-cap") {
        cfg.queue_cap = s.parse().map_err(|_| usage_err(format!("bad --queue-cap '{s}'")))?;
    }
    if let Some(s) = arg_value(args, "--ckpt-ms") {
        cfg.ckpt_ms = s.parse().map_err(|_| usage_err(format!("bad --ckpt-ms '{s}'")))?;
    }
    if let Some(s) = arg_value(args, "--window-ms") {
        cfg.window_ms = s.parse().map_err(|_| usage_err(format!("bad --window-ms '{s}'")))?;
    }
    cfg.abort_on_chaos = args.iter().any(|a| a == "--abort-on-chaos");
    let metrics_addr = arg_value(args, "--metrics-addr").unwrap_or_else(|| "127.0.0.1:0".into());

    let daemon = Arc::new(Daemon::start(cfg)?);
    let server = NetServer::start_with_metrics(daemon.clone(), &dir, &metrics_addr)?;
    println!(
        "datalife serve: tcp {} unix {} metrics http://{}/metrics (state in {})",
        server.endpoints.tcp,
        server.endpoints.sock,
        server.endpoints.metrics.as_deref().unwrap_or("-"),
        dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    daemon.shutdown();
    println!("datalife serve: drained and stopped");
    Ok(())
}

/// Live daemon dashboard: polls the wall-clock `metrics` request and
/// redraws an ANSI screen every --interval-ms (or emits the raw reply
/// lines with --jsonl). --once renders one frame and exits.
fn cmd_top(args: &[String]) -> Result<(), CliError> {
    let jsonl = args.iter().any(|a| a == "--jsonl");
    let once = args.iter().any(|a| a == "--once");
    let interval_ms: u64 = match arg_value(args, "--interval-ms") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --interval-ms '{s}'")))?,
        None => 1000,
    };
    let addr = match (arg_value(args, "--addr"), arg_value(args, "--dir")) {
        (Some(a), _) => a,
        (None, dir) => {
            let dir = dir.unwrap_or_else(|| "serve-state".into());
            Endpoints::load(Path::new(&dir))?.tcp
        }
    };
    let mut client = Client::connect(&addr)?;
    let req = Request::new("metrics").to_line();
    loop {
        let line = client.roundtrip(&req)?;
        if jsonl {
            println!("{line}");
        } else {
            let v: serde_json::Value =
                serde_json::from_str(&line).map_err(|e| format!("bad metrics reply: {e}"))?;
            render_top(&addr, &v);
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// One `datalife top` frame (ANSI clear + home, then ~a screenful).
fn render_top(addr: &str, v: &serde_json::Value) {
    let u = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let c = |k: &str| {
        v.get("counters").and_then(|cs| cs.get(k)).and_then(|x| x.as_u64()).unwrap_or(0)
    };
    print!("\x1b[2J\x1b[H");
    println!(
        "datalife top — {addr}   up {:.1}s   workers {}   queue {}   running {}{}",
        u("uptime_ms") as f64 / 1e3,
        u("workers"),
        u("queue_depth"),
        u("running"),
        if v.get("draining").and_then(|x| x.as_bool()) == Some(true) { "   [draining]" } else { "" },
    );
    println!(
        "jobs       accepted {}  done {}  failed {}  cancelled {}  deadline {}  recovered {}",
        c("serve_accepted"),
        c("serve_completed"),
        c("serve_failed"),
        c("serve_cancelled"),
        c("serve_deadline_preempted"),
        c("serve_recovered"),
    );
    println!(
        "admission  submitted {}  shed: capacity {}  deadline {}  bad {}  draining {}",
        c("serve_submitted"),
        c("serve_rejected_capacity"),
        c("serve_rejected_deadline"),
        c("serve_rejected_bad_request"),
        c("serve_rejected_draining"),
    );
    println!(
        "io         ledger commits {}  connections {}  malformed {}  scrapes {}  panics {}",
        c("serve_ledger_commits"),
        c("serve_connections"),
        c("serve_malformed"),
        c("serve_scrapes"),
        c("serve_panics"),
    );
    println!("latency         {:>12} {:>12} {:>12} {:>8}", "p50", "p99", "mean", "n");
    for (label, key, unit) in [
        ("submit", "submit_us", "µs"),
        ("ledger commit", "ledger_commit_us", "µs"),
        ("job wall", "job_wall_ms", "ms"),
    ] {
        let h = v.get("latency").and_then(|l| l.get(key));
        let f = |k: &str| h.and_then(|h| h.get(k)).and_then(|x| x.as_f64()).unwrap_or(0.0);
        let n = h.and_then(|h| h.get("count")).and_then(|x| x.as_u64()).unwrap_or(0);
        println!(
            "  {label:<13} {:>10.1}{unit} {:>10.1}{unit} {:>10.1}{unit} {n:>8}",
            f("p50"),
            f("p99"),
            f("mean"),
        );
    }
    println!("tenant               queued  running  vtime_lag  dispatched");
    let tenants = v.get("tenants").and_then(|x| x.as_array());
    match tenants {
        Some(ts) if !ts.is_empty() => {
            for t in ts {
                let g = |k: &str| t.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
                println!(
                    "  {:<18} {:>6} {:>8} {:>10} {:>11}",
                    t.get("name").and_then(|x| x.as_str()).unwrap_or("?"),
                    g("queued"),
                    g("running"),
                    g("vtime_lag"),
                    g("dispatched"),
                );
            }
        }
        _ => println!("  (no tenants yet)"),
    }
    let diags = v.get("diagnoses").and_then(|x| x.as_array());
    let count = diags.map_or(0, |d| d.len());
    println!("health diagnoses ({count} recent):");
    match diags {
        Some(ds) if !ds.is_empty() => {
            for d in ds.iter().rev().take(5) {
                println!(
                    "  {:>10.3}s  {:<18} {}  — {}",
                    d.get("t_ms").and_then(|x| x.as_u64()).unwrap_or(0) as f64 / 1e3,
                    d.get("kind").and_then(|x| x.as_str()).unwrap_or("?"),
                    d.get("subject").and_then(|x| x.as_str()).unwrap_or("?"),
                    d.get("detail").and_then(|x| x.as_str()).unwrap_or(""),
                );
            }
        }
        _ => println!("  none"),
    }
}

/// A spawned `datalife serve` child; killed on drop so a failing harness
/// never leaks daemons.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `datalife serve --dir <dir>` as a real child process (one
/// worker, so job execution order is deterministic) and waits until it
/// answers `ping`.
fn spawn_serve(dir: &Path, ckpt_ms: u64, abort_on_chaos: bool) -> Result<(ServeChild, Client), CliError> {
    // A stale endpoint file from a killed daemon must not be mistaken for
    // the new daemon's endpoints.
    let _ = std::fs::remove_file(dir.join("endpoint.json"));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--dir")
        .arg(dir)
        .args(["--workers", "1", "--ckpt-ms", &ckpt_ms.to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if abort_on_chaos {
        cmd.arg("--abort-on-chaos");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn datalife serve: {e}"))?;
    for _ in 0..400 {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("datalife serve exited during startup: {status}").into());
        }
        if let Ok(mut client) = Client::connect_dir(dir) {
            if client.roundtrip(&Request::new("ping").to_line()).is_ok() {
                return Ok((ServeChild(child), client));
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let _ = child.kill();
    Err("datalife serve did not come up within 10s".into())
}

/// Runs one job on an already-connected daemon to its terminal state,
/// returning `(state, detail)` from the terminal `job` line.
fn stream_job(client: &mut Client, job: u64) -> Result<(String, String), CliError> {
    let mut req = Request::new("stream");
    req.job = Some(job);
    let lines = client.stream_to_end(&req.to_line())?;
    let last = lines.last().expect("stream_to_end returns the terminal line");
    let v: serde_json::Value = serde_json::from_str(last).map_err(|e| format!("bad terminal line: {e}"))?;
    Ok((
        v["state"].as_str().unwrap_or("?").to_owned(),
        v["detail"].as_str().unwrap_or("").to_owned(),
    ))
}

/// Daemon-level chaos: kill -9 a real `datalife serve` process at seeded
/// dispatch points mid-job and require the recovered result file (report
/// plus both timeline exports) to be byte-identical to a golden,
/// uninterrupted daemon run.
fn cmd_chaos_serve(args: &[String]) -> Result<(), CliError> {
    let workflow = match args.first() {
        Some(w) if !w.starts_with('-') => w.clone(),
        _ => "genomes".into(),
    };
    let scale = arg_value(args, "--scale").unwrap_or_else(|| "tiny".into());
    let nodes: u64 = match arg_value(args, "--nodes") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --nodes '{s}'")))?,
        None => 2,
    };
    let seed: u64 = match arg_value(args, "--seed") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --seed '{s}'")))?,
        None => 3,
    };
    let crashes: usize = match arg_value(args, "--crashes") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --crashes '{s}'")))?,
        None => 3,
    };
    let ckpt_ms: u64 = match arg_value(args, "--ckpt-ms") {
        Some(s) => s.parse().map_err(|_| usage_err(format!("bad --ckpt-ms '{s}'")))?,
        None => 25,
    };
    let named_dir = arg_value(args, "--dir").map(PathBuf::from);
    let keep_dir = named_dir.is_some();
    let root = named_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("datalife-chaos-serve-{}", std::process::id()))
    });

    let mut submit = Request::new("submit");
    submit.workflow = Some(workflow.clone());
    submit.scale = Some(scale);
    submit.nodes = Some(nodes);
    submit.seed = Some(seed);

    // Golden: one uninterrupted run through a real daemon process.
    let golden_dir = root.join("golden");
    let _ = std::fs::remove_dir_all(&golden_dir);
    std::fs::create_dir_all(&golden_dir).map_err(|e| e.to_string())?;
    let (child, mut client) = spawn_serve(&golden_dir, ckpt_ms, false)?;
    let job = accepted_job(&client.roundtrip(&submit.to_line())?)?;
    let (state, detail) = stream_job(&mut client, job)?;
    if state != "done" {
        return Err(format!("golden job ended '{state}' ({detail}), expected done").into());
    }
    let _ = client.roundtrip(&Request::new("shutdown").to_line());
    drop(child);
    let golden = result_file(&golden_dir, job)?;
    let total = result_events(&golden)?;
    if total < 4 {
        return Err(format!("workflow dispatches only {total} events, too short for chaos").into());
    }

    // Seeded, strictly-ascending kill points inside the dispatch range
    // (the same spread the in-process chaos driver uses).
    let mut points = std::collections::BTreeSet::new();
    let mut i = 0u64;
    while points.len() < crashes && i < 64 + 4 * crashes as u64 {
        let f = dfl_iosim::fault::unit_hash(seed ^ 0xc4a0_5eed, i, total);
        points.insert((1 + (f * (total - 2) as f64) as u64).min(total - 1));
        i += 1;
    }

    let mut diverged = 0usize;
    for &point in &points {
        let dir = root.join(format!("kill-at-{point}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

        // Arm the kill switch and watch the daemon die mid-job. The abort
        // happens at the exact dispatch index, with no destructors and no
        // flushes — kill -9 semantics.
        let (child, mut client) = spawn_serve(&dir, ckpt_ms, true)?;
        let mut armed = submit.clone();
        armed.chaos_at = Some(point);
        // The reply can be lost if the kill lands first; a fresh state dir
        // always allocates job 0.
        let job = client
            .roundtrip(&armed.to_line())
            .ok()
            .and_then(|l| accepted_job(&l).ok())
            .unwrap_or(0);
        let mut child = child;
        let status = child.0.wait().map_err(|e| e.to_string())?;
        if status.success() {
            return Err(format!("daemon exited cleanly at kill point {point}; expected abort").into());
        }

        // Restart on the same state directory: recovery must finish the
        // job byte-identically.
        let (child, mut client) = spawn_serve(&dir, ckpt_ms, false)?;
        let (state, detail) = stream_job(&mut client, job)?;
        if state != "done" {
            return Err(format!("recovered job ended '{state}' ({detail}) at kill point {point}").into());
        }
        let _ = client.roundtrip(&Request::new("shutdown").to_line());
        drop(child);

        let recovered = result_file(&dir, job)?;
        let ok = recovered == golden;
        println!(
            "kill -9 at dispatch {point}/{total}: {}",
            if ok { "PASS — recovered result byte-identical" } else { "FAIL — recovered result diverges" }
        );
        if !ok {
            diverged += 1;
        }
    }
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&root);
    }
    if diverged > 0 {
        return Err(CliError::Divergence(format!(
            "{diverged}/{} daemon kill points diverged from the golden run",
            points.len()
        )));
    }
    println!(
        "all {} daemon kill points recovered byte-identical to the golden run",
        points.len()
    );
    Ok(())
}

/// Extracts the job id from an `accepted` reply line.
fn accepted_job(line: &str) -> Result<u64, CliError> {
    let v: serde_json::Value = serde_json::from_str(line).map_err(|e| format!("bad reply: {e}"))?;
    if v["type"].as_str() != Some("accepted") {
        return Err(format!("submit not accepted: {line}").into());
    }
    v["job"].as_u64().ok_or_else(|| "accepted reply without job id".into())
}

/// Reads a job's result file (report + both timeline exports, one JSON
/// document) — the byte-compared artifact.
fn result_file(dir: &Path, job: u64) -> Result<Vec<u8>, CliError> {
    let path = dir.join(format!("job-{job}-result.json"));
    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()).into())
}

fn result_events(bytes: &[u8]) -> Result<u64, CliError> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("result not UTF-8: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("bad result JSON: {e}"))?;
    v["events_dispatched"].as_u64().ok_or_else(|| "result without events_dispatched".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = check_flags(rest).and_then(|()| match cmd.as_str() {
        "run" => cmd_run(rest),
        "profile" => cmd_profile(rest),
        "watch" => cmd_watch(rest),
        "analyze" => cmd_analyze(rest),
        "rank" => cmd_rank(rest),
        "caterpillar" => cmd_caterpillar(rest),
        "sankey" => cmd_sankey(rest),
        "html" => cmd_html(rest),
        "advise" => cmd_advise(rest),
        "casestudy" => cmd_casestudy(rest),
        "chaos" => cmd_chaos(rest),
        "serve" => cmd_serve(rest),
        "top" => cmd_top(rest),
        other => Err(usage_err(format!("unknown command '{other}'"))),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            match &e {
                // Usage mistakes get the full usage text; runtime failures
                // and divergences just the message.
                CliError::Usage(msg) => eprintln!("error: {msg}\n\n{USAGE}"),
                CliError::Runtime(msg) => eprintln!("error: {msg}"),
                CliError::Divergence(msg) => eprintln!("divergence: {msg}"),
            }
            ExitCode::from(e.code())
        }
    }
}
