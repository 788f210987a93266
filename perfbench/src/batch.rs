//! `batch_belle2`: the capture -> report pipeline on belle2, one pass after
//! another, with no daemon layer in the way.

use std::path::Path;
use std::time::Instant;

use dfl_core::analysis::caterpillar::{caterpillar, CaterpillarRule};
use dfl_core::analysis::patterns::{analyze, report, AnalysisConfig};
use dfl_core::analysis::{critical_path, CostModel};
use dfl_core::DflGraph;
use dfl_trace::MeasurementSet;
use dfl_workflows::belle2::{self, Belle2Config, DataAccess};
use dfl_workflows::{engine, RunConfig, WorkflowSpec};

use crate::report::{Layers, RowKind, Run};
use crate::stats::{median, ms_since, timed};

const NODES: usize = 4;
/// Passes a run makes however slow the machine is.
const MIN_PASSES: usize = 3;

/// belle2 at a tenth of paper scale: 24 of the paper's 240 tasks, every other
/// parameter as in the paper (49.8k events, a 20 MB measurement file). At
/// paper scale a pass takes ~7 s and the per-run median swings by a quarter
/// between runs on a shared 2-core VM; at this size ~60 passes fit in a run.
fn build() -> (WorkflowSpec, RunConfig) {
    let c = Belle2Config {
        tasks: 24,
        ..Belle2Config::default()
    };
    (
        belle2::generate(&c, DataAccess::Cached),
        belle2::run_config(&c, DataAccess::Cached, NODES),
    )
}

/// Stage laps of one pass; recorded only in a traced run, so an untraced
/// pass reads the clock at its two ends and nowhere else.
struct Laps {
    on: bool,
    t: Instant,
    laps: Vec<(&'static str, f64)>,
}

impl Laps {
    fn lap(&mut self, stage: &'static str) {
        if self.on {
            let now = Instant::now();
            self.laps.push((stage, (now - self.t).as_secs_f64() * 1e3));
            self.t = now;
        }
    }
}

/// The facts every pass must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    json_bytes: u64,
    vertices: u64,
    edges: u64,
    path_cost_bits: u64,
    ops: u64,
}

struct Pass {
    capture_ms: f64,
    wall_ms: f64,
    laps: Vec<(&'static str, f64)>,
    print: Fingerprint,
}

/// One capture -> report pass, then its output check: the graph rebuilt from
/// `from_json(to_json(m))` must match the graph of the in-memory set.
fn pass(traced: bool) -> Result<Pass, String> {
    let t0 = Instant::now();
    let mut laps = Laps {
        on: traced,
        t: t0,
        laps: Vec::new(),
    };
    let (spec, cfg) = build();
    laps.lap("workflows::belle2 build");
    let run = engine::run(&spec, &cfg).map_err(|e| format!("engine error: {e}"))?;
    laps.lap("workflows::engine + iosim");
    let json = run.measurements.to_json().map_err(|e| e.to_string())?;
    let capture_ms = ms_since(t0);
    laps.lap("trace to_json");
    let json_bytes = json.len() as u64;
    let set = MeasurementSet::from_json(&json).map_err(|e| e.to_string())?;
    drop(json);
    laps.lap("trace from_json");
    let g = DflGraph::from_measurements(&set);
    laps.lap("core::graph build");
    let path = critical_path(&g, &CostModel::Volume);
    laps.lap("core::analysis critical path");
    let cat = caterpillar(&g, &path, CaterpillarRule::Dfl);
    laps.lap("core::analysis caterpillar");
    let ops = analyze(&g, &AnalysisConfig::default());
    laps.lap("core::analysis patterns");
    let text = report(&g, &ops);
    laps.lap("core::analysis report");
    let wall_ms = ms_since(t0);
    std::hint::black_box((&cat, &text));

    let direct = DflGraph::from_measurements(&run.measurements);
    let direct_cost = critical_path(&direct, &CostModel::Volume).total_cost;
    let print = Fingerprint {
        events: run.events_dispatched,
        json_bytes,
        vertices: g.vertex_count() as u64,
        edges: g.edge_count() as u64,
        path_cost_bits: path.total_cost.to_bits(),
        ops: ops.len() as u64,
    };
    if (
        direct.vertex_count(),
        direct.edge_count(),
        direct_cost.to_bits(),
    ) != (g.vertex_count(), g.edge_count(), path.total_cost.to_bits())
    {
        return Err(format!(
            "graph from the measurement file ({} vertices, {} edges, cost {}) differs from the \
             in-memory graph ({} vertices, {} edges, cost {})",
            g.vertex_count(),
            g.edge_count(),
            path.total_cost,
            direct.vertex_count(),
            direct.edge_count(),
            direct_cost
        ));
    }
    Ok(Pass {
        capture_ms,
        wall_ms,
        laps: laps.laps,
        print,
    })
}

/// Passes back to back until `seconds` have gone by (at least `MIN_PASSES`).
pub fn belle2(_seed: u64, seconds: f64, traced: bool, _work: &Path) -> Result<Run, String> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut builds = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let p = pass(traced)?;
        if let Some(first) = passes.first() {
            if first.print != p.print {
                return Err(format!(
                    "nondeterminism: pass fingerprint {:?} differs from the first pass {:?}",
                    p.print, first.print
                ));
            }
        }
        passes.push(p);
        // One timed build per pass: a burst of builds lasts a few ms and runs
        // at one of two speeds, run to run; spread over the run, the median
        // does not.
        builds.push(timed(build).1);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let setup_ms = median(&builds);
    let mut run = Run {
        setup_s: setup_ms / 1e3,
        accept_ms: passes.iter().map(|p| p.capture_ms).collect(),
        result_ms: passes.iter().map(|p| p.wall_ms).collect(),
        completed: passes.len() as u64,
        elapsed_s,
        attempted: passes.len() as u64,
        failed: 0,
        notes: vec![format!(
            "load: one-shot pipeline, belle2 at a tenth of paper scale on {NODES} nodes, {} passes in one thread; \
             accept = capture (build + run + to_json), result = capture -> report (wall_s {:.3} s)",
            passes.len(),
            median(&passes.iter().map(|p| p.wall_ms).collect::<Vec<_>>()) / 1e3
        )],
        layers: None,
    };
    if traced {
        run.layers = Some(layers(&passes, setup_ms));
    }
    Ok(run)
}

fn layers(passes: &[Pass], setup_ms: f64) -> Layers {
    let stage = |name: &str| {
        let xs: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.laps.iter().filter(|l| l.0 == name).map(|l| l.1))
            .collect();
        median(&xs)
    };
    let print = passes[0].print;
    let mut l = Layers::default();
    l.total_label = "median wall per pass (capture -> report)".into();
    l.total_ms = median(&passes.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
    for (name, _) in &passes[0].laps {
        l.row(name, stage(name), RowKind::Measured);
    }
    let engine_ms = stage("workflows::engine + iosim");
    l.set("catalog.build_us", setup_ms * 1e3);
    l.set("engine.run_ms", engine_ms);
    l.set(
        "engine.events_per_s",
        print.events as f64 / (engine_ms / 1e3),
    );
    l.set("trace.to_json_ms", stage("trace to_json"));
    l.set("trace.from_json_ms", stage("trace from_json"));
    l.set("graph.build_ms", stage("core::graph build"));
    l.set(
        "gcpa.critical_path_us",
        stage("core::analysis critical path") * 1e3,
    );
    l.set(
        "gcpa.caterpillar_us",
        stage("core::analysis caterpillar") * 1e3,
    );
    l.set("patterns.analyze_ms", stage("core::analysis patterns"));
    l.set("patterns.report_ms", stage("core::analysis report"));
    l.count("engine.events", print.events);
    l.count("trace.json_bytes", print.json_bytes);
    l.count("graph.vertices", print.vertices);
    l.count("graph.edges", print.edges);
    l.count("patterns.ops", print.ops);
    l.set("layers.coverage_pct", l.coverage_pct());
    l
}
