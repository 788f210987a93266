//! Metric vocabulary, per-run results, and the printed report.
//!
//! Every workload reports every end-to-end metric (untraced run) and every
//! per-layer metric (traced run). A layer a workload never enters reports 0
//! for its per-layer metrics: on `batch_belle2` no daemon layer runs, and the
//! serve workloads never build a lifecycle graph.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{peak_rss_mb, quantile};

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("accept_p50_ms", "ms"),
    ("accept_tail_ms", "ms"),
    ("result_p50_ms", "ms"),
    ("result_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric: name, unit, and the end-to-end metric (on which
/// workload) it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn lm(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[LayerMetric] = &[
    lm(
        "net.ping_rtt_us",
        "us",
        "accept_p50_ms, result_p50_ms on serve_smoke",
    ),
    lm(
        "net.inproc_ping_us",
        "us",
        "accept_p50_ms, result_p50_ms on serve_smoke",
    ),
    lm(
        "daemon.submit_us.p50",
        "us",
        "accept_tail_ms on serve_smoke",
    ),
    lm(
        "daemon.submit_us.p99",
        "us",
        "accept_tail_ms on serve_smoke",
    ),
    lm(
        "daemon.job_wall_ms",
        "ms",
        "result_p50_ms on serve_workflows",
    ),
    lm(
        "ledger.commit_us.p50",
        "us",
        "accept_tail_ms on serve_smoke",
    ),
    lm(
        "ledger.commit_us.p99",
        "us",
        "accept_tail_ms on serve_smoke",
    ),
    lm("ledger.commits", "count", "accept_tail_ms on serve_smoke"),
    lm(
        "ledger.file_bytes",
        "bytes",
        "accept_tail_ms on serve_smoke",
    ),
    lm("ledger.replay_ms", "ms", "setup_s on serve_smoke"),
    lm(
        "sched.queue_wait_ms.p50",
        "ms",
        "result_tail_ms on serve_smoke",
    ),
    lm(
        "sched.queue_wait_ms.p99",
        "ms",
        "result_tail_ms on serve_smoke",
    ),
    lm(
        "sched.queue_depth.max",
        "count",
        "result_tail_ms on serve_smoke",
    ),
    lm(
        "engine.run_ms",
        "ms",
        "result_p50_ms on batch_belle2; jobs_per_s on serve_workflows",
    ),
    lm(
        "engine.events",
        "count",
        "result_p50_ms on batch_belle2; jobs_per_s on serve_workflows",
    ),
    lm(
        "engine.events_per_s",
        "1/s",
        "result_p50_ms on batch_belle2; jobs_per_s on serve_workflows",
    ),
    lm("obs.record_ms", "ms", "result_p50_ms on serve_workflows"),
    lm("watch.window_ms", "ms", "result_p50_ms on serve_workflows"),
    lm(
        "checkpoint.ms",
        "ms",
        "result_p50_ms, jobs_per_s on serve_workflows",
    ),
    lm(
        "checkpoint.bytes",
        "bytes",
        "result_p50_ms, jobs_per_s on serve_workflows",
    ),
    lm(
        "checkpoint.files",
        "count",
        "result_p50_ms, jobs_per_s on serve_workflows",
    ),
    lm("result.encode_ms", "ms", "result_p50_ms on serve_workflows"),
    lm("result.bytes", "bytes", "result_p50_ms on serve_workflows"),
    lm(
        "trace.to_json_ms",
        "ms",
        "result_p50_ms, peak_rss_mb on batch_belle2",
    ),
    lm(
        "trace.from_json_ms",
        "ms",
        "result_p50_ms, peak_rss_mb on batch_belle2",
    ),
    lm(
        "trace.json_bytes",
        "bytes",
        "result_p50_ms, peak_rss_mb on batch_belle2",
    ),
    lm("graph.build_ms", "ms", "result_p50_ms on batch_belle2"),
    lm("graph.vertices", "count", "result_p50_ms on batch_belle2"),
    lm("graph.edges", "count", "result_p50_ms on batch_belle2"),
    lm(
        "gcpa.critical_path_us",
        "us",
        "result_p50_ms on batch_belle2 (small share)",
    ),
    lm(
        "gcpa.caterpillar_us",
        "us",
        "result_p50_ms on batch_belle2 (small share)",
    ),
    lm(
        "patterns.analyze_ms",
        "ms",
        "result_p50_ms on batch_belle2 (small share)",
    ),
    lm(
        "patterns.report_ms",
        "ms",
        "result_p50_ms on batch_belle2 (small share)",
    ),
    lm(
        "patterns.ops",
        "count",
        "result_p50_ms on batch_belle2 (small share)",
    ),
    lm("catalog.build_us", "us", "setup_s on batch_belle2"),
    lm(
        "layers.coverage_pct",
        "%",
        "share of the operation's wall that directly timed layers explain",
    ),
];

/// How a self-time row was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Timed directly, on the operation's critical path.
    Measured,
    /// The rest of a measured interval once the measured rows are taken out.
    ByDifference,
    /// Timed directly, but it ran while another row's time was passing, so
    /// it is not on the critical path.
    OffPath,
}

/// Per-layer values plus the self-time table of one traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// `(layer, ms per operation, kind)` rows of the self-time table.
    pub rows: Vec<(String, f64, RowKind)>,
    /// What the rows divide up, e.g. "mean due -> result file per job".
    pub total_label: String,
    pub total_ms: f64,
    /// Counts that must repeat exactly for the same seed, as `name=value`.
    pub exact: Vec<(&'static str, u64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records an exact count both as a metric and in the repeat check.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
        self.exact.push((name, value));
    }

    pub fn row(&mut self, layer: &str, ms: f64, kind: RowKind) {
        self.rows.push((layer.to_owned(), ms, kind));
    }

    /// Share of the total that directly timed critical-path rows explain.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_ms <= 0.0 {
            return 0.0;
        }
        let measured: f64 = self
            .rows
            .iter()
            .filter(|r| r.2 == RowKind::Measured)
            .map(|r| r.1)
            .sum();
        100.0 * measured / self.total_ms
    }
}

/// What one workload run measured.
pub struct Run {
    pub setup_s: f64,
    /// Per-operation latency to the first acknowledgement, ms.
    pub accept_ms: Vec<f64>,
    /// Per-operation latency to the final result, ms.
    pub result_ms: Vec<f64>,
    pub completed: u64,
    /// Wall seconds of the measured phase.
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Load-generator validity and other facts worth printing.
    pub notes: Vec<String>,
    /// Filled by traced runs only.
    pub layers: Option<Layers>,
}

impl Run {
    /// End-to-end metric values in [`E2E`] order; `tail_q` is the workload's
    /// tail quantile.
    pub fn e2e(&self, tail_q: f64) -> Vec<f64> {
        vec![
            self.setup_s,
            quantile(&self.accept_ms, 0.5),
            quantile(&self.accept_ms, tail_q),
            quantile(&self.result_ms, 0.5),
            quantile(&self.result_ms, tail_q),
            self.completed as f64 / self.elapsed_s.max(1e-9),
            peak_rss_mb(),
        ]
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Formats a metric value: integers exactly, the rest with all digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The final stdout line: the machine-readable result of the run.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable end-to-end block.
pub fn print_e2e(run: &Run, tail_label: &str, tail_q: f64) {
    let values = run.e2e(tail_q);
    for ((name, unit), v) in E2E.iter().zip(&values) {
        let note = match *name {
            "accept_tail_ms" | "result_tail_ms" => format!("  ({tail_label})"),
            "accept_p50_ms" => format!("  (n={})", run.accept_ms.len()),
            "result_p50_ms" => format!("  (n={})", run.result_ms.len()),
            _ => String::new(),
        };
        println!("  {name:<16} {v:>14.4} {unit}{note}");
    }
    println!(
        "  {:<16} {:>14.4}     ({} failed of {} attempted)",
        "failed_frac",
        run.failed_frac(),
        run.failed,
        run.attempted
    );
}

/// Human-readable traced block: the self-time table, coverage, and every
/// per-layer metric with what it should move.
pub fn print_layers(layers: &Layers) {
    println!(
        "  per-layer self time ({}: {:.3} ms)",
        layers.total_label, layers.total_ms
    );
    let largest = layers
        .rows
        .iter()
        .filter(|r| r.2 != RowKind::OffPath)
        .max_by(|a, b| a.1.total_cmp(&b.1));
    for (layer, ms, kind) in &layers.rows {
        let share = if layers.total_ms > 0.0 {
            100.0 * ms / layers.total_ms
        } else {
            0.0
        };
        let mark = match kind {
            RowKind::Measured => "",
            RowKind::ByDifference => "  (by difference)",
            RowKind::OffPath => "  (off the critical path)",
        };
        println!("    {layer:<40} {ms:>12.3} ms {share:>6.1}%{mark}");
    }
    if let Some((layer, ..)) = largest {
        println!("    largest self-time layer: {layer}");
    }
    println!(
        "    directly timed layers cover {:.1}% of it",
        layers.coverage_pct()
    );
    let exact: Vec<String> = layers
        .exact
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    println!(
        "  exact counts (repeat for the same seed): {}",
        exact.join(" ")
    );
    println!("  per-layer metrics:");
    for m in PER_LAYER {
        println!(
            "    {:<26} {:>16.4} {:<6} moves {}",
            m.name,
            layers.get(m.name),
            m.unit,
            m.moves
        );
    }
}
