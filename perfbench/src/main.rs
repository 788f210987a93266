//! perfbench: this repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_smoke|serve_workflows|batch_belle2|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with `--trace 1`
//! it measures half the time untraced and half traced, and reports the
//! per-layer metrics, the self-time table and the tracing overhead. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed output check exits 1 without that line; bad
//! arguments exit 2. See `perfbench/README.md`.

mod batch;
mod probes;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};

use report::{print_e2e, print_layers, result_line, Run, E2E, PER_LAYER};
use stats::quantile;

type RunFn = fn(u64, f64, bool, &Path) -> Result<Run, String>;

struct Workload {
    name: &'static str,
    /// The tail quantile: the highest percentile with at least ten samples
    /// beyond it at the default run length.
    tail_q: f64,
    tail_label: &'static str,
    run: RunFn,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_smoke",
        tail_q: 0.95,
        tail_label: "p95",
        run: serve::smoke,
    },
    Workload {
        name: "serve_workflows",
        tail_q: 0.90,
        tail_label: "p90",
        run: serve::workflows,
    },
    Workload {
        name: "batch_belle2",
        tail_q: 0.80,
        tail_label: "p80",
        run: batch::belle2,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Runs one workload and prints its report; returns the result line.
fn run_workload(w: &Workload, args: &Args, work: &Path) -> Result<String, String> {
    println!(
        "== perfbench {} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    if !args.trace {
        let run = (w.run)(args.seed, args.seconds, false, work)?;
        for note in &run.notes {
            println!("  {note}");
        }
        print_e2e(&run, w.tail_label, w.tail_q);
        let values = run.e2e(w.tail_q);
        let metrics: Vec<(&str, f64, &str)> = E2E
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        return Ok(result_line(run.attempted, run.failed, &metrics));
    }

    let half = args.seconds / 2.0;
    let plain = (w.run)(args.seed, half, false, &work.join("untraced"))?;
    let traced = (w.run)(args.seed, half, true, &work.join("traced"))?;
    println!("  untraced half:");
    print_e2e(&plain, w.tail_label, w.tail_q);
    println!("  traced half:");
    for note in &traced.notes {
        println!("  {note}");
    }
    print_e2e(&traced, w.tail_label, w.tail_q);
    let (p, t) = (
        quantile(&plain.result_ms, 0.5),
        quantile(&traced.result_ms, 0.5),
    );
    println!(
        "  tracing overhead: result_p50_ms traced {t:.3} - untraced {p:.3} = {:+.3} ms ({:+.1}%)",
        t - p,
        100.0 * (t - p) / p.max(1e-9)
    );
    let layers = traced
        .layers
        .as_ref()
        .ok_or("traced run produced no layer data")?;
    print_layers(layers);
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name), m.unit))
        .collect();
    Ok(result_line(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        WORKLOADS
            .iter()
            .filter(|w| w.name == args.workload)
            .collect()
    };
    if chosen.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: --workload must be one of {} or all",
            names.join(", ")
        );
        std::process::exit(2);
    }
    // Scratch state lives inside the checkout and is removed on exit.
    let root = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let mut lines = Vec::new();
    let mut outcome = Ok(());
    for w in chosen {
        match run_workload(w, &args, &root.join(w.name)) {
            Ok(line) => lines.push(line),
            Err(e) => {
                outcome = Err(format!("{}: {e}", w.name));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".perfbench_work");
    match outcome {
        Ok(()) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
