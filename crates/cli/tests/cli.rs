//! Black-box tests of the `datalife` binary: the collector→analyzer round
//! trip a user would actually run.

use std::path::PathBuf;
use std::process::Command;

fn datalife() -> Command {
    Command::new(env!("CARGO_BIN_EXE_datalife"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datalife-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = datalife().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = datalife().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("datalife run"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = datalife().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'bogus'"));
}

#[test]
fn run_then_analyze_rank_caterpillar_sankey_html() {
    let dir = tmpdir("roundtrip");
    let m = dir.join("m.json");

    let out = datalife()
        .args(["run", "ddmd", "-o", m.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("makespan"));
    assert!(m.exists());

    let out = datalife().args(["analyze", m.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("acyclic: true"));
    assert!(text.contains("opportunity report"));

    let out = datalife().args(["rank", m.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("producer-consumer relations"));

    let out = datalife()
        .args(["caterpillar", m.to_str().unwrap(), "--cost", "volume"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("caterpillar:"));

    let sankey = dir.join("s.json");
    let out = datalife()
        .args(["sankey", m.to_str().unwrap(), "-o", sankey.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&sankey).unwrap()).unwrap();
    assert!(parsed["nodes"].as_array().unwrap().len() > 3);

    let out = datalife().args(["advise", m.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let advice = String::from_utf8_lossy(&out.stdout);
    assert!(
        advice.contains("cache these re-read files") || advice.contains("node-local")
            || advice.contains("no mechanically-applicable"),
        "{advice}"
    );

    let html = dir.join("l.html");
    let out = datalife()
        .args(["html", m.to_str().unwrap(), "-o", html.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(std::fs::read_to_string(&html).unwrap().starts_with("<!DOCTYPE html>"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulted_run_prints_report_and_is_deterministic() {
    let dir = tmpdir("faults");
    let invoke = |out: &str| {
        datalife()
            .args([
                "run",
                "genomes",
                "--faults",
                "seed=42,crash=0@0.05s+0.2s,ioerr=0.0005",
                "--retries",
                "10",
                "-o",
                out,
            ])
            .output()
            .unwrap()
    };
    let a = invoke(dir.join("a.json").to_str().unwrap());
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("failure report"), "{text}");
    assert!(text.contains("goodput"), "{text}");

    // Same plan, same seed: byte-identical stdout and measurements.
    let b = invoke(dir.join("b.json").to_str().unwrap());
    assert!(b.status.success());
    // Ignore the "wrote <path>" line: the output paths differ by design.
    let strip = |s: &[u8]| {
        String::from_utf8_lossy(s)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&a.stdout), strip(&b.stdout));
    assert_eq!(
        std::fs::read_to_string(dir.join("a.json")).unwrap(),
        std::fs::read_to_string(dir.join("b.json")).unwrap()
    );

    let bad = datalife().args(["run", "genomes", "--faults", "crash=99"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2), "bad flag value is a usage error");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad --faults"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Every Chrome-trace event must carry the fields Perfetto requires:
/// `ph`/`pid`/`tid` always, `ts` on everything but metadata records.
fn assert_chrome_trace_schema(path: &std::path::Path) -> serde_json::Value {
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e["ph"].as_str().expect("ph string");
        assert!(matches!(ph, "M" | "X" | "i" | "C"), "unexpected phase {ph}");
        assert!(e["pid"].as_u64().is_some(), "pid missing: {e:?}");
        assert!(e["tid"].as_u64().is_some(), "tid missing: {e:?}");
        if ph != "M" {
            assert!(e["ts"].as_f64().is_some(), "ts missing: {e:?}");
        }
        if ph == "X" {
            assert!(e["dur"].as_f64().is_some(), "dur missing: {e:?}");
        }
    }
    parsed
}

#[test]
fn run_trace_out_writes_valid_chrome_trace() {
    let dir = tmpdir("traceout");
    let m = dir.join("m.json");
    let t = dir.join("t.json");
    let out = datalife()
        .args(["run", "ddmd", "-o", m.to_str().unwrap(), "--trace-out", t.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("timeline events"));
    let parsed = assert_chrome_trace_schema(&t);
    // Run spans for real tasks are present.
    let events = parsed["traceEvents"].as_array().unwrap();
    assert!(events
        .iter()
        .any(|e| e["ph"].as_str() == Some("X") && e["args"]["outcome"].as_str() == Some("ok") && e["cat"].as_str() == Some("run")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_emits_summary_and_deterministic_trace() {
    let dir = tmpdir("profile");
    let invoke = |name: &str, extra: &[&str]| {
        let t = dir.join(name);
        let mut args =
            vec!["profile", "genomes", "--trace-out", t.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = datalife().args(&args).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (t, String::from_utf8_lossy(&out.stdout).into_owned())
    };

    let (t1, stdout) = invoke("a.json", &[]);
    assert!(stdout.contains("timeline:"), "{stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
    let parsed = assert_chrome_trace_schema(&t1);
    let events = parsed["traceEvents"].as_array().unwrap();
    // Track metadata names node and tier tracks; counter samples present at
    // the default 100ms cadence.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M"))
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    assert!(names.contains(&"node:0"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("tier:")), "{names:?}");
    assert!(names.contains(&"stages"), "{names:?}");
    assert!(events.iter().any(|e| e["ph"].as_str() == Some("C")));
    assert!(events.iter().any(|e| e["ph"].as_str() == Some("X") && e["cat"].as_str() == Some("stage")));

    // Same invocation ⇒ byte-identical trace.
    let (t2, _) = invoke("b.json", &[]);
    assert_eq!(std::fs::read(&t1).unwrap(), std::fs::read(&t2).unwrap());

    // --sample-ms 0 disables sampling but keeps spans.
    let (t3, _) = invoke("c.json", &["--sample-ms", "0"]);
    let parsed = assert_chrome_trace_schema(&t3);
    let events = parsed["traceEvents"].as_array().unwrap();
    assert!(!events.iter().any(|e| e["ph"].as_str() == Some("C")));
    assert!(events.iter().any(|e| e["ph"].as_str() == Some("X")));

    // --jsonl writes one JSON document per line.
    let j = dir.join("t.jsonl");
    let out = datalife()
        .args([
            "profile",
            "genomes",
            "--trace-out",
            dir.join("d.json").to_str().unwrap(),
            "--jsonl",
            j.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&j).unwrap();
    assert!(text.lines().count() > 10);
    for line in text.lines() {
        let _: serde_json::Value = serde_json::from_str(line).expect("each line parses");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_missing_file_is_a_runtime_error() {
    let out = datalife().args(["analyze", "/nonexistent/zzz.json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// A one-record measurement file as written before the format carried a
/// version: no `version` field, one `[key, {stats}]` pair per block.
const UNVERSIONED_MEASUREMENTS: &str = r#"{
  "tasks": [{"task": 0, "name": "w-1", "logical": "w", "start_ns": 0, "end_ns": 100}],
  "files": [{"file": 0, "path": "x.dat", "size": 1000, "block_size": 4096}],
  "records": [{
    "task": 0, "task_name": "w-1", "file": 0, "file_path": "x.dat",
    "opens": 1, "read_ops": 0, "write_ops": 1, "bytes_read": 0, "bytes_written": 1000,
    "read_ns": 0, "write_ns": 10, "open_span_ns": 100, "first_open_ns": 0,
    "last_close_ns": 100, "file_size": 1000,
    "read_distance": {"zero": 0, "near": 0, "far": 0, "sum_abs": 0, "count": 0},
    "write_distance": {"zero": 0, "near": 0, "far": 0, "sum_abs": 0, "count": 0},
    "histogram": {
      "block_size": 4096, "granule": 4096, "max_locations": 512,
      "sampler": {"modulus": 1, "threshold": 1, "seed": 7},
      "blocks": [[0, {"reads": 0, "writes": 1, "bytes_read": 0, "bytes_written": 1000,
                      "first_ns": 0, "last_ns": 0, "last_was_write": true, "repeat_hits": 0}]]
    }
  }]
}"#;

#[test]
fn analyze_unversioned_measurements_is_a_typed_runtime_error() {
    let dir = tmpdir("oldformat");
    let path = dir.join("old.json");
    std::fs::write(&path, UNVERSIONED_MEASUREMENTS).unwrap();
    let out = datalife().args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!(
        "measurement format version 1 (this build reads {})",
        dfl_trace::MEASUREMENT_VERSION
    );
    assert!(stderr.contains(&want), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_unknown_workflow_is_a_usage_error() {
    let out = datalife().args(["run", "fusion"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workflow"));
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A retired flag must fail loudly, never be silently ignored.
    for args in [["run", "smoke", "--shards", "4"], ["run", "smoke", "--bogus", "7"]] {
        let out = datalife().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let flag = args[2];
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown flag '{flag}'")),
            "{args:?}"
        );
    }
}

#[test]
fn unknown_cost_model_is_a_usage_error() {
    let out =
        datalife().args(["analyze", "/nonexistent/zzz.json", "--cost", "speed"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --cost 'speed'"));
}
