//! Robustness suite for the `datalife serve` daemon: admission control and
//! typed load shedding, deadline edges, cancellation and graceful drain
//! through the checkpoint path, worker panic isolation, and — the core
//! claim — kill -9 recovery that is *byte-identical* to an uninterrupted
//! run, proven here in-process by the deterministic chaos kill switch
//! (the real-SIGKILL variant lives in the CLI tests and the CI smoke job).

use std::path::PathBuf;
use std::sync::Arc;

use dfl_serve::{Client, Daemon, NetServer, Request, ServeConfig};
use dfl_workflows::{catalog, MANIFEST_VERSION};
use serde::Value;

fn state_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dfl-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn daemon(dir: &PathBuf, tweak: impl FnOnce(&mut ServeConfig)) -> Daemon {
    let mut cfg = ServeConfig::new(dir);
    tweak(&mut cfg);
    Daemon::start(cfg).expect("daemon starts")
}

fn submit(workflow: &str, tweak: impl FnOnce(&mut Request)) -> String {
    let mut r = Request::new("submit");
    r.workflow = Some(workflow.into());
    tweak(&mut r);
    r.to_line()
}

fn stream_line(job: u64) -> String {
    let mut r = Request::new("stream");
    r.job = Some(job);
    r.to_line()
}

fn v(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

/// Submits and asserts acceptance, returning the job id.
fn accept(d: &Daemon, line: &str) -> u64 {
    let reply = v(&d.request(line)[0]);
    assert_eq!(reply["type"].as_str(), Some("accepted"), "{reply:?}");
    reply["job"].as_u64().unwrap()
}

/// Streams the job to its terminal line and returns (state, detail).
fn run_to_end(d: &Daemon, job: u64) -> (String, String) {
    let lines = d.request(&stream_line(job));
    let last = v(lines.last().expect("stream emits a terminal line"));
    assert_eq!(last["type"].as_str(), Some("job"), "{last:?}");
    (
        last["state"].as_str().unwrap().to_owned(),
        last["detail"].as_str().unwrap_or_default().to_owned(),
    )
}

fn result_bytes(dir: &std::path::Path, job: u64) -> Vec<u8> {
    let path = dir.join(format!("job-{job}-result.json"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn submit_runs_to_done_and_writes_a_result_file() {
    let dir = state_dir("done");
    let d = daemon(&dir, |_| {});
    let job = accept(&d, &submit("smoke", |_| {}));
    let (state, detail) = run_to_end(&d, job);
    assert_eq!(state, "done", "{detail}");

    let res = v(std::str::from_utf8(&result_bytes(&dir, job)).unwrap());
    assert!(res["makespan_bits"].as_u64().unwrap() > 0);
    assert!(res["events_dispatched"].as_u64().unwrap() > 0);
    assert!(!res["chrome_trace"].as_str().unwrap().is_empty());
    assert!(!res["jsonl"].as_str().unwrap().is_empty());
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_deadline_is_rejected_at_admission_with_typed_reason() {
    let dir = state_dir("deadline0");
    let d = daemon(&dir, |c| c.workers = 0);
    let reply = v(&d.request(&submit("smoke", |r| r.deadline_ms = Some(0)))[0]);
    assert_eq!(reply["type"].as_str(), Some("rejected"));
    assert_eq!(reply["reason"].as_str(), Some("deadline"));
    assert_eq!(d.snapshot().counter("serve_rejected_deadline"), 1);
    // Nothing was admitted, so nothing is durable.
    assert_eq!(d.snapshot().counter("serve_accepted"), 0);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_are_typed_rejections() {
    let dir = state_dir("badreq");
    let d = daemon(&dir, |c| c.workers = 0);
    for (line, why) in [
        (submit("not-a-workflow", |_| {}), "unknown workflow"),
        (submit("smoke", |r| r.scale = Some("huge".into())), "unknown scale"),
        (Request::new("submit").to_line(), "missing workflow"),
    ] {
        let reply = v(&d.request(&line)[0]);
        assert_eq!(reply["type"].as_str(), Some("rejected"), "{why}: {reply:?}");
        assert_eq!(reply["reason"].as_str(), Some("bad_request"), "{why}");
    }
    assert_eq!(d.snapshot().counter("serve_rejected_bad_request"), 3);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_typed_and_accepted_jobs_survive_restart() {
    let dir = state_dir("storm");
    // No workers: admission fills the bounded queue deterministically.
    let d = daemon(&dir, |c| {
        c.workers = 0;
        c.queue_cap = 3;
    });
    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..5 {
        let reply = v(&d.request(&submit("smoke", |r| r.seed = Some(i)))[0]);
        match reply["type"].as_str() {
            Some("accepted") => accepted.push(reply["job"].as_u64().unwrap()),
            Some("rejected") => {
                assert_eq!(reply["reason"].as_str(), Some("capacity"), "{reply:?}");
                shed += 1;
            }
            other => panic!("unexpected reply type {other:?}"),
        }
    }
    assert_eq!((accepted.len(), shed), (3, 2), "bounded queue sheds exactly the overflow");
    let snap = d.snapshot();
    assert_eq!(snap.counter("serve_rejected_capacity"), 2);
    assert_eq!(snap.counter("serve_accepted"), 3);
    d.shutdown();

    // Zero accepted-job losses: a restart with workers finishes every job
    // that was acknowledged before the daemon went down.
    let d = daemon(&dir, |c| c.workers = 2);
    for job in accepted {
        let (state, detail) = run_to_end(&d, job);
        assert_eq!(state, "done", "job {job}: {detail}");
        assert!(dir.join(format!("job-{job}-result.json")).exists());
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn midrun_deadline_preempts_at_checkpoint_keeping_attempt_ledger() {
    // Golden makespan of the exact job the daemon will run.
    let (spec, cfg) = catalog::build("genomes", catalog::Scale::Tiny, 2).unwrap();
    let golden = dfl_workflows::run(&spec, &cfg).unwrap();
    let deadline_ms = (golden.makespan_s * 1000.0 / 2.0) as u64;
    assert!(deadline_ms >= 1, "genomes tiny long enough to halve");

    let dir = state_dir("deadline-mid");
    let d = daemon(&dir, |_| {});
    let job = accept(&d, &submit("genomes", |r| r.deadline_ms = Some(deadline_ms)));
    let (state, detail) = run_to_end(&d, job);
    assert_eq!(state, "deadline", "{detail}");
    assert!(detail.contains("parked"), "{detail}");
    assert_eq!(d.snapshot().counter("serve_deadline_preempted"), 1);

    // The preemption went through the checkpoint path: the parked manifest
    // carries the attempt ledger, nothing was lost.
    let m = dfl_workflows::load_latest(&dir.join(format!("job-{job}"))).unwrap();
    assert!(!m.ledger.is_empty(), "attempt ledger parked with the manifest");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_is_a_typed_failure_and_daemon_keeps_serving() {
    let dir = state_dir("panic");
    let d = daemon(&dir, |_| {});
    let bad = accept(&d, &submit("smoke", |r| r.panic = Some(true)));
    let (state, detail) = run_to_end(&d, bad);
    assert_eq!(state, "failed");
    assert!(detail.contains("worker panic"), "{detail}");
    assert_eq!(d.snapshot().counter("serve_panics"), 1);

    // The pool survived: the next job runs to completion normally.
    let good = accept(&d, &submit("smoke", |_| {}));
    assert_eq!(run_to_end(&d, good).0, "done");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_preempts_running_job_via_checkpoint_path() {
    let dir = state_dir("cancel-run");
    // Small windows so the stream ticks well before the run finishes.
    let d = daemon(&dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |_| {}));

    // Deterministic mid-run hook: the first streamed window proves the job
    // is on a worker between pause points; cancel right then.
    let mut cancel_sent = false;
    let mut lines = Vec::new();
    let mut cancel_req = Request::new("cancel");
    cancel_req.job = Some(job);
    d.handle_line(&stream_line(job), &mut |line| {
        if !cancel_sent && line.contains("\"type\":\"window\"") {
            cancel_sent = true;
            let ack = v(&d.request(&cancel_req.to_line())[0]);
            assert_eq!(ack["detail"].as_str(), Some("cancel requested"), "{ack:?}");
        }
        lines.push(line);
    });
    assert!(cancel_sent, "run emitted no windows before finishing");
    let last = v(lines.last().unwrap());
    assert_eq!(last["state"].as_str(), Some("cancelled"), "{last:?}");
    assert_eq!(d.snapshot().counter("serve_cancelled"), 1);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_queued_job_removes_it_before_dispatch() {
    let dir = state_dir("cancel-q");
    let d = daemon(&dir, |c| c.workers = 0);
    let job = accept(&d, &submit("smoke", |_| {}));
    let mut cancel = Request::new("cancel");
    cancel.job = Some(job);
    let reply = v(&d.request(&cancel.to_line())[0]);
    assert_eq!(reply["state"].as_str(), Some("cancelled"));
    // Idempotent: a second cancel reports the terminal state.
    let reply = v(&d.request(&cancel.to_line())[0]);
    assert_eq!(reply["state"].as_str(), Some("cancelled"));
    assert_eq!(d.snapshot().counter("serve_cancelled"), 1);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_parks_running_work_and_restart_finishes_it_byte_identically() {
    // Golden: the same submission in a clean daemon, uninterrupted.
    let golden_dir = state_dir("drain-golden");
    let d = daemon(&golden_dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |r| r.seed = Some(11)));
    assert_eq!(run_to_end(&d, job).0, "done");
    let golden = result_bytes(&golden_dir, job);
    d.shutdown();

    // Same job, but drained mid-run: parked at a checkpoint, not killed.
    let dir = state_dir("drain");
    let d = daemon(&dir, |c| c.window_ms = 20);
    let job2 = accept(&d, &submit("genomes", |r| r.seed = Some(11)));
    assert_eq!(job, job2, "fresh ledgers allocate the same id");
    let mut drained = false;
    let mut lines = Vec::new();
    d.handle_line(&stream_line(job2), &mut |line| {
        if !drained && line.contains("\"type\":\"window\"") {
            drained = true;
            d.drain(); // blocks until the worker parks the job
        }
        lines.push(line);
    });
    assert!(drained, "run emitted no windows before finishing");
    let last = v(lines.last().unwrap());
    assert_eq!(last["state"].as_str(), Some("running"), "{last:?}");
    assert!(last["detail"].as_str().unwrap().contains("parked for drain"), "{last:?}");
    assert_eq!(d.snapshot().counter("serve_parked"), 1);
    // Draining daemons shed new work with a typed reason.
    let reply = v(&d.request(&submit("smoke", |_| {}))[0]);
    assert_eq!(reply["reason"].as_str(), Some("draining"));
    d.shutdown();

    // Restart: the parked job resumes from its manifest and the result is
    // byte-identical to the uninterrupted run's.
    let d = daemon(&dir, |c| c.window_ms = 20);
    assert_eq!(d.snapshot().counter("serve_recovered"), 1);
    let (state, detail) = run_to_end(&d, job2);
    assert_eq!(state, "done", "{detail}");
    assert_eq!(result_bytes(&dir, job2), golden, "park/resume changed the result bytes");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_kill_recovery_is_byte_identical_at_three_seeded_points() {
    // Golden uninterrupted run (also yields the event-count coordinate
    // system for the kill points).
    let golden_dir = state_dir("chaos-golden");
    let d = daemon(&golden_dir, |_| {});
    let job = accept(&d, &submit("genomes", |r| r.seed = Some(3)));
    assert_eq!(run_to_end(&d, job).0, "done");
    let golden = result_bytes(&golden_dir, job);
    let total = v(std::str::from_utf8(&golden).unwrap())["events_dispatched"].as_u64().unwrap();
    d.shutdown();
    let _ = std::fs::remove_dir_all(&golden_dir);
    assert!(total > 8, "need room for mid-run kill points, got {total}");

    for (i, at_event) in [total / 4, total / 2, total * 3 / 4].into_iter().enumerate() {
        let dir = state_dir(&format!("chaos-{i}"));
        // abort_on_chaos=false models the kill in-process: the job dies at
        // the exact dispatch with nothing finalized — the ledger still says
        // "running", like after a real kill -9 — but the daemon object
        // survives so the test can restart on the same state dir.
        let d = daemon(&dir, |_| {});
        let job = accept(
            &d,
            &submit("genomes", |r| {
                r.seed = Some(3);
                r.chaos_at = Some(at_event);
            }),
        );
        // The stream ends with the chaos notice (no terminal state).
        let lines = d.request(&stream_line(job));
        assert!(
            lines.last().unwrap().contains("chaos kill"),
            "kill at {at_event}: {lines:?}"
        );
        assert_eq!(d.snapshot().counter("serve_chaos_crashes"), 1);
        d.shutdown();

        // Restart recovers the interrupted job by resuming its latest
        // readable manifest; chaos is not re-armed on resume.
        let d = daemon(&dir, |_| {});
        assert_eq!(d.snapshot().counter("serve_recovered"), 1);
        let (state, detail) = run_to_end(&d, job);
        assert_eq!(state, "done", "kill at {at_event}: {detail}");
        assert_eq!(
            result_bytes(&dir, job),
            golden,
            "kill at event {at_event}: recovered result diverged from golden"
        );
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_job_manifest_is_skipped_on_recovery() {
    let dir = state_dir("torn");
    // Park a genomes run mid-flight via drain (gives the job real
    // checkpoint manifests), then tear the newest manifest.
    let d = daemon(&dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |_| {}));
    let mut drained = false;
    d.handle_line(&stream_line(job), &mut |line| {
        if !drained && line.contains("\"type\":\"window\"") {
            drained = true;
            d.drain();
        }
    });
    assert!(drained);
    d.shutdown();

    let job_dir = dir.join(format!("job-{job}"));
    let newest = std::fs::read_dir(&job_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("manifest-"))
        .max()
        .expect("parked job has manifests");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap(); // torn mid-write

    let d = daemon(&dir, |c| c.window_ms = 20);
    let (state, detail) = run_to_end(&d, job);
    assert_eq!(state, "done", "{detail}");
    assert_eq!(
        d.snapshot().counter("serve_torn_manifests"),
        1,
        "the torn top manifest was skipped with a typed warning"
    );
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_job_manifest_reruns_fresh_on_recovery() {
    let golden_dir = state_dir("stale-golden");
    let d = daemon(&golden_dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |_| {}));
    assert_eq!(run_to_end(&d, job).0, "done");
    let golden = result_bytes(&golden_dir, job);
    d.shutdown();

    // Park a genomes run mid-flight, then stamp its newest manifest with
    // the previous schema version: intact, but unusable by this build.
    let dir = state_dir("stale");
    let d = daemon(&dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |_| {}));
    let mut drained = false;
    d.handle_line(&stream_line(job), &mut |line| {
        if !drained && line.contains("\"type\":\"window\"") {
            drained = true;
            d.drain();
        }
    });
    assert!(drained);
    d.shutdown();

    let newest = std::fs::read_dir(dir.join(format!("job-{job}")))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("manifest-"))
        .max()
        .expect("parked job has manifests");
    let text = std::fs::read_to_string(&newest).unwrap();
    let current = format!("{{\"version\":{MANIFEST_VERSION},");
    assert!(text.starts_with(&current), "manifest leads with its version");
    let old = format!("{{\"version\":{},", MANIFEST_VERSION - 1);
    std::fs::write(&newest, text.replacen(&current, &old, 1)).unwrap();

    // Recovery discards the stale checkpoints and reruns from the ledgered
    // submit parameters; determinism makes the result golden.
    let d = daemon(&dir, |c| c.window_ms = 20);
    let (state, detail) = run_to_end(&d, job);
    assert_eq!(state, "done", "{detail}");
    assert_eq!(d.snapshot().counter("serve_stale_checkpoints"), 1);
    assert_eq!(result_bytes(&dir, job), golden, "fresh rerun changed the result bytes");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sets `block_size` to 0 in every block histogram inside `v`; returns
/// how many it changed.
fn zero_histogram_block_sizes(v: &mut Value) -> usize {
    match v {
        Value::Object(fields) if fields.iter().any(|(k, _)| k == "granule") => {
            for (k, x) in fields.iter_mut() {
                if k == "block_size" {
                    *x = Value::Number(serde::Number::U64(0));
                }
            }
            1
        }
        Value::Object(fields) => {
            fields.iter_mut().map(|(_, x)| zero_histogram_block_sizes(x)).sum()
        }
        Value::Array(items) => items.iter_mut().map(zero_histogram_block_sizes).sum(),
        _ => 0,
    }
}

#[test]
fn zero_block_size_manifest_is_skipped_as_torn_on_recovery() {
    let golden_dir = state_dir("bs0-golden");
    let d = daemon(&golden_dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |_| {}));
    assert_eq!(run_to_end(&d, job).0, "done");
    let golden = result_bytes(&golden_dir, job);
    d.shutdown();

    // Park a genomes run mid-flight, then give every histogram in its
    // newest manifest a zero block size: well-formed JSON that the
    // histogram decoder must refuse.
    let dir = state_dir("bs0");
    let d = daemon(&dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |_| {}));
    let mut drained = false;
    d.handle_line(&stream_line(job), &mut |line| {
        if !drained && line.contains("\"type\":\"window\"") {
            drained = true;
            d.drain();
        }
    });
    assert!(drained);
    d.shutdown();

    let newest = std::fs::read_dir(dir.join(format!("job-{job}")))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("manifest-"))
        .max()
        .expect("parked job has manifests");
    let mut manifest = v(&std::fs::read_to_string(&newest).unwrap());
    assert!(zero_histogram_block_sizes(&mut manifest) > 0, "parked manifest tracks no pairs");
    std::fs::write(&newest, serde_json::to_string(&manifest).unwrap()).unwrap();

    // Resuming from that manifest would coarsen a zero block size forever,
    // so the recovery is awaited with a bound; on a timeout the streaming
    // thread is left behind and the test fails.
    let d = Arc::new(daemon(&dir, |c| c.window_ms = 20));
    let (tx, rx) = std::sync::mpsc::channel();
    let streamer = Arc::clone(&d);
    let stream = std::thread::spawn(move || {
        let end = run_to_end(&streamer, job);
        let _ = tx.send(());
        end
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        rx.recv_timeout(std::time::Duration::from_secs(120))
    {
        panic!("recovery from a zero-block-size manifest did not finish within 120 s");
    }
    let (state, detail) = stream.join().expect("stream thread panicked");
    assert_eq!(state, "done", "{detail}");
    assert_eq!(
        d.snapshot().counter("serve_torn_manifests"),
        1,
        "the undecodable manifest was skipped with a typed warning"
    );
    assert_eq!(result_bytes(&dir, job), golden, "recovery changed the result bytes");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_share_the_pool_fairly_under_backlog() {
    // Admission-only daemon: tenant "noisy" floods, "quiet" submits two.
    let dir = state_dir("tenants");
    let d = daemon(&dir, |c| {
        c.workers = 0;
        c.queue_cap = 16;
    });
    let mut jobs = Vec::new();
    for i in 0..6 {
        jobs.push(accept(
            &d,
            &submit("smoke", |r| {
                r.tenant = Some("noisy".into());
                r.seed = Some(i);
            }),
        ));
    }
    let quiet: Vec<u64> = (0..2)
        .map(|i| {
            accept(
                &d,
                &submit("smoke", |r| {
                    r.tenant = Some("quiet".into());
                    r.seed = Some(100 + i);
                }),
            )
        })
        .collect();
    d.shutdown();

    // One worker drains the backlog; every accepted job completes —
    // fair-share ordering must not starve or lose anyone.
    let d = daemon(&dir, |c| c.workers = 1);
    for job in jobs.iter().chain(&quiet) {
        let (state, detail) = run_to_end(&d, *job);
        assert_eq!(state, "done", "job {job}: {detail}");
    }
    assert_eq!(d.snapshot().counter("serve_completed"), 8);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_rebuild_from_ledger_replay_after_crash_restart() {
    // Two completed jobs and one killed mid-run give the ledger a mixed
    // history to replay.
    let dir = state_dir("replay-metrics");
    let d = daemon(&dir, |_| {});
    for seed in [1, 2] {
        let job = accept(&d, &submit("smoke", |r| r.seed = Some(seed)));
        assert_eq!(run_to_end(&d, job).0, "done");
    }
    let killed = accept(
        &d,
        &submit("genomes", |r| {
            r.seed = Some(3);
            r.chaos_at = Some(8);
        }),
    );
    let lines = d.request(&stream_line(killed));
    assert!(lines.last().unwrap().contains("chaos kill"), "{lines:?}");
    d.shutdown();

    // Restart without workers: recovery re-queues the killed job and the
    // durable-state counters/gauges must match the ledger ground truth —
    // not start from zero — before anything new runs.
    let d = daemon(&dir, |c| c.workers = 0);
    let snap = d.snapshot();
    assert_eq!(snap.counter("serve_accepted"), 3, "all ledgered jobs replayed");
    assert_eq!(snap.counter("serve_completed"), 2);
    assert_eq!(snap.counter("serve_recovered"), 1);
    assert_eq!(snap.gauge("serve_jobs_total"), Some(3.0));
    assert_eq!(snap.gauge("serve_jobs_completed"), Some(2.0));
    assert_eq!(snap.gauge("serve_jobs_recovered"), Some(1.0));
    assert_eq!(snap.gauge("serve_queue_depth"), Some(1.0));
    d.shutdown();

    // The recovery commit demoted the job to queued, so a further restart
    // replays it as ordinary backlog — recovered stays 0, nothing double
    // counts — and finishing it moves the completed gauge, not accepted.
    let d = daemon(&dir, |c| c.workers = 1);
    assert_eq!(d.snapshot().counter("serve_recovered"), 0);
    assert_eq!(run_to_end(&d, killed).0, "done");
    let snap = d.snapshot();
    assert_eq!(snap.counter("serve_accepted"), 3);
    assert_eq!(snap.counter("serve_completed"), 3);
    assert_eq!(snap.gauge("serve_jobs_completed"), Some(3.0));
    assert_eq!(snap.gauge("serve_queue_depth"), Some(0.0));
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_and_unix_transports_serve_the_protocol() {
    let dir = state_dir("net");
    std::fs::create_dir_all(&dir).unwrap();
    let d = Arc::new(daemon(&dir, |_| {}));
    let ns = NetServer::start(d.clone(), &dir).expect("net server starts");

    // TCP via the published endpoint file.
    let mut c = Client::connect_dir(&dir).expect("client connects");
    assert_eq!(v(&c.roundtrip(r#"{"op":"ping"}"#).unwrap())["type"].as_str(), Some("pong"));
    let reply = v(&c.roundtrip(&submit("smoke", |_| {})).unwrap());
    assert_eq!(reply["type"].as_str(), Some("accepted"));
    let job = reply["job"].as_u64().unwrap();
    let lines = c.stream_to_end(&stream_line(job)).unwrap();
    assert_eq!(v(lines.last().unwrap())["state"].as_str(), Some("done"));
    // Malformed input gets a typed error, connection stays usable.
    assert_eq!(v(&c.roundtrip("not json").unwrap())["type"].as_str(), Some("error"));
    assert_eq!(v(&c.roundtrip(r#"{"op":"ping"}"#).unwrap())["type"].as_str(), Some("pong"));

    // Unix socket speaks the same protocol.
    {
        use std::io::{BufRead, BufReader, Write};
        let sock = std::os::unix::net::UnixStream::connect(dfl_serve::net::sock_path(&dir))
            .expect("unix connect");
        let mut w = sock.try_clone().unwrap();
        writeln!(w, r#"{{"op":"ping"}}"#).unwrap();
        let mut line = String::new();
        BufReader::new(sock).read_line(&mut line).unwrap();
        assert_eq!(v(line.trim())["type"].as_str(), Some("pong"));
    }

    // Shutdown op: acknowledged, then the server's wait() releases.
    assert_eq!(
        v(&c.roundtrip(r#"{"op":"shutdown"}"#).unwrap())["what"].as_str(),
        Some("shutdown")
    );
    ns.wait();
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
