//! The two daemon workloads: `serve_smoke` (open loop) and `serve_workflows`
//! (closed loop). Both run an in-process `Daemon` + `NetServer` and talk to
//! it over loopback TCP with the JSONL protocol, exactly as a client would.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfl_obs::timeline::{InstantKind, SpanKind, TimelineEvent};
use dfl_serve::{Client, Daemon, JobRecord, JobState, Ledger, NetServer, Request, ServeConfig};
use serde::Value;

use crate::probes::{probe_entry, reference, EntryProbe, Reference};
use crate::report::{Layers, RowKind, Run};
use crate::stats::{
    available_cpus, dir_usage, mean, median, median_ms, ms_since, quantile, thread_cpu_ns, Rng,
};

/// Completed jobs already in the `serve_smoke` ledger before the load starts.
pub const SMOKE_HISTORY: u64 = 5000;
/// Offered `serve_smoke` rate, jobs per second.
pub const SMOKE_RATE: f64 = 20.0;
/// Closed-loop `serve_workflows` clients, one connection each.
pub const WORKFLOW_CLIENTS: usize = 2;
const TENANTS: usize = 8;
/// The `serve_workflows` mix: every entry runs at tiny scale on 2 or 4 nodes.
const MIX: &[&str] = &["genomes", "ddmd", "montage", "seismic", "belle2"];
const MIX_NODES: &[usize] = &[2, 4];
/// Whole set-ups timed per run; the median is `setup_s`.
const SETUP_REPS: usize = 15;
/// How long to wait past the schedule for outstanding results.
const GRACE: Duration = Duration::from_secs(60);

fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| format!("unparsable reply {line:?}: {e}"))
}

/// Seeded Zipf(1) tenant picker: tenant `k` of a seeded permutation gets
/// weight `1/(k+1)`, so one tenant dominates and the tail is long.
struct Tenants {
    names: Vec<String>,
    cumulative: Vec<f64>,
}

impl Tenants {
    fn new(rng: &mut Rng) -> Tenants {
        let mut names: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i}")).collect();
        rng.shuffle(&mut names);
        let total: f64 = (1..=TENANTS).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cumulative = (1..=TENANTS)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        Tenants { names, cumulative }
    }

    fn pick(&self, rng: &mut Rng) -> &str {
        let u = rng.unit();
        let k = self
            .cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(TENANTS - 1);
        &self.names[k]
    }
}

/// Runs the whole set-up `SETUP_REPS` times on a fresh state directory:
/// `prepare` (inputs and reference runs), then a daemon start, which replays
/// the ledger. Keeps the last daemon serving over TCP and returns the last
/// `prepare` result with the median set-up time in seconds.
fn set_up<T>(
    cfg: &ServeConfig,
    mut prepare: impl FnMut() -> Result<T, String>,
) -> Result<(T, Arc<Daemon>, NetServer, f64), String> {
    let mut samples = Vec::new();
    let mut once = || -> Result<(T, Daemon), String> {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
        let prepared = prepare()?;
        let daemon = Daemon::start(cfg.clone())?;
        samples.push(t.elapsed().as_secs_f64());
        Ok((prepared, daemon))
    };
    for _ in 1..SETUP_REPS {
        once()?.1.shutdown();
    }
    let (prepared, daemon) = once()?;
    let daemon = Arc::new(daemon);
    let net = NetServer::start(Arc::clone(&daemon), &cfg.state_dir)?;
    Ok((prepared, daemon, net, median(&samples)))
}

fn result_path(dir: &Path, id: u64) -> std::path::PathBuf {
    dir.join(format!("job-{id}-result.json"))
}

/// Every accepted job's result file parses and carries its entry's reference
/// fingerprint. Returns the total result bytes.
fn check_results(dir: &Path, jobs: &[(u64, Reference)]) -> Result<u64, String> {
    let mut bytes = 0;
    for (id, want) in jobs {
        let path = result_path(dir, *id);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("job {id}: result file {}: {e}", path.display()))?;
        bytes += text.len() as u64;
        let v = parse(&text)?;
        let got = Reference {
            makespan_bits: v["makespan_bits"].as_u64().unwrap_or(0),
            events: v["events_dispatched"].as_u64().unwrap_or(0),
        };
        if got != *want {
            return Err(format!(
                "job {id}: result {got:?} differs from the direct run {want:?}"
            ));
        }
    }
    Ok(bytes)
}

/// A daemon job's checkpoint directory must hold exactly the files and bytes
/// of the probe's run of the same catalog entry.
fn check_checkpoints(dir: &Path, job: u64, probe: &EntryProbe) -> Result<(), String> {
    let got = dir_usage(&dir.join(format!("job-{job}")));
    let want = (probe.ckpt_files, probe.ckpt_bytes);
    if got != want {
        return Err(format!(
            "nondeterminism: job {job} left checkpoints (files, bytes) {got:?}, a direct run {want:?}"
        ));
    }
    Ok(())
}

/// After shutdown the ledger holds the pre-seeded history plus exactly the
/// accepted jobs, every one `done`.
fn check_ledger(dir: &Path, history: u64, accepted: &[u64]) -> Result<(), String> {
    let ledger = Ledger::open(dir)?;
    let mut want: Vec<u64> = accepted.to_vec();
    want.sort_unstable();
    let mut got: Vec<u64> = ledger
        .jobs()
        .iter()
        .map(|j| j.id)
        .filter(|&id| id >= history)
        .collect();
    got.sort_unstable();
    if got != want {
        return Err(format!(
            "ledger holds {} new jobs, {} were accepted",
            got.len(),
            want.len()
        ));
    }
    if ledger.jobs().len() as u64 != history + want.len() as u64 {
        return Err("ledger lost or duplicated pre-seeded history".into());
    }
    if let Some(j) = ledger.jobs().iter().find(|j| j.state != JobState::Done) {
        return Err(format!("ledger job {} is {:?}, not done", j.id, j.state));
    }
    Ok(())
}

/// What the daemon's own `metrics` and `trace` replies say about the run.
#[derive(Default)]
struct Readout {
    submit_p50_us: f64,
    submit_p99_us: f64,
    submit_mean_us: f64,
    commits: u64,
    commit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    queue_depth_max: u64,
    run_ms: Vec<f64>,
}

fn readout(daemon: &Daemon) -> Result<Readout, String> {
    let m = parse(&daemon.metrics_reply())?;
    let submit = &m["latency"]["submit_us"];
    let mut r = Readout {
        submit_p50_us: submit["p50"].as_f64().unwrap_or(0.0),
        submit_p99_us: submit["p99"].as_f64().unwrap_or(0.0),
        submit_mean_us: submit["mean"].as_f64().unwrap_or(0.0),
        commits: m["counters"]["serve_ledger_commits"].as_u64().unwrap_or(0),
        ..Readout::default()
    };
    let trace = daemon.request(r#"{"op":"trace"}"#);
    let t = parse(trace.first().ok_or("empty trace reply")?)?;
    let mut edges = Vec::new();
    for line in t["jsonl"]
        .as_str()
        .ok_or("trace reply without jsonl")?
        .lines()
        .skip(1)
    {
        let ev: TimelineEvent =
            serde_json::from_str(line).map_err(|e| format!("trace event {line:?}: {e}"))?;
        match ev {
            TimelineEvent::Span(s) if s.kind == SpanKind::Queued => {
                r.queue_wait_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
                edges.push((s.start_ns, 1i64));
                edges.push((s.end_ns, -1));
            }
            TimelineEvent::Span(s) if s.kind == SpanKind::Run => {
                r.run_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
            }
            TimelineEvent::Instant(i) if i.kind == InstantKind::LedgerCommit => {
                r.commit_us.push(i.value as f64);
            }
            _ => {}
        }
    }
    // Departures sort before arrivals at the same instant.
    edges.sort_unstable();
    let mut depth = 0i64;
    for (_, d) in edges {
        depth += d;
        r.queue_depth_max = r.queue_depth_max.max(depth as u64);
    }
    Ok(r)
}

/// TCP ping through the public client vs the same request in-process.
fn ping_probes(daemon: &Daemon, addr: &str) -> Result<(f64, f64), String> {
    let mut client = Client::connect(addr)?;
    let ping = Request::new("ping").to_line();
    let mut tcp = Vec::new();
    for _ in 0..8 {
        let t = Instant::now();
        client.roundtrip(&ping)?;
        tcp.push(ms_since(t) * 1e3);
    }
    let inproc = 1e3 * median_ms(2001, || daemon.request(&ping));
    Ok((median(&tcp), inproc))
}

/// The serve per-layer metrics and the per-job self-time table.
/// `probes` are the catalog entries the load ran (equal weight);
/// `done_commit_first` says whether the job's `done` commit lands before its
/// result is observable (the terminal stream line) or after (the file).
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    daemon: &Daemon,
    addr: &str,
    dir: &Path,
    probes: &[EntryProbe],
    replay_ms: f64,
    run: &Run,
    result_bytes: u64,
    done_commit_first: bool,
) -> Result<Layers, String> {
    let (tcp_us, inproc_us) = ping_probes(daemon, addr)?;
    // Shutdown first: every job span is closed once the workers are idle.
    daemon.shutdown();
    let r = readout(daemon)?;
    let mut l = Layers::default();
    l.set("net.ping_rtt_us", tcp_us);
    l.set("net.inproc_ping_us", inproc_us);
    l.set("daemon.submit_us.p50", r.submit_p50_us);
    l.set("daemon.submit_us.p99", r.submit_p99_us);
    l.set("daemon.job_wall_ms", mean(&r.run_ms));
    l.set("ledger.commit_us.p50", quantile(&r.commit_us, 0.5));
    l.set("ledger.commit_us.p99", quantile(&r.commit_us, 0.99));
    l.set("ledger.commits", r.commits as f64);
    l.set(
        "ledger.file_bytes",
        std::fs::metadata(dir.join("jobs.json")).map_or(0.0, |m| m.len() as f64),
    );
    l.set("ledger.replay_ms", replay_ms);
    l.set("sched.queue_wait_ms.p50", quantile(&r.queue_wait_ms, 0.5));
    l.set("sched.queue_wait_ms.p99", quantile(&r.queue_wait_ms, 0.99));
    l.set("sched.queue_depth.max", r.queue_depth_max as f64);

    let avg =
        |f: fn(&EntryProbe) -> f64| probes.iter().map(f).sum::<f64>() / probes.len().max(1) as f64;
    let engine_ms = avg(|p| p.engine_ms);
    let events: u64 = probes.iter().map(|p| p.events).sum();
    l.set("engine.run_ms", engine_ms);
    l.set(
        "engine.events_per_s",
        events as f64 / (engine_ms * probes.len() as f64 / 1e3),
    );
    l.set("obs.record_ms", avg(|p| p.obs_ms));
    l.set("watch.window_ms", avg(|p| p.watch_ms));
    l.set("checkpoint.ms", avg(|p| p.ckpt_ms));
    l.set("result.encode_ms", avg(|p| p.encode_ms));
    l.set(
        "result.bytes",
        result_bytes as f64 / run.completed.max(1) as f64,
    );
    l.set("catalog.build_us", avg(|p| p.build_us));
    l.count("engine.events", events);
    l.count(
        "checkpoint.files",
        probes.iter().map(|p| p.ckpt_files).sum(),
    );
    l.count(
        "checkpoint.bytes",
        probes.iter().map(|p| p.ckpt_bytes).sum(),
    );
    // Admission, dispatch and completion each commit once per job.
    if r.commits != 3 * run.completed {
        return Err(format!(
            "nondeterminism: {} ledger commits for {} jobs, expected 3 per job",
            r.commits, run.completed
        ));
    }

    // After admission and its ledger commit a job's result waits on two
    // branches at once: the accepted reply reaching the client, and the job
    // itself (queue, dispatch commit, run span, maybe the done commit). The
    // longer branch is on the critical path; the rest of the latency is
    // delivery to the client. The daemon times the run span; the probes'
    // shares split it into layers.
    let commit_ms = mean(&r.commit_us) / 1e3;
    let submit_ms = r.submit_mean_us / 1e3;
    let reply_ms = mean(&run.accept_ms) - submit_ms;
    let run_span_ms = mean(&r.run_ms);
    let parts = [
        ("workflows::engine + iosim", engine_ms),
        ("obs recording", avg(|p| p.obs_ms)),
        ("workflows::watch windows", avg(|p| p.watch_ms)),
        ("workflows::checkpoint", avg(|p| p.ckpt_ms)),
        ("result encode", avg(|p| p.encode_ms)),
    ];
    let probed: f64 = parts.iter().map(|p| p.1).sum();
    let mut job = vec![
        // The queued span closes after the dispatch commit.
        (
            "serve::sched queue wait",
            (mean(&r.queue_wait_ms) - commit_ms).max(0.0),
        ),
        ("serve::ledger dispatch commit", commit_ms),
    ];
    job.extend(
        parts
            .iter()
            .map(|&(layer, ms)| (layer, ms * run_span_ms / probed.max(1e-9))),
    );
    if done_commit_first {
        job.push(("serve::ledger done commit", commit_ms));
    }
    let job_ms: f64 = job.iter().map(|j| j.1).sum();
    let job_critical = job_ms > reply_ms;
    let (on, off) = (RowKind::Measured, RowKind::OffPath);
    l.total_label = "mean latency to result per job".into();
    l.total_ms = mean(&run.result_ms);
    l.row(
        "serve::daemon admission",
        (submit_ms - commit_ms).max(0.0),
        on,
    );
    l.row("serve::ledger admission commit", commit_ms, on);
    let reply_kind = if job_critical {
        off
    } else {
        RowKind::ByDifference
    };
    l.row(
        "serve::net transport + accepted reply",
        reply_ms,
        reply_kind,
    );
    for (layer, ms) in job {
        l.row(layer, ms, if job_critical { on } else { off });
    }
    let delivery = l.total_ms - submit_ms - reply_ms.max(job_ms);
    l.row(
        "serve::net result delivery + unattributed",
        delivery,
        RowKind::ByDifference,
    );
    l.set("layers.coverage_pct", l.coverage_pct());
    Ok(l)
}

/// Replays the ledger the daemon started from, for `ledger.replay_ms`.
fn replay_ms(dir: &Path) -> Result<f64, String> {
    let mut err = None;
    let ms = median_ms(5, || {
        if let Err(e) = Ledger::open(dir) {
            err = Some(e);
        }
    });
    err.map_or(Ok(ms), Err)
}

/// Writes a long-lived daemon's history: `n` completed smoke jobs spread
/// over the tenants.
fn preseed(
    dir: &Path,
    n: u64,
    tenants: &Tenants,
    rng: &mut Rng,
    reference: Reference,
) -> Result<(), String> {
    let mut ledger = Ledger::open(dir)?;
    let detail = format!(
        "ok: makespan {:.4}s",
        f64::from_bits(reference.makespan_bits)
    );
    for _ in 0..n {
        let id = ledger.alloc_id();
        ledger.push(JobRecord {
            id,
            tenant: tenants.pick(rng).to_owned(),
            workflow: "smoke".into(),
            scale: "tiny".into(),
            nodes: 2,
            seed: 0,
            deadline_ms: None,
            chaos_at: None,
            panic: false,
            state: JobState::Done,
            detail: detail.clone(),
        });
    }
    ledger.commit()
}

/// Splits complete lines off the front of `buf`.
fn take_lines(buf: &mut Vec<u8>) -> Vec<String> {
    let mut lines = Vec::new();
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=pos).collect();
        lines.push(String::from_utf8_lossy(&line).trim_end().to_owned());
    }
    lines
}

struct OpenLoop {
    accept_ms: Vec<f64>,
    result_ms: Vec<f64>,
    accepted: Vec<u64>,
    failed: u64,
    lateness_ms: Vec<f64>,
    gen_cpu_ms: f64,
    elapsed_s: f64,
}

/// Open loop over one connection: a generator thread sends `lines[k]` at
/// `t0 + k / rate`, sleeping to its schedule; this thread reads replies and
/// polls for result files. Both latencies count from the due time.
fn open_loop(addr: &str, dir: &Path, lines: &[String], rate: f64) -> Result<OpenLoop, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(1)))
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now() + Duration::from_millis(50);
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
    let n = lines.len();
    let give_up = due(n) + GRACE;

    std::thread::scope(|s| {
        let generator = s.spawn(move || -> Result<(Vec<f64>, f64), String> {
            let cpu0 = thread_cpu_ns();
            let mut w = stream;
            let mut late = Vec::with_capacity(n);
            for (k, line) in lines.iter().enumerate() {
                let d = due(k);
                if let Some(wait) = d.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
                w.write_all(format!("{line}\n").as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
            }
            Ok((late, (thread_cpu_ns() - cpu0) as f64 / 1e6))
        });

        let mut out = OpenLoop {
            accept_ms: Vec::with_capacity(n),
            result_ms: Vec::with_capacity(n),
            accepted: Vec::with_capacity(n),
            failed: 0,
            lateness_ms: Vec::new(),
            gen_cpu_ms: 0.0,
            elapsed_s: 0.0,
        };
        let mut buf = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        let mut replies = 0usize;
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut last_result = t0;
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".to_owned()),
                Ok(m) => buf.extend_from_slice(&chunk[..m]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
            let now = Instant::now();
            for line in take_lines(&mut buf) {
                let v = parse(&line)?;
                let k = replies;
                replies += 1;
                match (v["type"].as_str(), v["job"].as_u64()) {
                    (Some("accepted"), Some(id)) => {
                        out.accept_ms.push((now - due(k)).as_secs_f64() * 1e3);
                        out.accepted.push(id);
                        pending.push((id, k));
                    }
                    // Shed, refused, or untyped: a failed operation.
                    _ => out.failed += 1,
                }
            }
            pending.retain(|&(id, k)| {
                let done = result_path(dir, id).exists();
                if done {
                    out.result_ms.push((now - due(k)).as_secs_f64() * 1e3);
                    last_result = now;
                }
                !done
            });
            if replies == n && pending.is_empty() {
                break;
            }
            if now > give_up {
                out.failed += (n - replies + pending.len()) as u64;
                break;
            }
        }
        let (late, cpu) = generator
            .join()
            .map_err(|_| "generator thread panicked")??;
        out.lateness_ms = late;
        out.gen_cpu_ms = cpu;
        out.elapsed_s = (last_result - t0).as_secs_f64();
        Ok(out)
    })
}

/// `serve_smoke`: open-loop smoke jobs against a daemon with a long history.
pub fn smoke(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Run, String> {
    let dir = work.join("state");
    let cfg = ServeConfig::new(&dir);
    let mut rng = Rng::new(seed);
    let tenants = Tenants::new(&mut rng);
    let n = (SMOKE_RATE * seconds).round().max(1.0) as usize;
    let lines: Vec<String> = (0..n)
        .map(|_| {
            let mut r = Request::new("submit");
            r.workflow = Some("smoke".into());
            r.tenant = Some(tenants.pick(&mut rng).to_owned());
            r.nodes = Some(2);
            r.to_line()
        })
        .collect();
    let history_seed = rng.next_u64();
    let (reference, daemon, net, setup_s) = set_up(&cfg, || {
        let reference = reference("smoke", 2, &cfg)?;
        preseed(
            &dir,
            SMOKE_HISTORY,
            &tenants,
            &mut Rng::new(history_seed),
            reference,
        )?;
        Ok(reference)
    })?;
    let replay = if traced { replay_ms(&dir)? } else { 0.0 };
    let load = open_loop(&net.endpoints.tcp, &dir, &lines, SMOKE_RATE)?;

    let quarter = load.result_ms.len() / 4;
    let first = median(&load.result_ms[..quarter]);
    let last = median(&load.result_ms[load.result_ms.len() - quarter..]);
    let mut run = Run {
        setup_s,
        completed: load.result_ms.len() as u64,
        elapsed_s: load.elapsed_s,
        attempted: n as u64,
        failed: load.failed,
        notes: vec![
            format!(
                "load: open loop, {SMOKE_RATE} smoke jobs/s offered, {n} jobs, {TENANTS} Zipf tenants, \
                 {SMOKE_HISTORY} jobs of history; 1 connection, 2 load threads (nproc {})",
                available_cpus()
            ),
            format!(
                "generator: lateness p50 {:.3} ms p99 {:.3} ms; {:.1} ms CPU over {:.1} s (sleeps to schedule)",
                quantile(&load.lateness_ms, 0.5),
                quantile(&load.lateness_ms, 0.99),
                load.gen_cpu_ms,
                load.elapsed_s
            ),
            format!(
                "backlog: result p50 {first:.2} ms in the first quarter, {last:.2} ms in the last ({})",
                if last > 1.5 * first { "GROWING" } else { "steady" }
            ),
        ],
        accept_ms: load.accept_ms,
        result_ms: load.result_ms,
        layers: None,
    };
    let jobs: Vec<(u64, Reference)> = load.accepted.iter().map(|&id| (id, reference)).collect();
    if traced {
        let probe = probe_entry("smoke", 2, &cfg, 5, 5, work)?;
        if let Some(&first) = load.accepted.first() {
            check_checkpoints(&dir, first, &probe)?;
        }
        let bytes = check_results(&dir, &jobs)?;
        let mut layers = serve_layers(
            &daemon,
            &net.endpoints.tcp,
            &dir,
            &[probe],
            replay,
            &run,
            bytes,
            false,
        )?;
        // The open loop sends a fixed number of jobs, so the commit count
        // repeats for a seed; the closed loop's depends on its speed.
        let commits = layers.get("ledger.commits") as u64;
        layers.exact.push(("ledger.commits", commits));
        run.layers = Some(layers);
    } else {
        daemon.shutdown();
        check_results(&dir, &jobs)?;
    }
    check_ledger(&dir, SMOKE_HISTORY, &load.accepted)?;
    Ok(run)
}

/// A line-oriented client connection with Nagle's algorithm off on the
/// client side, so the load generator adds no delay of its own.
struct LineConn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl LineConn {
    fn connect(addr: &str) -> Result<LineConn, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(LineConn { w, r })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        self.w
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => parse(line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// One closed-loop client's record.
#[derive(Default)]
struct ClientLog {
    jobs: Vec<(u64, usize)>,
    accept_ms: Vec<f64>,
    result_ms: Vec<f64>,
    windows: u64,
    attempted: u64,
    failed: u64,
    last_done: Option<Instant>,
}

fn closed_client(
    addr: &str,
    seed: u64,
    client: usize,
    until: Instant,
) -> Result<ClientLog, String> {
    let mut conn = LineConn::connect(addr)?;
    let mut rng = Rng::new(seed ^ (0xC11E_0000 + client as u64));
    let mut log = ClientLog::default();
    // Whole shuffled rounds over every entry: the seed sets the order, and
    // every seed runs the same mix, so the mix adds no spread of its own.
    let mut round: Vec<usize> = Vec::new();
    while Instant::now() < until {
        if round.is_empty() {
            round = (0..MIX.len() * MIX_NODES.len()).collect();
            rng.shuffle(&mut round);
        }
        let entry = round.pop().expect("round refilled above");
        let mut submit = Request::new("submit");
        submit.workflow = Some(MIX[entry / MIX_NODES.len()].into());
        submit.nodes = Some(MIX_NODES[entry % MIX_NODES.len()] as u64);
        submit.scale = Some("tiny".into());
        submit.tenant = Some(format!("client-{client}"));
        log.attempted += 1;
        let t = Instant::now();
        conn.send(&submit)?;
        let reply = conn.recv()?;
        let (Some("accepted"), Some(id)) = (reply["type"].as_str(), reply["job"].as_u64()) else {
            log.failed += 1;
            continue;
        };
        log.accept_ms.push(ms_since(t));
        let mut stream = Request::new("stream");
        stream.job = Some(id);
        conn.send(&stream)?;
        loop {
            let line = conn.recv()?;
            match line["type"].as_str() {
                Some("window") => log.windows += 1,
                Some("job") if line["state"].as_str() == Some("done") => {
                    log.result_ms.push(ms_since(t));
                    log.jobs.push((id, entry));
                    log.last_done = Some(Instant::now());
                    break;
                }
                _ => return Err(format!("job {id} ended with {line:?}")),
            }
        }
    }
    Ok(log)
}

/// `serve_workflows`: closed-loop clients running the tiny catalog mix.
pub fn workflows(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Run, String> {
    let dir = work.join("state");
    let cfg = ServeConfig::new(&dir);
    let entries: Vec<(&str, usize)> = MIX
        .iter()
        .flat_map(|&w| MIX_NODES.iter().map(move |&n| (w, n)))
        .collect();
    let (refs, daemon, net, setup_s) = set_up(&cfg, || {
        entries
            .iter()
            .map(|&(w, n)| reference(w, n, &cfg))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let replay = if traced { replay_ms(&dir)? } else { 0.0 };

    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let addr = net.endpoints.tcp.as_str();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKFLOW_CLIENTS)
            .map(|c| s.spawn(move || closed_client(addr, seed, c, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let last = logs.iter().filter_map(|l| l.last_done).max().unwrap_or(t0);

    let mut run = Run {
        setup_s,
        accept_ms: logs
            .iter()
            .flat_map(|l| l.accept_ms.iter().copied())
            .collect(),
        result_ms: logs
            .iter()
            .flat_map(|l| l.result_ms.iter().copied())
            .collect(),
        completed: logs.iter().map(|l| l.jobs.len() as u64).sum(),
        elapsed_s: (last - t0).as_secs_f64(),
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        notes: Vec::new(),
        layers: None,
    };
    let mut per_entry: BTreeMap<&str, u64> = BTreeMap::new();
    for l in &logs {
        for &(_, e) in &l.jobs {
            *per_entry.entry(entries[e].0).or_default() += 1;
        }
    }
    run.notes.push(format!(
        "load: closed loop, {WORKFLOW_CLIENTS} clients on {WORKFLOW_CLIENTS} connections, \
         {WORKFLOW_CLIENTS} load threads (nproc {}); tiny mix {per_entry:?}, {} stream windows",
        available_cpus(),
        logs.iter().map(|l| l.windows).sum::<u64>()
    ));

    let jobs: Vec<(u64, Reference)> = logs
        .iter()
        .flat_map(|l| l.jobs.iter().map(|&(id, e)| (id, refs[e])))
        .collect();
    let accepted: Vec<u64> = jobs.iter().map(|j| j.0).collect();
    if traced {
        let mut probes = Vec::new();
        for (e, &(w, n)) in entries.iter().enumerate() {
            let probe = probe_entry(w, n, &cfg, 3, 1, work)?;
            if let Some(&(id, _)) = logs.iter().flat_map(|l| &l.jobs).find(|j| j.1 == e) {
                check_checkpoints(&dir, id, &probe)?;
            }
            probes.push(probe);
        }
        let bytes = check_results(&dir, &jobs)?;
        run.layers = Some(serve_layers(
            &daemon, addr, &dir, &probes, replay, &run, bytes, true,
        )?);
    } else {
        daemon.shutdown();
        check_results(&dir, &jobs)?;
    }
    check_ledger(&dir, 0, &accepted)?;
    Ok(run)
}
