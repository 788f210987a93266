//! Crash-consistent checkpoints for the workflow engine.
//!
//! A checkpoint is a versioned on-disk [`CheckpointManifest`]: the complete
//! simulator state ([`SimSnapshot`]) at a quiescent point, the engine's
//! retry/recovery bookkeeping ([`EngineState`]), a ledger of every attempt
//! that has already finished, the intermediate-file metadata, and a hash of
//! the `(spec, config)` pair the run was started under.
//! [`crate::engine::resume_from`] revalidates the version and the hash,
//! restores the simulator, and continues mid-stage — replaying nothing.
//! Because the simulator is deterministic, a crash-killed run resumed from
//! its latest manifest finishes byte-identical to an uninterrupted one;
//! `tests/tests/chaos.rs` and `datalife chaos` assert exactly that.
//!
//! Manifests are written atomically (temp file + rename) as
//! `manifest-{seq:06}.json`, so a coordinator killed mid-write leaves the
//! previous manifest intact and [`load_latest`] always finds a complete one.

use std::fmt;
use std::path::{Path, PathBuf};

use dfl_iosim::fs::FileMeta;
use dfl_iosim::{SimError, SimSnapshot, SNAPSHOT_VERSION};
use serde::{Deserialize, Serialize, Value};

use crate::engine::{EngineState, RunConfig};
use crate::spec::WorkflowSpec;

/// Manifest schema version; bumped on incompatible layout changes. A
/// manifest carrying any other version is rejected with
/// [`CheckpointError::VersionMismatch`] before its payload is interpreted.
///
/// v2: integrity support — the embedded [`SimSnapshot`] carries per-replica
/// corruption roots, job taint, and verification counters, and `RunConfig`
/// (hashed into `config_hash`) gained the `verify` policy.
///
/// v3: the embedded [`SimSnapshot`] carried per-node dispatch cursors, and
/// `RunConfig` an event-core partition count.
///
/// v4: both are gone — one event queue, serialized as one sorted list.
///
/// v5: the embedded [`SimSnapshot`] (v6) carries block histograms as
/// run-length rows.
pub const MANIFEST_VERSION: u32 = 5;

/// When the engine writes checkpoint manifests. Independently of the
/// triggers below, a run with checkpointing enabled writes a baseline
/// `manifest-000000.json` at t=0 so there is always something to resume
/// from, however early the coordinator dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory manifests land in, as `manifest-{seq:06}.json`.
    pub dir: PathBuf,
    /// Checkpoint whenever this many more workflow stages fully complete.
    pub every_stages: Option<u32>,
    /// Checkpoint on a sim-time cadence (ns).
    pub every_sim_ns: Option<u64>,
    /// Checkpoint after each handled incident batch (failed attempts that
    /// were repaired and resubmitted).
    pub on_incident: bool,
}

impl CheckpointConfig {
    /// A policy with no periodic triggers (only the t=0 baseline manifest);
    /// add triggers with the builder methods.
    pub fn to_dir(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_stages: None,
            every_sim_ns: None,
            on_incident: false,
        }
    }

    /// Checkpoint every `n` fully-completed workflow stages.
    pub fn every_stages(mut self, n: u32) -> Self {
        self.every_stages = Some(n.max(1));
        self
    }

    /// Checkpoint every `ns` nanoseconds of sim time.
    pub fn every_sim_ns(mut self, ns: u64) -> Self {
        self.every_sim_ns = Some(ns.max(1));
        self
    }

    /// Checkpoint after every handled incident batch.
    pub fn on_incident(mut self) -> Self {
        self.on_incident = true;
        self
    }
}

/// One finished attempt (success or failure) as of the checkpoint — the
/// audit trail of work that will *not* be replayed on resume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Simulator job id.
    pub job: u32,
    pub name: String,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub failed: bool,
}

/// A versioned, self-validating checkpoint of one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Hash of the originating `(spec, config)` pair (chaos and checkpoint
    /// policy excluded); [`crate::engine::resume_from`] refuses a manifest
    /// whose hash does not match the configuration it is handed.
    pub config_hash: u64,
    /// Checkpoint sequence number (0 is the t=0 baseline).
    pub seq: u64,
    /// Sim time the checkpoint was taken at.
    pub sim_time_ns: u64,
    /// Every attempt already finished at this point.
    pub ledger: Vec<AttemptRecord>,
    /// Metadata (path, size, replica tiers) of every file the simulated
    /// filesystem holds — inputs plus intermediates produced so far.
    pub files: Vec<FileMeta>,
    /// The engine's dynamic bookkeeping (retry chains, recovery jobs,
    /// checkpoint cursors).
    pub engine: EngineState,
    /// Complete simulator state; restoring it is exact by construction.
    pub sim: SimSnapshot,
}

/// A manifest file that was present but unreadable — torn by a crash
/// mid-write (truncation) or corrupted afterwards (trailing garbage).
/// Tolerant loading ([`load_latest_tolerant`]) skips such files and falls
/// back to the previous good manifest, surfacing what it skipped as typed
/// warnings instead of failing the whole resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornManifest {
    /// The unreadable manifest file.
    pub path: PathBuf,
    /// Why it could not be loaded (I/O or parse detail).
    pub reason: String,
}

impl fmt::Display for TornManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "torn manifest {} skipped: {}", self.path.display(), self.reason)
    }
}

/// Why a checkpoint could not be written, read, or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure writing or reading a manifest.
    Io(String),
    /// A manifest file exists but does not parse as one.
    Parse(String),
    /// The manifest's schema version is not [`MANIFEST_VERSION`].
    VersionMismatch { found: u32, expected: u32 },
    /// Every `manifest-*.json` in the directory is torn — there is no good
    /// manifest to fall back to.
    AllTorn { dir: PathBuf, torn: Vec<TornManifest> },
    /// The manifest was produced by a different `(spec, config)` pair than
    /// the one offered for resume — resuming would silently compute a
    /// wrong answer, so it is refused instead.
    HashMismatch { manifest: u64, config: u64 },
    /// No `manifest-*.json` exists in the checkpoint directory.
    NoManifest(PathBuf),
    /// The run configuration has no checkpoint policy to resume from.
    NoCheckpointConfig,
    /// The simulator rejected the embedded snapshot.
    Sim(SimError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Parse(e) => write!(f, "bad checkpoint manifest: {e}"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "manifest version {found} (this build reads {expected})")
            }
            CheckpointError::HashMismatch { manifest, config } => write!(
                f,
                "manifest config hash {manifest:#018x} does not match the \
                 offered configuration ({config:#018x}); refusing to resume"
            ),
            CheckpointError::AllTorn { dir, torn } => write!(
                f,
                "all {} manifest(s) in {} are torn; nothing to resume from",
                torn.len(),
                dir.display()
            ),
            CheckpointError::NoManifest(dir) => {
                write!(f, "no manifest-*.json in {}", dir.display())
            }
            CheckpointError::NoCheckpointConfig => {
                write!(f, "run configuration has no checkpoint policy")
            }
            CheckpointError::Sim(e) => write!(f, "restore failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity hash of a `(spec, config)` pair, folded over the spec's JSON
/// and the config's debug rendering with the chaos clause and the
/// checkpoint policy removed: a crash-killed run may resume with its kill
/// switch still armed or from a different checkpoint directory, but any
/// change to the workload, cluster, placement, staging, faults, retry, or
/// observability settings changes the hash and invalidates old manifests.
pub fn config_hash(spec: &WorkflowSpec, cfg: &RunConfig) -> u64 {
    let mut canon = cfg.clone();
    canon.faults = canon.faults.without_chaos();
    canon.checkpoint = None;
    let spec_json = serde_json::to_string(spec).unwrap_or_default();
    let cfg_repr = format!("{canon:?}");
    let mut h = 0xdf1c_0de5_0000_0000u64 ^ MANIFEST_VERSION as u64;
    for chunk in [spec_json.as_str(), cfg_repr.as_str()] {
        for &b in chunk.as_bytes() {
            h = splitmix(h ^ u64::from(b));
        }
        h = splitmix(h);
    }
    h
}

/// Serializes `manifest` and writes it atomically to
/// `dir/manifest-{seq:06}.json` (temp file + rename); returns the final
/// path. A crash between the two steps leaves at worst a stale `.tmp`.
pub fn write_manifest(dir: &Path, manifest: &CheckpointManifest) -> Result<PathBuf, CheckpointError> {
    std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
    let name = format!("manifest-{:06}.json", manifest.seq);
    let json = serde_json::to_string(manifest).map_err(|e| CheckpointError::Io(e.to_string()))?;
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(name);
    std::fs::write(&tmp, json).map_err(|e| CheckpointError::Io(e.to_string()))?;
    std::fs::rename(&tmp, &path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    Ok(path)
}

/// Reads and validates one manifest file. The schema versions are checked
/// on the raw JSON value *before* the full payload is decoded, so a
/// manifest from an incompatible build fails with
/// [`CheckpointError::VersionMismatch`], and one embedding a snapshot of
/// another layout with the [`SimError::Snapshot`] that
/// [`dfl_iosim::Simulation::restore`] gives, rather than an opaque parse
/// error.
pub fn load_manifest(path: &Path) -> Result<CheckpointManifest, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| CheckpointError::Parse(format!("{}: {e}", path.display())))?;
    let found = value["version"].as_u64().unwrap_or(0) as u32;
    if found != MANIFEST_VERSION {
        return Err(CheckpointError::VersionMismatch { found, expected: MANIFEST_VERSION });
    }
    let snapshot = value["sim"]["version"].as_u64();
    if let Some(found) = snapshot.filter(|&v| v != u64::from(SNAPSHOT_VERSION)) {
        return Err(SimError::Snapshot(format!(
            "snapshot version {found} (this build expects {SNAPSHOT_VERSION})"
        ))
        .into());
    }
    CheckpointManifest::from_value(&value)
        .map_err(|e| CheckpointError::Parse(format!("{}: {}", path.display(), e.0)))
}

/// Every `manifest-{seq}.json` in `dir`, sorted by descending sequence.
fn manifest_paths_desc(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io(e.to_string()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("manifest-")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Path of the highest-sequence manifest in `dir`, if any.
pub fn latest_manifest(dir: &Path) -> Result<PathBuf, CheckpointError> {
    manifest_paths_desc(dir)?
        .into_iter()
        .next()
        .map(|(_, p)| p)
        .ok_or_else(|| CheckpointError::NoManifest(dir.to_path_buf()))
}

/// Loads the highest-sequence manifest in `dir`, failing on the first
/// unreadable file. Strict by design — use [`load_latest_tolerant`] when a
/// torn top manifest should fall back to the previous good one.
pub fn load_latest(dir: &Path) -> Result<CheckpointManifest, CheckpointError> {
    load_manifest(&latest_manifest(dir)?)
}

/// Loads the highest-sequence *readable* manifest in `dir`.
///
/// Atomic rename makes a torn top manifest unlikely, but not impossible: a
/// crash on a filesystem that reorders the data flush behind the rename, a
/// partial copy between machines, or post-hoc corruption can all leave the
/// highest-sequence file truncated or carrying trailing garbage. Failing
/// the whole resume over it would discard every earlier good checkpoint, so
/// this walks manifests in descending sequence, skips any that fail to read
/// or parse, and returns the first good one along with a typed
/// [`TornManifest`] warning per skipped file.
///
/// A [`CheckpointError::VersionMismatch`] (or a snapshot-version
/// [`CheckpointError::Sim`]) is *not* skipped: an intact manifest from an
/// incompatible build is a configuration problem, and silently resuming
/// from an older sequence would mask it. A manifest whose payload fails
/// its checks (a block histogram with a zero block size, say) is a parse
/// error, and so skipped like a torn one.
pub fn load_latest_tolerant(
    dir: &Path,
) -> Result<(CheckpointManifest, Vec<TornManifest>), CheckpointError> {
    let candidates = manifest_paths_desc(dir)?;
    if candidates.is_empty() {
        return Err(CheckpointError::NoManifest(dir.to_path_buf()));
    }
    let mut torn = Vec::new();
    for (_, path) in candidates {
        match load_manifest(&path) {
            Ok(m) => return Ok((m, torn)),
            Err(e @ (CheckpointError::Io(_) | CheckpointError::Parse(_))) => {
                torn.push(TornManifest { path, reason: e.to_string() });
            }
            Err(hard) => return Err(hard),
        }
    }
    Err(CheckpointError::AllTorn { dir: dir.to_path_buf(), torn })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_ignores_chaos_and_checkpoint_policy() {
        let spec = crate::spec::WorkflowSpec::new("h");
        let base = RunConfig::default_gpu(2);
        let h0 = config_hash(&spec, &base);

        let mut chaotic = base.clone();
        chaotic.faults = chaotic.faults.chaos_crash(99);
        assert_eq!(h0, config_hash(&spec, &chaotic), "chaos clause excluded");

        let mut ckpt = base.clone();
        ckpt.checkpoint = Some(CheckpointConfig::to_dir("/tmp/x").every_stages(1));
        assert_eq!(h0, config_hash(&spec, &ckpt), "checkpoint policy excluded");

        let mut other = base.clone();
        other.retry.max_attempts += 1;
        assert_ne!(h0, config_hash(&spec, &other), "retry policy included");

        let mut spec2 = crate::spec::WorkflowSpec::new("h");
        spec2.input("extra", 1);
        assert_ne!(h0, config_hash(&spec2, &base), "spec included");
    }

    #[test]
    fn latest_manifest_picks_highest_seq() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-latest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in [0u64, 3, 12] {
            std::fs::write(dir.join(format!("manifest-{seq:06}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("other.json"), "{}").unwrap();
        let p = latest_manifest(&dir).unwrap();
        assert!(p.ends_with("manifest-000012.json"), "{}", p.display());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A real manifest written to `dir` by running a tiny workflow with a
    /// t=0 checkpoint, returned as (path, text) for mutation by the torn
    /// tests.
    fn write_real_manifest(dir: &Path) -> (PathBuf, String) {
        use crate::spec::{FileProduce, FileUse, TaskSpec};
        let mut spec = crate::spec::WorkflowSpec::new("torn");
        spec.input("in.dat", 1 << 20);
        spec.task(
            TaskSpec::new("t0", "t", 1)
                .read(FileUse::whole("in.dat"))
                .write(FileProduce::new("out.dat", 1 << 20))
                .compute_ms(10),
        );
        let mut cfg = RunConfig::default_gpu(1);
        cfg.checkpoint = Some(CheckpointConfig::to_dir(dir));
        crate::engine::run(&spec, &cfg).unwrap();
        let path = latest_manifest(dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        (path, text)
    }

    #[test]
    fn tolerant_load_skips_truncated_and_garbage_manifests() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (good_path, text) = write_real_manifest(&dir);
        let good_seq: u64 = good_path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("manifest-"))
            .and_then(|n| n.strip_suffix(".json"))
            .and_then(|s| s.parse().ok())
            .unwrap();

        // A truncated higher-sequence manifest (crash mid-write) ...
        let torn_a = dir.join(format!("manifest-{:06}.json", good_seq + 1));
        std::fs::write(&torn_a, &text[..text.len() / 2]).unwrap();
        // ... and an even higher one with trailing garbage.
        let torn_b = dir.join(format!("manifest-{:06}.json", good_seq + 2));
        std::fs::write(&torn_b, format!("{text}garbage-after-close")).unwrap();

        // Strict load fails on the torn top manifest.
        assert!(matches!(load_latest(&dir), Err(CheckpointError::Parse(_))));

        // Tolerant load falls back to the good one, warning per skip in
        // descending-sequence order.
        let (m, torn) = load_latest_tolerant(&dir).unwrap();
        assert_eq!(m.seq, good_seq);
        assert_eq!(m.version, MANIFEST_VERSION);
        let skipped: Vec<_> = torn.iter().map(|t| t.path.clone()).collect();
        assert_eq!(skipped, vec![torn_b, torn_a]);
        for t in &torn {
            assert!(!t.reason.is_empty(), "{t}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerant_load_reports_all_torn() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-alltorn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest-000000.json"), "{\"version\": 3,").unwrap();
        std::fs::write(dir.join("manifest-000001.json"), "not json at all").unwrap();
        match load_latest_tolerant(&dir) {
            Err(CheckpointError::AllTorn { torn, .. }) => assert_eq!(torn.len(), 2),
            other => panic!("expected AllTorn, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerant_load_keeps_version_mismatch_hard() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-tolver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Intact manifest from an incompatible build must not be skipped
        // over in favour of an older sequence.
        std::fs::write(dir.join("manifest-000000.json"), "{\"version\": 3}").unwrap();
        std::fs::write(dir.join("manifest-000001.json"), "{\"version\": 999}").unwrap();
        match load_latest_tolerant(&dir) {
            Err(CheckpointError::VersionMismatch { found: 999, .. }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Applies `f` to the fields of every block histogram inside `v`;
    /// returns how many it visited.
    fn edit_histograms(v: &mut Value, f: &mut impl FnMut(&mut Vec<(String, Value)>)) -> usize {
        match v {
            Value::Object(fields) if fields.iter().any(|(k, _)| k == "granule") => {
                f(fields);
                1
            }
            Value::Object(fields) => fields.iter_mut().map(|(_, x)| edit_histograms(x, f)).sum(),
            Value::Array(items) => items.iter_mut().map(|x| edit_histograms(x, f)).sum(),
            _ => 0,
        }
    }

    fn set(fields: &mut [(String, Value)], key: &str, val: Value) {
        for (k, x) in fields.iter_mut() {
            if k == key {
                *x = val.clone();
            }
        }
    }

    /// Tiny genomes run to completion with a checkpoint every 25 ms of sim
    /// time into `dir`; returns the spec, config and result.
    fn checkpointed_genomes(dir: &Path) -> (WorkflowSpec, RunConfig, crate::engine::RunResult) {
        let spec = crate::genomes::generate(&crate::genomes::GenomesConfig::tiny());
        let mut cfg = RunConfig::default_gpu(2);
        cfg.checkpoint = Some(CheckpointConfig::to_dir(dir).every_sim_ns(25_000_000));
        let golden = crate::engine::run(&spec, &cfg).unwrap();
        (spec, cfg, golden)
    }

    #[test]
    fn zero_block_size_histogram_is_a_torn_manifest() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-bs0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, cfg, golden) = checkpointed_genomes(&dir);
        let newest = latest_manifest(&dir).unwrap();
        let mut v: Value = serde_json::from_str(&std::fs::read_to_string(&newest).unwrap())
            .expect("manifest parses as JSON");
        let edited = edit_histograms(&mut v, &mut |h| set(h, "block_size", 0u64.to_value()));
        assert!(edited > 0, "the newest manifest tracks task-file pairs");
        std::fs::write(&newest, serde_json::to_string(&v).unwrap()).unwrap();

        // Coarsening a zero block size would double zero forever; the
        // decoder refuses it instead, so resume falls back a manifest.
        match load_manifest(&newest) {
            Err(CheckpointError::Parse(msg)) => assert!(msg.contains("powers of two"), "{msg}"),
            other => panic!("expected Parse, got {:?}", other.map(|m| m.seq)),
        }
        let (resumed, torn) = crate::engine::resume_latest_with_warnings(&spec, &cfg).unwrap();
        assert_eq!(torn.len(), 1);
        assert_eq!(torn[0].path, newest);
        assert_eq!(resumed.makespan_s.to_bits(), golden.makespan_s.to_bits());
        assert_eq!(resumed.measurements.to_json().unwrap(), golden.measurements.to_json().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_layouts_are_refused_before_decoding() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-oldlayout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        checkpointed_genomes(&dir);
        let newest = latest_manifest(&dir).unwrap();
        let mut v: Value = serde_json::from_str(&std::fs::read_to_string(&newest).unwrap())
            .expect("manifest parses as JSON");
        // Rewrite every histogram in the previous layout, one
        // `[key, {stats}]` pair per block, which this build cannot decode.
        let names = [
            "reads", "writes", "bytes_read", "bytes_written", "first_ns", "last_ns",
            "last_was_write", "repeat_hits",
        ];
        edit_histograms(&mut v, &mut |h| {
            let mut pairs = Vec::new();
            for row in h.iter().find(|(k, _)| k == "blocks").unwrap().1.as_array().unwrap() {
                let (start, len) = (row[0].as_u64().unwrap(), row[1].as_u64().unwrap());
                let stats: Vec<(String, Value)> =
                    names.iter().zip(2..).map(|(n, i)| (n.to_string(), row[i].clone())).collect();
                for key in start..start + len {
                    pairs.push(Value::Array(vec![key.to_value(), Value::Object(stats.clone())]));
                }
            }
            set(h, "blocks", Value::Array(pairs));
        });
        let stamp = |v: &mut Value, manifest: u32, snapshot: u32| {
            let Value::Object(fields) = v else { panic!("manifest is an object") };
            set(fields, "version", manifest.to_value());
            if let Some((_, Value::Object(sim))) = fields.iter_mut().find(|(k, _)| k == "sim") {
                set(sim, "version", snapshot.to_value());
            }
        };
        assert!(matches!(
            CheckpointManifest::from_value(&v),
            Err(e) if e.0.contains("10 cells")
        ));

        stamp(&mut v, MANIFEST_VERSION - 1, SNAPSHOT_VERSION - 1);
        std::fs::write(&newest, serde_json::to_string(&v).unwrap()).unwrap();
        match load_manifest(&newest) {
            Err(CheckpointError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (MANIFEST_VERSION - 1, MANIFEST_VERSION));
            }
            other => panic!("expected VersionMismatch, got {:?}", other.map(|m| m.seq)),
        }

        stamp(&mut v, MANIFEST_VERSION, SNAPSHOT_VERSION - 1);
        std::fs::write(&newest, serde_json::to_string(&v).unwrap()).unwrap();
        match load_manifest(&newest) {
            Err(CheckpointError::Sim(SimError::Snapshot(msg))) => {
                let (old, now) = (SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION);
                assert_eq!(msg, format!("snapshot version {old} (this build expects {now})"));
            }
            other => panic!("expected a snapshot-version error, got {:?}", other.map(|m| m.seq)),
        }
        // Both are hard errors: tolerant loading does not skip past them.
        assert!(matches!(load_latest_tolerant(&dir), Err(CheckpointError::Sim(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_unknown_version() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-ver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("manifest-000000.json");
        std::fs::write(&p, "{\"version\": 999}").unwrap();
        match load_manifest(&p) {
            Err(CheckpointError::VersionMismatch { found: 999, expected }) => {
                assert_eq!(expected, MANIFEST_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
