//! Serializable measurement output — the input to DFL graph construction.
//!
//! A [`MeasurementSet`] is the Rust analogue of the original artifact's
//! `tazer_stat` directory: every task's lifetime, every file's metadata, and
//! one bounded record per task-file pair.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use crate::stats::{FileRecord, TaskFileRecord, TaskRecord};

/// Measurement-file format version, written as the file's leading
/// `version` field and checked before the payload is decoded.
///
/// v1: unversioned; block histograms as one `[key, {stats}]` pair per
/// block. A file without a `version` field reports v1.
///
/// v2: histograms as run-length rows (see
/// [`BlockHistogram`](crate::histogram::BlockHistogram)).
pub const MEASUREMENT_VERSION: u32 = 2;

/// Why a measurement file could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasurementError {
    /// The text is not JSON, or does not decode as a measurement set.
    Parse(String),
    /// The file's format version is not [`MEASUREMENT_VERSION`].
    VersionMismatch { found: u32, expected: u32 },
}

impl fmt::Display for MeasurementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasurementError::Parse(e) => write!(f, "bad measurement JSON: {e}"),
            MeasurementError::VersionMismatch { found, expected } => {
                write!(f, "measurement format version {found} (this build reads {expected})")
            }
        }
    }
}

impl std::error::Error for MeasurementError {}

/// A complete snapshot of one measured workflow execution.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct MeasurementSet {
    pub tasks: Vec<TaskRecord>,
    pub files: Vec<FileRecord>,
    pub records: Vec<TaskFileRecord>,
}

impl MeasurementSet {
    /// Serializes to pretty JSON (the interchange format of the artifact),
    /// led by the [`MEASUREMENT_VERSION`] field.
    pub fn to_json(&self) -> serde_json::Result<String> {
        let mut v = self.to_value();
        if let Value::Object(fields) = &mut v {
            fields.insert(0, ("version".into(), MEASUREMENT_VERSION.to_value()));
        }
        serde_json::to_string_pretty(&v)
    }

    /// Parses a set written by [`MeasurementSet::to_json`]. The format
    /// version is checked on the raw JSON value before the payload is
    /// decoded, so a file from another format fails with
    /// [`MeasurementError::VersionMismatch`] rather than a decode error.
    pub fn parse(s: &str) -> Result<Self, MeasurementError> {
        let v: Value = serde_json::from_str(s).map_err(|e| MeasurementError::Parse(e.to_string()))?;
        if !matches!(v, Value::Object(_)) {
            return Err(MeasurementError::Parse("expected a JSON object".into()));
        }
        let found = match v.get("version") {
            None => 1,
            Some(n) => n
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| MeasurementError::Parse(format!("bad `version` {n:?}")))?,
        };
        if found != MEASUREMENT_VERSION {
            return Err(MeasurementError::VersionMismatch { found, expected: MEASUREMENT_VERSION });
        }
        Self::from_value(&v).map_err(|e| MeasurementError::Parse(e.0))
    }

    /// [`MeasurementSet::parse`] with the error flattened to a message.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        Self::parse(s).map_err(|e| serde::Error::msg(e.to_string()).into())
    }

    /// Merges another set into this one, offsetting ids so records from
    /// separate monitors (e.g. distributed collection, one monitor per node)
    /// do not collide. Files with the same path are unified.
    pub fn merge(&mut self, other: MeasurementSet) {
        use std::collections::HashMap;

        let task_offset = self
            .tasks
            .iter()
            .map(|t| t.task.0 + 1)
            .max()
            .unwrap_or(0);

        // Unify files by path.
        let mut path_to_id: HashMap<String, crate::ids::FileId> = self
            .files
            .iter()
            .map(|f| (f.path.clone(), f.file))
            .collect();
        let mut next_file = self.files.iter().map(|f| f.file.0 + 1).max().unwrap_or(0);
        let mut remap: HashMap<crate::ids::FileId, crate::ids::FileId> = HashMap::new();
        for f in &other.files {
            let id = *path_to_id.entry(f.path.clone()).or_insert_with(|| {
                let id = crate::ids::FileId(next_file);
                next_file += 1;
                self.files.push(FileRecord {
                    file: id,
                    path: f.path.clone(),
                    size: f.size,
                    block_size: f.block_size,
                });
                id
            });
            if let Some(existing) = self.files.iter_mut().find(|e| e.file == id) {
                existing.size = existing.size.max(f.size);
                existing.block_size = existing.block_size.max(f.block_size);
            }
            remap.insert(f.file, id);
        }

        for mut t in other.tasks {
            t.task.0 += task_offset;
            self.tasks.push(t);
        }
        for mut r in other.records {
            r.task.0 += task_offset;
            r.file = remap[&r.file];
            self.records.push(r);
        }
    }

    /// Total non-unique bytes moved (read + write) across all records.
    pub fn total_volume(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.bytes_read + r.bytes_written)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{IoTiming, Monitor, MonitorConfig};
    use crate::OpenMode;

    fn tiny_set(task: &str, path: &str) -> MeasurementSet {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task(task, 0);
        let fd = t.open(path, OpenMode::Write, None, 0);
        t.write(fd, 1000, IoTiming::new(0, 10)).unwrap();
        t.close(fd, 100).unwrap();
        t.finish(100);
        m.snapshot()
    }

    #[test]
    fn json_round_trip() {
        let set = tiny_set("a-1", "x.dat");
        let json = set.to_json().unwrap();
        let back = MeasurementSet::from_json(&json).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].bytes_written, 1000);
        assert_eq!(back.tasks[0].name, "a-1");
    }

    #[test]
    fn other_versions_are_refused_before_decoding() {
        let json = tiny_set("a-1", "x.dat").to_json().unwrap();
        let current = format!("\"version\": {MEASUREMENT_VERSION},");
        assert!(json.starts_with(&format!("{{\n  {current}")), "the version leads: {json}");
        // Unversioned (v1) and future files; neither payload is looked at.
        for (text, found) in [
            (json.replacen(&current, "", 1), 1),
            (json.replacen(&current, "\"version\": 9,", 1), 9),
            ("{\"records\": \"not a list\"}".to_owned(), 1),
        ] {
            let expected = MEASUREMENT_VERSION;
            assert_eq!(
                MeasurementSet::parse(&text).unwrap_err(),
                MeasurementError::VersionMismatch { found, expected }
            );
            let msg = MeasurementSet::from_json(&text).unwrap_err().to_string();
            let want = format!("version {found} (this build reads {expected})");
            assert!(msg.contains(&want), "{msg}");
        }
        for bad in ["[]", "{\"version\": \"2\"}", "not json"] {
            assert!(matches!(MeasurementSet::parse(bad), Err(MeasurementError::Parse(_))), "{bad}");
        }
    }

    #[test]
    fn merge_unifies_files_by_path() {
        let mut a = tiny_set("a-1", "shared.dat");
        let b = tiny_set("b-1", "shared.dat");
        a.merge(b);
        assert_eq!(a.files.len(), 1, "same path unified");
        assert_eq!(a.tasks.len(), 2);
        assert_eq!(a.records.len(), 2);
        assert_eq!(a.records[0].file, a.records[1].file);
        // Task ids must not collide.
        assert_ne!(a.records[0].task, a.records[1].task);
    }

    #[test]
    fn merge_keeps_distinct_paths_distinct() {
        let mut a = tiny_set("a-1", "one.dat");
        let b = tiny_set("b-1", "two.dat");
        a.merge(b);
        assert_eq!(a.files.len(), 2);
        assert_eq!(a.total_volume(), 2000);
    }
}
