//! Simulator error type.

use std::fmt;

/// One stuck job in a [`SimError::Deadlock`] report: its identity and the
/// things it is waiting on (unfinished dependencies, lost/missing files).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckJob {
    pub job: u32,
    pub name: String,
    pub node: u32,
    /// Job state label at deadlock time ("waiting-deps", "queued", ...).
    pub state: &'static str,
    /// Human-readable blockers: `dep <name>` for unfinished dependencies,
    /// `lost file <path>` / `missing file <path>` for unreadable inputs.
    pub waiting_on: Vec<String>,
}

impl fmt::Display for StuckJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} '{}' on node {} ({})", self.job, self.name, self.node, self.state)?;
        if !self.waiting_on.is_empty() {
            write!(f, " waiting on: {}", self.waiting_on.join(", "))?;
        }
        Ok(())
    }
}

/// Errors surfaced by simulation setup and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A job referenced a file that does not exist in the namespace.
    NoSuchFile(String),
    /// A job was placed on a node index outside the cluster.
    BadNode(u32),
    /// The requested tier is not available on this cluster.
    NoSuchTier(String),
    /// A job id that was never submitted.
    BadJob(u32),
    /// A job tried to open/read a file that was never created.
    MissingFile { file: String, job: String },
    /// A task kept failing after exhausting its retry budget.
    RetriesExhausted { job: String, attempts: u32 },
    /// The simulation deadlocked: jobs remain but none can make progress
    /// (a dependency cycle, or producers lost to faults and never re-run).
    Deadlock { pending: usize, stuck: Vec<StuckJob> },
    /// Flow-accounting invariant broken: a job finished or failed holding a
    /// flow key the byte tracker never saw (previously a panic path).
    UntrackedFlow { job: u32, key: u64 },
    /// A chaos plan killed the coordinator before dispatch `at_event`; the
    /// run can be resumed from its latest checkpoint manifest.
    CoordinatorCrash { at_event: u64 },
    /// A snapshot could not be restored (shape mismatch, decode failure, or
    /// a queued event naming a job, crash, or capacity change it lacks).
    Snapshot(String),
    /// An internal event referenced state that does not exist — the event
    /// machine's invariants were broken, e.g. by a hand-edited snapshot
    /// (previously a panic path).
    CorruptState(&'static str),
    /// Verification detected corrupt data that recovery cannot repair:
    /// the tainted file has no producer task to re-run (an external input
    /// was corrupted, or lineage was exhausted).
    IntegrityViolation { file: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            SimError::BadNode(n) => write!(f, "node {n} does not exist"),
            SimError::NoSuchTier(t) => write!(f, "tier {t} not available on this cluster"),
            SimError::BadJob(j) => write!(f, "job {j} was never submitted"),
            SimError::MissingFile { file, job } => {
                write!(f, "job '{job}' opened nonexistent file {file} for reading")
            }
            SimError::RetriesExhausted { job, attempts } => {
                write!(f, "job '{job}' still failing after {attempts} attempts")
            }
            SimError::Deadlock { pending, stuck } => {
                write!(f, "simulation deadlocked with {pending} jobs pending")?;
                for s in stuck {
                    write!(f, "\n  {s}")?;
                }
                Ok(())
            }
            SimError::UntrackedFlow { job, key } => {
                write!(f, "job {job} holds flow {key} with no tracked byte count")
            }
            SimError::CoordinatorCrash { at_event } => {
                write!(f, "chaos: coordinator killed before dispatch {at_event}")
            }
            SimError::Snapshot(msg) => write!(f, "snapshot restore failed: {msg}"),
            SimError::CorruptState(what) => write!(f, "corrupt simulator state: {what}"),
            SimError::IntegrityViolation { file } => {
                write!(f, "integrity violation: {file} corrupt with no producer to re-run")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(SimError::NoSuchFile("x".into()).to_string(), "no such file: x");
        assert!(
            SimError::Deadlock { pending: 3, stuck: vec![] }.to_string().contains("3 jobs")
        );
        let e = SimError::MissingFile { file: "a/b".into(), job: "t0".into() };
        assert!(e.to_string().contains("a/b") && e.to_string().contains("t0"));
        let e = SimError::RetriesExhausted { job: "t1".into(), attempts: 4 };
        assert!(e.to_string().contains("4 attempts"));
    }

    #[test]
    fn deadlock_names_stuck_jobs() {
        let e = SimError::Deadlock {
            pending: 2,
            stuck: vec![StuckJob {
                job: 5,
                name: "merge".into(),
                node: 1,
                state: "waiting-deps",
                waiting_on: vec!["dep align~r1".into(), "lost file /shm/x".into()],
            }],
        };
        let text = e.to_string();
        assert!(text.contains("job 5 'merge' on node 1 (waiting-deps)"), "{text}");
        assert!(text.contains("dep align~r1") && text.contains("lost file /shm/x"), "{text}");
    }
}
