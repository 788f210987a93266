//! # dfl-iosim — a deterministic discrete-event cluster simulator
//!
//! The execution substrate standing in for the paper's physical testbeds
//! (Table 2): compute nodes with cores, storage tiers (NFS, Lustre/BeeGFS
//! parallel filesystems, node-local SSD and RAM-disk, a WAN-attached data
//! server), a fair-share bandwidth contention model, a TAZeR-style
//! multi-level cache (Table 4), and a trace-replay emulator in the spirit of
//! BigFlowSim (Table 3 scenarios).
//!
//! Workflow tasks are *jobs*: sequences of compute and I/O actions executed
//! on simulated cores. Every I/O action is also reported to an optional
//! [`dfl_trace::Monitor`], so DFL measurement rides along with execution —
//! exactly as the original `LD_PRELOAD` collector rides along with real
//! workflows.
//!
//! ```
//! use dfl_iosim::cluster::ClusterSpec;
//! use dfl_iosim::sim::{Action, JobSpec, SimConfig, Simulation};
//! use dfl_iosim::storage::TierRef;
//!
//! let cluster = ClusterSpec::cpu_cluster(2);
//! let mut sim = Simulation::new(cluster, SimConfig::default());
//! sim.fs_mut().create_external("in.dat", 1 << 20, TierRef::shared(dfl_iosim::storage::TierKind::Nfs));
//! let job = sim.submit(JobSpec::new("reader", 0).action(Action::read_file("in.dat")));
//! sim.run();
//! assert!(sim.job_report(job).unwrap().end_ns > 0);
//! ```

pub mod breakdown;
pub mod cache;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod flow;
pub mod fs;
pub mod obs;
pub mod replay;
pub mod sim;
pub mod storage;
pub mod time;

pub use cluster::ClusterSpec;
pub use error::SimError;
pub use fault::{ChaosKind, FailureCause, FailureReport, FaultPlan, JobFailure};
pub use obs::{SimObs, SimObsState};
pub use sim::{
    Action, JobId, JobSpec, RunOutcome, SimConfig, SimSnapshot, Simulation, SNAPSHOT_VERSION,
};
pub use storage::{TierKind, TierRef};
pub use time::SimTime;
