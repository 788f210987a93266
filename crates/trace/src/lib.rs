//! # dfl-trace — scalable data-flow lifecycle measurement
//!
//! This crate implements the *distributed measurement* layer of DataLife
//! (paper §3). The original system interposes on POSIX/C I/O with
//! `LD_PRELOAD`; here the same observable event stream is produced by an
//! instrumented, POSIX-style I/O API that simulated (or real) tasks call
//! directly:
//!
//! * [`Monitor`] — the process-wide measurement session. Hands out
//!   [`TaskContext`]s and owns the [`collector`] that accumulates one
//!   constant-size record per *task-file pair*.
//! * [`TaskContext`] — per-task facade exposing `open`/`read`/`write`/
//!   `seek`/`close`. Each open handle is *shadowed* ([`handle`]) so that the
//!   byte addresses touched by offset-implicit operations are known.
//! * [`histogram`] — per task-file *block histogram* whose size is bounded by
//!   (a) adjustable access resolution (block size derived from file size) and
//!   (b) deterministic *spatial sampling* ([`sampling`]), making measurement
//!   space constant per data file.
//! * [`export`] — serializable [`export::MeasurementSet`],
//!   the input to DFL graph construction in `dfl-core`.
//!
//! ## Quick example
//!
//! ```
//! use dfl_trace::{Monitor, MonitorConfig, OpenMode, IoTiming};
//!
//! let monitor = Monitor::new(MonitorConfig::default());
//! let ctx = monitor.begin_task("producer", 0);
//! let fd = ctx.open("out.dat", OpenMode::Write, None, 0);
//! ctx.write(fd, 4096, IoTiming::new(10, 5)).unwrap();
//! ctx.close(fd, 100).unwrap();
//! ctx.finish(120);
//!
//! let set = monitor.snapshot();
//! assert_eq!(set.records.len(), 1);
//! assert_eq!(set.records[0].bytes_written, 4096);
//! ```

pub mod block;
pub mod collector;
pub mod error;
pub mod export;
pub mod handle;
pub mod hash;
pub mod histogram;
pub mod ids;
pub mod monitor;
pub mod sampling;
pub mod stats;
pub mod stream;

pub use block::BlockPolicy;
pub use error::TraceError;
pub use export::{MeasurementError, MeasurementSet, MEASUREMENT_VERSION};
pub use handle::{OpenMode, SeekFrom};
pub use ids::{FileId, TaskId};
pub use monitor::{IoTiming, Monitor, MonitorConfig, MonitorState, TaskContext, TaskSnapshot};
pub use sampling::SpatialSampler;
pub use stats::{FlowKind, TaskFileRecord, TaskRecord};
pub use stream::CStream;
