//! The COMPASS **backend simulation process**.
//!
//! The backend owns the global event scheduler, the architecture models,
//! the category-2 OS models (process scheduling, virtual-memory
//! management, blocking-call bookkeeping — §3.3) and the physical devices
//! (§3.4). It consumes timed events from the frontend event ports in
//! global `(time, pid)` order and replies with latencies.
//!
//! Modules:
//!
//! * [`config`] — backend configuration (engine mode, scheduler policy,
//!   page placement, device parameters);
//! * [`sched`] — the process scheduler: FCFS, affinity and pre-emptive
//!   variants (§3.3.2);
//! * [`vm`] — virtual-memory management: per-process page tables, demand
//!   paging, shm attach, home-node placement, software-DSM page coherence
//!   (§3.3.1);
//! * [`locks`] — backend-arbitrated simulated locks and barriers, which
//!   make frontend critical sections deterministic;
//! * [`devices`] — disk, Ethernet (with a pluggable
//!   [`devices::TrafficSource`] for the SPECWeb-style trace player),
//!   real-time clock and interval timer;
//! * [`tasks`] — the timestamped task queue ("global event scheduler", §2);
//! * [`trace`] — memory-access trace recording at the engine/architecture
//!   boundary, replayed by the `simcheck` reference oracle;
//! * [`stats`] — per-process and global time-attribution counters (the
//!   data behind Table 1);
//! * [`engine`] — the scan/take/simulate/reply loop with the
//!   least-execution-time pickup rule and its serialized ("uniprocessor
//!   host") and pipelined ("SMP host") modes.

#![forbid(unsafe_code)]

pub mod ckpt;
pub mod config;
pub mod devices;
pub mod engine;
pub mod error;
pub mod locks;
pub mod sched;
pub mod stats;
pub mod tasks;
pub mod trace;
pub mod vm;

pub use ckpt::{ArchRecord, CheckpointData, CKPT_VERSION};
pub use config::{BackendConfig, EngineMode, SchedPolicy};
pub use devices::{DiskParams, NetParams, TrafficSource};
pub use engine::{Backend, SimOutcome};
pub use error::{DeadlockKind, DeadlockReport, ProcDump, RunError, WildAccessReport};
pub use stats::{BackendStats, ProcTimes};
pub use trace::{TraceRecord, TraceSink};
pub use vm::{VmFault, VmFaultKind};
