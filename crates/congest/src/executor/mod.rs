//! The round executor: configuration, chunk scheduling, and the
//! persistent worker pool.
//!
//! Split in two layers:
//!
//! * [`config`] — [`ExecConfig`]: thread count, the adaptive sequential
//!   fallback ([`ExecConfig::par_chunks`]), and the balanced contiguous
//!   chunk partition every deterministic merge relies on;
//! * [`pool`] — [`pool::run_batch`]: batch-scoped persistent workers,
//!   parked on rendezvous lanes between rounds, with panic propagation
//!   that poisons the pool cleanly instead of deadlocking it.
//!
//! The engine (`Network`) composes the two: `par_chunks` decides *whether*
//! a section parallelizes and how it is partitioned; `run_batch` executes
//! multi-round sections on long-lived workers. See DESIGN §10.3 for the
//! lifecycle, barrier protocol, and determinism argument.

pub mod audit;
pub mod config;
pub mod pool;

pub(crate) use config::chunk_of;
pub use audit::AuditMode;
pub use config::{ExecConfig, DEFAULT_WORK_THRESHOLD};
