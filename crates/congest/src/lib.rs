//! # lcg-congest — a round-synchronous CONGEST/LOCAL simulator
//!
//! The execution substrate for every distributed algorithm in this
//! reproduction of Chang–Su (PODC 2022). A [`Network`] runs synchronous
//! rounds over a graph under a [`Model`]:
//!
//! * `Model::Congest { words_per_edge }` enforces the CONGEST bandwidth
//!   bound — any algorithm that tries to push more than `O(log n)` bits
//!   over an edge in a round **panics**, so passing tests certify the
//!   algorithms really are CONGEST algorithms;
//! * `Model::Local` lifts the bound but still records message sizes, which
//!   is how Experiment E12 measures the LOCAL–CONGEST gap of the naive
//!   topology-gathering approach.
//!
//! [`primitives`] contains the paper's building blocks (max-flood leader
//! election, the §2.3 diameter check, and the distributed Barenboim–Elkin
//! H-partition), all written with real 1–2 word messages as closures over
//! [`Network`]'s round forms — the one way a protocol is written here.
//!
//! ## Example
//!
//! ```
//! use lcg_congest::{Model, Network, primitives};
//! use lcg_graph::gen;
//!
//! let g = gen::grid(8, 8);
//! let mut net = Network::new(&g, Model::congest());
//! // elect the max-degree vertex within 20 hops (leader election of Thm 2.6)
//! let deg: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
//! let best = primitives::max_flood(&mut net, &deg, 20, primitives::Scope::Global);
//! assert!(best.iter().all(|&b| b == best[0])); // everyone agrees
//! assert!(net.stats().max_words_edge_round <= 2); // CONGEST respected
//! ```

pub mod executor;
pub mod faults;
mod model;
pub mod msg;
mod network;
pub mod primitives;
pub mod snapshot;
pub mod stats;

pub use executor::{AuditMode, ExecConfig};
pub use faults::{FaultPlan, LinkFailure, NodeCrash};
pub use model::Model;
pub use msg::{Msg, INLINE_WORDS};
pub use network::{ChunkCounters, Inbox, Message, Network, Outbox};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotState, SnapshotWriter};
pub use stats::RoundStats;
