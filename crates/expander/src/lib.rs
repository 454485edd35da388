//! # lcg-expander — conductance, walks, decompositions, routing
//!
//! Everything in §2 of Chang–Su (PODC 2022): conductance and its exact /
//! spectral / sweep estimation, lazy random walks and mixing times, the
//! (ε, φ) expander decomposition, the Lemma 2.4 random-walk routing and
//! its deterministic counterpart, and a round-faithful distributed
//! clustering running in the `lcg-congest` simulator.
//!
//! ## Example: decompose and route
//!
//! ```
//! use lcg_congest::ExecConfig;
//! use lcg_graph::gen;
//! use lcg_expander::{decomp, routing};
//!
//! let mut rng = gen::seeded_rng(9);
//! let g = gen::stacked_triangulation(150, &mut rng);
//! let d = decomp::decompose(&g, 0.25, decomp::Threshold::WorstCase, ExecConfig::sequential());
//! d.validate(&g).unwrap();
//! assert!(d.cut_fraction(&g) <= 0.25);
//!
//! // route every vertex's message to a leader inside the largest cluster
//! let big = d.clusters.iter().max_by_key(|c| c.members.len()).unwrap();
//! let leader = *big
//!     .members
//!     .iter()
//!     .max_by_key(|&&v| g.degree(v))
//!     .unwrap();
//! let ones = vec![1; big.members.len()];
//! let (out, _) = routing::charged_walk_routing(&g, &big.members, leader, &ones, 200_000, &mut rng, None, false);
//! assert!(out.complete());
//! ```

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod conductance;
pub mod decomp;
pub mod distributed;
pub mod routing;
pub mod spectral;
pub mod sweep;
pub mod walks;
