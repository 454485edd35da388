//! # locongest
//!
//! A full reproduction of Chang & Su, *"Narrowing the LOCAL–CONGEST Gaps
//! in Sparse Networks via Expander Decompositions"* (PODC 2022): a
//! CONGEST/LOCAL network simulator, expander decompositions and routing,
//! the Theorem 2.6 framework, and distributed (1−ε)-approximation
//! algorithms for maximum (weighted) matching, maximum independent set,
//! correlation clustering, property testing, and low-diameter
//! decompositions on H-minor-free networks.
//!
//! This crate is an umbrella: it re-exports the workspace crates under
//! stable names. See the README for the architecture map and
//! EXPERIMENTS.md for the measured reproduction of every theorem.
//!
//! ```
//! use locongest::core::apps::property_testing::{test_property, TestedProperty};
//! use locongest::graph::gen;
//!
//! let mut rng = gen::seeded_rng(42);
//! let g = gen::random_planar(100, 0.5, &mut rng);
//! let verdict = test_property(&g, 0.1, TestedProperty::Planar, 7);
//! assert!(verdict.all_accept); // planar inputs always accept
//! ```

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub use lcg_congest as congest;
pub use lcg_core as core;
pub use lcg_expander as expander;
pub use lcg_graph as graph;
pub use lcg_metrics as metrics;
pub use lcg_solvers as solvers;
pub use lcg_trace as trace;
