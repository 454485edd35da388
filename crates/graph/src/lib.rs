//! # lcg-graph — graph substrate
//!
//! Graph representation, sparse-class generators, planarity and minor
//! testing, and edge separators: every purely graph-theoretic ingredient of Chang–Su, *"Narrowing the LOCAL–CONGEST
//! Gaps in Sparse Networks via Expander Decompositions"* (PODC 2022).
//!
//! The crate is deliberately free of any distributed-computing concepts;
//! the CONGEST simulator (`lcg-congest`) and the expander machinery
//! (`lcg-expander`) build on top of it.
//!
//! ## Quick tour
//!
//! ```
//! use lcg_graph::{gen, planarity, minor};
//!
//! let mut rng = gen::seeded_rng(1);
//! // a random maximal planar graph on 100 vertices
//! let g = gen::stacked_triangulation(100, &mut rng);
//! assert!(planarity::is_planar(&g));
//! assert_eq!(g.m(), 3 * 100 - 6);
//! // exact minor search is for small graphs: planar excludes K5
//! let small = gen::triangulated_grid(3, 3);
//! assert_eq!(
//!     minor::has_clique_minor(&small, 5, 1_000_000),
//!     minor::MinorResult::Free,
//! );
//! ```

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod gen;
mod graph;
pub mod io;
pub mod minor;
pub mod planarity;
pub mod reductions;
pub mod separator;

pub use graph::{Graph, GraphBuilder, Sign};
