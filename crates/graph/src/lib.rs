//! # lcg-graph — graph substrate
//!
//! Graph representation, sparse-class generators, planarity testing and
//! minor-closed reductions, and edge separators: every purely
//! graph-theoretic ingredient of Chang–Su, *"Narrowing the LOCAL–CONGEST
//! Gaps in Sparse Networks via Expander Decompositions"* (PODC 2022).
//!
//! The crate is deliberately free of any distributed-computing concepts;
//! the CONGEST simulator (`lcg-congest`) and the expander machinery
//! (`lcg-expander`) build on top of it. The exact minor search that
//! checks its planarity and treewidth verdicts lives in the independent
//! checker, `lcg-check`.
//!
//! ## Quick tour
//!
//! ```
//! use lcg_graph::{gen, planarity, reductions};
//!
//! let mut rng = gen::seeded_rng(1);
//! // a random maximal planar graph on 100 vertices
//! let g = gen::stacked_triangulation(100, &mut rng);
//! assert!(planarity::is_planar(&g));
//! assert_eq!(g.m(), 3 * 100 - 6);
//! // K5 is not planar; a series-parallel graph has treewidth at most 2
//! assert!(!planarity::is_planar(&gen::complete(5)));
//! assert!(reductions::treewidth_at_most_2(&gen::series_parallel(50, &mut rng)));
//! ```

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod gen;
mod graph;
pub mod io;
pub mod planarity;
pub mod reductions;
pub mod separator;

pub use graph::{Graph, GraphBuilder, Sign};
