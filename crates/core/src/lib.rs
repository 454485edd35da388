//! # lcg-core — the paper's contribution
//!
//! The Theorem 2.6 framework (expander decomposition → max-degree leader →
//! low-out-degree orientation → Lemma 2.4 topology gathering → local
//! computation → broadcast) and every application the paper builds on it:
//!
//! | Module | Paper result |
//! |---|---|
//! | [`framework`] | Theorem 2.6 |
//! | [`recovery`] | §2.3 detection and reaction: detect failed executions, retry under faults, degrade, never panic |
//! | [`apps::maxis`] | Theorem 1.2 — (1−ε)-MAXIS |
//! | [`apps::mcm`] | Theorem 3.2 — planar (1−ε)-MCM |
//! | [`apps::mwm`] | Theorem 1.1 — (1−ε)-MWM |
//! | [`apps::corrclust`] | Theorem 1.3 — (1−ε) correlation clustering |
//! | [`apps::property_testing`] | Theorem 1.4 — minor-closed property testing |
//! | [`apps::ldd`] | Theorem 1.5 — LDD with D = O(1/ε) |
//! | [`baselines`] | Luby MIS & greedy matching comparison points |
//!
//! ## Example
//!
//! ```
//! use lcg_core::apps::maxis::approx_maximum_independent_set;
//! use lcg_graph::gen;
//!
//! let mut rng = gen::seeded_rng(1);
//! let g = gen::random_planar(120, 0.5, &mut rng);
//! let out = approx_maximum_independent_set(&g, 0.3, 3.0, 7, 10_000_000);
//! assert!(lcg_solvers::mis::is_independent_set(&g, &out.set));
//! // real CONGEST rounds were spent:
//! assert!(out.stats.rounds > 0);
//! ```

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod apps;
pub mod baselines;
pub mod framework;
pub mod recovery;
