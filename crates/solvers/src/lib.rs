//! # lcg-solvers — the cluster leaders' sequential algorithms
//!
//! Theorem 2.6 ends with a leader `v_i*` that knows its cluster's whole
//! topology and may run "any sequential algorithm" on it. This crate is
//! that toolbox:
//!
//! * [`mis`] — exact maximum independent set (branch-and-bound) and the
//!   `n/(2d+1)` greedy of §3.1 (Theorem 1.2);
//! * [`treedp`] — tree decompositions, the DPs on them, and the
//!   dispatchers leaders call: tree DP, then a DP over a vertex order
//!   (frontier states), then branch-and-bound;
//! * [`matching`] — Edmonds' blossom maximum cardinality matching
//!   (Theorem 3.2);
//! * [`mwm`] — Galil / van-Rantwijk maximum *weight* matching, plus the
//!   greedy 1/2-approximation baseline (Theorem 1.1);
//! * [`star_elim`] — the 2-star / 3-double-star elimination of §3.2
//!   (Lemma 3.1 preprocessing);
//! * [`corrclust`] — agreement-maximization correlation clustering: exact
//!   branch-and-bound, local search, and the |E|/2 trivial witness
//!   (Theorem 1.3);
//! * [`ldd`] — sequential low-diameter decompositions: KPR-style
//!   `O(1/ε)`-diameter chopping for minor-free graphs, a weighted variant,
//!   and exponential-shift ball growing as the general-graph baseline
//!   (Theorem 1.5);
//! * [`mds`] — exact minimum dominating set (extension: bounded-degree
//!   planar (1+ε)-MDS, following the LOCAL-model line the paper cites);
//! * [`wmis`] — exact vertex-weighted maximum independent set (extension:
//!   weighted MAXIS).
//!
//! Everything is exact where exactness is tractable, and every
//! approximate fallback reports itself (`optimal: false`), so the
//! experiment harness never silently confuses heuristic and optimal
//! values.

pub mod corrclust;
mod frontier;
pub mod ldd;
pub mod matching;
pub mod mds;
pub mod mis;
pub mod mwm;
pub mod star_elim;
pub mod treedp;
pub mod wmis;
