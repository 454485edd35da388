//! The paper's applications (Theorems 1.1–1.5), each built on the
//! Theorem 2.6 framework.
//!
//! `maxis`, `wmaxis`, `mds`, `corrclust`, `ldd` and `mcm` share one shape:
//! run the framework at an ε′ the problem has already scaled (`scaled`),
//! let each leader solve its cluster in cluster order, and repair the cut
//! edges. Faults are a mode of that one body, not a second one: each app's
//! private body takes an `Option<Faults>`, and `run` sends a faulted run
//! through the framework's retry loop, the one
//! [`run_framework_resilient`](crate::recovery::run_framework_resilient)
//! takes. The body then reads the loop's report to finish what faults can break —
//! maxis, wmaxis and mcm complete greedily to maximality, ldd falls back
//! to MPX on a degraded run — while mds and corrclust need nothing more.
//! Both public entry points of an app, `approx_*` (or
//! `low_diameter_decomposition`) and its `*_resilient` twin, are one call
//! each into that body; maxis's body is wmaxis's at unit weights.
//!
//! `mwm` iterates the framework over working subgraphs and
//! `property_testing` runs it at the class's own density; neither has a
//! resilient mode.

use lcg_congest::{FaultPlan, Model, Network};
use lcg_graph::Graph;

use crate::framework::{self, FrameworkConfig, FrameworkOutcome};
use crate::recovery::{RecoveryPolicy, RecoveryReport};

pub mod corrclust;
pub mod ldd;
pub mod maxis;
pub mod mcm;
pub mod mds;
pub mod mwm;
pub mod property_testing;
pub mod wmaxis;

/// The fault schedule and retry budget of a resilient run.
#[derive(Clone, Copy)]
pub(crate) struct Faults<'a> {
    pub(crate) plan: &'a FaultPlan,
    pub(crate) policy: &'a RecoveryPolicy,
}

/// The framework configuration at an ε′ the app has already divided by
/// everything its guarantee needs. The framework decomposes at
/// `epsilon / density_bound`, so `density_bound: 1.0` passes ε′ through
/// as-is; the orientation's forest threshold is then t = 1 rather than the
/// class's own density (DESIGN §3 records this; ROADMAP item 5(b)).
pub(crate) fn scaled(eps_prime: f64, seed: u64) -> FrameworkConfig {
    FrameworkConfig {
        density_bound: 1.0,
        ..FrameworkConfig::planar(eps_prime, seed)
    }
}

/// Runs Theorem 2.6 on `g`: plainly without `faults`, else under
/// `faults.plan` through the retry loop, whose report is returned.
pub(crate) fn run(
    g: &Graph,
    cfg: FrameworkConfig,
    faults: Option<Faults<'_>>,
) -> (FrameworkOutcome, Option<RecoveryReport>) {
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(faults.map(|f| f.plan.clone()));
    framework::run(net, &cfg, faults.map(|f| f.policy))
}

/// A body's result under faults, with the report that is then always
/// there.
pub(crate) fn reported<T>((out, report): (T, Option<RecoveryReport>)) -> (T, RecoveryReport) {
    (out, report.expect("a run under faults has a recovery report"))
}
