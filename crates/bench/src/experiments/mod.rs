//! One module per experiment (see DESIGN.md §5 and EXPERIMENTS.md).

pub mod e01_decomposition;
pub mod e02_high_degree;
pub mod e03_routing;
pub mod e04_maxis;
pub mod e05_mcm;
pub mod e06_mwm;
pub mod e07_corrclust;
pub mod e08_property;
pub mod e09_ldd;
pub mod e10_separator;
pub mod e11_hypercube;
pub mod e12_gap;
pub mod e13_extensions;
pub mod e14_phi_ablation;
pub mod e15_routing_ablation;
pub mod e16_kernel_ablation;
pub mod e17_message_faithful;
pub mod e18_scaling;
pub mod e19_parallel;
pub mod e20_chaos;
pub mod e24_checkpoint;
pub mod e25_scale;
mod e26_unit_cost;

use crate::{Opts, Table};

/// An experiment entry point: the parsed command line in, tables out.
pub type Experiment = fn(&Opts) -> Vec<Table>;

/// All experiment entry points, by id.
pub fn all() -> Vec<(&'static str, Experiment)> {
    vec![
        ("e1", e01_decomposition::run),
        ("e2", e02_high_degree::run),
        ("e3", e03_routing::run),
        ("e4", e04_maxis::run),
        ("e5", e05_mcm::run),
        ("e6", e06_mwm::run),
        ("e7", e07_corrclust::run),
        ("e8", e08_property::run),
        ("e9", e09_ldd::run),
        ("e10", e10_separator::run),
        ("e11", e11_hypercube::run),
        ("e12", e12_gap::run),
        ("e13", e13_extensions::run),
        ("e14", e14_phi_ablation::run),
        ("e15", e15_routing_ablation::run),
        ("e16", e16_kernel_ablation::run),
        ("e17", e17_message_faithful::run),
        ("e18", e18_scaling::run),
        ("e19", e19_parallel::run),
        ("e20", e20_chaos::run),
        ("e24", e24_checkpoint::run),
        ("e25", e25_scale::run),
        ("e26", e26_unit_cost::run),
    ]
}
