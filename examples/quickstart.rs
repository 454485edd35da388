//! Quickstart: decompose a planar network, gather topologies to leaders,
//! and compute a (1−ε)-approximate maximum independent set — the whole
//! Theorem 2.6 → Theorem 1.2 pipeline in ~40 lines.
//!
//! Run with: `cargo run --example quickstart`

use locongest::core::apps::maxis::approx_maximum_independent_set;
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::gen;
use locongest::solvers::mis;

fn main() {
    let mut rng = gen::seeded_rng(42);
    let n = 400;
    let g = gen::random_planar(n, 0.5, &mut rng);
    println!("planar network: n = {}, m = {}", g.n(), g.m());

    // --- Theorem 2.6: the framework ---------------------------------
    let cfg = FrameworkConfig::planar(0.3, 7);
    let fw = run_framework(&g, &cfg);
    println!(
        "decomposition: {} clusters, {} inter-cluster edges ({:.1}% of m)",
        fw.clusters.len(),
        fw.cut_edges(),
        100.0 * fw.cut_edges() as f64 / g.m() as f64
    );
    let biggest = fw.clusters.iter().map(|c| c.mapping.len()).max().unwrap();
    println!(
        "largest cluster: {biggest} vertices; every leader gathered its \
         cluster topology via Lemma 2.4 random-walk routing"
    );
    println!(
        "measured CONGEST cost: {} (election {} + orientation {} + gather {} + broadcast {})",
        fw.stats,
        fw.phases.election,
        fw.phases.orientation,
        fw.phases.gathering,
        fw.phases.broadcast
    );

    // --- Theorem 1.2: (1−ε)-approximate MAXIS ------------------------
    let eps = 0.3;
    let out = approx_maximum_independent_set(&g, eps, 3.0, 7, 50_000_000);
    assert!(mis::is_independent_set(&g, &out.set));
    println!(
        "\n(1−ε)-MAXIS with ε = {eps}: found independent set of size {}",
        out.set.len()
    );
    println!(
        "conflicts dropped on cut edges: {} (≤ {} cut edges)",
        out.removed_conflicts,
        out.framework.cut_edges()
    );

    // compare against the exact sequential optimum
    let opt = mis::maximum_independent_set(&g, 500_000_000);
    if opt.optimal {
        println!(
            "exact α(G) = {}  →  measured ratio {:.4} (guarantee: ≥ {:.2})",
            opt.set.len(),
            out.set.len() as f64 / opt.set.len() as f64,
            1.0 - eps
        );
    }
}
