//! **E3** — Lemma 2.4 routing: all-to-leader delivery on high-conductance
//! planar clusters in `O(φ⁻⁴ log³ n)` rounds with `O(log n)` per-edge
//! congestion per step; plus the deterministic tree-routing counterpart
//! (Lemma 2.5 substitute) with its congestion + dilation cost.

use lcg_expander::{routing, spectral};
use lcg_graph::gen;

use crate::workloads::wheel;
use crate::{cells, Opts, Table};

/// Runs E3.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let sizes: &[usize] = scale.pick(&[64, 256][..], &[64, 256, 1024, 4096][..]);
    let mut t = Table::new(
        "E3",
        "Lemma 2.4 random-walk routing on planar expanders (wheels): rounds scale polylog, congestion stays O(log n)",
        &[
            "n", "phi (λ2/2)", "steps", "rounds", "max edge load", "log2(n)",
            "rounds / (φ⁻⁴·log³n)", "det rounds (c+d)",
        ],
    );
    let mut rng = gen::seeded_rng(0xE3);
    for &n in sizes {
        let g = wheel(n);
        let members: Vec<usize> = (0..n).collect();
        let leader = n - 1; // the hub (max degree, as the framework elects)
        let spec = spectral::lambda2(&g, 1e-8, 5_000);
        let phi = spec.conductance_lower_bound().max(1e-6);
        let out = routing::random_walk_routing(&g, &members, leader, 10_000_000, &mut rng);
        assert!(out.complete(), "routing failed on wheel {n}");
        let logn = (n as f64).log2();
        let bound = logn.powi(3) / phi.powi(4);
        let det = routing::tree_routing(&g, &members, leader);
        t.row(cells!(
            n,
            format!("{phi:.3}"),
            out.steps,
            out.rounds,
            out.max_edge_load,
            format!("{logn:.1}"),
            format!("{:.2e}", out.rounds as f64 / bound),
            det.rounds
        ));
    }

    // second table: routing inside actual decomposition clusters of a
    // maximal planar graph (the framework's real workload)
    let mut t2 = Table::new(
        "E3b",
        "routing inside real decomposition clusters (largest cluster per instance)",
        &["n", "cluster |V|", "phi est", "steps", "rounds", "max edge load"],
    );
    for &n in scale.pick(&[256][..], &[256, 1024][..]) {
        let g = gen::stacked_triangulation(n, &mut rng);
        let d = lcg_expander::decomp::decompose_adaptive(&g, 0.1);
        let c = d.clusters.iter().max_by_key(|c| c.members.len()).unwrap();
        let leader = *c
            .members
            .iter()
            .max_by_key(|&&v| {
                g.neighbor_vertices(v)
                    .filter(|&u| d.cluster_of[u] == d.cluster_of[v])
                    .count()
            })
            .unwrap();
        let out = routing::random_walk_routing(&g, &c.members, leader, 10_000_000, &mut rng);
        t2.row(cells!(
            n,
            c.members.len(),
            format!("{:.4}", c.phi()),
            out.steps,
            out.rounds,
            out.max_edge_load
        ));
    }
    vec![t, t2]
}
