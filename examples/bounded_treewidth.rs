//! Bounded-treewidth scenario: scheduling on series-parallel /
//! treewidth-bounded infrastructure networks.
//!
//! Bounded-treewidth graphs are the third family the paper names
//! (alongside planar and bounded-genus). This example shows what the
//! framework gains there: the leaders of MAXIS and of the dominating-set
//! extension swap branch-and-bound for **tree-decomposition dynamic
//! programming** on thin clusters, solving exactly at sizes far beyond
//! search — here on a 1,500-vertex partial 3-tree. Weighted MAXIS runs
//! the same pipeline with the vertex weights, so its leaders take the
//! same DP, and the whole example finishes in well under a second.
//!
//! Run with: `cargo run --release --example bounded_treewidth`

use locongest::core::apps::{maxis, mds, property_testing, wmaxis};
use locongest::graph::gen;
use locongest::solvers::treedp;
use rand::Rng;

fn main() {
    let mut rng = gen::seeded_rng(2026);
    let g = gen::partial_ktree(1500, 3, 0.5, &mut rng);
    println!(
        "partial 3-tree: n = {}, m = {}, degeneracy = {}",
        g.n(),
        g.m(),
        g.degeneracy_ordering().1
    );

    // exact MIS on the WHOLE graph by tree DP (a reference B&B could not
    // certify this size quickly)
    let td = treedp::min_degree_decomposition(&g, 8).expect("bounded width");
    println!("tree decomposition width: {}", td.width);
    let (alpha, _) = treedp::mis_on_tree_decomposition(&g, &td);
    println!("exact α(G) by tree DP: {alpha}");

    // Theorem 1.2 through the framework — leaders dispatch to the DP
    let eps = 0.2;
    let out = maxis::approx_maximum_independent_set(&g, eps, 3.0, 7, 10_000_000);
    println!(
        "(1−ε)-MAXIS (ε = {eps}): {} vs α = {alpha} → ratio {:.4} | rounds {} | clusters exact: {}",
        out.set.len(),
        out.set.len() as f64 / alpha as f64,
        out.stats.rounds,
        out.all_clusters_optimal,
    );
    assert!(out.set.len() as f64 >= (1.0 - eps) * alpha as f64);

    // weighted variant — leaders dispatch to the same DP, with weights
    let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(1..=100)).collect();
    let wout = wmaxis::approx_maximum_weight_independent_set(&g, &w, eps, 3.0, 7, 10_000_000);
    let (opt_w, _) = treedp::mwis_on_tree_decomposition(&g, &td, &w);
    println!(
        "weighted MAXIS: {} vs exact {} → ratio {:.4} (conflict weight lost: {})",
        wout.weight,
        opt_w,
        wout.weight as f64 / opt_w as f64,
        wout.conflict_weight_lost,
    );

    // dominating-set extension, exact reference again by DP
    let (gamma, _) = treedp::mds_on_tree_decomposition(&g, &td);
    let dout = mds::approx_minimum_dominating_set(&g, 0.5, 7, 10_000_000);
    println!(
        "(1+ε)-MDS: {} vs γ = {gamma} → ratio {:.4}",
        dout.set.len(),
        dout.set.len() as f64 / gamma as f64,
    );

    // and the class membership test itself (treewidth ≤ 2 fails on a
    // 3-tree, succeeds on a series-parallel overlay)
    let sp = gen::series_parallel(500, &mut rng);
    let v1 = property_testing::test_property(
        &sp,
        0.1,
        property_testing::TestedProperty::TreewidthAtMost2,
        1,
    );
    let v2 = property_testing::test_property(
        &g,
        0.1,
        property_testing::TestedProperty::TreewidthAtMost2,
        1,
    );
    println!(
        "\nproperty tester: series-parallel → {}, 3-tree → {} (3-trees contain K4 minors)",
        if v1.all_accept { "ACCEPT" } else { "REJECT" },
        if v2.all_accept { "ACCEPT" } else { "REJECT" },
    );
}
