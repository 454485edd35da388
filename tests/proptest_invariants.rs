//! Property-based tests (proptest) for the core invariants, across
//! randomly generated graphs.

use proptest::prelude::*;

use lcg_check::{minor, star, Adjacency};
use locongest::congest::ExecConfig;
use locongest::core::apps::property_testing::TestedProperty;
use locongest::expander::decomp::{self, Threshold};
use locongest::expander::{conductance, routing, spectral, sweep};
use locongest::graph::{gen, planarity, Graph, GraphBuilder};
use locongest::solvers::{corrclust, ldd, matching, mis, mwm, star_elim};

/// `g` as the independent checker's graph type.
fn adj(g: &Graph) -> Adjacency {
    Adjacency::new(g.n(), g.edges().map(|(_, u, v)| (u, v)))
}

/// Theorem 1.4's properties, each with the forbidden minors its doc names.
fn forbidden_minors() -> [(TestedProperty, Vec<Adjacency>); 4] {
    let k = |t| adj(&gen::complete(t));
    let k_bip = |a, b| adj(&gen::complete_bipartite(a, b));
    [
        (TestedProperty::Planar, vec![k(5), k_bip(3, 3)]),
        (TestedProperty::Outerplanar, vec![k(4), k_bip(2, 3)]),
        (TestedProperty::Forest, vec![k(3)]),
        (TestedProperty::TreewidthAtMost2, vec![k(4)]),
    ]
}

/// Every property's `holds(g)` is "no forbidden minor" by the exact
/// search, wherever the search finishes within its budget.
fn verdicts_agree_with_forbidden_minors(g: &Graph) -> Result<(), TestCaseError> {
    let host = adj(g);
    for (property, minors) in forbidden_minors() {
        let found: Option<Vec<bool>> =
            minors.iter().map(|h| minor::has_minor(&host, h, 50_000_000).decided()).collect();
        if let Some(found) = found {
            prop_assert_eq!(property.holds(g), !found.contains(&true), "{:?} on {:?}: minors found {:?}", property, g, found);
        }
    }
    Ok(())
}

proptest! {
    // About 1 in 30 of these graphs separates two of the properties (has
    // a K₂,₃ minor but no K₄): 600 cases meet several.
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn property_verdicts_agree_with_forbidden_minors(g in small_graph(9, 0.6)) {
        verdicts_agree_with_forbidden_minors(&g)?;
    }
}

/// Sparse inputs near the treewidth-2 boundary: twenty `gnm(10, 13)`
/// graphs, seeded.
#[test]
fn property_verdicts_agree_with_forbidden_minors_on_sparse_gnm() {
    let mut rng = gen::seeded_rng(413);
    for _ in 0..20 {
        verdicts_agree_with_forbidden_minors(&gen::gnm(10, 13, &mut rng)).unwrap();
    }
}

/// Strategy: a random simple graph with `n ≤ max_n` vertices.
fn small_graph(max_n: usize, density: f64) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64 * density) as usize).min(max_m);
        proptest::collection::vec((0..n, 0..n), 0..=m.max(1)).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

/// Strategy: a random connected planar graph via seeded generators.
fn planar_graph() -> impl Strategy<Value = Graph> {
    (10usize..80, any::<u64>(), 0.3f64..1.0).prop_map(|(n, seed, keep)| {
        let mut rng = gen::seeded_rng(seed);
        gen::random_planar(n, keep, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn decomposition_invariants(g in planar_graph(), eps in 0.05f64..0.5) {
        let d = decomp::decompose(&g, eps, Threshold::WorstCase, ExecConfig::sequential());
        prop_assert!(d.validate(&g).is_ok());
        prop_assert!(d.cut_fraction(&g) <= eps + 1e-9);
    }

    #[test]
    fn sweep_cut_conductance_consistent(g in planar_graph()) {
        let spec = spectral::lambda2(&g, 1e-9, 5_000);
        if let Some(cut) = sweep::sweep_cut(&g, &spec.sweep_values(&g)) {
            let phi = conductance::cut_conductance(&g, &cut.in_s);
            prop_assert!((phi - cut.conductance).abs() < 1e-9);
            prop_assert!(cut.cut_edges == conductance::boundary_size(&g, &cut.in_s));
        }
    }

    #[test]
    fn routing_delivers_everything(seed in any::<u64>(), n in 5usize..40) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::stacked_triangulation(n, &mut rng);
        let members: Vec<usize> = (0..n).collect();
        let leader = (0..n).max_by_key(|&v| g.degree(v)).unwrap();
        let ones = vec![1; members.len()];
        let out = routing::charged_walk_routing(&g, &members, leader, &ones, 1_000_000, &mut rng, None, false).0;
        prop_assert!(out.complete());
        prop_assert_eq!(out.total, n);
        let det = routing::tree_routing(&g, &members, leader);
        prop_assert!(det.complete());
    }

    #[test]
    fn matching_solvers_agree(g in small_graph(9, 0.5)) {
        // MCM blossom == MWM blossom with unit weights == brute force
        let mcm = matching::maximum_matching(&g);
        prop_assert!(mcm.is_valid(&g));
        let mate = mwm::maximum_weight_matching(&g);
        prop_assert!(mwm::is_valid_matching(&g, &mate));
        prop_assert_eq!(mcm.size() as u64, mwm::matching_weight(&g, &mate));
    }

    #[test]
    fn mwm_never_below_greedy(g in small_graph(10, 0.5), seed in any::<u64>()) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::random_weights(g, 20, &mut rng);
        let opt = mwm::matching_weight(&g, &mwm::maximum_weight_matching(&g));
        let greedy = mwm::matching_weight(&g, &mwm::greedy_mwm(&g));
        prop_assert!(opt >= greedy);
        prop_assert!(2 * greedy >= opt);
    }

    #[test]
    fn mis_upper_lower_consistency(g in small_graph(12, 0.4)) {
        let exact = mis::maximum_independent_set(&g, 50_000_000);
        prop_assert!(exact.optimal);
        prop_assert!(mis::is_independent_set(&g, &exact.set));
        let greedy = mis::greedy_mis(&g);
        prop_assert!(mis::is_independent_set(&g, &greedy));
        prop_assert!(greedy.len() <= exact.set.len());
        // complement bound: α + ν ≤ n (König-ish sanity, holds always)
        let nu = matching::maximum_matching(&g).size();
        prop_assert!(exact.set.len() + nu <= g.n());
    }

    #[test]
    fn star_elimination_preserves_matching(g in planar_graph()) {
        let r = star_elim::star_elimination(&g);
        prop_assert!(star::is_star_free(&adj(&g), &r.kept));
        let survivors: Vec<usize> = r.survivors();
        let (sub, _) = g.induced_subgraph(&survivors);
        prop_assert_eq!(
            matching::maximum_matching(&g).size(),
            matching::maximum_matching(&sub).size()
        );
    }

    #[test]
    fn planar_generators_stay_planar(seed in any::<u64>(), n in 5usize..60) {
        let mut rng = gen::seeded_rng(seed);
        prop_assert!(planarity::is_planar(&gen::stacked_triangulation(n.max(3), &mut rng)));
        prop_assert!(planarity::is_outerplanar(&gen::outerplanar_maximal(n.max(3), &mut rng)));
        prop_assert!(planarity::is_forest(&gen::random_tree(n, &mut rng)));
    }

    #[test]
    fn ldd_partitions_and_bounds(seed in any::<u64>(), n in 20usize..100, eps in 0.15f64..0.6) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::random_planar(n, 0.5, &mut rng);
        let out = ldd::minor_free_ldd(&g, eps, &mut rng);
        prop_assert_eq!(out.cluster_of.len(), g.n());
        // clusters connected
        let members = locongest::congest::primitives::cluster_members(&out.cluster_of);
        for (_, vs) in members {
            let (sub, _) = g.induced_subgraph(&vs);
            prop_assert!(sub.is_connected());
        }
        prop_assert!(out.max_diameter(&g) < usize::MAX);
    }

    #[test]
    fn corrclust_score_bounds(g in small_graph(10, 0.5), seed in any::<u64>()) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::random_labels(g, 0.5, &mut rng);
        let t = corrclust::score(&g, &corrclust::trivial_clustering(&g));
        prop_assert!(2 * t >= g.m() as u64);
        if let Some(ex) = corrclust::exact_clustering(&g, 20_000_000) {
            prop_assert!(ex.score >= t);
            prop_assert!(ex.score <= g.m() as u64);
        }
    }

    #[test]
    fn tree_dp_matches_branch_and_bound(seed in any::<u64>(), n in 8usize..30, k in 1usize..4) {
        use locongest::solvers::treedp;
        let mut rng = gen::seeded_rng(seed);
        let g = gen::partial_ktree(n.max(k + 2), k, 0.5, &mut rng);
        let td = treedp::min_degree_decomposition(&g, k + 2).expect("bounded width");
        prop_assert!(td.validate(&g).is_ok());
        prop_assert!(td.width <= k + 2);
        // MIS DP == B&B
        let (size, set) = treedp::mis_on_tree_decomposition(&g, &td);
        prop_assert!(mis::is_independent_set(&g, &set));
        let bnb = mis::maximum_independent_set(&g, 100_000_000);
        prop_assert!(bnb.optimal);
        prop_assert_eq!(size, bnb.set.len());
        // MDS DP == B&B
        let (gsize, gset) = treedp::mds_on_tree_decomposition(&g, &td);
        prop_assert!(locongest::solvers::mds::is_dominating_set(&g, &gset));
        let mds_bnb = locongest::solvers::mds::minimum_dominating_set(&g, 100_000_000);
        prop_assert!(mds_bnb.optimal);
        prop_assert_eq!(gsize, mds_bnb.set.len());
    }

    #[test]
    fn treewidth2_recognizer_consistent(seed in any::<u64>(), n in 5usize..40) {
        use locongest::graph::reductions::treewidth_at_most_2;
        let mut rng = gen::seeded_rng(seed);
        prop_assert!(treewidth_at_most_2(&gen::series_parallel(n.max(2), &mut rng)));
        prop_assert!(treewidth_at_most_2(&gen::outerplanar_maximal(n.max(3), &mut rng)));
        // 3-trees always contain K4
        if n >= 5 {
            prop_assert!(!treewidth_at_most_2(&gen::ktree(n, 3, &mut rng)));
        }
    }

    #[test]
    fn degeneracy_bounds_density(g in small_graph(14, 0.6)) {
        let (_, d) = g.degeneracy_ordering();
        // degeneracy >= density (every subgraph has a vertex of degree <= d)
        prop_assert!(d as f64 >= g.m() as f64 / g.n() as f64 - 1e-9 || g.m() == 0);
    }
}
