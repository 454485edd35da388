//! §2.3 — behaviour of a failed execution.
//!
//! The property tester (Theorem 1.4) must behave sensibly when the input
//! is *not* H-minor-free or when a randomized phase fails. The paper's
//! prescriptions, implemented here:
//!
//! * every vertex not assigned to a cluster resets to the singleton
//!   cluster `{v}` ([`singleton_fallback`]);
//! * each cluster checks distributedly whether its diameter exceeds the
//!   bound `b` of a successful execution (the marking protocol in
//!   `lcg_congest::primitives::diameter_check`), and over-diameter
//!   clusters dissolve into singletons ([`enforce_diameter`]);
//! * the Lemma 2.3 degree condition `deg(v_i*) = Ω(φ²)·|E_i|` is checked
//!   per cluster ([`degree_condition`]) — its failure is a *certificate*
//!   that the graph is not H-minor-free, which the property tester turns
//!   into a Reject;
//! * a failed routing execution is detected by reversing it
//!   ([`routing_failure_detected`]).

use lcg_congest::Network;
use lcg_graph::Graph;

/// Resets every marked vertex to its own singleton cluster; returns the
/// renumbered clustering (cluster ids stay distinct from survivors').
#[must_use = "the repaired clustering replaces the caller's, it does not mutate it"]
pub fn singleton_fallback(cluster_of: &[usize], marked: &[bool]) -> Vec<usize> {
    let n = cluster_of.len();
    let max_id = cluster_of.iter().copied().max().unwrap_or(0);
    (0..n)
        .map(|v| if marked[v] { max_id + 1 + v } else { cluster_of[v] })
        .collect()
}

/// Runs the §2.3 diameter-check protocol on `net` with bound `b` and
/// dissolves every over-diameter cluster into singletons, returning the
/// repaired clustering.
///
/// The check executes on the **caller's network**: its rounds accrue to
/// the caller's [`lcg_congest::RoundStats`], its traffic lands in the
/// caller's trace, and it runs under the caller's `ExecConfig` — the
/// repair protocol is part of the execution it repairs, not a free
/// out-of-band oracle. (An earlier version built a private default
/// `Network` internally, silently discarding the caller's thread
/// configuration and tracer.)
#[must_use = "the repaired clustering replaces the caller's, it does not mutate it"]
pub fn enforce_diameter(net: &mut Network, cluster_of: &[usize], b: usize) -> Vec<usize> {
    let marked = lcg_congest::primitives::diameter_check(net, cluster_of, b);
    singleton_fallback(cluster_of, &marked)
}

/// Lemma 2.3's condition, checkable in `O(φ^{-1} log n)` rounds once the
/// leader is known: `deg_{G_i}(v_i*) ≥ c · φ² · |E_i|`, on the cluster's own
/// graph `G_i` (a [`ClusterRun::subgraph`](crate::framework::ClusterRun))
/// with `leader` the local id of `v_i*`.
///
/// Returns `true` if the condition holds for constant `c`.
#[must_use = "a dropped verdict silently accepts a failed cluster"]
pub fn degree_condition(cluster: &Graph, leader: usize, phi: f64, c: f64) -> bool {
    cluster.degree(leader) as f64 >= c * phi * phi * cluster.m() as f64
}

/// Detects an incomplete routing execution by "reversing" it: the leader
/// echoes every received message back, and a vertex whose message count
/// does not match reports failure. In the simulation the check reduces to
/// comparing delivered/total; the round cost of the reversal equals the
/// forward routing cost and must be charged by the caller.
#[must_use = "a dropped verdict silently accepts a failed routing"]
pub fn routing_failure_detected(outcome: &lcg_expander::routing::RoutingOutcome) -> bool {
    !outcome.complete()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn singleton_fallback_isolates_marked() {
        let cluster_of = vec![0, 0, 1, 1];
        let marked = vec![false, true, false, true];
        let fixed = singleton_fallback(&cluster_of, &marked);
        assert_eq!(fixed[0], 0);
        assert_eq!(fixed[2], 1);
        assert_ne!(fixed[1], fixed[3]);
        assert!(fixed[1] > 1 && fixed[3] > 1);
    }

    #[test]
    fn enforce_diameter_dissolves_long_cluster() {
        use lcg_congest::Model;
        let g = gen::path(40);
        // sabotage: one giant cluster with diameter 39, bound b = 3
        let cluster_of = vec![7usize; 40];
        let mut net = Network::new(&g, Model::congest());
        let fixed = enforce_diameter(&mut net, &cluster_of, 3);
        // every vertex became a singleton
        let mut ids = fixed.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40);
        assert!(net.stats().rounds > 0, "check rounds accrue to the caller's network");
    }

    #[test]
    fn enforce_diameter_keeps_valid_clusters() {
        use lcg_congest::Model;
        let g = gen::grid(4, 4); // diameter 6
        let cluster_of = vec![0usize; 16];
        let mut net = Network::new(&g, Model::congest());
        let fixed = enforce_diameter(&mut net, &cluster_of, 6);
        assert!(fixed.iter().all(|&c| c == 0));
    }

    /// The check is charged to the network it is handed: stats accumulate
    /// on top of whatever the caller already spent, and an attached tracer
    /// sees the protocol's rounds (the bug this API replaced lost both).
    #[test]
    fn enforce_diameter_charges_the_callers_network() {
        use lcg_congest::Model;
        let g = gen::path(20);
        let cluster_of = vec![0usize; 20];
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::spans_only("repair")));
        net.charge_rounds(5); // pre-existing spending
        let sp = net.span_open("diameter-check");
        let _fixed = enforce_diameter(&mut net, &cluster_of, 4);
        net.span_close(sp);
        let check_rounds = net.stats().rounds - 5;
        assert!(check_rounds > 0);
        let trace = net.take_tracer().expect("tracer attached").finish();
        assert_eq!(trace.span_rounds("diameter-check"), check_rounds);
        assert_eq!(trace.total.rounds, net.stats().rounds);
    }

    #[test]
    fn degree_condition_on_expander_vs_path() {
        // K12: leader degree 11, edges 66, φ ≈ 0.5: 11 >= c·0.25·66 holds for c=0.5
        assert!(degree_condition(&gen::complete(12), 0, 0.5, 0.5));
        // long path with tiny conductance pretending φ = 0.5 fails
        assert!(!degree_condition(&gen::path(60), 0, 0.5, 0.5));
    }

    /// The body `degree_condition` had while it took the host graph: a
    /// hash set of the members and a scan of every host edge per cluster.
    fn degree_condition_on_host(g: &Graph, members: &[usize], leader: usize, phi: f64, c: f64) -> bool {
        let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
        let leader_deg = g
            .neighbor_vertices(leader)
            .filter(|u| member_set.contains(u))
            .count() as f64;
        let edges_inside = g
            .edges()
            .filter(|&(_, u, v)| member_set.contains(&u) && member_set.contains(&v))
            .count() as f64;
        leader_deg >= c * phi * phi * edges_inside
    }

    proptest::proptest! {
        /// On the cluster's subgraph the condition is the one the host scan
        /// computed, for every cluster of a random clustering, every leader
        /// and thresholds on both sides of the verdict.
        #[test]
        fn degree_condition_matches_the_host_scan(
            seed in proptest::any::<u64>(),
            n in 2usize..40,
            k in 1usize..6,
            phi in 0.01f64..1.0,
        ) {
            use rand::Rng;
            let mut rng = gen::seeded_rng(seed);
            let g = gen::gnm(n, rng.gen_range(0..=(2 * n).min(n * (n - 1) / 2)), &mut rng);
            let cluster_of: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            for members in lcg_congest::primitives::cluster_members(&cluster_of).values() {
                let (sub, mapping) = g.induced_subgraph(members);
                for (local, &leader) in mapping.iter().enumerate() {
                    for c in [0.01, 0.5, 4.0] {
                        proptest::prop_assert_eq!(
                            degree_condition(&sub, local, phi, c),
                            degree_condition_on_host(&g, members, leader, phi, c)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn routing_failure_detection() {
        let mut rng = gen::seeded_rng(220);
        let g = gen::path(30);
        let members: Vec<usize> = (0..30).collect();
        // too few steps: routing must report failure
        let out = lcg_expander::routing::random_walk_routing(&g, &members, 0, 3, &mut rng);
        assert!(routing_failure_detected(&out));
        // plenty of steps: success
        let out = lcg_expander::routing::random_walk_routing(&g, &members, 0, 500_000, &mut rng);
        assert!(!routing_failure_detected(&out));
    }
}
