//! Differential property tests for the cluster view of a fault schedule
//! ([`Network::cluster`]): over generated graphs, fault plans (drops, link
//! failures, crashes), member sets and host rounds already run, a network
//! over `G[members]` taken from its host must destroy and deliver exactly
//! what the host network does when the
//! members send the same messages on the same intra-cluster edges in the
//! same rounds — every round, edge and direction, and every fault counter.
//! Views compose: a cluster of a cluster, taken after rounds have run on
//! both, is held to the host the same way.

use lcg_congest::{FaultPlan, Model, Network, RoundStats};
use lcg_graph::{gen, Graph};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::seq::SliceRandom;
use rand::Rng;

/// One delivery: round, host sender, host receiver, words delivered.
type Delivery = (u64, usize, usize, usize);

/// Runs `rounds` exchange rounds on `net` in which every vertex sends a
/// 2-word message on every port for which `sends(v, port)` holds, and logs
/// every delivery in host ids (`host[v]` is vertex `v`'s host id).
fn run(net: &mut Network, rounds: u64, host: &[usize], sends: impl Fn(usize, usize) -> bool) -> Vec<Delivery> {
    let g = net.graph();
    let mut log = Vec::new();
    let mut states = vec![(); g.n()];
    for round in 0..rounds {
        net.exchange_rounds(
            1,
            &mut states,
            |_, _, v, out| {
                for port in (0..out.ports()).filter(|&p| sends(v, p)) {
                    out.send(port, [round, host[v] as u64]);
                }
            },
            |_, _, u, inbox| {
                for (port, msg) in inbox.iter().enumerate() {
                    if let Some(msg) = msg {
                        log.push((round, host[g.neighbor_row(u)[port] as usize], host[u], msg.len()));
                    }
                }
            },
            |_| false,
        );
    }
    log.sort_unstable();
    log
}

/// The fault counters of `s`.
fn faults(s: &RoundStats) -> (u64, u64) {
    (s.dropped_messages, s.crashed_messages)
}

/// A random non-empty member set of `g`, ascending or (when shuffled) in
/// any order.
fn members(g: &Graph, keep: f64, shuffled: bool, rng: &mut impl Rng) -> Vec<usize> {
    let mut members: Vec<usize> = (0..g.n()).filter(|_| rng.gen_bool(keep)).collect();
    if members.is_empty() {
        members.push(rng.gen_range(0..g.n()));
    }
    if shuffled {
        members.shuffle(rng);
    }
    members
}

/// A graph of `family` and a plan over it whose link failures and crashes
/// fall in the first `horizon` rounds.
fn instance(
    rng: &mut impl Rng,
    family: usize,
    size: usize,
    drop_prob: f64,
    links: usize,
    crashes: usize,
    horizon: u64,
) -> (Graph, FaultPlan) {
    let g: Graph = match family {
        0 => gen::grid(size, 3),
        1 => gen::random_planar(3 * size, 0.5, rng),
        2 => gen::grid_with_noise(size, size, 0.05, rng),
        _ => gen::complete(size),
    };
    let mut plan = FaultPlan::drops(rng.gen(), drop_prob);
    for _ in 0..links {
        let from = rng.gen_range(0..horizon);
        plan = plan.with_link_failure(rng.gen_range(0..g.m()), from, from + rng.gen_range(1..10));
    }
    for _ in 0..crashes {
        plan = plan.with_crash(rng.gen_range(0..g.n()), rng.gen_range(0..horizon));
    }
    (g, plan)
}

/// Runs 24 rounds on the host, its members sending on every intra-cluster
/// port, and on `cluster` (host ids `host_of`), every vertex sending on
/// every port, and compares deliveries, messages and fault counters.
fn same_as_host(host: &mut Network, cluster: &mut Network, host_of: &[usize]) -> Result<(), proptest::TestCaseError> {
    let g = host.graph();
    let mut member = vec![false; g.n()];
    for &v in host_of {
        member[v] = true;
    }
    let identity: Vec<usize> = (0..g.n()).collect();
    let rounds = 24;
    let on_host = run(host, rounds, &identity, |v, p| member[v] && member[g.neighbor_row(v)[p] as usize]);
    let on_cluster = run(cluster, rounds, host_of, |_, _| true);
    prop_assert_eq!(&on_cluster, &on_host);
    let (host_stats, cluster_stats) = (host.stats(), cluster.stats());
    prop_assert_eq!(cluster_stats.messages, host_stats.messages);
    prop_assert_eq!(faults(&cluster_stats), faults(&host_stats));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cluster_view_gives_the_host_verdicts(
        seed in proptest::prelude::any::<u64>(),
        family in 0usize..4,
        size in 4usize..12,
        keep in 0.2f64..1.0,
        shuffled in proptest::prelude::any::<bool>(),
        drop_prob in 0.0f64..0.4,
        links in 0usize..4,
        crashes in 0usize..3,
        before in 0u64..12,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let (g, plan) = instance(&mut rng, family, size, drop_prob, links, crashes, before + 20);
        prop_assert!(g.n() > 0);
        let members = members(&g, keep, shuffled, &mut rng);
        let mut host = Network::new(&g, Model::congest());
        host.set_fault_plan(Some(plan));
        // the cluster's round 0 is the host's round `before`
        host.charge_rounds(before);
        let (sub, map) = g.induced_subgraph(&members);
        let mut cluster = host.cluster(&sub, &map);
        same_as_host(&mut host, &mut cluster, &map)?;
    }

    /// A cluster of a cluster: the outer view is taken after `before` host
    /// rounds, both then run `between` more, and the inner view, taken from
    /// the outer network, must give the host's verdicts at the host's
    /// rounds in the host's ids.
    #[test]
    fn a_view_of_a_view_is_a_view_of_the_host(
        seed in proptest::prelude::any::<u64>(),
        family in 0usize..4,
        size in 4usize..12,
        keep in 0.3f64..1.0,
        shuffled in proptest::prelude::any::<bool>(),
        drop_prob in 0.0f64..0.4,
        links in 0usize..4,
        crashes in 0usize..3,
        before in 0u64..12,
        between in 0u64..12,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let (g, plan) = instance(&mut rng, family, size, drop_prob, links, crashes, before + between + 20);
        prop_assert!(g.n() > 0);
        let mut host = Network::new(&g, Model::congest());
        host.set_fault_plan(Some(plan));
        host.charge_rounds(before);
        let (outer, outer_map) = g.induced_subgraph(&members(&g, keep, shuffled, &mut rng));
        let mut outer_net = host.cluster(&outer, &outer_map);
        host.charge_rounds(between);
        outer_net.charge_rounds(between);
        let (inner, inner_map) = outer.induced_subgraph(&members(&outer, keep, shuffled, &mut rng));
        let mut inner_net = outer_net.cluster(&inner, &inner_map);
        let host_of: Vec<usize> = inner_map.iter().map(|&v| outer_map[v]).collect();
        same_as_host(&mut host, &mut inner_net, &host_of)?;
    }
}
