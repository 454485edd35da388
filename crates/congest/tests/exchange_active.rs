//! Differential property test for the active-set round
//! ([`Network::exchange_active`]): over generated graphs, sender subsets,
//! fault plans and observer attachments it must be indistinguishable from
//! plain [`Network::exchange`] with the non-senders sending nothing — same
//! `RoundStats`, same trace bytes, same deterministic metrics, same inbox
//! at every vertex a message reached — and it must hand the pooled grids
//! back clean, which the dense rounds that follow on the same network
//! would expose (a stale outbox slot trips the double-send assertion, a
//! stale inbox slot shows up as a phantom message).

use lcg_congest::{FaultPlan, Inbox, Model, Network, Outbox};
use lcg_graph::{gen, Graph};
use lcg_metrics::Recorder;
use lcg_trace::{TraceConfig, Tracer};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

#[derive(Debug, Clone)]
struct Case {
    shape: u8,
    size: usize,
    seed: u64,
    /// Percentage of vertices that send in a sparse round.
    density: u64,
    /// 0 = no plan, 1 = vacuous plan, 2 = drops + link-down + crash + truncation.
    plan: u8,
    with_tracer: bool,
    with_metrics: bool,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0u8..3, 4usize..28, 0u64..1000, 0u64..60),
        (0u8..3, proptest::any::<bool>(), proptest::any::<bool>()),
    )
        .prop_map(|((shape, size, seed, density), (plan, with_tracer, with_metrics))| Case {
            shape,
            size,
            seed,
            density,
            plan,
            with_tracer,
            with_metrics,
        })
}

fn build_graph(case: &Case) -> Graph {
    match case.shape {
        0 => gen::cycle(case.size.max(3)),
        1 => gen::grid(3, case.size.max(2)),
        _ => {
            let mut rng = gen::seeded_rng(case.seed);
            gen::random_planar(case.size.max(4), 0.5, &mut rng)
        }
    }
}

fn build_net<'g>(case: &Case, g: &'g Graph) -> Network<'g> {
    let mut net = Network::new(g, Model::congest());
    match case.plan {
        0 => {}
        1 => net.set_fault_plan(Some(FaultPlan::none())),
        _ => net.set_fault_plan(Some(
            FaultPlan::drops(case.seed ^ 0xFA17, 0.2)
                .with_link_failure(case.seed as usize % g.m(), 1, 3)
                .with_crash((case.seed / 7) as usize % g.n(), 2)
                .with_truncation(1),
        )),
    }
    if case.with_tracer {
        net.attach_tracer(Tracer::new(TraceConfig::full("diff")));
    }
    if case.with_metrics {
        net.attach_metrics(Recorder::new("diff"));
    }
    net
}

/// SplitMix64 finalizer: the per-(round, vertex, port) coin of the test.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn senders_of(case: &Case, g: &Graph, round: u64) -> Vec<usize> {
    (0..g.n()).filter(|&v| mix(case.seed, round, v as u64) % 100 < case.density).collect()
}

/// A sender's outbox: a 2-word message on a seeded subset of its ports.
fn compose(seed: u64, round: u64, v: usize, out: &mut Outbox) {
    for p in 0..out.ports() {
        if mix(seed ^ 0x5EED, round, (v * 64 + p) as u64) % 3 < 2 {
            out.send(p, [v as u64, round]);
        }
    }
}

/// One `(round, vertex, inbox)` entry per vertex that received anything.
type Log = Vec<(u64, usize, Vec<Option<Vec<u64>>>)>;

fn log_inbox(log: &mut Log, round: u64, v: usize, inbox: &Inbox) {
    if inbox.iter().any(Option::is_some) {
        log.push((round, v, inbox.iter().map(|m| m.as_ref().map(|m| m.to_vec())).collect()));
    }
}

/// Dense rounds on a network that just ran sparse ones: an all-ports
/// `exchange`, then two `step`s (send everywhere, then read).
fn dense_rounds(net: &mut Network<'_>, log: &mut Log) {
    net.exchange(
        |v, out| {
            for p in 0..out.ports() {
                out.send(p, [v as u64, 7]);
            }
        },
        |v, inbox| log_inbox(log, 100, v, inbox),
    );
    net.step(|v, _inbox, out| {
        for p in 0..out.ports() {
            out.send(p, [v as u64, 8]);
        }
    });
    net.step(|v, inbox, _out| log_inbox(log, 101, v, inbox));
}

/// Everything an observer can see of a finished run.
fn observables(mut net: Network<'_>) -> (lcg_congest::RoundStats, Option<String>, Option<String>) {
    let trace = net.take_tracer().map(|t| t.finish().to_jsonl());
    let metrics = net.take_metrics().map(|r| r.finish().deterministic_json());
    (net.stats(), trace, metrics)
}

const SPARSE_ROUNDS: u64 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_form_is_exchange_with_silent_non_senders(case in arb_case()) {
        let g = build_graph(&case);
        let mut dense = build_net(&case, &g);
        let mut sparse = build_net(&case, &g);
        let (mut dense_log, mut sparse_log): (Log, Log) = (Vec::new(), Vec::new());
        for round in 0..SPARSE_ROUNDS {
            let senders = senders_of(&case, &g, round);
            let mut is_sender = vec![false; g.n()];
            for &v in &senders {
                is_sender[v] = true;
            }
            dense.exchange(
                |v, out| {
                    if is_sender[v] {
                        compose(case.seed, round, v, out);
                    }
                },
                |v, inbox| log_inbox(&mut dense_log, round, v, inbox),
            );
            let mut called = Vec::new();
            sparse.exchange_active(
                &senders,
                |v, out| compose(case.seed, round, v, out),
                |v, inbox| {
                    called.push(v);
                    log_inbox(&mut sparse_log, round, v, inbox);
                },
            );
            // `recv` ran exactly for the vertices something reached, ascending
            let reached: Vec<usize> =
                sparse_log.iter().filter(|e| e.0 == round).map(|e| e.1).collect();
            prop_assert_eq!(&called, &reached, "round {}", round);
            prop_assert!(called.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(dense.stats(), sparse.stats(), "round {}", round);
        }
        dense_rounds(&mut dense, &mut dense_log);
        dense_rounds(&mut sparse, &mut sparse_log);
        prop_assert_eq!(dense_log, sparse_log);
        if case.plan < 2 {
            // nothing is destroyed: the dense rounds filled every inbox slot
            // with exactly the neighbor's message, so no slot was stale
            let full = sparse_log
                .iter()
                .filter(|e| e.0 >= 100 && e.2.iter().all(Option::is_some))
                .count();
            prop_assert_eq!(full, 2 * (0..g.n()).filter(|&v| g.degree(v) > 0).count());
        }
        prop_assert_eq!(observables(dense), observables(sparse));
    }
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn unsorted_senders_are_rejected() {
    let g = gen::cycle(6);
    let mut net = Network::new(&g, Model::congest());
    net.exchange_active(&[3, 1], |_, _| {}, |_, _| {});
}

#[test]
#[should_panic(expected = "CONGEST violation")]
fn capacity_is_enforced_on_the_sparse_form() {
    let g = gen::cycle(6);
    let mut net = Network::new(&g, Model::congest());
    net.exchange_active(&[2], |_, out| out.send(0, [1, 2, 3]), |_, _| {});
}
