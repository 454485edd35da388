//! Differential property test of the round engine against a reference
//! round written out the slow way: every vertex composes into its own
//! per-slot outbox, then one vertex-order sweep adjudicates each message
//! under the fault plan and stores the survivors at the receiver's slot.
//! Over generated graphs, fault plans (drops, link failures, crashes),
//! edge-load tracers and recorders, `run_state`,
//! `exchange_rounds` and `exchange_active` must match it call for call:
//! every inbox in the order it was read, `RoundStats`, trace bytes and the
//! metrics registry. Charged rounds fall between step calls that leave
//! messages in flight, and one step call sends on every port every round,
//! so each of its sends to a vertex that has not yet read its row meets
//! that vertex's unread message. Besides the generated small graphs, two
//! fixed ones span several of the engine's destination blocks: a
//! power-law graph, whose rows straddle block boundaries and whose long
//! rows wrap the delivery ring, and a star whose centre row is longer than
//! a block.

use lcg_congest::{FaultPlan, Inbox, Model, Msg, Network, RoundStats};
use lcg_graph::{gen, Graph, GraphBuilder};
use lcg_metrics::{Recorder, Registry};
use lcg_trace::{TraceConfig, Tracer};
use proptest::{prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError};

/// What the reference keeps between rounds: its inbox grid, and the
/// accounting the engine's sink keeps.
struct Reference<'g> {
    g: &'g Graph,
    plan: Option<FaultPlan>,
    inbox: Vec<Option<Msg>>,
    stats: RoundStats,
    tracer: Option<Tracer>,
    metrics: Option<Recorder>,
}

type Emit<'a> = dyn FnMut(usize, Msg) + 'a;

impl Reference<'_> {
    /// One round: `compose(v, inbox, emit)` for every vertex in order — a
    /// step round hands it (and clears) last round's row, an exchange
    /// round nothing — then the sweep, then the books.
    fn round(&mut self, step: bool, mut compose: impl FnMut(usize, &Inbox, &mut Emit<'_>)) {
        let (g, off) = (self.g, self.g.csr_offsets());
        let mut outbox: Vec<Option<Msg>> = vec![None; g.slots()];
        let (mut sent, mut words, mut max, mut spilled) = (0u64, 0u64, 0usize, 0u64);
        for v in 0..g.n() {
            let row = off[v] as usize..off[v + 1] as usize;
            let inbox: Vec<Option<Msg>> =
                if step { self.inbox[row.clone()].iter_mut().map(Option::take).collect() } else { Vec::new() };
            compose(v, &inbox, &mut |p, m: Msg| {
                (sent, words, max, spilled) = (sent + 1, words + m.len() as u64, max.max(m.len()), spilled + u64::from(m.len() > 2));
                outbox[row.start + p] = Some(m);
            });
        }
        let round = self.stats.rounds;
        let (mut lost, mut delivered) = ([0u64; 3], 0); // drop, link, crash
        for v in 0..g.n() {
            let row = off[v] as usize..off[v + 1] as usize;
            for (s, slot) in row.clone().zip(&mut outbox[row]) {
                let Some(m) = slot.take() else { continue };
                let (u, e) = (g.csr_neighbors()[s] as usize, g.csr_edge_ids()[s] as usize);
                if let Some(plan) = &self.plan {
                    let cause = if plan.crashes.iter().any(|c| (c.node == v || c.node == u) && c.at_round <= round) {
                        Some(2)
                    } else if plan.link_failures.iter().any(|l| l.edge == e && l.from_round <= round && round < l.until_round) {
                        Some(1)
                    } else {
                        plan.drops_message(round, e, v > u).then_some(0)
                    };
                    if let Some(c) = cause {
                        lost[c] += 1;
                        continue;
                    }
                }
                if let Some(t) = self.tracer.as_mut() {
                    t.add_edge_words(e, m.len() as u64);
                }
                delivered += 1;
                let port = g.neighbor_row(u).binary_search(&(v as u32)).expect("a neighbor's row lists v");
                self.inbox[off[u] as usize + port] = Some(m);
            }
        }
        let s = &mut self.stats;
        (s.dropped_messages, s.crashed_messages) = (s.dropped_messages + lost[0] + lost[1], s.crashed_messages + lost[2]);
        (s.rounds, s.messages, s.words) = (s.rounds + 1, s.messages + sent, s.words + words);
        s.max_words_edge_round = s.max_words_edge_round.max(max);
        if let Some(t) = self.tracer.as_mut() {
            for (kind, c) in ["drop", "link", "crash"].into_iter().zip(lost) {
                if c > 0 {
                    t.record_fault(kind, c);
                }
            }
            t.record_round(sent, words, max);
        }
        if let Some(r) = self.metrics.as_mut() {
            let faults = [("dropped", lost[0] + lost[1]), ("crashed", lost[2]), ("spilled", spilled)];
            for (name, c) in faults {
                if c > 0 {
                    r.counter_add(&format!("net.{name}_messages"), c);
                }
            }
            for (name, c) in [("net.delivered_messages", delivered), ("net.rounds", 1), ("net.messages", sent), ("net.words", words)] {
                r.counter_add(name, c);
            }
            r.gauge_max("net.max_words_edge_round", max as u64);
            r.histogram_record("net.words_per_round", words);
        }
    }

    /// `k` silent rounds charged: the books and the plan's clock move, the
    /// inbox grid does not.
    fn charge(&mut self, k: u64) {
        self.stats.rounds += k;
        if let Some(t) = self.tracer.as_mut() {
            t.record_quiet_rounds(k);
        }
        if let Some(r) = self.metrics.as_mut() {
            r.counter_add("net.rounds", k);
        }
    }
}

#[derive(Debug, Clone)]
struct Case {
    shape: u8,
    size: usize,
    seed: u64,
    /// 0 none, 1 drops, 2 link failures, 3 a crash, 4 all three, 5 link
    /// failures and a crash.
    plan: u8,
    /// 0 no tracer, 1 spans and series only, 2 with edge loads.
    tracer: u8,
    metrics: bool,
}

fn arb_case() -> impl Strategy<Value = Case> {
    ((0u8..3, 3usize..24, 0u64..1000), (0u8..5, 0u8..3, proptest::any::<bool>())).prop_map(
        |((shape, size, seed), (plan, tracer, metrics))| Case { shape, size, seed, plan, tracer, metrics },
    )
}

fn graph_of(case: &Case) -> Graph {
    match case.shape {
        0 => gen::cycle(case.size.max(3)),
        1 => gen::grid(3, case.size.max(2)),
        _ => gen::random_planar(case.size.max(4), 0.5, &mut gen::seeded_rng(case.seed)),
    }
}

fn plan_of(case: &Case, g: &Graph) -> Option<FaultPlan> {
    let s = case.seed;
    let drops = FaultPlan::drops(s ^ 0xD20, 0.25);
    let links = |p: FaultPlan| p.with_link_failure(s as usize % g.m(), 1, 4).with_link_failure((s / 3) as usize % g.m(), 0, 2);
    let crash = |p: FaultPlan| p.with_crash((s / 7) as usize % g.n(), 2);
    match case.plan {
        0 => None,
        1 => Some(drops),
        2 => Some(links(FaultPlan::none())),
        3 => Some(crash(FaultPlan::none())),
        4 => Some(crash(links(drops))),
        _ => Some(crash(links(FaultPlan::none()))),
    }
}

/// SplitMix64 finalizer: the per-(state, vertex, port) coin of the test.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A vertex's sends from state `acc`: 1–3 words (3 spills) on two thirds
/// of its ports, chosen by the coin — or on every port when `every`.
fn emit(seed: u64, v: usize, acc: u64, ports: usize, every: bool, send: &mut Emit<'_>) {
    for p in 0..ports {
        let coin = mix(seed, acc, (v * 64 + p) as u64);
        if every || !coin.is_multiple_of(3) {
            send(p, (0..(coin >> 8) % 3 + 1).map(|i| acc ^ v as u64 ^ i).collect());
        }
    }
}

/// Whether `v` sends in the sparse round salted `salt`.
fn active(seed: u64, salt: u64, v: usize) -> bool {
    mix(seed, salt, v as u64).is_multiple_of(2)
}

/// Folds an inbox into a vertex's state.
fn absorb(acc: &mut u64, inbox: &Inbox) {
    for w in inbox.iter().flatten().flat_map(|m| m.iter()) {
        *acc = acc.wrapping_mul(31).wrapping_add(*w);
    }
}

/// Every inbox a vertex read that held anything, in the order read.
type Log = Vec<(usize, Vec<Option<Vec<u64>>>)>;

fn log(log: &mut Log, v: usize, inbox: &Inbox) {
    if inbox.iter().any(Option::is_some) {
        log.push((v, inbox.iter().map(|m| m.as_ref().map(|m| m.to_vec())).collect()));
    }
}

/// The engine's observable state: stats, trace bytes, metrics registry.
fn observe(net: &mut Network<'_>) -> (RoundStats, Option<String>, Option<Registry>) {
    let trace = net.tracer_mut().map(|t| t.clone().finish().to_jsonl());
    let registry = net.take_metrics().map(|r| {
        let reg = r.registry().clone();
        net.attach_metrics(r);
        reg
    });
    (net.stats(), trace, registry)
}

fn observe_reference(r: &Reference<'_>) -> (RoundStats, Option<String>, Option<Registry>) {
    let trace = r.tracer.as_ref().map(|t| t.clone().finish().to_jsonl());
    (r.stats, trace, r.metrics.as_ref().map(|m| m.registry().clone()))
}

/// What a step call's vertices send each round.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sends {
    Nothing,
    /// Two thirds of the ports, by the coin.
    Some,
    /// Every port.
    Every,
}

/// The calls both sides make, in order: step rounds that send, with
/// charged rounds between step calls while messages are in flight (an odd
/// count among them), step rounds that send on every port, a step round
/// that only reads, exchange rounds, then two sparse rounds.
#[derive(Clone, Copy, Debug)]
enum Call {
    Steps(usize, Sends),
    Charge(u64),
    Exchanges(usize),
    Active(u64),
}

const CALLS: [Call; 10] = [
    Call::Steps(3, Sends::Some),
    Call::Charge(1),
    Call::Steps(2, Sends::Every),
    Call::Charge(2),
    Call::Steps(1, Sends::Some),
    Call::Steps(1, Sends::Nothing),
    Call::Exchanges(2),
    Call::Active(1),
    Call::Active(2),
    Call::Steps(2, Sends::Some),
];

fn run_engine(net: &mut Network<'_>, acc: &mut [u64], call: Call, seed: u64, out: &mut Log) {
    match call {
        Call::Steps(k, sends) => net.run_state(k, acc, |acc, v, inbox, o| {
            log(out, v, inbox);
            absorb(acc, inbox);
            if sends != Sends::Nothing {
                emit(seed, v, *acc, o.ports(), sends == Sends::Every, &mut |p, m| o.send(p, m));
            }
        }),
        Call::Charge(k) => net.charge_rounds(k),
        Call::Exchanges(k) => {
            let rounds = net.exchange_rounds(
                k,
                acc,
                |acc, _, v, o| emit(seed, v, *acc, o.ports(), false, &mut |p, m| o.send(p, m)),
                |acc, _, v, inbox| {
                    log(out, v, inbox);
                    absorb(acc, inbox);
                },
                |_| false,
            );
            assert_eq!(rounds, k as u64);
        }
        Call::Active(salt) => {
            let senders: Vec<usize> = (0..acc.len()).filter(|&v| active(seed, salt, v)).collect();
            let acc_in: Vec<u64> = acc.to_vec();
            net.exchange_active(&senders, |v, o| emit(seed, v, acc_in[v], o.ports(), false, &mut |p, m| o.send(p, m)), |v, inbox| {
                log(out, v, inbox);
                absorb(&mut acc[v], inbox);
            });
        }
    }
}

fn run_reference(r: &mut Reference<'_>, acc: &mut [u64], call: Call, seed: u64, out: &mut Log) {
    let g = r.g;
    let (k, step, sends) = match call {
        Call::Steps(k, sends) => (k, true, sends),
        Call::Charge(k) => {
            r.charge(k);
            return;
        }
        Call::Exchanges(k) => (k, false, Sends::Some),
        Call::Active(_) => (1, false, Sends::Some),
    };
    for _ in 0..k {
        let sender = |v: usize| match call {
            Call::Active(salt) => active(seed, salt, v),
            _ => sends != Sends::Nothing,
        };
        r.round(step, |v, inbox, send| {
            if step {
                log(out, v, inbox);
                absorb(&mut acc[v], inbox);
            }
            if sender(v) {
                emit(seed, v, acc[v], g.degree(v), sends == Sends::Every, send);
            }
        });
        if !step {
            let off = g.csr_offsets();
            for v in 0..g.n() {
                let row: Vec<Option<Msg>> = r.inbox[off[v] as usize..off[v + 1] as usize].iter_mut().map(Option::take).collect();
                // the dense exchange consumes every row, the sparse one only rows that received
                if matches!(call, Call::Exchanges(_)) || row.iter().any(Option::is_some) {
                    log(out, v, &row);
                    absorb(&mut acc[v], &row);
                }
            }
        }
    }
}

/// Runs every call of [`CALLS`] on the engine and on the reference over
/// `g`, under the plan, tracer and recorder `case` names, and compares them
/// after each call.
fn engine_matches_reference(g: &Graph, case: &Case) -> Result<(), TestCaseError> {
    let plan = plan_of(case, g);
    let tracer = |g: &Graph| {
        let cfg = match case.tracer {
            1 => TraceConfig { edge_loads: false, ..TraceConfig::full("ref") },
            _ => TraceConfig::full("ref").with_top_k(g.m().min(256)),
        };
        (case.tracer > 0).then(|| {
            let mut t = Tracer::new(cfg);
            t.bind_topology(g.n(), g.m(), g.edges().map(|(_, u, v)| (u, v)).collect());
            t
        })
    };
    let mut net = Network::new(g, Model::Local);
    net.set_fault_plan(plan.clone());
    if let Some(t) = tracer(g) {
        net.attach_tracer(t);
    }
    if case.metrics {
        net.attach_metrics(Recorder::new("ref"));
    }
    let mut reference = Reference {
        g,
        plan,
        inbox: vec![None; g.slots()],
        stats: RoundStats::default(),
        tracer: tracer(g),
        metrics: case.metrics.then(|| Recorder::new("ref")),
    };
    let (mut acc, mut want_acc) = (vec![case.seed; g.n()], vec![case.seed; g.n()]);
    for call in CALLS {
        let (mut got, mut want) = (Log::new(), Log::new());
        run_engine(&mut net, &mut acc, call, case.seed, &mut got);
        run_reference(&mut reference, &mut want_acc, call, case.seed, &mut want);
        prop_assert_eq!(got, want, "inboxes of {:?}", call);
        prop_assert_eq!(&acc, &want_acc, "states after {:?}", call);
        prop_assert_eq!(observe(&mut net), observe_reference(&reference), "observables after {:?}", call);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_rounds_match_the_reference_round(case in arb_case()) {
        engine_matches_reference(&graph_of(&case), &case)?;
    }
}

/// Slots in one of the engine's destination blocks, at least: a graph of
/// more than `k` times as many slots spans more than `k` blocks.
const BLOCK_SLOTS: usize = 1 << 16;

/// Link failures, a crash, an edge-load tracer and a recorder: the watched
/// path. (The drop coin, a ChaCha stream per message, is the slow part of
/// a plan in a debug build; the small cases cover it.)
fn watched(seed: u64) -> Case {
    Case { shape: 0, size: 0, seed, plan: 5, tracer: 2, metrics: true }
}

/// A power-law graph over several destination blocks: its rows straddle
/// block boundaries, and its hubs' long rows wrap the engine's ring.
#[test]
fn a_power_law_graph_over_several_blocks_matches_the_reference() {
    let g = gen::power_law(68_000, 2, &mut gen::seeded_rng(58));
    assert!(g.slots() > 4 * BLOCK_SLOTS, "{} slots", g.slots());
    engine_matches_reference(&g, &watched(58)).unwrap();
}

/// A star whose centre, in the middle of the id range, has a row longer
/// than a block: reading it needs more than one block delivered at once.
#[test]
fn a_star_whose_centre_row_spans_blocks_matches_the_reference() {
    let (n, centre) = (66_001, 33_000);
    let mut b = GraphBuilder::new(n);
    for v in (0..n).filter(|&v| v != centre) {
        b.add_edge(centre, v);
    }
    let g = b.build();
    assert!(g.degree(centre) > BLOCK_SLOTS && g.slots() > 2 * BLOCK_SLOTS);
    engine_matches_reference(&g, &watched(11)).unwrap();
}
