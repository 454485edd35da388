//! Deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] describes an *adversarial but reproducible* network:
//! per-round-interval link failures, seeded i.i.d. message drops and node
//! crash-stops. Attached to a [`crate::Network`] via `set_fault_plan`, the
//! plan intercepts every message as it is sent (sending is delivering) — in
//! every round form, dense or sparse — and decides its fate: delivered, or
//! destroyed by exactly one cause.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(plan, round, edge, direction)`:
//!
//! * crash and link verdicts are table lookups;
//! * the i.i.d. drop coin comes from a ChaCha8 stream **keyed by
//!   `(round, edge)`** — one independent stream per coordinate pair, with
//!   the two direction words drawn from that stream — never from a shared
//!   sequential RNG.
//!
//! Because every verdict is keyed by its message's coordinates, never by
//! the order messages are sent in, a faulty execution is **bit-identical
//! from run to run**, the same guarantee the engine gives fault-free runs.
//!
//! Only `set_fault_plan` compiles a plan, into a [`FaultState`], the one
//! interpreter. Every other schedule of a run — a cluster network's, a
//! charged walk's, a retry's, MCM's kernel framework's — is a view of a
//! network's, taken at its current round (local ids in, host verdicts out),
//! and views compose: one schedule on one clock, and no caller passes a
//! plan round.

use lcg_graph::Graph;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A link failure: `edge` delivers nothing in rounds
/// `from_round..until_round` (half-open, 0-based round indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFailure {
    /// Host edge id.
    pub edge: usize,
    /// First failed round (inclusive).
    pub from_round: u64,
    /// First working round again (exclusive end).
    pub until_round: u64,
}

/// A crash-stop fault: from round `at_round` on, `node` neither sends nor
/// receives (messages in either direction are destroyed in transit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// Host vertex id.
    pub node: usize,
    /// First round (0-based) in which the node is down.
    pub at_round: u64,
}

/// A deterministic fault schedule for one network execution.
///
/// The plan is plain data — it can be cloned, compared, and attached to
/// any number of networks; each attachment replays the same schedule.
///
/// # Examples
///
/// ```
/// use lcg_congest::FaultPlan;
///
/// let plan = FaultPlan::drops(0xBAD5EED, 0.25)
///     .with_link_failure(3, 0, 10)
///     .with_crash(7, 100);
/// // decisions are reproducible: same key, same verdict
/// let d = plan.drops_message(5, 12, false);
/// assert_eq!(plan.drops_message(5, 12, false), d);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the keyed drop stream.
    pub seed: u64,
    /// Probability that any given message is dropped i.i.d.
    pub drop_prob: f64,
    /// Scheduled link failures.
    pub link_failures: Vec<LinkFailure>,
    /// Crash-stop nodes.
    pub crashes: Vec<NodeCrash>,
}

impl FaultPlan {
    /// The vacuous plan: nothing ever fails. Attaching it must leave every
    /// execution's results and statistics byte-identical to running with
    /// no plan at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            link_failures: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Pure i.i.d. message drops with probability `p`, keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn drops(seed: u64, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0, 1]");
        FaultPlan { drop_prob: p, seed, ..FaultPlan::none() }
    }

    /// Adds a link failure on `edge` over rounds `from..until`.
    pub fn with_link_failure(mut self, edge: usize, from_round: u64, until_round: u64) -> FaultPlan {
        self.link_failures.push(LinkFailure { edge, from_round, until_round });
        self
    }

    /// Adds a crash-stop of `node` starting at `at_round`.
    pub fn with_crash(mut self, node: usize, at_round: u64) -> FaultPlan {
        self.crashes.push(NodeCrash { node, at_round });
        self
    }

    /// The i.i.d. drop coin for one message: a ChaCha8 stream is seeded
    /// from `(seed, round, edge)` and the direction selects which of its
    /// first two words is compared against the probability threshold. A
    /// pure function of the key — independent of call order, thread
    /// count, and everything previously drawn.
    pub fn drops_message(&self, round: u64, edge: usize, reverse_dir: bool) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        let key = self.seed
            ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (edge as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut stream = ChaCha8Rng::seed_from_u64(key);
        let forward = stream.next_u64();
        let word = if reverse_dir { stream.next_u64() } else { forward };
        // `p` onto the u64 range: the cast saturates, so `p = 1` drops all
        // but the single largest draw (monotone in `p`)
        word < (self.drop_prob * (u64::MAX as f64)) as u64
    }
}

/// What happened to one message at delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    /// Delivered.
    Deliver,
    /// Destroyed because an endpoint is crashed.
    Crashed,
    /// Destroyed because the link is down this round.
    LinkDown,
    /// Destroyed by the i.i.d. drop coin.
    Dropped,
}

/// A plan compiled against one topology: crash rounds indexed by vertex
/// and down-intervals indexed by edge, so the per-message verdict is O(1)
/// plus one keyed stream when `drop_prob > 0`. The one interpreter of a
/// [`FaultPlan`]: only [`crate::Network::set_fault_plan`] compiles one, and
/// every other schedule is a view of a network's
/// ([`crate::Network::cluster`], [`crate::Network::cluster_faults`]).
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// `crashed_at[v]`: earliest crash round of `v`, `u64::MAX` if never.
    crashed_at: Vec<u64>,
    /// Down intervals per edge (usually zero or one).
    down: Vec<Vec<(u64, u64)>>,
    /// A view's host vertex and edge per local id (they key the drop coin)
    /// and the plan round of its round 0; `None` and 0 on the host.
    host: Option<(Vec<usize>, Vec<usize>)>,
    first_round: u64,
}

impl FaultState {
    /// Compiles `plan` for a graph with `n` vertices and `m` edges.
    ///
    /// # Panics
    ///
    /// Panics when the plan references a vertex `>= n`, an edge `>= m`,
    /// or a drop probability outside `[0, 1]`.
    pub(crate) fn compile(plan: FaultPlan, n: usize, m: usize) -> FaultState {
        assert!(
            (0.0..=1.0).contains(&plan.drop_prob),
            "drop probability must be in [0, 1]"
        );
        let mut crashed_at = vec![u64::MAX; n];
        for c in &plan.crashes {
            assert!(c.node < n, "crash of vertex {} but the graph has {n} vertices", c.node);
            crashed_at[c.node] = crashed_at[c.node].min(c.at_round);
        }
        let mut down = vec![Vec::new(); m];
        for l in &plan.link_failures {
            assert!(l.edge < m, "link failure on edge {} but the graph has {m} edges", l.edge);
            down[l.edge].push((l.from_round, l.until_round));
        }
        FaultState { plan, crashed_at, down, host: None, first_round: 0 }
    }

    /// This schedule seen from the cluster `sub = G[map]` of the graph `g`
    /// it is read on (`map[local] = g`'s vertex), from this schedule's round
    /// `round` on: it takes `sub`'s vertex and edge ids and rounds counted
    /// from there, and every verdict — crash, link and drop coin — is this
    /// one's for the ids and round they stand for. Views compose: a view of
    /// a view is a view of the host, keyed by the host's ids and rounds.
    ///
    /// # Panics
    ///
    /// Panics if an edge of `sub` is not an edge of `g` between the mapped
    /// vertices.
    pub(crate) fn cluster(&self, g: &Graph, sub: &Graph, map: &[usize], round: u64) -> FaultState {
        let edge: Vec<usize> =
            sub.edges().map(|(_, a, b)| g.edge_id(map[a], map[b]).expect("a cluster edge is a host edge")).collect();
        let host = match &self.host {
            None => (map.to_vec(), edge.clone()),
            Some((vertex, host_edge)) => {
                (map.iter().map(|&v| vertex[v]).collect(), edge.iter().map(|&e| host_edge[e]).collect())
            }
        };
        FaultState {
            plan: self.plan.clone(),
            crashed_at: map.iter().map(|&v| self.crashed_at[v]).collect(),
            down: edge.iter().map(|&e| self.down[e].clone()).collect(),
            host: Some(host),
            first_round: self.first_round + round,
        }
    }

    /// The verdict for a message from `from` to `to` over `edge` in
    /// `round`. Precedence: crash, then link failure, then the i.i.d.
    /// coin — so counters attribute each loss to one cause.
    pub(crate) fn classify(&self, round: u64, edge: usize, from: usize, to: usize) -> FaultVerdict {
        let round = self.first_round + round;
        if self.crashed_at[from] <= round || self.crashed_at[to] <= round {
            return FaultVerdict::Crashed;
        }
        if self.down[edge].iter().any(|&(a, b)| a <= round && round < b) {
            return FaultVerdict::LinkDown;
        }
        let (edge, reverse) = match &self.host {
            None => (edge, from > to),
            Some((vertex, host_edge)) => (host_edge[edge], vertex[from] > vertex[to]),
        };
        if self.plan.drops_message(round, edge, reverse) {
            return FaultVerdict::Dropped;
        }
        FaultVerdict::Deliver
    }

    /// `true` when the message from `from` to `to` over `edge` in `round`
    /// is lost, whatever the cause: the engine's verdict at send
    /// (`classify`) is not `Deliver`.
    pub fn kills(&self, round: u64, edge: usize, from: usize, to: usize) -> bool {
        self.classify(round, edge, from, to) != FaultVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacuous_plan_never_drops() {
        let plan = FaultPlan::none();
        let fs = FaultState::compile(plan.clone(), 2, 50);
        for round in 0..50 {
            for edge in 0..50 {
                assert!(!plan.drops_message(round, edge, false));
                assert!(!plan.drops_message(round, edge, true));
                assert!(!fs.kills(round, edge, 0, 1));
            }
        }
    }

    #[test]
    fn drop_decisions_are_keyed_not_sequential() {
        let plan = FaultPlan::drops(42, 0.5);
        // querying in two different orders yields the same table
        let mut forward = Vec::new();
        for round in 0..20u64 {
            for edge in 0..20usize {
                forward.push(plan.drops_message(round, edge, false));
            }
        }
        let mut backward = Vec::new();
        for round in (0..20u64).rev() {
            for edge in (0..20usize).rev() {
                backward.push(plan.drops_message(round, edge, false));
            }
        }
        backward.reverse();
        assert_eq!(forward, backward);
        // the rate is roughly p
        let hits = forward.iter().filter(|&&b| b).count();
        assert!((120..=280).contains(&hits), "{hits}/400 drops at p=0.5");
    }

    #[test]
    fn directions_are_independent_coins() {
        let plan = FaultPlan::drops(7, 0.5);
        let differs = (0..200u64)
            .any(|r| plan.drops_message(r, 3, false) != plan.drops_message(r, 3, true));
        assert!(differs, "the two directions must not share one coin");
    }

    #[test]
    fn extreme_probabilities() {
        let all = FaultPlan::drops(1, 1.0);
        let hits = (0..200u64).filter(|&r| all.drops_message(r, 0, false)).count();
        assert_eq!(hits, 200, "p = 1.0 must drop (saturating cast)");
        let none = FaultPlan::drops(1, 0.0);
        assert!((0..200u64).all(|r| !none.drops_message(r, 0, false)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        FaultPlan::drops(0, 1.5);
    }

    #[test]
    fn compiled_state_classifies_with_precedence() {
        let plan = FaultPlan::drops(9, 1.0) // would drop everything...
            .with_link_failure(2, 5, 10)
            .with_crash(4, 8);
        let fs = FaultState::compile(plan, 6, 4);
        // crash wins over link and drop
        assert_eq!(fs.classify(8, 2, 4, 1), FaultVerdict::Crashed);
        assert_eq!(fs.classify(9, 2, 0, 4), FaultVerdict::Crashed);
        // link failure wins over the coin inside its interval
        assert_eq!(fs.classify(5, 2, 0, 1), FaultVerdict::LinkDown);
        assert_eq!(fs.classify(9, 2, 0, 1), FaultVerdict::LinkDown);
        // outside the interval the p=1 coin drops
        assert_eq!(fs.classify(4, 2, 0, 1), FaultVerdict::Dropped);
        assert_eq!(fs.classify(10, 2, 0, 1), FaultVerdict::Dropped);
        // before the crash round the node works
        assert_eq!(fs.classify(7, 3, 4, 1), FaultVerdict::Dropped);
    }

    #[test]
    fn link_intervals_are_half_open() {
        let fs = FaultState::compile(FaultPlan::none().with_link_failure(0, 3, 6), 2, 1);
        assert!(!fs.kills(2, 0, 0, 1));
        assert!(fs.kills(3, 0, 0, 1));
        assert!(fs.kills(5, 0, 0, 1));
        assert!(!fs.kills(6, 0, 0, 1));
    }

    #[test]
    #[should_panic(expected = "vertices")]
    fn compile_rejects_out_of_range_crash() {
        FaultState::compile(FaultPlan::none().with_crash(10, 0), 5, 4);
    }

    #[test]
    #[should_panic(expected = "edges")]
    fn compile_rejects_out_of_range_edge() {
        FaultState::compile(FaultPlan::none().with_link_failure(4, 0, 1), 5, 4);
    }
}
