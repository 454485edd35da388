//! Expander routing inside a cluster (paper Lemmas 2.4 and 2.5).
//!
//! * [`charged_walk_routing`] is **Lemma 2.4 verbatim**: every cluster
//!   vertex launches a lazy random walk carrying its `O(log n)`-bit
//!   message; a walk is absorbed when it first visits the leader `v_i*`.
//!   One walk step is simulated in as many CONGEST rounds as the maximum
//!   number of tokens crossing a single edge (each token is one
//!   `O(log n)`-bit message), which the lemma bounds by `O(log n)` w.h.p.
//!   We *measure* that load instead of assuming it. A token carries no
//!   generator: its step `s` reads the one 64-bit draw `h(master, t, s)`,
//!   a SplitMix64-finalised counter (bit 63 the lazy coin, the low half
//!   the port), so a trajectory is a pure function of the walk's master
//!   seed and the token's index. The walk runs step-major over a list of
//!   live tokens (key and position): each step every live token moves
//!   once, its crossing charged to the edge-load table as it happens, and
//!   the coin selects stay or move instead of branching on it.
//!   [`charged_walks`] runs several clusters' walks — Theorem 2.6 gathers
//!   in all of them at once — on the caller's threads with the outcomes of
//!   one walk after another; [`charged_walk_routing`] is it on one cluster
//!   given by its member list, cutting out `G[members]` and checking the
//!   members itself, on a network over `g` that carries its plan.
//!
//! * [`network_walk_routing_with_counts`] is Lemma 2.4 message-faithfully
//!   in the simulator, on the same trajectories: token `t` steps with the
//!   charged walk's draw, so under one master seed it visits the charged
//!   token's vertex sequence, only later. Each step's movers are bucketed
//!   into flat per-port queues that drain one real `[key, step]` message
//!   per port per round through [`Network::exchange_active`]; the arrivals
//!   are the next step's live tokens, on a [`Network`] over `G[V_i]`.
//!   [`faithful_walks`] is it on several clusters at once.
//!
//! One router signature: [`charged_walks`] and [`faithful_walks`] take the
//! run's network, the clusters' walks, a step cap, the caller's rng, an
//! edge-load switch and the thread count, and return one [`WalkRecord`]
//! per walk, so the framework's gathering calls whichever it picks at one
//! site. Both walks run in the cluster's local ids and suffer the network's
//! fault schedule as [`Network::cluster_faults`] views it from its next
//! round on — the plan is compiled once, by the network, and no caller
//! passes a plan round; only their edge loads name host edges.
//!
//! * [`tree_routing`] is the deterministic counterpart standing in for
//!   Lemma 2.5 (see the substitution table in DESIGN.md): a pipelined
//!   convergecast along a BFS tree rooted at the leader, taking
//!   `depth + max-edge-congestion` rounds. Both quantities are reported.
//!
//! [`random_walk_routing_with_counts_exec`] survives only as a shim for the
//! frozen `benchmark/` crate.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use lcg_congest::{ExecConfig, FaultPlan, FaultState, Model, Network, RoundStats};
use lcg_graph::Graph;

/// Outcome of a routing execution, in CONGEST-round currency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// Messages that reached the leader.
    pub delivered: usize,
    /// Messages launched.
    pub total: usize,
    /// Logical walk steps executed (Lemma 2.4) or tree rounds (Lemma 2.5).
    pub steps: usize,
    /// CONGEST rounds charged: Σ over steps of the max per-edge token load
    /// (walk routing), or `depth + max congestion − 1` (tree routing).
    pub rounds: u64,
    /// Largest number of tokens that crossed one edge in one step.
    pub max_edge_load: usize,
}

impl RoutingOutcome {
    /// `true` when every message arrived.
    pub fn complete(&self) -> bool {
        self.delivered == self.total
    }
}

/// [`charged_walk_routing`] with no fault plan and no edge tally; the
/// thread count is ignored. Kept only for the frozen `benchmark/` crate;
/// ROADMAP item 9(c) deletes it.
///
/// # Panics
///
/// As [`charged_walk_routing`].
pub fn random_walk_routing_with_counts_exec(
    g: &Graph,
    members: &[usize],
    leader: usize,
    counts: &[usize],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
    _exec: ExecConfig,
) -> RoutingOutcome {
    charged_walk_routing(g, members, leader, counts, max_steps, rng, None, false).0
}

/// φ64, SplitMix64's golden-ratio increment: the walk's token and step
/// strides.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's finaliser (Steele, Lea and Flood, OOPSLA 2014): a
/// bijection of `u64` in which every output bit depends on every input bit.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Token `t`'s key under the walk's master seed: `mix(master ^ t·φ64)`,
/// the half of its draws that does not depend on the step.
#[inline]
fn token_key(master: u64, t: u64) -> u64 {
    mix(master ^ t.wrapping_mul(GOLDEN))
}

/// Token keyed `key` at local vertex `v` of `sub` takes walk step `s`
/// (1-based) on its one draw `h(master, t, s) = mix(token_key(master, t) +
/// s·φ64)`, a counter-based draw (Salmon et al., SC 2011) — a pure function
/// of `(master, t, s)`, so no token carries a generator and the tokens of a
/// step may be taken in any order. Bit 63 is the lazy coin (set: the token
/// moves); the low 32 bits pick the slot of `v`'s row, `(h mod 2³² · deg)
/// >> 32`. Both walks step here, so a trajectory is the same in either.
#[inline]
fn step(sub: &Graph, key: u64, s: u64, v: u32) -> (usize, bool) {
    let h = mix(key.wrapping_add(s.wrapping_mul(GOLDEN)));
    let row = sub.row_range(v as usize);
    (row.start + ((u64::from(h as u32) * row.len() as u64) >> 32) as usize, h >> 63 == 1)
}

/// A live token: its [`token_key`] and its local vertex.
#[derive(Debug, Clone, Copy)]
struct Walker {
    key: u64,
    pos: u32,
}

/// The tokens of walk `w` under master seed `master`, numbered in `counts`
/// order (`counts[v]` of them at local vertex `v`): the ones still walking,
/// in token order, and how many were launched. Tokens launched at the
/// leader are absorbed at once.
///
/// # Panics
///
/// Panics if `w.counts.len() != w.sub.n()`, `w.leader_local` is not a
/// vertex of `w.sub`, or `w.sub` is disconnected.
fn launch(w: &ClusterWalk<'_>, master: u64) -> (Vec<Walker>, usize) {
    let ClusterWalk { sub, leader_local, counts, .. } = *w;
    assert_eq!(counts.len(), sub.n(), "one count per member required");
    assert!(leader_local < sub.n(), "leader must be a cluster member");
    assert!(sub.is_connected(), "a walk needs a connected cluster");
    let total: usize = counts.iter().sum();
    assert!(total <= u32::MAX as usize, "token count exceeds u32 range");
    let mut live = Vec::new();
    let mut t = 0u64;
    for (v, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            let key = token_key(master, t);
            t += 1;
            if v != leader_local {
                // a sub vertex id fits in u32 (`Graph` stores its rows so)
                live.push(Walker { key, pos: v as u32 });
            }
        }
    }
    (live, total)
}

/// `G[members]`, its vertex map and the leader's local id.
///
/// # Panics
///
/// Panics if the leader is not a member or a member repeats.
fn cut_cluster(g: &Graph, members: &[usize], leader: usize) -> (Graph, Vec<usize>, usize) {
    let (sub, map) = g.induced_subgraph(members);
    let leader_local = map.iter().position(|&v| v == leader).expect("leader must be a cluster member");
    // `induced_subgraph` numbers vertices in `members` order, so local id
    // `v` is index `v` of `counts` as long as no member repeats
    assert_eq!(map.len(), members.len(), "members must not repeat");
    (sub, map, leader_local)
}

/// The walk's shared bookkeeping: each step's crossings go in as they
/// happen, and the step is charged once every live token has moved.
struct EdgeTally {
    /// Tokens per sub edge in the current step; all zero between steps.
    load: Vec<u32>,
    /// `touched[..len]`: the edges `load` is non-zero on, so a step costs
    /// its crossings, not a pass over the cluster's edges.
    touched: Vec<u32>,
    len: usize,
    /// Largest load of the current step.
    step_max: u32,
    /// Cumulative words per sub edge; empty unless tracked.
    words: Vec<u64>,
    rounds: u64,
    max_load: usize,
}

impl EdgeTally {
    /// Adds `moves` (0 or 1) crossings of sub edge `e` to the current step.
    #[inline]
    fn cross(&mut self, e: u32, moves: u32) {
        let load = &mut self.load[e as usize];
        // `touched` has room for every edge plus one, so the slot past its
        // end can always be written and kept only for a first crossing
        self.touched[self.len] = e;
        self.len += usize::from((*load == 0) & (moves == 1));
        *load += moves;
        self.step_max = self.step_max.max(*load);
        if let Some(w) = self.words.get_mut(e as usize) {
            *w += 2 * u64::from(moves); // one 2-word message per crossing
        }
    }

    /// Charges the walk step whose crossings were added. Each token
    /// crossing an edge is one O(log n)-bit message and an edge carries one
    /// message per round per direction, so the step costs (at least) the
    /// max directed load; we charge the undirected max, a faithful upper
    /// bound within a factor 2.
    fn end_step(&mut self) {
        for &e in &self.touched[..self.len] {
            self.load[e as usize] = 0;
        }
        self.len = 0;
        self.rounds += self.step_max.max(1) as u64;
        self.max_load = self.max_load.max(self.step_max as usize);
        self.step_max = 0;
    }
}

/// Lemma 2.4, charged: route `counts[i]` tokens from member `i` of
/// `members` (the paper's `L · deg(v)` formulation — the framework ships
/// each vertex's `1 + outdeg(v)` topology words in one execution) to
/// `leader` by lazy random walks over the induced subgraph `G[members]`
/// for at most `max_steps` logical steps (the lemma uses `O(φ⁻⁴ log² n)`),
/// under `faults` when given. This is [`charged_walks`] on one cluster, on
/// a network over `g` that carries `faults`: see there for the draw, the
/// fault verdicts and the loads `track_edges` returns.
///
/// # Panics
///
/// Panics if `counts.len() != members.len()`, a member repeats, the leader
/// is not a member, `G[members]` is disconnected, or `faults` names a
/// vertex or edge `g` lacks.
#[expect(clippy::too_many_arguments, reason = "the walk's inputs and its three run options, each a plain value")]
pub fn charged_walk_routing(
    g: &Graph,
    members: &[usize],
    leader: usize,
    counts: &[usize],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
    faults: Option<&FaultPlan>,
    track_edges: bool,
) -> (RoutingOutcome, Vec<(usize, u64)>) {
    let (sub, map, leader_local) = cut_cluster(g, members, leader);
    let walk = ClusterWalk { sub: &sub, map: &map, leader_local, counts };
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(faults.cloned());
    let (outcome, loads, _) = charged_walks(&net, &[walk], max_steps, rng, track_edges, ExecConfig::sequential()).remove(0);
    (outcome, loads)
}

/// One cluster's walk, for [`charged_walks`] and [`faithful_walks`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterWalk<'a> {
    /// The cluster's induced subgraph `G[V_i]`; it must be connected.
    pub sub: &'a Graph,
    /// `map[local] = host` vertex of `sub`.
    pub map: &'a [usize],
    /// The leader's local id in `sub`.
    pub leader_local: usize,
    /// Tokens launched at each local vertex.
    pub counts: &'a [usize],
}

/// One walk's outcome, delivered words per host edge (`(host edge id,
/// words)` for every edge that carried any, sorted by edge id; empty unless
/// tracked) and the [`RoundStats`] of the network it ran on (zero for a
/// charged walk, which runs none).
pub type WalkRecord = (RoutingOutcome, Vec<(usize, u64)>, RoundStats);

/// The charged walks of several clusters of `net`'s graph (Theorem 2.6
/// gathers in every cluster at once) on the caller's threads, with the
/// outcomes of one walk after another at every thread count.
///
/// Each walk takes one draw from `rng` as its master seed, in slice order;
/// token `t`'s step `s` then reads the single 64-bit draw `h(master, t, s)`
/// — its lazy coin and its port — which no other token's step touches. A
/// walk runs step-major for at most `max_steps` steps, every live token
/// moving once per step with its crossing charged to the edge-load table
/// at once, and ends early once every token is absorbed or destroyed.
/// `track_edges` reports its words per host edge (each crossing is one
/// 2-word message); without it the list is empty.
///
/// A walk builds no network: it suffers `net`'s fault schedule as
/// [`Network::cluster_faults`] views it, its step `s` at `net`'s round
/// `next + s − 1` (a plan `net` has run rounds on is read at the walk's
/// own rounds). A crossing of sub edge `e` in step `s` is lost when
/// [`FaultState::kills`]`(s − 1, e, from, to)`, the engine's verdict at
/// send; it still consumed the edge's bandwidth (charged and tallied), but
/// its token is destroyed, so the outcome can come back incomplete and
/// the §2.3 reversal detector fires. Trajectories are the fault-free ones.
///
/// # Panics
///
/// Panics if a walk's `counts.len() != sub.n()`, its `leader_local` is not
/// a vertex of `sub`, or its `sub` is disconnected.
pub fn charged_walks(
    net: &Network,
    walks: &[ClusterWalk<'_>],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
    track_edges: bool,
    exec: ExecConfig,
) -> Vec<WalkRecord> {
    each_walk(net, walks, rng, exec, |w, master| {
        let (outcome, words) = walk_cluster(w, master, max_steps, net.cluster_faults(w.sub, w.map), track_edges);
        (outcome, words, RoundStats::default())
    })
}

/// Several clusters' walks of `net`'s graph at once: one master seed per
/// walk drawn from `rng` in slice order — the draws successive
/// single-cluster calls make — then `body(walk, master)` on each through
/// [`ExecConfig::map`], weighted by its token count, its words per sub edge
/// reported per host edge; results in slice order.
fn each_walk(
    net: &Network,
    walks: &[ClusterWalk<'_>],
    rng: &mut ChaCha8Rng,
    exec: ExecConfig,
    body: impl Fn(&ClusterWalk<'_>, u64) -> (RoutingOutcome, Vec<u64>, RoundStats) + Sync,
) -> Vec<WalkRecord> {
    let seeded: Vec<(&ClusterWalk<'_>, u64)> = walks.iter().map(|w| (w, rng.gen())).collect();
    exec.map(&seeded, |(w, _)| w.counts.iter().sum::<usize>() as u64, |&(w, master)| {
        let (outcome, words, traffic) = body(w, master);
        (outcome, host_loads(net.graph(), w, &words), traffic)
    })
}

/// A walk's words per edge of `w.sub` as `(host edge id, words)` for every
/// edge that carried any, sorted by edge id: how both walks report loads.
fn host_loads(g: &Graph, w: &ClusterWalk<'_>, words: &[u64]) -> Vec<(usize, u64)> {
    let host_edge = |a: usize, b: usize| g.edge_id(w.map[a], w.map[b]).expect("induced-subgraph edges exist in the host graph");
    // edges come in id order, so they pair up with the per-edge words
    let mut loads: Vec<(usize, u64)> =
        w.sub.edges().zip(words).filter(|&(_, &x)| x > 0).map(|((_, a, b), &x)| (host_edge(a, b), x)).collect();
    loads.sort_unstable();
    loads
}

/// The charged walk body: cluster `w`'s tokens under master seed `master`.
/// Returns the outcome and the words per edge of `w.sub` (empty unless
/// tracked).
fn walk_cluster(
    w: &ClusterWalk<'_>,
    master: u64,
    max_steps: usize,
    faults: Option<FaultState>,
    track_edges: bool,
) -> (RoutingOutcome, Vec<u64>) {
    let ClusterWalk { sub, leader_local, .. } = *w;
    // the tokens still walking: a step costs these, not `total`
    let (mut live, total) = launch(w, master);
    let mut delivered = total - live.len();
    let mut steps = 0usize;
    let mut tally = EdgeTally {
        load: vec![0; sub.m()],
        touched: vec![0; sub.m() + 1],
        len: 0,
        step_max: 0,
        words: if track_edges { vec![0; sub.m()] } else { Vec::new() },
        rounds: 0,
        max_load: 0,
    };
    let (neighbors, edge_ids, faults) = (sub.csr_neighbors(), sub.csr_edge_ids(), faults.as_ref());
    // step-major: every live token takes step `s`, its crossing charged as
    // it happens, then the step is closed; a step with a live token is
    // always charged, so the walk ends on its last token's step
    while steps < max_steps && !live.is_empty() {
        steps += 1;
        let s = steps as u64;
        // the survivors are compacted in place: `live[kept]` is written
        // for every token and kept only when it still walks
        let mut kept = 0;
        for i in 0..live.len() {
            let Walker { key, pos: v } = live[i];
            // the port is picked and its crossing charged whether or not the
            // token moves (`moves` = 0 adds nothing), so the coin selects
            // instead of branching; a live token is off the leader, so the
            // connected cluster has a second vertex and every vertex a
            // neighbor
            let (slot, moves) = step(sub, key, s, v);
            let moves = u32::from(moves);
            let (w, e) = (neighbors[slot], edge_ids[slot]);
            tally.cross(e, moves);
            // a crossing consumes the edge's bandwidth whatever the plan
            // decides; the plan is keyed by the 0-based walk step
            let killed = faults.is_some_and(|f| moves == 1 && f.kills(s - 1, e as usize, v as usize, w as usize));
            // a select, not a branch: the coin is a fair random bit
            let to = v ^ ((v ^ w) & moves.wrapping_neg());
            let home = to as usize == leader_local;
            delivered += usize::from(home & !killed);
            live[kept] = Walker { key, pos: to };
            kept += usize::from(!home & !killed);
        }
        live.truncate(kept);
        tally.end_step();
    }
    let outcome = RoutingOutcome { delivered, total, steps, rounds: tally.rounds, max_edge_load: tally.max_load };
    (outcome, tally.words)
}

/// Deterministic routing: pipelined convergecast of one message per vertex
/// along a BFS tree rooted at `leader` within `G[members]`.
///
/// An edge `e` of the tree must carry `subtree_size(child)` messages, so a
/// pipelined schedule completes in `depth + max_e congestion(e) − 1`
/// rounds. Returns that round count and the measured congestion.
///
/// # Panics
///
/// Panics if `leader` is not in `members`, a member repeats or
/// `G[members]` is disconnected.
pub fn tree_routing(g: &Graph, members: &[usize], leader: usize) -> RoutingOutcome {
    let (sub, _, leader_local) = cut_cluster(g, members, leader);
    assert!(sub.is_connected(), "tree_routing needs a connected cluster");
    let n = sub.n();
    let dist = sub.bfs_distances(leader_local);
    // BFS parents: any neighbor at distance - 1
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(dist[v]));
    let mut subtree = vec![1usize; n];
    let mut max_congestion = 0usize;
    for &v in &order {
        if v == leader_local {
            continue;
        }
        let p = sub
            .neighbor_vertices(v)
            .find(|&u| dist[u] + 1 == dist[v])
            .expect("BFS parent exists in connected cluster");
        subtree[p] += subtree[v];
        max_congestion = max_congestion.max(subtree[v]);
    }
    let depth = dist.iter().copied().max().unwrap_or(0);
    let rounds = if n <= 1 {
        0
    } else {
        (depth + max_congestion - 1) as u64
    };
    RoutingOutcome {
        delivered: n,
        total: n,
        steps: depth,
        rounds,
        max_edge_load: max_congestion,
    }
}

/// Lemma 2.4 executed **message-faithfully** inside the CONGEST
/// simulator: the faithful walk of `G[members]` under one draw from `rng`
/// as its master seed, the draw [`charged_walk_routing`] takes on the same
/// generator state — so each token walks the charged token's vertices.
/// Each member `i` launches `counts[i]` tokens (the `L · deg(v)` form of
/// Lemma 2.4, used by the message-faithful framework to ship
/// `1 + outdeg(v)` topology words per vertex).
///
/// It runs on [`Network::cluster`] of `net`, from `net`'s next round on,
/// and its statistics and (when `net`'s tracer keeps edge loads) words per
/// host edge are charged to `net`. Returns the outcome and `net`'s gain.
///
/// # Panics
///
/// Panics if `counts.len() != members.len()`, a member repeats, `leader`
/// is not in `members` or `G[members]` is disconnected.
pub fn network_walk_routing_with_counts(
    net: &mut Network,
    members: &[usize],
    leader: usize,
    counts: &[usize],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
) -> (RoutingOutcome, RoundStats) {
    let (sub, map, leader_local) = cut_cluster(net.graph(), members, leader);
    let walk = ClusterWalk { sub: &sub, map: &map, leader_local, counts };
    let (start, track_edges) = (net.stats(), net.tracer_mut().is_some_and(|t| t.records_edge_loads()));
    let (outcome, loads, traffic) = faithful_walks(net, &[walk], max_steps, rng, track_edges, ExecConfig::sequential()).remove(0);
    net.charge_stats(&traffic);
    if let Some(t) = net.tracer_mut() {
        for (e, words) in loads {
            t.add_edge_words(e, words);
        }
    }
    (outcome, net.stats().since(&start))
}

/// [`charged_walks`] with message-faithful walks, each cluster on
/// [`Network::cluster`] of `net`: from `net`'s next round on, so a plan
/// `net` has run rounds on is read at the walks' own rounds. Each record
/// carries its cluster network's [`RoundStats`].
///
/// # Panics
///
/// As [`charged_walks`].
pub fn faithful_walks(
    net: &Network,
    walks: &[ClusterWalk<'_>],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
    track_edges: bool,
    exec: ExecConfig,
) -> Vec<WalkRecord> {
    each_walk(net, walks, rng, exec, |w, master| faithful_walk(net.cluster(w.sub, w.map), w, max_steps, master, track_edges))
}

/// Cluster `w`'s charged trajectories plus engine queueing on `net`, a
/// fresh network over `w.sub`, under master seed `master`: each crossing is
/// a real 2-word message `[key, step]`, and a message the plan destroys
/// loses its token. A step's movers are bucketed into one queue per slot
/// of `w.sub` (count, prefix sum, bucket) that drain one token per port per
/// round through [`Network::exchange_active`]; the arrivals are the next
/// step's live tokens. Steps are synchronised at one charged silent round
/// each (a real implementation would spend an O(diameter) convergecast), so
/// a step costs its longest port queue plus one round where the charged
/// walk pays `max(largest two-way edge load, 1)` — the per-token oracle of
/// the tests. Returns the outcome, the delivered words per edge of `w.sub`
/// (empty unless `track_edges`) and `net`'s [`RoundStats`].
fn faithful_walk(
    mut net: Network,
    w: &ClusterWalk<'_>,
    max_steps: usize,
    master: u64,
    track_edges: bool,
) -> (RoutingOutcome, Vec<u64>, RoundStats) {
    let ClusterWalk { sub, leader_local, .. } = *w;
    let (offsets, edge_ids) = (sub.csr_offsets(), sub.csr_edge_ids());
    let (mut live, total) = launch(w, master);
    let mut delivered = total - live.len();
    let mut words = if track_edges { vec![0u64; sub.m()] } else { Vec::new() };
    // per queue (slot): this step's tokens, and where they start in `queued`
    let (mut count, mut first) = (vec![0u32; sub.slots()], vec![0u32; sub.slots()]);
    // the queues with a token left to send as (sender, slot) — slot order
    // once sorted, the order exchange_active takes senders in — and the
    // step's movers and senders
    let (mut draining, mut moving, mut queued, mut senders) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut max_edge_load) = (0usize, 0usize);
    while steps < max_steps && !live.is_empty() {
        steps += 1;
        let s = steps as u64;
        // the tokens that stay are compacted in place, the movers counted
        let mut kept = 0;
        for i in 0..live.len() {
            let walker = live[i];
            let (slot, moves) = step(sub, walker.key, s, walker.pos);
            if moves {
                if count[slot] == 0 {
                    draining.push((walker.pos, slot as u32));
                }
                count[slot] += 1;
                moving.push((slot, walker.key));
            } else {
                live[kept] = walker;
                kept += 1;
            }
        }
        live.truncate(kept);
        // prefix sums over the draining queues in slot order, then the
        // movers placed back to front, so each queue keeps the live order
        draining.sort_unstable();
        let (mut end, mut longest) = (0u32, 0u32);
        for &(_, q) in &draining {
            end += count[q as usize];
            first[q as usize] = end;
            longest = longest.max(count[q as usize]);
        }
        queued.resize(end as usize, 0u64);
        for &(q, key) in moving.iter().rev() {
            first[q] -= 1;
            queued[first[q] as usize] = key;
        }
        moving.clear();
        max_edge_load = max_edge_load.max(longest as usize);
        // round `r` sends the `r`-th token of every queue that has one
        for r in 0..longest {
            senders.clear();
            senders.extend(draining.iter().map(|&(v, _)| v as usize));
            senders.dedup();
            let mut next = 0;
            net.exchange_active(
                &senders,
                |v, out| {
                    while let Some(&(_, q)) = draining.get(next).filter(|&&(u, _)| u as usize == v) {
                        let q = q as usize;
                        out.send(q - offsets[v] as usize, [queued[(first[q] + r) as usize], s]);
                        next += 1;
                    }
                },
                |u, inbox| {
                    let row = offsets[u] as usize..offsets[u + 1] as usize;
                    for (slot, m) in row.zip(inbox).filter_map(|(slot, m)| Some((slot, m.as_ref()?))) {
                        if let Some(w) = words.get_mut(edge_ids[slot] as usize) {
                            *w += m.len() as u64;
                        }
                        if u == leader_local {
                            delivered += 1;
                        } else {
                            live.push(Walker { key: m[0], pos: u as u32 });
                        }
                    }
                },
            );
            // a drained queue leaves `draining` with its count reset
            draining.retain(|&(_, q)| {
                let c = &mut count[q as usize];
                *c = if *c > r + 1 { *c } else { 0 };
                *c > 0
            });
        }
        // step-synchronization round
        net.charge_rounds(1);
    }
    let stats = net.stats();
    (RoutingOutcome { delivered, total, steps, rounds: stats.rounds, max_edge_load }, words, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn walk_routing_delivers_on_expander() {
        let mut rng = gen::seeded_rng(130);
        let g = gen::complete(20);
        let members: Vec<usize> = (0..20).collect();
        let ones = vec![1; members.len()];
        let out = charged_walk_routing(&g, &members, 3, &ones, 10_000, &mut rng, None, false).0;
        assert!(out.complete(), "{out:?}");
        assert_eq!(out.total, 20);
        assert!(out.rounds >= out.steps as u64);
    }

    #[test]
    fn walk_routing_on_cluster_subset() {
        let mut rng = gen::seeded_rng(131);
        let g = gen::grid(6, 6);
        // cluster = first two rows
        let members: Vec<usize> = (0..12).collect();
        let ones = vec![1; members.len()];
        let out = charged_walk_routing(&g, &members, 0, &ones, 100_000, &mut rng, None, false).0;
        assert!(out.complete());
    }

    #[test]
    fn walk_routing_respects_step_cap() {
        let mut rng = gen::seeded_rng(132);
        let g = gen::path(40);
        let members: Vec<usize> = (0..40).collect();
        let out = charged_walk_routing(&g, &members, 0, &vec![1; members.len()], 5, &mut rng, None, false).0;
        assert!(!out.complete());
        assert_eq!(out.steps, 5);
    }

    #[test]
    #[should_panic(expected = "leader must be a cluster member")]
    fn walk_routing_checks_leader() {
        let mut rng = gen::seeded_rng(133);
        let g = gen::grid(3, 3);
        charged_walk_routing(&g, &[0, 1, 2], 8, &[1; 3], 10, &mut rng, None, false);
    }

    #[test]
    fn walk_routing_with_counts() {
        let mut rng = gen::seeded_rng(135);
        let g = gen::complete(10);
        let members: Vec<usize> = (0..10).collect();
        let counts: Vec<usize> = (0..10).map(|v| 1 + v % 3).collect();
        let out = charged_walk_routing(&g, &members, 2, &counts, 50_000, &mut rng, None, false).0;
        assert_eq!(out.total, counts.iter().sum::<usize>());
        assert!(out.complete());
    }

    /// One seeded execution of the one router: outcome, host-edge loads,
    /// and the caller rng's next draw (the walk must consume exactly one).
    #[expect(clippy::too_many_arguments, reason = "mirrors charged_walk_routing's parameters")]
    fn route(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        seed: u64,
        faults: Option<&FaultPlan>,
        track_edges: bool,
    ) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
        let mut rng = gen::seeded_rng(seed);
        let (out, loads) = charged_walk_routing(g, members, leader, counts, max_steps, &mut rng, faults, track_edges);
        (out, loads, rng.gen::<u64>())
    }

    /// The four `(faults, track_edges)` settings that must not change the
    /// walk when the plan is vacuous.
    fn vacuous_combos(vacuous: &FaultPlan) -> [(Option<&FaultPlan>, bool); 4] {
        [(None, false), (None, true), (Some(vacuous), false), (Some(vacuous), true)]
    }

    #[test]
    fn walk_routing_advances_caller_rng_identically() {
        // the router consumes exactly one draw from the caller's rng
        // regardless of fault plan and edge tally, so downstream phases
        // stay aligned
        let g = gen::complete(12);
        let members: Vec<usize> = (0..12).collect();
        let counts = vec![1usize; 12];
        let vacuous = FaultPlan::none();
        let after = |faults: Option<&FaultPlan>, track: bool| {
            route(&g, &members, 0, &counts, 10_000, 140, faults, track).2
        };
        let want = after(None, false);
        for (faults, track) in vacuous_combos(&vacuous) {
            assert_eq!(after(faults, track), want);
        }
        let lossy = FaultPlan::drops(9, 0.5);
        assert_eq!(after(Some(&lossy), true), want);
    }

    #[test]
    fn traced_walk_matches_untraced_and_reports_host_edges() {
        let g = gen::grid(5, 5);
        let members: Vec<usize> = (0..25).collect();
        let counts = vec![1usize; 25];
        let (plain, no_loads, draw_a) = route(&g, &members, 12, &counts, 100_000, 141, None, false);
        let (traced, loads, draw_b) = route(&g, &members, 12, &counts, 100_000, 141, None, true);
        // tracing must not perturb the walk or the caller's rng
        assert_eq!(traced, plain);
        assert_eq!(draw_a, draw_b);
        assert!(no_loads.is_empty(), "an untracked walk reports no loads");
        // loads: sorted by host edge id, all valid, words even (2 per crossing)
        assert!(!loads.is_empty());
        assert!(loads.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(loads.iter().all(|&(e, w)| e < g.m() && w > 0 && w % 2 == 0));
        // total traced words = 2 per executed crossing; crossings ≥ tokens
        // delivered from outside the leader
        let total_words: u64 = loads.iter().map(|&(_, w)| w).sum();
        assert!(total_words >= 2 * (traced.delivered as u64 - 1));
    }

    #[test]
    fn traced_walk_on_subcluster_maps_to_host_ids() {
        let g = gen::grid(6, 4);
        let members: Vec<usize> = (0..24).filter(|v| v % 6 < 3).collect();
        let counts = vec![1usize; members.len()];
        let (out, loads, _) = route(&g, &members, 0, &counts, 200_000, 142, None, true);
        assert!(out.complete());
        let member_set: std::collections::BTreeSet<usize> = members.iter().copied().collect();
        for &(e, _) in &loads {
            let (u, v) = g.endpoints(e);
            assert!(member_set.contains(&u) && member_set.contains(&v), "edge {e} leaves the cluster");
        }
    }

    #[test]
    fn faulty_walk_with_vacuous_plan_matches_plain() {
        let g = gen::complete(14);
        let members: Vec<usize> = (0..14).collect();
        let counts = vec![1usize; 14];
        let vacuous = FaultPlan::none();
        let (plain, _, draw) = route(&g, &members, 5, &counts, 50_000, 150, None, false);
        let (_, plain_loads, _) = route(&g, &members, 5, &counts, 50_000, 150, None, true);
        for (faults, track) in vacuous_combos(&vacuous) {
            let (out, loads, next) = route(&g, &members, 5, &counts, 50_000, 150, faults, track);
            assert_eq!(out, plain, "faults={} track={track}", faults.is_some());
            assert_eq!(next, draw);
            assert_eq!(loads, if track { plain_loads.clone() } else { Vec::new() });
        }
    }

    #[test]
    fn faulty_walk_loses_tokens_and_reports_incomplete() {
        let g = gen::complete(12);
        let members: Vec<usize> = (0..12).collect();
        let counts = vec![1usize; 12];
        let plan = FaultPlan::drops(9, 1.0);
        let (out, _, _) = route(&g, &members, 0, &counts, 50_000, 151, Some(&plan), false);
        // every first crossing kills its token; only the leader's own
        // token (absorbed at launch) counts as delivered
        assert_eq!(out.delivered, 1);
        assert!(!out.complete());
        assert!(out.steps < 50_000, "lost tokens must end the walk early");
    }

    /// A step-at-a-time charged walk, the body of both references: each
    /// step every live token, in ascending order, asks `port(t, s, deg)`
    /// which of its `deg` ports it takes at 1-based step `s` (`None`: it
    /// stays), a crossing is adjudicated by the plan's own lists, and the
    /// step's crossings are counted per edge once the step is over. Also
    /// counts the live token-steps, the unit the walk's cost is quoted in.
    #[expect(clippy::too_many_arguments, reason = "mirrors charged_walk_routing's parameters plus the draw rule")]
    fn walk_reference(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        faults: Option<&FaultPlan>,
        track_edges: bool,
        mut port: impl FnMut(u32, u64, usize) -> Option<usize>,
    ) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
        let (sub, map) = g.induced_subgraph(members);
        let leader_local = map.iter().position(|&v| v == leader).expect("leader must be a cluster member");
        let mut pos: Vec<usize> = Vec::new();
        for (v, &count) in counts.iter().enumerate() {
            pos.extend(std::iter::repeat_n(v, count));
        }
        let total = pos.len();
        let mut live: Vec<u32> = (0..total as u32).filter(|&t| pos[t as usize] != leader_local).collect();
        let mut delivered = total - live.len();
        let host_edge_of = |(_, a, b): (usize, usize, usize)| g.edge_id(map[a], map[b]).expect("host edge");
        let host_edge: Vec<usize> = sub.edges().map(host_edge_of).collect();
        let (mut load, mut words) = (vec![0usize; sub.m()], vec![0u64; sub.m()]);
        let (mut steps, mut token_steps, mut rounds, mut max_edge_load) = (0usize, 0u64, 0u64, 0usize);
        while steps < max_steps && !live.is_empty() {
            steps += 1;
            token_steps += live.len() as u64;
            let mut crossed: Vec<u32> = Vec::new();
            live.retain(|&t| {
                let v = pos[t as usize];
                let Some(k) = port(t, steps as u64, sub.degree(v)) else {
                    return true;
                };
                let (w, e) = (sub.neighbor_row(v)[k] as usize, sub.edge_id_row(v)[k]);
                crossed.push(e);
                let (round, edge, from, to) = ((steps - 1) as u64, host_edge[e as usize], map[v], map[w]);
                if faults.is_some_and(|f| kills_by_plan(f, round, edge, from, to)) {
                    return false;
                }
                pos[t as usize] = w;
                delivered += usize::from(w == leader_local);
                w != leader_local
            });
            for &e in &crossed {
                load[e as usize] += 1;
                words[e as usize] += 2;
            }
            let step_max = crossed.iter().map(|&e| load[e as usize]).max().unwrap_or(0);
            for &e in &crossed {
                load[e as usize] = 0;
            }
            rounds += step_max.max(1) as u64;
            max_edge_load = max_edge_load.max(step_max);
        }
        let mut loads: Vec<(usize, u64)> = if track_edges {
            sub.edges().zip(&words).filter(|&(_, &w)| w > 0).map(|(edge, &w)| (host_edge_of(edge), w)).collect()
        } else {
            Vec::new()
        };
        loads.sort_unstable();
        (RoutingOutcome { delivered, total, steps, rounds, max_edge_load }, loads, token_steps)
    }

    /// The router's walk re-derived from its documented draw: the master
    /// seed is one draw of `rng`, and token `t` at step `s` reads
    /// `h = mix(mix(master ^ t·φ64) + s·φ64)` with SplitMix64's finaliser
    /// `mix`, moves when bit 63 is set, and then takes port
    /// `(h mod 2³² · deg) >> 32`.
    #[expect(clippy::too_many_arguments, reason = "mirrors charged_walk_routing's parameters")]
    fn charged_walk_reference(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        rng: &mut ChaCha8Rng,
        faults: Option<&FaultPlan>,
        track_edges: bool,
    ) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let splitmix = |z: u64| {
            let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let master: u64 = rng.gen();
        walk_reference(g, members, leader, counts, max_steps, faults, track_edges, |t, s, deg| {
            let h = splitmix(splitmix(master ^ u64::from(t).wrapping_mul(PHI)).wrapping_add(s.wrapping_mul(PHI)));
            (h >> 63 == 1).then(|| (((h & 0xFFFF_FFFF) * deg as u64) >> 32) as usize)
        })
    }

    /// The walk as it stood before the stateless draw, kept to compare the
    /// two draws' statistics: token `t` owns the generator
    /// `ChaCha8Rng::seed_from_u64(master ^ t·φ64)` and a step reads
    /// `gen_bool(0.5)` (true: it stays), then `gen_range(0..deg)`.
    #[expect(clippy::too_many_arguments, reason = "mirrors charged_walk_routing's parameters")]
    fn chacha_walk_reference(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        rng: &mut ChaCha8Rng,
        faults: Option<&FaultPlan>,
        track_edges: bool,
    ) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
        use rand::SeedableRng;
        let master: u64 = rng.gen();
        let total = counts.iter().sum::<usize>() as u64;
        let mut streams: Vec<ChaCha8Rng> =
            (0..total).map(|t| ChaCha8Rng::seed_from_u64(master ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        walk_reference(g, members, leader, counts, max_steps, faults, track_edges, |t, _, deg| {
            let stream = &mut streams[t as usize];
            (!stream.gen_bool(0.5)).then(|| stream.gen_range(0..deg))
        })
    }

    /// The plan's verdict read off its lists, independently of the compiled
    /// [`FaultState`]: a crash of either endpoint, then a down link, then
    /// the keyed coin.
    fn kills_by_plan(f: &FaultPlan, round: u64, edge: usize, from: usize, to: usize) -> bool {
        f.crashes.iter().any(|c| (c.node == from || c.node == to) && c.at_round <= round)
            || f.link_failures.iter().any(|l| l.edge == edge && l.from_round <= round && round < l.until_round)
            || f.drops_message(round, edge, from > to)
    }

    /// [`route`]'s triple from the reference walk.
    #[expect(clippy::too_many_arguments, reason = "mirrors charged_walk_routing's parameters")]
    fn route_reference(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        seed: u64,
        faults: Option<&FaultPlan>,
        track_edges: bool,
    ) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
        let mut rng = gen::seeded_rng(seed);
        let (out, loads, _) =
            charged_walk_reference(g, members, leader, counts, max_steps, &mut rng, faults, track_edges);
        (out, loads, rng.gen::<u64>())
    }

    #[test]
    fn tokens_launched_at_the_leader_take_no_step() {
        let g = gen::grid(4, 4);
        let members: Vec<usize> = (0..16).collect();
        let counts: Vec<usize> = (0..16).map(|v| if v == 5 { 7 } else { 0 }).collect();
        let (out, loads, _) = route(&g, &members, 5, &counts, 1_000, 160, None, true);
        assert_eq!(out, RoutingOutcome { delivered: 7, total: 7, steps: 0, rounds: 0, max_edge_load: 0 });
        assert!(loads.is_empty());
    }

    /// The stateless draw walks like the ChaCha streams it replaced: over
    /// 100 seeds on two families at the framework's load (`1 + outdeg(v)`
    /// tokens at `v`), uncapped, every walk delivers everything and the
    /// mean charged rounds agree within 5 %.
    #[test]
    fn stateless_draw_walks_like_the_chacha_streams() {
        let families = [
            ("grid_with_noise(10, 10)", gen::grid_with_noise(10, 10, 0.02, &mut gen::seeded_rng(8))),
            ("triangulated_grid(9, 9)", gen::triangulated_grid(9, 9)),
        ];
        for (name, g) in families {
            let members: Vec<usize> = (0..g.n()).collect();
            let counts: Vec<usize> =
                (0..g.n()).map(|v| 1 + g.neighbor_vertices(v).filter(|&u| u > v).count()).collect();
            let leader = (0..g.n()).max_by_key(|&v| (g.degree(v), v)).expect("non-empty");
            let (mut stateless, mut chacha) = (0u64, 0u64);
            for seed in 0..100 {
                let (new, _) = charged_walk_routing(
                    &g,
                    &members,
                    leader,
                    &counts,
                    usize::MAX,
                    &mut gen::seeded_rng(seed),
                    None,
                    false,
                );
                let (old, _, _) = chacha_walk_reference(
                    &g,
                    &members,
                    leader,
                    &counts,
                    usize::MAX,
                    &mut gen::seeded_rng(seed),
                    None,
                    false,
                );
                assert!(new.complete() && old.complete(), "{name} seed {seed}: {new:?} {old:?}");
                (stateless, chacha) = (stateless + new.rounds, chacha + old.rounds);
            }
            let ratio = stateless as f64 / chacha as f64;
            assert!((0.95..=1.05).contains(&ratio), "{name}: mean rounds {stateless} vs {chacha} over 100 seeds");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The router is the step-at-a-time walk of its documented draw:
        /// outcome, host-edge loads and the caller's next draw, at step caps
        /// from none to unbounded and under every kind of fault plan.
        #[test]
        fn walk_matches_reference(
            seed in proptest::prelude::any::<u64>(),
            family in 0usize..7,
            size in 3usize..9,
            leader_pick in 0usize..1_000,
            count_mod in 1usize..4,
            cap_pick in 0usize..7,
            plan_pick in 0usize..5,
            drop_prob in 0.0f64..0.3,
            track_edges in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = gen::seeded_rng(seed);
            let g = match family {
                0 => gen::complete(size + 2),
                1 => gen::grid(size, 3),
                2 => gen::path(2 * size),
                3 => gen::random_tree(3 * size, &mut rng),
                4 => gen::grid_with_noise(size, size, 0.05, &mut rng),
                5 => gen::star(size),
                _ => gen::triangulated_grid(size, size),
            };
            // the whole graph, or (odd seeds) the connected half around vertex 0
            let dist = g.bfs_distances(0);
            let radius = if seed % 2 == 1 { dist.iter().max().copied().unwrap_or(0).div_ceil(2) } else { usize::MAX };
            let members: Vec<usize> = (0..g.n()).filter(|&v| dist[v] <= radius).collect();
            let leader = members[leader_pick % members.len()];
            let counts: Vec<usize> = members.iter().map(|&v| (v + seed as usize % 3) % (count_mod + 1)).collect();
            let max_steps = [0, 1, 2, 17, 64, 199, usize::MAX][cap_pick];
            // a link down for steps 5..20, on an edge inside the cluster
            let inside = g.edges().find(|&(_, u, v)| dist[u] <= radius && dist[v] <= radius).map_or(0, |(e, _, _)| e);
            let plans = [
                None,
                Some(FaultPlan::none()),
                Some(FaultPlan::drops(seed, drop_prob)),
                Some(FaultPlan::none().with_link_failure(inside, 5, 20)),
                // a member other than the leader crashing a few steps in
                Some(FaultPlan::none().with_crash(members[(leader_pick + 1) % members.len()], 3)),
            ];
            let faults = plans[plan_pick].as_ref();
            let want = route_reference(&g, &members, leader, &counts, max_steps, seed, faults, track_edges);
            let got = route(&g, &members, leader, &counts, max_steps, seed, faults, track_edges);
            proptest::prop_assert_eq!(&got, &want);
        }

        /// Several clusters' walks at once are the walks one after another:
        /// outcomes, host-edge loads and the caller's next draw, at 1–3
        /// threads, with and without drops and edge tallies.
        #[test]
        fn charged_walks_match_one_at_a_time(
            seed in proptest::prelude::any::<u64>(),
            family in 0usize..4,
            size in 4usize..10,
            phi_cut in 0.05f64..0.4,
            leader_pick in 0usize..1_000,
            threads in 1usize..=3,
            drops in proptest::prelude::any::<bool>(),
            drop_prob in 0.0f64..0.3,
            track_edges in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = gen::seeded_rng(seed);
            let g = match family {
                0 => gen::grid(size, 4),
                1 => gen::random_tree(3 * size, &mut rng),
                2 => gen::grid_with_noise(size, size, 0.05, &mut rng),
                _ => gen::triangulated_grid(size, size),
            };
            // connected clusters of every size the threshold makes, one
            // vertex included
            let threshold = crate::decomp::Threshold::Fixed(phi_cut);
            let clusters = crate::decomp::decompose(&g, 0.3, threshold, ExecConfig::sequential()).clusters;
            let plan = drops.then(|| FaultPlan::drops(seed, drop_prob));
            let faults = plan.as_ref();
            let counts: Vec<Vec<usize>> =
                clusters.iter().map(|c| c.members.iter().map(|&v| 1 + (v + seed as usize) % 3).collect()).collect();
            let leaders: Vec<usize> = clusters.iter().map(|c| (leader_pick + c.members[0]) % c.members.len()).collect();
            let max_steps = 199;

            let mut one_rng = gen::seeded_rng(seed);
            let one: Vec<_> = clusters
                .iter()
                .zip(&counts)
                .zip(&leaders)
                .map(|((c, counts), &l)| {
                    charged_walk_routing(&g, &c.members, c.members[l], counts, max_steps, &mut one_rng, faults, track_edges)
                })
                .collect();

            let subs: Vec<(Graph, Vec<usize>)> = clusters.iter().map(|c| g.induced_subgraph(&c.members)).collect();
            let walks: Vec<ClusterWalk<'_>> = subs
                .iter()
                .zip(&counts)
                .zip(&leaders)
                .map(|(((sub, map), counts), &leader_local)| ClusterWalk { sub, map, leader_local, counts })
                .collect();
            let mut net = Network::new(&g, Model::congest());
            net.set_fault_plan(plan.clone());
            let mut all_rng = gen::seeded_rng(seed);
            let all: Vec<_> = charged_walks(&net, &walks, max_steps, &mut all_rng, track_edges, ExecConfig::with_threads(threads))
                .into_iter()
                .map(|(outcome, loads, traffic)| {
                    assert_eq!(traffic, RoundStats::default(), "a charged walk runs no rounds");
                    (outcome, loads)
                })
                .collect();
            proptest::prop_assert_eq!(all, one);
            proptest::prop_assert_eq!(all_rng.gen::<u64>(), one_rng.gen::<u64>());
        }
    }

    /// Unit cost of a live token-step: `cargo test --release -p lcg-expander
    /// --lib probe_walk -- --ignored --nocapture --test-threads=1`.
    #[test]
    #[ignore = "probe: prints ns per live token-step"]
    #[expect(clippy::disallowed_methods, reason = "a probe times itself and only prints; nothing asserts on the clock")]
    fn probe_walk_unit_cost() {
        for side in [20, 40, 60] {
            let g = gen::grid_with_noise(side, side, 0.02, &mut gen::seeded_rng(side as u64));
            let members: Vec<usize> = (0..g.n()).collect();
            let leader = side * side / 2 + side / 2;
            // the framework's load: 1 + out-degree topology words per vertex
            let counts: Vec<usize> = (0..g.n()).map(|v| 1 + g.degree(v) / 2).collect();
            let (want, _, token_steps) =
                charged_walk_reference(&g, &members, leader, &counts, usize::MAX, &mut gen::seeded_rng(7), None, false);
            let best = (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let out =
                        charged_walk_routing(&g, &members, leader, &counts, usize::MAX, &mut gen::seeded_rng(7), None, false)
                            .0;
                    let ns = started.elapsed().as_nanos() as f64;
                    assert_eq!(out, want);
                    ns / token_steps as f64
                })
                .fold(f64::INFINITY, f64::min);
            println!(
                "walk side {side}: {} tokens, {} steps, {token_steps} token-steps, {best:.1} ns/token-step",
                want.total, want.steps
            );
        }
    }

    /// One fault-free faithful walk on a network whose tracer keeps every
    /// edge's words: outcome, measured stats, host-edge words sorted by
    /// edge (the charged walk's tracked loads, in the same form) and the
    /// caller's next draw.
    fn route_faithful(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        seed: u64,
    ) -> (RoutingOutcome, RoundStats, Vec<(usize, u64)>, u64) {
        let mut net = Network::new(g, Model::congest());
        let every_edge = lcg_trace::TraceConfig::full("faithful").with_top_k(g.m());
        net.attach_tracer(lcg_trace::Tracer::new(every_edge));
        let mut rng = gen::seeded_rng(seed);
        let (out, stats) = network_walk_routing_with_counts(&mut net, members, leader, counts, max_steps, &mut rng);
        let trace = net.take_tracer().expect("a tracer was attached").finish();
        let mut loads: Vec<(usize, u64)> = trace.hotspots.iter().map(|h| (h.edge, h.words)).collect();
        loads.sort_unstable();
        (out, stats, loads, rng.gen::<u64>())
    }

    /// The per-token oracle: the charged and the faithful walk of one
    /// generator state, fault-free. Every token walks the same vertices, so
    /// the two agree on steps, on delivered tokens, on the caller's next
    /// draw and on every edge's crossings (each one 2-word message); per
    /// step the faithful walk pays its longest one-way port queue plus one
    /// synchronisation round where the charged one pays `max(largest
    /// two-way edge load, 1)`, which bounds rounds and edge loads within a
    /// factor 2.
    fn faithful_oracle(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        seed: u64,
    ) -> Result<(), String> {
        let (charged, charged_loads, charged_next) = route(g, members, leader, counts, max_steps, seed, None, true);
        let (faithful, stats, loads, next) = route_faithful(g, members, leader, counts, max_steps, seed);
        let (c, f) = (&charged, &faithful);
        let checks = [
            ("steps", c.steps == f.steps),
            ("delivered", c.delivered == f.delivered && c.total == f.total),
            ("rounds", c.rounds <= 2 * f.rounds && f.rounds <= c.rounds + c.steps as u64),
            ("max_edge_load", f.max_edge_load <= c.max_edge_load && c.max_edge_load <= 2 * f.max_edge_load),
            ("edge words", loads == charged_loads && stats.words == 2 * stats.messages),
            ("next draw", next == charged_next),
        ];
        match checks.iter().find(|&&(_, holds)| !holds) {
            Some((what, _)) => Err(format!("{what}: charged {c:?}, faithful {f:?}")),
            None => Ok(()),
        }
    }

    #[test]
    fn faithful_walk_is_the_charged_walk_later() {
        let noisy = gen::grid_with_noise(12, 12, 0.02, &mut gen::seeded_rng(9));
        let tree = gen::random_tree(40, &mut gen::seeded_rng(10));
        let families = [
            ("complete(24)", gen::complete(24)),
            ("grid_with_noise(12, 12)", noisy),
            ("triangulated_grid(8, 8)", gen::triangulated_grid(8, 8)),
            ("random_tree(40)", tree),
            ("path(30)", gen::path(30)),
        ];
        for (name, g) in &families {
            let members: Vec<usize> = (0..g.n()).collect();
            let counts: Vec<usize> = members.iter().map(|&v| 1 + v % 3).collect();
            for (seed, max_steps) in [(138, usize::MAX), (139, 17), (140, 1), (141, 0)] {
                let leader = seed as usize % g.n();
                let verdict = faithful_oracle(g, &members, leader, &counts, max_steps, seed);
                assert_eq!(verdict, Ok(()), "{name}, cap {max_steps}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The per-token oracle on whole graphs and connected parts, with
        /// the members in any order and at step caps from none to unbounded.
        #[test]
        fn faithful_oracle_holds(
            seed in proptest::prelude::any::<u64>(),
            family in 0usize..5,
            size in 3usize..8,
            leader_pick in 0usize..1_000,
            count_mod in 1usize..4,
            cap_pick in 0usize..4,
        ) {
            let mut rng = gen::seeded_rng(seed);
            let g = match family {
                0 => gen::complete(size + 2),
                1 => gen::grid(size, 3),
                2 => gen::random_tree(3 * size, &mut rng),
                3 => gen::grid_with_noise(size, size, 0.05, &mut rng),
                _ => gen::triangulated_grid(size, size),
            };
            let dist = g.bfs_distances(0);
            let radius = if seed % 2 == 1 { dist.iter().max().copied().unwrap_or(0).div_ceil(2) } else { usize::MAX };
            // members in a shuffled order: local and host order differ
            let mut members: Vec<usize> = (0..g.n()).filter(|&v| dist[v] <= radius).collect();
            members.reverse();
            let turn = seed as usize % members.len();
            members.rotate_left(turn);
            let leader = members[leader_pick % members.len()];
            let counts: Vec<usize> = members.iter().map(|&v| (v + seed as usize % 3) % (count_mod + 1)).collect();
            let max_steps = [0, 1, 40, usize::MAX][cap_pick];
            let verdict = faithful_oracle(&g, &members, leader, &counts, max_steps, seed);
            proptest::prop_assert_eq!(verdict, Ok(()));
        }
    }

    /// Unit cost of the message-faithful router: `cargo test --release -p
    /// lcg-expander --lib probe_faithful -- --ignored --nocapture
    /// --test-threads=1`. Its token-steps are the charged walk's.
    #[test]
    #[ignore = "probe: prints ns per live token-step and per delivered message"]
    #[expect(clippy::disallowed_methods, reason = "a probe times itself and only prints; nothing asserts on the clock")]
    fn probe_faithful_unit_cost() {
        for side in [20, 40, 60] {
            let g = gen::grid_with_noise(side, side, 0.02, &mut gen::seeded_rng(side as u64));
            let members: Vec<usize> = (0..g.n()).collect();
            let leader = side * side / 2 + side / 2;
            let counts: Vec<usize> = (0..g.n()).map(|v| 1 + g.degree(v) / 2).collect();
            let (charged, _, token_steps) =
                charged_walk_reference(&g, &members, leader, &counts, usize::MAX, &mut gen::seeded_rng(7), None, false);
            let runs: Vec<(RoutingOutcome, RoundStats, f64)> = (0..3)
                .map(|_| {
                    let mut net = Network::new(&g, Model::congest());
                    let started = std::time::Instant::now();
                    let (out, stats) =
                        network_walk_routing_with_counts(&mut net, &members, leader, &counts, usize::MAX, &mut gen::seeded_rng(7));
                    (out, stats, started.elapsed().as_nanos() as f64)
                })
                .collect();
            let (out, stats, _) = runs[0];
            assert!(runs.iter().all(|&(o, s, _)| (o, s) == (out, stats)));
            assert_eq!((out.steps, out.delivered), (charged.steps, charged.delivered));
            let best = runs.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
            println!(
                "faithful side {side}: {} tokens, {} steps, {token_steps} token-steps, {} messages, \
                 {:.1} ns/token-step, {:.1} ns/message",
                out.total,
                out.steps,
                stats.messages,
                best / token_steps as f64,
                best / stats.messages as f64,
            );
        }
    }

    #[test]
    fn tree_routing_star() {
        let g = gen::star(10);
        let members: Vec<usize> = (0..10).collect();
        let out = tree_routing(&g, &members, 0);
        // all leaves at depth 1, each tree edge carries 1 message
        assert_eq!(out.rounds, 1);
        assert!(out.complete());
    }

    #[test]
    fn tree_routing_path_congestion() {
        let g = gen::path(10);
        let members: Vec<usize> = (0..10).collect();
        let out = tree_routing(&g, &members, 0);
        // depth 9, last edge carries 9 messages: 9 + 9 - 1 = 17
        assert_eq!(out.rounds, 17);
        assert_eq!(out.max_edge_load, 9);
    }

    #[test]
    fn tree_routing_singleton() {
        let g = gen::path(3);
        let out = tree_routing(&g, &[1], 1);
        assert_eq!(out.rounds, 0);
        assert!(out.complete());
    }

    #[test]
    fn network_routing_delivers_with_real_messages() {
        let mut rng = gen::seeded_rng(136);
        let g = gen::complete(16);
        let members: Vec<usize> = (0..16).collect();
        let mut net = Network::new(&g, Model::congest());
        let ones = vec![1; members.len()];
        let (out, stats) = network_walk_routing_with_counts(&mut net, &members, 3, &ones, 100_000, &mut rng);
        assert!(out.complete(), "{out:?}");
        assert_eq!(out.total, 16);
        // every message really fit the CONGEST budget
        assert!(stats.max_words_edge_round <= 2);
        assert!(stats.messages > 0);
        // rounds at least the number of walk steps (plus sync rounds)
        assert!(out.rounds >= out.steps as u64);
    }

    #[test]
    fn network_routing_respects_cluster_boundary() {
        let mut rng = gen::seeded_rng(137);
        let g = gen::grid(6, 4);
        // cluster = left 3 columns
        let members: Vec<usize> = (0..24).filter(|v| v % 6 < 3).collect();
        let mut net = Network::new(&g, Model::congest());
        let ones = vec![1; members.len()];
        let (out, _) = network_walk_routing_with_counts(&mut net, &members, 0, &ones, 200_000, &mut rng);
        assert!(out.complete());
    }

    #[test]
    fn walk_routing_faster_on_expander_than_path() {
        let mut rng = gen::seeded_rng(134);
        let e = gen::complete(16);
        let p = gen::path(16);
        let me: Vec<usize> = (0..16).collect();
        let oe = charged_walk_routing(&e, &me, 0, &vec![1; me.len()], 100_000, &mut rng, None, false).0;
        let op = charged_walk_routing(&p, &me, 0, &vec![1; me.len()], 100_000, &mut rng, None, false).0;
        assert!(oe.complete() && op.complete());
        assert!(oe.steps < op.steps, "expander {} vs path {}", oe.steps, op.steps);
    }
}
