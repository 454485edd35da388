//! Expander routing inside a cluster (paper Lemmas 2.4 and 2.5).
//!
//! * [`charged_walk_routing`] is **Lemma 2.4 verbatim**: every cluster
//!   vertex launches a lazy random walk carrying its `O(log n)`-bit
//!   message; a walk is absorbed when it first visits the leader `v_i*`.
//!   One walk step is simulated in as many CONGEST rounds as the maximum
//!   number of tokens crossing a single edge (each token is one
//!   `O(log n)`-bit message), which the lemma bounds by `O(log n)` w.h.p.
//!   We *measure* that load instead of assuming it. A token's trajectory
//!   depends on no other token, so the walk runs token-major in windows
//!   of `WINDOW` steps — each live token takes the window's steps in a row,
//!   logging its crossings per step — and the per-step edge loads are
//!   tallied from the logs afterwards, in step order.
//!   [`random_walk_routing`] (one token per member, ambient executor) and
//!   [`random_walk_routing_with_counts_exec`] (no faults, no edge tally)
//!   are its two argument-fixing adapters.
//!
//! * [`tree_routing`] is the deterministic counterpart standing in for
//!   Lemma 2.5 (see the substitution table in DESIGN.md): a pipelined
//!   convergecast along a BFS tree rooted at the leader, taking
//!   `depth + max-edge-congestion` rounds. Both quantities are reported.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use lcg_congest::{ExecConfig, FaultPlan, Network, RoundStats};
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

/// [`charged_walk_routing`] with one token per member, the ambient
/// [`ExecConfig`], no fault plan and no edge tally.
///
/// # Panics
///
/// Panics if `leader` is not in `members` or `G[members]` is disconnected.
pub fn random_walk_routing(
    g: &Graph,
    members: &[usize],
    leader: usize,
    max_steps: usize,
    rng: &mut ChaCha8Rng,
) -> RoutingOutcome {
    let counts = vec![1usize; members.len()];
    charged_walk_routing(g, members, leader, &counts, max_steps, rng, ExecConfig::from_env(), None, false).0
}

/// [`charged_walk_routing`] with no fault plan and no edge tally.
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
    exec: ExecConfig,
) -> RoutingOutcome {
    charged_walk_routing(g, members, leader, counts, max_steps, rng, exec, None, false).0
}

/// Per-token walk state. Each token owns a ChaCha8 stream seeded from the
/// master seed and the token index, so its trajectory is a pure function
/// of `(master, t)` — independent of evaluation order and thread count.
struct Token {
    pos: usize,
    rng: ChaCha8Rng,
}

/// Walk steps a live token takes in a row before the next token's turn.
/// Not a knob: large enough that a token's 120 bytes are loaded once per
/// window rather than once per step and that the pool meets once per
/// window, small enough that the `WINDOW` crossing lists stay a fraction of
/// the tokens' own footprint.
const WINDOW: usize = 64;

/// What a token step reads besides the token: the walk's constants.
struct Walk<'a> {
    sub: &'a Graph,
    /// `map[local] = host` vertex (fault coins key on host ids).
    map: &'a [usize],
    leader_local: usize,
    faults: Option<&'a FaultPlan>,
    /// Host edge id per sub edge; empty without a fault plan.
    host_edge: &'a [usize],
}

/// One window of one run of tokens — every token of the sequential walk,
/// or a pool chunk's: in, the window and the run's live tokens; out, what
/// the shared tally needs of it.
struct WalkJob {
    /// Walk steps already executed: the window is steps `done + 1 ..=
    /// done + len`.
    done: usize,
    /// At most [`WINDOW`], clipped to the step cap.
    len: usize,
    /// The run's tokens still walking, as ascending indices into it.
    live: Vec<u32>,
    /// `events[k]`: the sub edges crossed in step `done + 1 + k`.
    events: Vec<Vec<u32>>,
    /// Tokens absorbed at the leader in this window.
    delivered: usize,
    /// Steps of the window in which some token of the run still walked.
    advanced: usize,
}

impl WalkJob {
    fn new(live: Vec<u32>) -> WalkJob {
        WalkJob { done: 0, len: 0, live, events: vec![Vec::new(); WINDOW], delivered: 0, advanced: 0 }
    }
}

impl Walk<'_> {
    /// One step of one live token: roll (stay with probability 1/2, else a
    /// uniform neighbor), adjudicate the crossing, move, absorb at the
    /// leader. `step` is the 1-based walk step. The sub edge crossed, if
    /// any, goes onto `crossed` for [`EdgeTally::merge`]; returns whether
    /// the token is still walking. Every update here is a pure function of
    /// `(step, token)` — it never reads the shared edge tables — so a
    /// token may run ahead of the others, on any thread, and the walk is
    /// bit-identical to stepping all tokens in lockstep.
    #[inline]
    fn advance(&self, step: usize, tok: &mut Token, crossed: &mut Vec<u32>, delivered: &mut usize) -> bool {
        // bit 63 clear: `gen_bool(0.5)`'s very coin (`(x >> 11) as f64 /
        // 2⁵³ < 0.5`) without the round trip through `f64`
        if tok.rng.next_u64() >> 63 == 0 {
            return true;
        }
        // a live token is off the leader, so the connected cluster has a
        // second vertex and every vertex a neighbor
        let k = tok.rng.gen_range(0..self.sub.degree(tok.pos));
        let (w, e) = (self.sub.neighbor_row(tok.pos)[k] as usize, self.sub.edge_id_row(tok.pos)[k]);
        crossed.push(e);
        // the crossing consumed the edge's bandwidth either way (the tally
        // still charges it); the plan decides the token's survival, keyed
        // by the 0-based walk step
        let killed = self.faults.is_some_and(|f| {
            f.kills_message((step - 1) as u64, self.host_edge[e as usize], self.map[tok.pos], self.map[w])
        });
        if killed {
            return false;
        }
        tok.pos = w;
        *delivered += usize::from(w == self.leader_local);
        w != self.leader_local
    }

    /// One window of `job`'s live tokens, token-major: each takes its
    /// `job.len` steps (or as many as it stays alive for) while its state
    /// is hot, its crossings landing on the list of the step they belong
    /// to; the tokens that stopped walking leave the live list.
    fn window(&self, tokens: &mut [Token], job: &mut WalkJob) {
        let WalkJob { done, len, live, events, delivered, advanced } = job;
        (*delivered, *advanced) = (0, 0);
        live.retain(|&t| {
            let tok = &mut tokens[t as usize];
            for (k, crossed) in events[..*len].iter_mut().enumerate() {
                if !self.advance(*done + 1 + k, tok, crossed, delivered) {
                    *advanced = (*advanced).max(k + 1);
                    return false;
                }
            }
            *advanced = *len;
            true
        });
    }
}

/// The walk's shared bookkeeping, updated once per step from that step's
/// crossings — the part that needs every token's move.
struct EdgeTally {
    /// Tokens per sub edge in the current step; all zero between steps.
    load: Vec<u32>,
    /// The edges `load` is non-zero on: a step costs its crossings, not a
    /// pass over the cluster's edges.
    touched: Vec<u32>,
    /// Largest load of the current step.
    step_max: u32,
    /// Cumulative words per sub edge; empty unless tracked.
    words: Vec<u64>,
    rounds: u64,
    max_load: usize,
}

impl EdgeTally {
    /// Adds one list of the current step's crossings: the sequential walk's
    /// only list, or one chunk's.
    // lcg-lint: commutative -- per-edge counts, their running maximum and per-edge word sums: every order of the crossings, within a list or across the chunks' lists, leaves the same `load`, `step_max` and `words`; `touched` holds the same edges in another order and is only ever zeroed from (permutation proptest: tests::edge_tally_merge_ignores_list_order)
    fn merge(&mut self, crossed: &[u32]) {
        for &e in crossed {
            let load = &mut self.load[e as usize];
            if *load == 0 {
                self.touched.push(e);
            }
            *load += 1;
            self.step_max = self.step_max.max(*load);
            if let Some(w) = self.words.get_mut(e as usize) {
                *w += 2; // one 2-word message per crossing
            }
        }
    }

    /// Charges the window the `jobs` just walked, step by step: the runs'
    /// crossing lists of one step merged in run order, then the step
    /// closed — exactly the sequence a step-at-a-time walk produces. Steps
    /// past the last one any token walked are not charged: the walk ended
    /// there. Returns the steps charged and the tokens absorbed.
    fn charge_window(&mut self, jobs: &mut [WalkJob]) -> (usize, usize) {
        let advanced = jobs.iter().map(|job| job.advanced).max().unwrap_or(0);
        for k in 0..advanced {
            for job in jobs.iter_mut() {
                self.merge(&job.events[k]);
                job.events[k].clear();
            }
            self.end_step();
        }
        (advanced, jobs.iter().map(|job| job.delivered).sum())
    }

    /// Charges the walk step whose crossings were merged. Each token
    /// crossing an edge is one O(log n)-bit message and an edge carries one
    /// message per round per direction, so the step costs (at least) the
    /// max directed load; we charge the undirected max, a faithful upper
    /// bound within a factor 2.
    fn end_step(&mut self) {
        for e in self.touched.drain(..) {
            self.load[e as usize] = 0;
        }
        self.rounds += self.step_max.max(1) as u64;
        self.max_load = self.max_load.max(self.step_max as usize);
        self.step_max = 0;
    }
}

/// Lemma 2.4, charged: route `counts[i]` tokens from member `i` of
/// `members` (the paper's `L · deg(v)` formulation — the framework ships
/// each vertex's `1 + outdeg(v)` topology words in one execution) to
/// `leader` by lazy random walks over the induced subgraph `G[members]`.
///
/// Walks step for at most `max_steps` logical steps (the lemma uses
/// `O(φ⁻⁴ log² n)`); the function returns early once every token is
/// absorbed or destroyed.
///
/// Tokens carry private RNG streams (seeded from one draw of `rng`) and a
/// move reads nothing another token wrote, so the walk advances in windows
/// of up to `WINDOW` (64) steps: every live token walks the whole window —
/// chunk-parallel on `exec`'s thread pool while enough tokens are live —
/// logging each crossing under its step, and the logs are then merged into
/// the edge-load table step by step, each step's in chunk order. The
/// outcome is the step-at-a-time walk's, **bit-identical for every thread
/// count**, and `rng` advances by exactly one draw whatever the other
/// arguments are.
///
/// `track_edges` additionally returns the cumulative per-edge word load of
/// the walk: `(host_edge_id, words)` for every host edge at least one
/// token crossed, sorted by edge id; each crossing is one 2-word message,
/// so `words = 2 · crossings`. Without it the returned list is empty.
///
/// Under `faults`, each crossing of host edge `e` in walk step `s` is
/// adjudicated by `faults.kills_message(s, e, from, to)` — a killed token
/// still consumed the edge's bandwidth (the crossing is charged and, when
/// tracked, tallied) but the token is destroyed, so the outcome can come
/// back incomplete and `routing_failure_detected` fires. Trajectories are
/// bit-identical to the fault-free walk; only token survival differs.
/// Keying the fault coins by `(step, edge)` keeps the schedule independent
/// of thread count, exactly as in the simulator's delivery paths.
///
/// # Panics
///
/// Panics if `counts.len() != members.len()`, a member repeats, the leader
/// is not a member, or `G[members]` is disconnected.
#[allow(clippy::too_many_arguments)]
pub fn charged_walk_routing(
    g: &Graph,
    members: &[usize],
    leader: usize,
    counts: &[usize],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
    exec: ExecConfig,
    faults: Option<&FaultPlan>,
    track_edges: bool,
) -> (RoutingOutcome, Vec<(usize, u64)>) {
    assert_eq!(counts.len(), members.len(), "one count per member required");
    let (sub, map) = g.induced_subgraph(members);
    assert!(sub.is_connected(), "random_walk_routing needs a connected cluster");
    let leader_local = map
        .iter()
        .position(|&v| v == leader)
        .expect("leader must be a cluster member");
    // `induced_subgraph` numbers vertices in `members` order, so local id
    // `v` is index `v` of `counts` as long as no member repeats
    assert_eq!(map.len(), members.len(), "members must not repeat");
    let master: u64 = rng.gen();
    let mut tokens: Vec<Token> = Vec::new();
    for (v, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            let t = tokens.len() as u64;
            tokens.push(Token { pos: v, rng: ChaCha8Rng::seed_from_u64(master ^ t.wrapping_mul(0x9E3779B97F4A7C15)) });
        }
    }
    let total = tokens.len();
    assert!(total <= u32::MAX as usize, "token count exceeds u32 range");
    // the tokens still walking, ascending: a step costs these, not `total`.
    // Tokens launched at the leader are absorbed immediately.
    let mut live: Vec<u32> = (0..total as u32).filter(|&t| tokens[t as usize].pos != leader_local).collect();
    let mut delivered = total - live.len();
    let mut steps = 0usize;
    let mut tally = EdgeTally {
        load: vec![0; sub.m()],
        touched: Vec::new(),
        step_max: 0,
        words: if track_edges { vec![0; sub.m()] } else { Vec::new() },
        rounds: 0,
        max_load: 0,
    };
    let host_edge_of = |(_, a, b): (usize, usize, usize)| {
        g.edge_id(map[a], map[b]).expect("induced-subgraph edges exist in the host graph")
    };
    // only needed to key fault decisions; `edges()` yields them in id order
    let host_edge: Vec<usize> =
        if faults.is_some() { sub.edges().map(host_edge_of).collect() } else { Vec::new() };
    let walk = Walk { sub: &sub, map: &map, leader_local, faults, host_edge: &host_edge };
    // A token step is an order of magnitude cheaper than a vertex round
    // (two RNG draws and a couple of table reads vs a full degree sweep),
    // so the adaptive fallback needs proportionally more tokens per worker
    // before a rendezvous wakeup pays for itself. Scaling the configured
    // threshold keeps the `with_work_threshold(1)` test escape hatch
    // meaningful (1 × 8 tokens per worker still forces the pool on).
    let token_exec = exec.with_work_threshold(exec.work_threshold().saturating_mul(8));
    let window_at = |steps: usize| WINDOW.min(max_steps - steps);
    if let Some(chunks) = token_exec.par_chunks(total) {
        // Parallel path: ONE persistent batch (`pool::run_batch`) — workers
        // spawn once, own their token chunk across every window, and park
        // on a rendezvous between windows. A window's job carries the
        // chunk's live list (chunk-local indices) and crossing lists out
        // and back; workers walk their live tokens through the window, the
        // leader charges the returned crossings step by step, each step's
        // lists in chunk order. The two arms are bit-identical, so once the
        // tokens still walking are too few to pay for a rendezvous per
        // window the batch ends and the loop below finishes the walk here.
        let mut jobs: Vec<WalkJob> = chunks
            .iter()
            .map(|r| {
                let live = live.iter().filter(|&&t| r.contains(&(t as usize))).map(|&t| t - r.start as u32);
                WalkJob::new(live.collect())
            })
            .collect();
        let worker = |_w: usize, _r: std::ops::Range<usize>, toks: &mut [Token], mut job: WalkJob| {
            walk.window(toks, &mut job);
            job
        };
        let walking = |jobs: &[WalkJob]| jobs.iter().map(|job| job.live.len()).sum::<usize>();
        lcg_congest::executor::pool::run_batch(&chunks, &mut tokens, &worker, None, |pool| {
            while steps < max_steps && token_exec.par_chunks(walking(&jobs)).is_some() {
                for (i, job) in jobs.drain(..).enumerate() {
                    pool.dispatch(i, WalkJob { done: steps, len: window_at(steps), ..job });
                }
                jobs.extend((0..chunks.len()).map(|i| pool.collect(i)));
                let (advanced, absorbed) = tally.charge_window(&mut jobs);
                steps += advanced;
                delivered += absorbed;
            }
        });
        live = jobs.iter().zip(&chunks).flat_map(|(job, r)| job.live.iter().map(|&t| t + r.start as u32)).collect();
    }
    let mut rest = WalkJob::new(live);
    while steps < max_steps && !rest.live.is_empty() {
        (rest.done, rest.len) = (steps, window_at(steps));
        walk.window(&mut tokens, &mut rest);
        let (advanced, absorbed) = tally.charge_window(std::slice::from_mut(&mut rest));
        steps += advanced;
        delivered += absorbed;
    }
    // edges come in id order, so they pair up with the per-edge words
    // (none at all when untracked)
    let mut loads: Vec<(usize, u64)> = sub
        .edges()
        .zip(&tally.words)
        .filter(|&(_, &words)| words > 0)
        .map(|(edge, &words)| (host_edge_of(edge), words))
        .collect();
    loads.sort_unstable();
    let outcome =
        RoutingOutcome { delivered, total, steps, rounds: tally.rounds, max_edge_load: tally.max_load };
    (outcome, loads)
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
/// Panics if `leader` is not in `members` or `G[members]` is disconnected.
pub fn tree_routing(g: &Graph, members: &[usize], leader: usize) -> RoutingOutcome {
    let (sub, map) = g.induced_subgraph(members);
    assert!(sub.is_connected(), "tree_routing needs a connected cluster");
    let leader_local = map
        .iter()
        .position(|&v| v == leader)
        .expect("leader must be a cluster member");
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
/// simulator: every token is a real 2-word message `[source, step]`, and
/// each edge direction carries at most one token per round (the
/// simulator's capacity enforcement would panic otherwise). Tokens that
/// want to cross the same edge in the same walk step serialize over
/// multiple rounds, which is exactly the `O(max edge load)` cost
/// [`charged_walk_routing`] charges — this function *measures* it with
/// real messages instead.
///
/// Walk steps are globally synchronized (as the lemma's analysis
/// requires): step `s+1` begins only after every step-`s` crossing has
/// been delivered. Synchronization is orchestrated (a real implementation
/// would spend an O(diameter) convergecast per step; we charge 1 round
/// per step for it).
///
/// Returns the outcome plus the network's measured [`RoundStats`].
///
/// # Panics
///
/// Panics if `leader` is not in `members` or `G[members]` is disconnected.
pub fn network_walk_routing(
    net: &mut Network,
    members: &[usize],
    leader: usize,
    max_steps: usize,
    rng: &mut ChaCha8Rng,
) -> (RoutingOutcome, RoundStats) {
    let counts = vec![1usize; members.len()];
    network_walk_routing_with_counts(net, members, leader, &counts, max_steps, rng)
}

/// [`network_walk_routing`] with an explicit token count per member (the
/// `L · deg(v)` form of Lemma 2.4, used by the message-faithful framework
/// to ship `1 + outdeg(v)` topology words per vertex).
///
/// # Panics
///
/// As [`network_walk_routing`], plus `counts.len() != members.len()`.
pub fn network_walk_routing_with_counts(
    net: &mut Network,
    members: &[usize],
    leader: usize,
    counts: &[usize],
    max_steps: usize,
    rng: &mut ChaCha8Rng,
) -> (RoutingOutcome, RoundStats) {
    assert_eq!(counts.len(), members.len(), "one count per member required");
    let g = net.graph();
    let n = g.n();
    let member_set: Vec<bool> = {
        let mut s = vec![false; n];
        for &v in members {
            s[v] = true;
        }
        s
    };
    assert!(member_set[leader], "leader must be a cluster member");
    {
        let (sub, _) = g.induced_subgraph(members);
        assert!(sub.is_connected(), "network_walk_routing needs a connected cluster");
    }
    // the cluster in ascending vertex order: the order in which tokens
    // flip their coins, and so the order of every draw from `rng`
    let mut cluster: Vec<usize> = members.to_vec();
    cluster.sort_unstable();
    cluster.dedup();
    // intra-cluster ports per vertex
    let intra_ports: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            g.neighbors(v)
                .enumerate()
                .filter(|&(_, (u, _))| member_set[v] && member_set[u])
                .map(|(p, _)| p)
                .collect()
        })
        .collect();
    let start = net.stats();
    // token = source vertex id; tokens waiting at each vertex
    let mut at: Vec<Vec<u64>> = (0..n).map(|_| Vec::new()).collect();
    let mut delivered = 0usize;
    let mut total = 0usize;
    for (&v, &c) in members.iter().zip(counts) {
        total += c;
        if v == leader {
            delivered += c;
        } else {
            for _ in 0..c {
                at[v].push(v as u64);
            }
        }
    }
    let mut steps = 0usize;
    let mut max_edge_load = 0usize;
    // pending[v][q] = queue of tokens at v waiting to cross port q.
    // BTreeMap, not HashMap: per-round sends and queue drains iterate
    // these maps, and hash order would make message traces depend on
    // the hasher seed (D001).
    let mut pending: Vec<std::collections::BTreeMap<usize, Vec<u64>>> =
        (0..n).map(|_| Default::default()).collect();
    // the vertices whose `pending` map is non-empty, ascending: each
    // serialization round costs what these carry, not a pass over the host
    let mut active: Vec<usize> = Vec::new();
    while steps < max_steps && delivered < total {
        steps += 1;
        // each alive token decides: stay (prob 1/2) or pick a random
        // intra-cluster port
        for &v in &cluster {
            let tokens = std::mem::take(&mut at[v]);
            for t in tokens {
                if rng.gen_bool(0.5) || intra_ports[v].is_empty() {
                    at[v].push(t);
                } else {
                    let q = intra_ports[v][rng.gen_range(0..intra_ports[v].len())];
                    let queue = pending[v].entry(q).or_default();
                    queue.push(t);
                    max_edge_load = max_edge_load.max(queue.len());
                }
            }
            if !pending[v].is_empty() {
                active.push(v);
            }
        }
        // serialize crossings: one token per port per round
        while !active.is_empty() {
            net.exchange_active(
                &active,
                |v, out| {
                    for (&q, queue) in pending[v].iter() {
                        if let Some(&t) = queue.last() {
                            out.send(q, [t, steps as u64]);
                        }
                    }
                },
                |v, inbox| {
                    for m in inbox.iter().flatten() {
                        if v == leader {
                            delivered += 1;
                        } else {
                            at[v].push(m[0]);
                        }
                    }
                },
            );
            active.retain(|&v| {
                let queues = &mut pending[v];
                for queue in queues.values_mut() {
                    queue.pop();
                }
                queues.retain(|_, queue| !queue.is_empty());
                !queues.is_empty()
            });
        }
        // step-synchronization round
        net.charge_rounds(1);
        // tokens destroyed in transit by a fault plan leave the system;
        // once none are waiting anywhere there is nothing left to route
        if delivered < total && cluster.iter().all(|&v| at[v].is_empty()) {
            break;
        }
    }
    let stats = net.stats().since(&start);
    (
        RoutingOutcome {
            delivered,
            total,
            steps,
            rounds: stats.rounds,
            max_edge_load,
        },
        stats,
    )
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
        let out = random_walk_routing(&g, &members, 3, 10_000, &mut rng);
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
        let out = random_walk_routing(&g, &members, 0, 100_000, &mut rng);
        assert!(out.complete());
    }

    #[test]
    fn walk_routing_respects_step_cap() {
        let mut rng = gen::seeded_rng(132);
        let g = gen::path(40);
        let members: Vec<usize> = (0..40).collect();
        let out = random_walk_routing(&g, &members, 0, 5, &mut rng);
        assert!(!out.complete());
        assert_eq!(out.steps, 5);
    }

    #[test]
    #[should_panic(expected = "leader must be a cluster member")]
    fn walk_routing_checks_leader() {
        let mut rng = gen::seeded_rng(133);
        let g = gen::grid(3, 3);
        random_walk_routing(&g, &[0, 1, 2], 8, 10, &mut rng);
    }

    #[test]
    fn walk_routing_with_counts() {
        let mut rng = gen::seeded_rng(135);
        let g = gen::complete(10);
        let members: Vec<usize> = (0..10).collect();
        let counts: Vec<usize> = (0..10).map(|v| 1 + v % 3).collect();
        let out = random_walk_routing_with_counts_exec(
            &g,
            &members,
            2,
            &counts,
            50_000,
            &mut rng,
            ExecConfig::sequential(),
        );
        assert_eq!(out.total, counts.iter().sum::<usize>());
        assert!(out.complete());
    }

    /// One seeded execution of the one router: outcome, host-edge loads,
    /// and the caller rng's next draw (the walk must consume exactly one).
    #[allow(clippy::too_many_arguments)]
    fn route(
        g: &Graph,
        members: &[usize],
        leader: usize,
        counts: &[usize],
        max_steps: usize,
        seed: u64,
        threads: usize,
        faults: Option<&FaultPlan>,
        track_edges: bool,
    ) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
        let mut rng = gen::seeded_rng(seed);
        // threshold 1: the token batch really runs on the pool when threads > 1
        let exec = ExecConfig::with_threads(threads).with_work_threshold(1);
        let (out, loads) =
            charged_walk_routing(g, members, leader, counts, max_steps, &mut rng, exec, faults, track_edges);
        (out, loads, rng.gen::<u64>())
    }

    /// The four `(faults, track_edges)` settings that must not change the
    /// walk when the plan is vacuous.
    fn vacuous_combos(vacuous: &FaultPlan) -> [(Option<&FaultPlan>, bool); 4] {
        [(None, false), (None, true), (Some(vacuous), false), (Some(vacuous), true)]
    }

    #[test]
    fn walk_routing_thread_count_invariant() {
        let g = gen::complete(18);
        let members: Vec<usize> = (0..18).collect();
        let counts: Vec<usize> = (0..18).map(|v| 1 + v % 2).collect();
        let run = |threads: usize| route(&g, &members, 4, &counts, 50_000, 139, threads, None, false).0;
        let seq = run(1);
        assert!(seq.complete());
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq, "{threads} threads diverged");
        }
    }

    #[test]
    fn walk_routing_exec_advances_caller_rng_identically() {
        // the router consumes exactly one draw from the caller's rng
        // regardless of thread count, fault plan and edge tally, so
        // downstream phases stay aligned
        let g = gen::complete(12);
        let members: Vec<usize> = (0..12).collect();
        let counts = vec![1usize; 12];
        let vacuous = FaultPlan::none();
        let after = |threads: usize, faults: Option<&FaultPlan>, track: bool| {
            route(&g, &members, 0, &counts, 10_000, 140, threads, faults, track).2
        };
        let want = after(1, None, false);
        for (faults, track) in vacuous_combos(&vacuous) {
            assert_eq!(after(1, faults, track), want);
            assert_eq!(after(8, faults, track), want);
        }
        let lossy = FaultPlan::drops(9, 0.5);
        assert_eq!(after(8, Some(&lossy), true), want);
    }

    #[test]
    fn traced_walk_matches_untraced_and_reports_host_edges() {
        let g = gen::grid(5, 5);
        let members: Vec<usize> = (0..25).collect();
        let counts = vec![1usize; 25];
        let (plain, no_loads, draw_a) = route(&g, &members, 12, &counts, 100_000, 141, 2, None, false);
        let (traced, loads, draw_b) = route(&g, &members, 12, &counts, 100_000, 141, 2, None, true);
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
        let (out, loads, _) = route(&g, &members, 0, &counts, 200_000, 142, 1, None, true);
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
        let (plain, _, draw) = route(&g, &members, 5, &counts, 50_000, 150, 2, None, false);
        let (_, plain_loads, _) = route(&g, &members, 5, &counts, 50_000, 150, 2, None, true);
        for (faults, track) in vacuous_combos(&vacuous) {
            let (out, loads, next) = route(&g, &members, 5, &counts, 50_000, 150, 2, faults, track);
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
        let (out, _, _) = route(&g, &members, 0, &counts, 50_000, 151, 1, Some(&plan), false);
        // every first crossing kills its token; only the leader's own
        // token (absorbed at launch) counts as delivered
        assert_eq!(out.delivered, 1);
        assert!(!out.complete());
        assert!(out.steps < 50_000, "lost tokens must end the walk early");
    }

    #[test]
    fn faulty_walk_is_thread_count_invariant() {
        let g = gen::complete(16);
        let members: Vec<usize> = (0..16).collect();
        let counts: Vec<usize> = (0..16).map(|v| 1 + v % 2).collect();
        let plan = FaultPlan::drops(0xFA, 0.2).with_link_failure(3, 0, 50);
        for track in [false, true] {
            let run = |threads: usize| {
                route(&g, &members, 4, &counts, 20_000, 152, threads, Some(&plan), track)
            };
            let seq = run(1);
            for threads in [2, 4] {
                assert_eq!(run(threads), seq, "{threads} threads diverged under faults");
            }
        }
    }

    proptest::proptest! {
        /// The C002-registered proof for `EdgeTally::merge`: a step's
        /// crossings arrive as one list per chunk, and any permutation of
        /// the lists — or of the crossings inside them — charges the step
        /// identically and leaves the same words per edge.
        #[test]
        fn edge_tally_merge_ignores_list_order(
            steps in proptest::collection::vec(proptest::collection::vec(proptest::collection::vec(0u32..12, 0..9), 1..5), 1..6),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            let tally = || EdgeTally { load: vec![0; 12], touched: Vec::new(), step_max: 0, words: vec![0; 12], rounds: 0, max_load: 0 };
            let (mut canonical, mut permuted) = (tally(), tally());
            let mut rng = gen::seeded_rng(seed);
            for lists in &steps {
                let mut shuffled = lists.clone();
                shuffled.shuffle(&mut rng);
                for (list, other) in lists.iter().zip(&mut shuffled) {
                    other.shuffle(&mut rng);
                    canonical.merge(list);
                    permuted.merge(other);
                }
                proptest::prop_assert_eq!(&canonical.load, &permuted.load);
                canonical.end_step();
                permuted.end_step();
                proptest::prop_assert!(permuted.load.iter().all(|&l| l == 0) && permuted.touched.is_empty());
                proptest::prop_assert_eq!(
                    (canonical.rounds, canonical.max_load, &canonical.words),
                    (permuted.rounds, permuted.max_load, &permuted.words)
                );
            }
        }
    }

    /// The walk as it stood before the token-major windows, kept as the
    /// reference they are compared against: every live token takes one step
    /// (with `gen_bool(0.5)` for the coin), the step's crossings are
    /// tallied, then the next step. Sequential — the arms were
    /// bit-identical. Also counts the live token-steps, the unit the walk's
    /// cost is quoted in.
    #[allow(clippy::too_many_arguments)]
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
        let (sub, map) = g.induced_subgraph(members);
        let leader_local = map.iter().position(|&v| v == leader).expect("leader must be a cluster member");
        let master: u64 = rng.gen();
        let mut tokens: Vec<Token> = Vec::new();
        for (v, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let t = tokens.len() as u64;
                tokens.push(Token { pos: v, rng: ChaCha8Rng::seed_from_u64(master ^ t.wrapping_mul(0x9E3779B97F4A7C15)) });
            }
        }
        let total = tokens.len();
        let mut live: Vec<u32> = (0..total as u32).filter(|&t| tokens[t as usize].pos != leader_local).collect();
        let mut delivered = total - live.len();
        let mut tally = EdgeTally {
            load: vec![0; sub.m()],
            touched: Vec::new(),
            step_max: 0,
            words: if track_edges { vec![0; sub.m()] } else { Vec::new() },
            rounds: 0,
            max_load: 0,
        };
        let host_edge_of = |(_, a, b): (usize, usize, usize)| g.edge_id(map[a], map[b]).expect("host edge");
        let host_edge: Vec<usize> = sub.edges().map(host_edge_of).collect();
        let (mut steps, mut token_steps) = (0usize, 0u64);
        let mut crossed: Vec<u32> = Vec::new();
        while steps < max_steps && !live.is_empty() {
            steps += 1;
            token_steps += live.len() as u64;
            crossed.clear();
            live.retain(|&t| {
                let tok = &mut tokens[t as usize];
                if tok.rng.gen_bool(0.5) {
                    return true;
                }
                let k = tok.rng.gen_range(0..sub.degree(tok.pos));
                let (w, e) = (sub.neighbor_row(tok.pos)[k] as usize, sub.edge_id_row(tok.pos)[k]);
                crossed.push(e);
                if faults.is_some_and(|f| f.kills_message((steps - 1) as u64, host_edge[e as usize], map[tok.pos], map[w])) {
                    return false;
                }
                tok.pos = w;
                delivered += usize::from(w == leader_local);
                w != leader_local
            });
            tally.merge(&crossed);
            tally.end_step();
        }
        let mut loads: Vec<(usize, u64)> = sub
            .edges()
            .zip(&tally.words)
            .filter(|&(_, &words)| words > 0)
            .map(|(edge, &words)| (host_edge_of(edge), words))
            .collect();
        loads.sort_unstable();
        let outcome = RoutingOutcome { delivered, total, steps, rounds: tally.rounds, max_edge_load: tally.max_load };
        (outcome, loads, token_steps)
    }

    /// [`route`]'s triple from the reference walk.
    #[allow(clippy::too_many_arguments)]
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
    fn token_state_stays_within_two_cache_lines() {
        assert!(std::mem::size_of::<Token>() <= 128, "{}", std::mem::size_of::<Token>());
    }

    #[test]
    fn tokens_launched_at_the_leader_take_no_step() {
        let g = gen::grid(4, 4);
        let members: Vec<usize> = (0..16).collect();
        let counts: Vec<usize> = (0..16).map(|v| if v == 5 { 7 } else { 0 }).collect();
        for threads in [1, 4] {
            let (out, loads, _) = route(&g, &members, 5, &counts, 1_000, 160, threads, None, true);
            assert_eq!(out, RoutingOutcome { delivered: 7, total: 7, steps: 0, rounds: 0, max_edge_load: 0 });
            assert!(loads.is_empty());
        }
    }

    #[test]
    fn walk_that_ends_inside_a_window_reports_its_last_step() {
        // a leaf token next to the leader is absorbed by its first crossing:
        // after a geometric number of coin flips, far short of a window
        let g = gen::star(6);
        let members: Vec<usize> = (0..6).collect();
        let counts = [0, 1, 0, 1, 0, 0];
        let mut seen_short = 0;
        for seed in 0..20 {
            let want = route_reference(&g, &members, 0, &counts, usize::MAX, seed, None, true);
            assert!(want.0.complete() && want.0.steps >= 1);
            seen_short += usize::from(want.0.steps < WINDOW - 1);
            for threads in [1, 2] {
                assert_eq!(route(&g, &members, 0, &counts, usize::MAX, seed, threads, None, true), want);
            }
        }
        assert!(seen_short >= 15, "only {seen_short} of 20 walks ended inside their first window");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The windowed walk is the step-at-a-time walk: outcome, host-edge
        /// loads and the caller's next draw, on either arm, at every step
        /// cap around a window boundary and under every kind of fault plan.
        #[test]
        fn windowed_walk_matches_reference(
            seed in proptest::prelude::any::<u64>(),
            family in 0usize..6,
            size in 3usize..9,
            leader_pick in 0usize..1_000,
            count_mod in 1usize..4,
            cap_pick in 0usize..7,
            plan_pick in 0usize..4,
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
                _ => gen::triangulated_grid(size, size),
            };
            // the whole graph, or (odd seeds) the connected half around vertex 0
            let dist = g.bfs_distances(0);
            let radius = if seed % 2 == 1 { dist.iter().max().copied().unwrap_or(0).div_ceil(2) } else { usize::MAX };
            let members: Vec<usize> = (0..g.n()).filter(|&v| dist[v] <= radius).collect();
            let leader = members[leader_pick % members.len()];
            let counts: Vec<usize> = members.iter().map(|&v| (v + seed as usize % 3) % (count_mod + 1)).collect();
            let max_steps = [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 7, usize::MAX][cap_pick];
            // a link that is down from just before the first window boundary
            // to just after it, on an edge inside the cluster
            let inside = g.edges().find(|&(_, u, v)| dist[u] <= radius && dist[v] <= radius).map_or(0, |(e, _, _)| e);
            let plans = [
                None,
                Some(FaultPlan::none()),
                Some(FaultPlan::drops(seed, drop_prob)),
                Some(FaultPlan::none().with_link_failure(inside, WINDOW as u64 - 3, WINDOW as u64 + 5)),
            ];
            let faults = plans[plan_pick].as_ref();
            let want = route_reference(&g, &members, leader, &counts, max_steps, seed, faults, track_edges);
            for threads in [1, 2, 4] {
                let got = route(&g, &members, leader, &counts, max_steps, seed, threads, faults, track_edges);
                proptest::prop_assert_eq!(&got, &want, "{} threads", threads);
            }
        }
    }

    /// Unit cost of a live token-step: `cargo test --release -p lcg-expander
    /// --lib probe_walk -- --ignored --nocapture`.
    #[test]
    #[ignore = "probe: prints ns per live token-step"]
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
                    let out = charged_walk_routing(
                        &g, &members, leader, &counts, usize::MAX, &mut gen::seeded_rng(7), ExecConfig::sequential(), None, false,
                    ).0;
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
        use lcg_congest::Model;
        let mut rng = gen::seeded_rng(136);
        let g = gen::complete(16);
        let members: Vec<usize> = (0..16).collect();
        let mut net = Network::new(&g, Model::congest());
        let (out, stats) = network_walk_routing(&mut net, &members, 3, 100_000, &mut rng);
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
        use lcg_congest::Model;
        let mut rng = gen::seeded_rng(137);
        let g = gen::grid(6, 4);
        // cluster = left 3 columns
        let members: Vec<usize> = (0..24).filter(|v| v % 6 < 3).collect();
        let mut net = Network::new(&g, Model::congest());
        let (out, _) = network_walk_routing(&mut net, &members, 0, 200_000, &mut rng);
        assert!(out.complete());
    }

    #[test]
    fn network_and_charged_routing_agree_on_cost_scale() {
        use lcg_congest::Model;
        let mut rng = gen::seeded_rng(138);
        // advances `rng` to where the walks below have always started
        gen::stacked_triangulation(100, &mut rng);
        let g = gen::complete(24);
        let members: Vec<usize> = (0..24).collect();
        let charged = random_walk_routing(&g, &members, 0, 100_000, &mut rng);
        let mut net = Network::new(&g, Model::congest());
        let (real, _) = network_walk_routing(&mut net, &members, 0, 100_000, &mut rng);
        assert!(charged.complete() && real.complete());
        // both cost within a small factor of each other (same mechanism,
        // independent randomness; sync rounds add ~1 per step)
        let ratio = real.rounds as f64 / charged.rounds.max(1) as f64;
        assert!(ratio < 6.0 && ratio > 0.15, "charged {} real {}", charged.rounds, real.rounds);
    }

    #[test]
    fn walk_routing_faster_on_expander_than_path() {
        let mut rng = gen::seeded_rng(134);
        let e = gen::complete(16);
        let p = gen::path(16);
        let me: Vec<usize> = (0..16).collect();
        let oe = random_walk_routing(&e, &me, 0, 100_000, &mut rng);
        let op = random_walk_routing(&p, &me, 0, 100_000, &mut rng);
        assert!(oe.complete() && op.complete());
        assert!(oe.steps < op.steps, "expander {} vs path {}", oe.steps, op.steps);
    }
}
