//! The synchronous message-passing engine.
//!
//! A [`Network`] wraps a graph and a [`Model`] and executes synchronous
//! rounds. Algorithms are written as *step closures*: in each round the
//! closure is invoked once per vertex with the vertex's inbox (one optional
//! message per port, as in the standard CONGEST definition where each edge
//! carries at most one message per direction per round) and returns the
//! outbox. The engine enforces the model's per-edge capacity — an oversized
//! send in CONGEST mode panics, so a test passing is a proof that the
//! algorithm really fit its messages into `O(log n)` bits.
//!
//! # Execution model
//!
//! Within a round every vertex reads only its own state and inbox, so the
//! per-vertex closures are data-independent and the engine can run them on
//! a pool of worker threads ([`ExecConfig`]). The parallel path is built
//! so that **results and [`RoundStats`] are bit-identical for every thread
//! count**:
//!
//! 1. vertices are partitioned into contiguous chunks, one per worker
//!    ([`ExecConfig::par_chunks`], which also implements the adaptive
//!    sequential fallback: below the work threshold no worker is woken);
//! 2. each worker writes outboxes into its own chunk of the outbox arena
//!    and tallies `messages`/`words`/`max_words` into a chunk-local
//!    counter — no shared atomics, no locks on the hot path;
//! 3. at the round barrier the chunk counters are merged in chunk order
//!    (sums and maxima, so the result equals the sequential tally), and
//!    messages are delivered by a deterministic vertex-order sweep —
//!    chunk-major over the arenas, which *is* vertex order because chunks
//!    are contiguous and ascending.
//!
//! The stateful entry points ([`Network::run_state`],
//! [`Network::exchange_rounds`], and everything built on them) execute as
//! one **batch** on the persistent worker pool
//! (`crate::executor::pool::run_batch`): workers are spawned once per
//! batch, own their state chunk throughout, and park on a rendezvous
//! between rounds — so the per-round cost is a channel send, not a thread
//! spawn. A single stateful round is a batch of one. A panic inside a
//! worker (e.g. a CONGEST capacity violation) re-raises on the caller's
//! thread with its original payload after the pool is torn down — cleanly
//! poisoned, never a hang — and the network remains usable (DESIGN §10).
//!
//! # One round, six adapters
//!
//! The model has one kind of round — compose, deliver, consume — written
//! out once per execution mode: a sequential body (`FnMut`, the caller's
//! thread) and a pool body (`Fn + Sync`, one batch). The two round
//! *structures* differ only in when the inbox is read: a `step` round
//! reads last round's deliveries while composing and has no consume
//! phase; an `exchange` round composes, delivers, then consumes. The
//! phase that read an inbox row clears it. The public forms are adapters,
//! in two families because parallelism needs `Fn + Sync`:
//!
//! * [`Network::step`]/[`Network::exchange`] accept `FnMut` closures that
//!   may capture shared mutable state; they always run sequentially.
//!   [`Network::exchange_active`] is `exchange` for a caller that knows
//!   which vertices send: its own sparse body, so the round costs what it
//!   carries instead of a pass over every vertex and slot.
//! * [`Network::run_state`]/[`Network::exchange_rounds`] split mutable
//!   state per vertex (`&mut [S]`) and run `k` rounds as one batch on the
//!   configured thread pool; [`Network::step_state`] is `run_state(1)`.
//!   Below the work threshold they run the sequential body.
//!
//! # Accounting (DESIGN §8)
//!
//! [`RoundStats`], the optional [`Tracer`] and the optional [`Recorder`]
//! live in one private sink with one method per engine event; every
//! delivery body and charge path reports there, so the three views cannot
//! drift. [`Network::phase`] is the one boundary above it: a trace span and
//! a profiling-plane timer opened and closed together.
//!
//! # Memory model (DESIGN §10)
//!
//! The hot path is allocation-free: messages are [`Msg`] values that store
//! CONGEST-size payloads inline, and the network owns the two
//! per-vertex/per-port grids a round needs — the inbox grid (`pending`)
//! and the outbox arena. Delivery starts only after every vertex has
//! composed, so the inbox needs no double buffer: a round takes both
//! grids out of the network, works in place, and puts them back. A panic
//! mid-round loses them with the round's in-flight messages; the next
//! round starts from fresh, identically shaped grids.

use lcg_graph::Graph;
use lcg_metrics::{ExecProfile, Recorder};
use lcg_trace::{SpanId, Tracer, TracerState};

use crate::executor::{audit, chunk_of, pool, ExecConfig};
use crate::faults::{FaultPlan, FaultState, FaultVerdict};
use crate::model::Model;
use crate::msg::{Msg, INLINE_WORDS};
use crate::snapshot::{
    self, Dec, Enc, SnapshotError, SnapshotReader, SnapshotState, SnapshotWriter,
};
use crate::stats::RoundStats;

/// A message. Historical alias of [`Msg`], which stores CONGEST-size
/// payloads (≤ 2 words) inline and spills longer LOCAL-mode payloads to
/// the heap.
pub type Message = Msg;

/// Inbox of one vertex: `inbox[port]` is the message received on that port
/// this round, if any. Port `p` of vertex `v` is the `p`-th entry of
/// `Graph::neighbors(v)` (sorted by neighbor id).
pub type Inbox = [Option<Msg>];

/// One per-vertex/per-port buffer grid as a flat arena indexed by CSR
/// edge slot: the message crossing port `p` of vertex `v` this round
/// lives at slot `g.csr_offsets()[v] + p`. One contiguous allocation of
/// `g.slots() = 2m` entries — delivery and compose iterate it linearly,
/// row by row, instead of pointer-chasing `n` separate row vectors.
type Grid = Vec<Option<Msg>>;

/// A clean (all-`None`) flat grid shaped to `g`.
fn fresh_grid(g: &Graph) -> Grid {
    vec![None; g.slots()]
}

/// Takes a grid out of its slot for the duration of a round, falling back
/// to a fresh allocation when the slot is cold (a panic unwound mid-round
/// and the grid, with the failed round's in-flight messages, was lost).
fn take_grid(g: &Graph, slot: &mut Grid) -> Grid {
    let grid = std::mem::take(slot);
    if grid.len() == g.slots() {
        grid
    } else {
        fresh_grid(g)
    }
}

/// Clears consumed inbox slots, writing only the occupied ones.
#[inline]
fn clear_slots(slots: &mut [Option<Msg>]) {
    for s in slots.iter_mut() {
        if s.is_some() {
            *s = None;
        }
    }
}

/// Returns a grid that is already all-`None` to its slot with no clearing
/// pass. The outbox arena qualifies because every delivery sweep `take()`s
/// each slot of each row it was handed; the inbox grid of an exchange
/// round qualifies because the consume phase clears every row it read.
/// The pool invariant (DESIGN §10) rests on this, hence the debug check.
fn return_clean(slot: &mut Grid, grid: Grid) {
    debug_assert!(grid.iter().all(Option::is_none), "a grid went back to the network dirty");
    *slot = grid;
}

/// Borrow-splits a flat grid into per-chunk sub-slices: chunk `c` of the
/// vertex partition owns the contiguous slot range
/// `offsets[chunks[c].start]..offsets[chunks[c].end]`. Zero moves — the
/// batch engines ship these fat pointers through the worker-pool lanes
/// instead of moving row vectors.
fn split_flat<'a>(
    grid: &'a mut [Option<Msg>],
    chunks: &[std::ops::Range<usize>],
    offsets: &[u32],
) -> Vec<&'a mut [Option<Msg>]> {
    let mut parts = Vec::with_capacity(chunks.len());
    let mut rest = grid;
    for r in chunks {
        let len = (offsets[r.end] - offsets[r.start]) as usize;
        let (head, tail) = rest.split_at_mut(len);
        parts.push(head);
        rest = tail;
    }
    parts
}

/// The rows of the ascending `senders`, carved off the outbox arena one
/// `split_at_mut` at a time: the part list an active-set round hands to
/// [`sweep`], so delivery touches those rows and nothing else.
fn sender_rows<'a>(
    offsets: &'a [u32],
    senders: &'a [usize],
    arena: &'a mut [Option<Msg>],
) -> impl Iterator<Item = (std::ops::Range<usize>, &'a mut [Option<Msg>])> {
    let mut rest = arena;
    let mut consumed = 0usize;
    senders.iter().map(move |&v| {
        let row = row_of(offsets, v);
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(row.start - consumed);
        let (head, tail) = tail.split_at_mut(row.len());
        rest = tail;
        consumed = row.end;
        (v..v + 1, head)
    })
}

/// The CSR topology slices every delivery sweep walks: row starts, flat
/// neighbor/edge-id arrays (borrowed straight from the graph), and the
/// per-slot reverse map (`rev_slot[s]` = the slot on the receiving side
/// of slot `s`'s edge). Bundled so the borrow-split call sites pass one
/// value instead of four slices.
#[derive(Clone, Copy)]
struct Topo<'a> {
    offsets: &'a [u32],
    neighbors: &'a [u32],
    edge_ids: &'a [u32],
    rev_slot: &'a [u32],
}

impl<'a> Topo<'a> {
    fn of(g: &'a Graph, rev_slot: &'a [u32]) -> Topo<'a> {
        Topo {
            offsets: g.csr_offsets(),
            neighbors: g.csr_neighbors(),
            edge_ids: g.csr_edge_ids(),
            rev_slot,
        }
    }
}

/// A synchronous CONGEST/LOCAL network over a graph.
///
/// # Examples
///
/// One round of "send your id to all neighbors":
///
/// ```
/// use lcg_congest::{Model, Network};
/// use lcg_graph::gen;
///
/// let g = gen::cycle(5);
/// let mut net = Network::new(&g, Model::congest());
/// net.step(|v, _inbox, out| {
///     for p in 0..out.ports() {
///         out.send(p, [v as u64]);
///     }
/// });
/// let stats = net.stats();
/// assert_eq!(stats.rounds, 1);
/// assert_eq!(stats.messages, 10); // 2 per vertex
/// ```
///
/// The same round on four worker threads — identical statistics, as the
/// engine guarantees for any thread count:
///
/// ```
/// use lcg_congest::{ExecConfig, Model, Network};
/// use lcg_graph::gen;
///
/// let g = gen::cycle(5);
/// let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(4));
/// net.step_state(&mut vec![(); g.n()], |_, v, _inbox, out| {
///     for p in 0..out.ports() {
///         out.send(p, [v as u64]);
///     }
/// });
/// assert_eq!(net.stats().messages, 10);
/// ```
// lcg-lint: snapshot-root
pub struct Network<'g> {
    // lcg-lint: transient -- snapshots store the TOPO fingerprint only; resume binds a caller-provided graph
    g: &'g Graph,
    model: Model,
    exec: ExecConfig,
    /// Statistics, trace and metrics; every engine event lands here once.
    sink: Sink,
    /// The one inbox grid: the slot `g.csr_offsets()[v] + p` holds the
    /// message delivered to `v` on port `p`. Between `step` rounds it
    /// carries the messages awaiting the next one; an `exchange` round
    /// fills and drains it. Taken out of `self` for the duration of a
    /// round, so a panic mid-round leaves it cold (empty).
    pending: Grid,
    /// The outbox arena, taken and put back the same way — the round
    /// engine allocates no buffers after construction.
    // lcg-lint: transient -- all-None by the pool invariant; rebuilt fresh on resume, never serialized empty
    spare_outgoing: Grid,
    /// `rev_slot[s]`: the receiving-side slot of slot `s`'s edge — the
    /// flat-CSR form of the old `reverse[v][p] = (u, q)` port map (the
    /// neighbor `u` itself is `g.csr_neighbors()[s]`).
    // lcg-lint: transient -- pure function of the graph, recomputed by the resume constructor
    rev_slot: Vec<u32>,
    /// Scratch of [`Network::exchange_active`]: the vertices that received
    /// a message this round. Kept here so a sparse round allocates nothing.
    // lcg-lint: transient -- empty between rounds; rebuilt empty on resume
    receivers: Vec<usize>,
    /// Compiled fault schedule ([`Network::set_fault_plan`]). `None` (the
    /// default) keeps both delivery paths on their historical fault-free
    /// sweeps — zero cost, bit-identical behavior.
    faults: Option<FaultState>,
}

/// Per-vertex outbox handed to the step closure.
pub struct Outbox<'a> {
    slots: &'a mut [Option<Msg>],
    capacity: Option<usize>,
    vertex: usize,
}

impl<'a> Outbox<'a> {
    /// Number of ports (the vertex degree).
    #[inline]
    #[must_use]
    pub fn ports(&self) -> usize {
        self.slots.len()
    }

    /// Sends `msg` on `port`. In CONGEST mode the message must fit the
    /// per-edge word capacity.
    ///
    /// Accepts anything convertible into a [`Msg`]: `out.send(p, [a, b])`
    /// is the allocation-free spelling for CONGEST-size payloads, and
    /// `out.send(p, vec![...])` keeps working for long LOCAL-mode ones.
    ///
    /// # Panics
    ///
    /// Panics if the message exceeds the model capacity (a CONGEST
    /// violation — the algorithm under test is buggy), if a message was
    /// already sent on this port this round, or if the port is out of range.
    #[inline]
    pub fn send<M: Into<Msg>>(&mut self, port: usize, msg: M) {
        let msg = msg.into();
        if let Some(cap) = self.capacity {
            assert!(
                msg.len() <= cap,
                "CONGEST violation at vertex {}: message of {} words exceeds capacity {}",
                self.vertex,
                msg.len(),
                cap
            );
        }
        assert!(
            self.slots[port].is_none(),
            "vertex {} sent twice on port {port} in one round",
            self.vertex
        );
        self.slots[port] = Some(msg);
    }
}

/// Chunk-local message counters, merged at the join barrier. Public so the
/// order-permutation proptests (`crates/congest/tests/merge_order.rs`) can
/// exercise the merge the shuffle auditor cross-checks at runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCounters {
    /// Messages composed by the chunk's vertices this round.
    pub messages: u64,
    /// Total words across those messages.
    pub words: u64,
    /// Largest single message (words) the chunk composed.
    pub max_words: usize,
    /// Messages too long for [`Msg`]'s inline storage (LOCAL-mode payloads
    /// that cost a heap allocation) — a deterministic model of the round's
    /// allocation count, surfaced through the metrics registry.
    pub spilled: u64,
}

impl ChunkCounters {
    /// Tallies one vertex's composed outbox.
    #[inline]
    fn count(&mut self, slots: &[Option<Message>]) {
        for msg in slots.iter().flatten() {
            self.messages += 1;
            self.words += msg.len() as u64;
            self.max_words = self.max_words.max(msg.len());
            if msg.len() > INLINE_WORDS {
                self.spilled += 1;
            }
        }
    }

    /// Merges another chunk's counters (sums and maxima: associative and
    /// commutative, so the chunk-order fold equals the sequential tally).
    // lcg-lint: commutative -- field-wise u64 sums and usize maxima; both commute and associate exactly, so any merge order yields identical totals (order-permutation proptest: tests/merge_order.rs)
    #[inline]
    pub fn merge(&mut self, other: &ChunkCounters) {
        self.messages += other.messages;
        self.words += other.words;
        self.max_words = self.max_words.max(other.max_words);
        self.spilled += other.spilled;
    }
}

/// The slot range of vertex `v`'s row, as plain indices.
#[inline]
fn row_of(offsets: &[u32], v: usize) -> std::ops::Range<usize> {
    offsets[v] as usize..offsets[v + 1] as usize
}

/// The one accounting sink under the round engine, one method per engine
/// event. Every delivery body and both charge paths report each event here
/// exactly once, so `stats` == trace totals == the `net.*` registry
/// counters by construction (DESIGN §8). With no tracer and no recorder
/// attached every method is the `stats` update plus skipped branches.
// lcg-lint: snapshot-root
#[derive(Default)]
struct Sink {
    stats: RoundStats,
    /// Opt-in trace recorder ([`Network::attach_tracer`]).
    tracer: Option<Tracer>,
    /// Opt-in metrics recorder ([`Network::attach_metrics`]).
    metrics: Option<Recorder>,
}

impl Sink {
    /// One round composed: the barrier-merged compose counters of every
    /// message *sent* this round.
    fn round(&mut self, counters: ChunkCounters) {
        self.stats.messages += counters.messages;
        self.stats.words += counters.words;
        self.stats.max_words_edge_round = self.stats.max_words_edge_round.max(counters.max_words);
        self.stats.rounds += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.record_round(counters.messages, counters.words, counters.max_words);
        }
        if let Some(rec) = self.metrics.as_mut() {
            rec.counter_add("net.rounds", 1);
            rec.counter_add("net.messages", counters.messages);
            rec.counter_add("net.words", counters.words);
            if counters.spilled > 0 {
                rec.counter_add("net.spilled_messages", counters.spilled);
            }
            rec.gauge_max("net.max_words_edge_round", counters.max_words as u64);
            rec.histogram_record("net.words_per_round", counters.words);
        }
    }

    /// Messages one delivery sweep stored in an inbox.
    fn delivered(&mut self, messages: u64) {
        if let Some(rec) = self.metrics.as_mut() {
            rec.counter_add("net.delivered_messages", messages);
        }
    }

    /// One delivery sweep's fault adjudication, by cause. `dropped` and
    /// `link` share a statistics field; the trace keeps them apart.
    fn faults(&mut self, dropped: u64, link: u64, crashed: u64, truncated: u64) {
        self.stats.dropped_messages += dropped + link;
        self.stats.crashed_messages += crashed;
        self.stats.truncated_messages += truncated;
        if let Some(t) = self.tracer.as_mut() {
            for (kind, count) in
                [("drop", dropped), ("link", link), ("crash", crashed), ("trunc", truncated)]
            {
                if count > 0 {
                    t.record_fault(kind, count);
                }
            }
        }
        self.fault_counters(dropped + link, crashed, truncated);
    }

    /// Mirrors fault tallies into the registry; a counter that never fired
    /// stays absent from the report.
    fn fault_counters(&mut self, dropped: u64, crashed: u64, truncated: u64) {
        let Some(rec) = self.metrics.as_mut() else { return };
        for (name, count) in [
            ("net.dropped_messages", dropped),
            ("net.crashed_messages", crashed),
            ("net.truncated_messages", truncated),
        ] {
            if count > 0 {
                rec.counter_add(name, count);
            }
        }
    }

    /// `rounds` silent rounds charged ([`Network::charge_rounds`]).
    fn quiet_rounds(&mut self, rounds: u64) {
        self.stats.rounds += rounds;
        if let Some(t) = self.tracer.as_mut() {
            t.record_quiet_rounds(rounds);
        }
        if let Some(rec) = self.metrics.as_mut() {
            rec.counter_add("net.rounds", rounds);
        }
    }

    /// Externally measured statistics charged ([`Network::charge_stats`]).
    fn external(&mut self, s: &RoundStats) {
        self.stats.merge(s);
        if let Some(t) = self.tracer.as_mut() {
            t.record_external(s.rounds, s.messages, s.words, s.max_words_edge_round);
        }
        if let Some(rec) = self.metrics.as_mut() {
            rec.counter_add("net.rounds", s.rounds);
            rec.counter_add("net.messages", s.messages);
            rec.counter_add("net.words", s.words);
            rec.gauge_max("net.max_words_edge_round", s.max_words_edge_round as u64);
        }
        self.fault_counters(s.dropped_messages, s.crashed_messages, s.truncated_messages);
    }

    /// Where a sweep tallies per-edge words: the tracer, iff it asked for
    /// edge loads. Hoisted out of the sweep loops, so an untraced sweep
    /// pays one branch per sweep, not one per message.
    fn edge_tally(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut().filter(|t| t.records_edge_loads())
    }

    /// A finished batch's worker samples. The batch samples into a local
    /// because its leader closure holds the sink for the per-round events.
    fn samples(&mut self, sampled: Option<ExecProfile>) {
        if let (Some(rec), Some(batch)) = (self.metrics.as_mut(), sampled) {
            rec.exec_sink().record_batch(&batch.workers);
        }
    }
}

/// The delivery sweep under an installed fault plan: every taken message
/// is adjudicated by the compiled schedule — destroyed messages are
/// tallied (by cause) instead of delivered, surviving messages are
/// truncated to the plan's capacity cap when one is set. Same contract on
/// `parts` and `put` as [`sweep`]. Tracer edge loads count *delivered*
/// words, so traces show the traffic that actually arrived; the
/// compose-barrier statistics still count everything *sent*, preserving
/// their meaning.
fn faulty_sweep<'s, I, P>(fs: &FaultState, topo: Topo<'_>, sink: &mut Sink, parts: I, mut put: P)
where
    I: Iterator<Item = (std::ops::Range<usize>, &'s mut [Option<Msg>])>,
    P: FnMut(usize, usize, Msg),
{
    // delivery precedes the round's `Sink::round`, so `stats.rounds` is
    // the 0-based index of the round in flight
    let round = sink.stats.rounds;
    let cap = fs.truncate_words();
    let (mut delivered, mut dropped, mut link, mut crashed, mut truncated) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut track = sink.edge_tally();
    for (r, part) in parts {
        let base = topo.offsets[r.start] as usize;
        for v in r {
            let row = row_of(topo.offsets, v);
            for (s, slot) in row.clone().zip(&mut part[row.start - base..row.end - base]) {
                if let Some(mut msg) = slot.take() {
                    let u = topo.neighbors[s] as usize;
                    let e = topo.edge_ids[s] as usize;
                    match fs.classify(round, e, v, u) {
                        FaultVerdict::Crashed => {
                            crashed += 1;
                            continue;
                        }
                        FaultVerdict::LinkDown => {
                            link += 1;
                            continue;
                        }
                        FaultVerdict::Dropped => {
                            dropped += 1;
                            continue;
                        }
                        FaultVerdict::Deliver => {}
                    }
                    if let Some(cap) = cap {
                        if msg.len() > cap {
                            msg.truncate(cap);
                            truncated += 1;
                        }
                    }
                    if let Some(t) = track.as_mut() {
                        t.add_edge_words(e, msg.len() as u64);
                    }
                    delivered += 1;
                    put(u, topo.rev_slot[s] as usize, msg);
                }
            }
        }
    }
    sink.faults(dropped, link, crashed, truncated);
    sink.delivered(delivered);
}

/// The fault-free delivery sweep (same contract as [`sweep`]): pure moves,
/// plus per-edge load tallies when a tracer asked for them. The common
/// case — no tracer — walks each part's flat sub-slice linearly, row by
/// row.
fn sweep_rows<'s, I, P>(topo: Topo<'_>, sink: &mut Sink, parts: I, mut put: P)
where
    I: Iterator<Item = (std::ops::Range<usize>, &'s mut [Option<Msg>])>,
    P: FnMut(usize, usize, Msg),
{
    let mut delivered = 0u64;
    let mut track = sink.edge_tally();
    for (r, part) in parts {
        // one pass over the part's contiguous slot range: slot `s` is
        // absolute, the zip walks the sub-slice alongside; sender order
        // equals slot order, so the sweep stays a vertex-order sweep
        let lo = topo.offsets[r.start] as usize;
        let hi = topo.offsets[r.end] as usize;
        for (s, slot) in (lo..hi).zip(part.iter_mut()) {
            if let Some(msg) = slot.take() {
                if let Some(t) = track.as_mut() {
                    t.add_edge_words(topo.edge_ids[s] as usize, msg.len() as u64);
                }
                delivered += 1;
                put(topo.neighbors[s] as usize, topo.rev_slot[s] as usize, msg);
            }
        }
        debug_assert_eq!(part.len(), hi - lo, "part sub-slice shape mismatch");
    }
    sink.delivered(delivered);
}

/// The delivery sweep: fault-adjudicated when a plan is installed, plain
/// moves otherwise. `parts` must list disjoint vertex ranges in ascending
/// order, each with the arena sub-slice of exactly its rows — that
/// ordering is the entire determinism argument, and it holds equally for
/// a single whole-arena part, for the batch engine's multi-chunk
/// partition, and for an active-set round's sender rows. Every slot of
/// every part is `take()`n, so the rows handed in come back all-`None`.
/// `put(u, dest_slot, msg)` stores a delivered message at the receiver's
/// absolute CSR slot. The sweep reports what it delivered, and what the
/// plan destroyed, to `sink` once — tallies derived purely from the
/// vertex-order sweep, so they inherit its determinism argument.
fn sweep<'s, I, P>(faults: Option<&FaultState>, topo: Topo<'_>, sink: &mut Sink, parts: I, put: P)
where
    I: Iterator<Item = (std::ops::Range<usize>, &'s mut [Option<Msg>])>,
    P: FnMut(usize, usize, Msg),
{
    match faults {
        Some(fs) => faulty_sweep(fs, topo, sink, parts, put),
        None => sweep_rows(topo, sink, parts, put),
    }
}

/// Chunk-major delivery sweep for the batch engine: `sources` are the
/// per-chunk sub-slices of the outbox arena, `targets` those of the
/// destination arena, under the same partition. Iterating the sources
/// chunk-major *is* ascending vertex order (chunks are contiguous and
/// ascending), and the receiving chunk is located in O(1) by
/// [`chunk_of`] — so this is bit-identical to the whole-grid sweep the
/// sequential paths run.
fn deliver_chunked(
    chunks: &[std::ops::Range<usize>],
    sources: &mut [&mut [Option<Msg>]],
    targets: &mut [&mut [Option<Msg>]],
    faults: Option<&FaultState>,
    topo: Topo<'_>,
    sink: &mut Sink,
) {
    let k = chunks.len();
    let n = topo.offsets.len() - 1;
    let offsets = topo.offsets;
    let put = |u: usize, dest: usize, msg: Msg| {
        let (c, _) = chunk_of(n, k, u);
        let base = offsets[chunks[c].start] as usize;
        targets[c][dest - base] = Some(msg);
    };
    let parts = chunks.iter().cloned().zip(sources.iter_mut().map(|part| &mut **part));
    sweep(faults, topo, sink, parts, put);
}

/// The barrier merge: folds one round's per-chunk compose counters in
/// chunk order, and under the shuffle audit re-folds them in a seeded
/// permutation and cross-checks the total (`what` names the site).
fn barrier_total(what: &str, round: u64, audit_on: bool, parts: &[ChunkCounters]) -> ChunkCounters {
    let mut total = ChunkCounters::default();
    for part in parts {
        total.merge(part);
    }
    if audit_on {
        audit::check_merge_order(what, round, ChunkCounters::default(), parts, |a, b| a.merge(b), &total);
    }
    total
}

/// Which half of a round a pool job runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compose,
    Consume,
}

/// One phase's buffers for one chunk, moved leader → worker → leader
/// through the pool's rendezvous lanes: borrowed sub-slices of the two
/// flat grids (two fat pointers), a counter and a vote, nothing else.
struct RoundJob<'a> {
    phase: Phase,
    round: usize,
    /// The chunk's inbox rows; the phase that reads them clears them on
    /// the worker, so the round barrier needs no clearing pass.
    inbox: &'a mut [Option<Msg>],
    /// The chunk's outbox arena rows, filled by the compose phase.
    arena: &'a mut [Option<Msg>],
    /// Chunk-local compose counters.
    counters: ChunkCounters,
    /// The round's last phase votes: has every vertex of the chunk halted?
    all_halted: bool,
}

/// One phase of one pooled round: every chunk's rows go out to its worker
/// and come back, in chunk order. Leaves the per-chunk compose counters in
/// `counted`; returns whether every chunk voted halted.
fn run_phase<'a>(
    pool: &mut pool::Conductor<'_, RoundJob<'a>>,
    phase: Phase,
    round: usize,
    inbox_parts: &mut [&'a mut [Option<Msg>]],
    arena_parts: &mut [&'a mut [Option<Msg>]],
    counted: &mut Vec<ChunkCounters>,
) -> bool {
    for (i, (inbox, arena)) in inbox_parts.iter_mut().zip(arena_parts.iter_mut()).enumerate() {
        let job = RoundJob {
            phase,
            round,
            inbox: std::mem::take(inbox),
            arena: std::mem::take(arena),
            counters: ChunkCounters::default(),
            all_halted: false,
        };
        pool.dispatch(i, job);
    }
    counted.clear();
    let mut all_halted = true;
    for (i, (inbox, arena)) in inbox_parts.iter_mut().zip(arena_parts.iter_mut()).enumerate() {
        let job = pool.collect(i);
        *inbox = job.inbox;
        *arena = job.arena;
        counted.push(job.counters);
        all_halted &= job.all_halted;
    }
    all_halted
}

/// The closure types of an absent consume phase and an absent halt vote:
/// what the compose-only adapters name when they pass `None`.
type NoRecv<St> = fn(&mut St, usize, usize, &Inbox);
type NoHalt<St> = fn(&St) -> bool;

impl<'g> Network<'g> {
    /// Creates a network over `g` under `model`, with the execution
    /// configuration taken from the environment
    /// ([`ExecConfig::from_env`], i.e. `LCG_THREADS`).
    pub fn new(g: &'g Graph, model: Model) -> Network<'g> {
        Network::with_exec(g, model, ExecConfig::from_env())
    }

    /// Creates a network with an explicit execution configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcg_congest::{ExecConfig, Model, Network};
    /// let g = lcg_graph::gen::grid(4, 4);
    /// let net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(2));
    /// assert_eq!(net.exec().threads(), 2);
    /// ```
    pub fn with_exec(g: &'g Graph, model: Model, exec: ExecConfig) -> Network<'g> {
        // pair up the two CSR slots of every edge in one O(m) pass: the
        // first slot seen for edge e waits in `first`, the second closes
        // the pair in both directions
        let edge_ids = g.csr_edge_ids();
        let mut first = vec![u32::MAX; g.m()];
        let mut rev_slot = vec![0u32; g.slots()];
        for (s, &e) in edge_ids.iter().enumerate() {
            let other = &mut first[e as usize];
            if *other == u32::MAX {
                *other = s as u32;
            } else {
                rev_slot[s] = *other;
                rev_slot[*other as usize] = s as u32;
            }
        }
        Network {
            g,
            model,
            exec,
            sink: Sink::default(),
            pending: fresh_grid(g),
            spare_outgoing: fresh_grid(g),
            rev_slot,
            receivers: Vec::new(),
            faults: None,
        }
    }

    /// The underlying graph, borrowed for its own lifetime, not this
    /// network's: a round loop reads adjacency rows while it drives `self`.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The communication model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The execution configuration.
    pub fn exec(&self) -> ExecConfig {
        self.exec
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> RoundStats {
        self.sink.stats
    }

    /// Resets statistics (e.g. between measured phases).
    pub fn reset_stats(&mut self) -> RoundStats {
        std::mem::take(&mut self.sink.stats)
    }

    /// Attaches a trace recorder: binds it to this network's topology and
    /// routes every subsequent round, charge, and (if enabled) per-edge
    /// word through it. Replaces any previously attached tracer.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcg_congest::{Model, Network};
    /// use lcg_trace::{TraceConfig, Tracer};
    ///
    /// let g = lcg_graph::gen::cycle(4);
    /// let mut net = Network::new(&g, Model::congest());
    /// net.attach_tracer(Tracer::new(TraceConfig::full("demo")));
    /// let sp = net.span_open("ping");
    /// net.step(|_, _, out| out.send(0, [1]));
    /// net.span_close(sp);
    /// let trace = net.take_tracer().expect("tracer was attached").finish();
    /// assert_eq!(trace.span_rounds("ping"), 1);
    /// assert_eq!(trace.total.messages, net.stats().messages);
    /// ```
    pub fn attach_tracer(&mut self, mut tracer: Tracer) {
        let ends: Vec<(usize, usize)> = self.g.edges().map(|(_, u, v)| (u, v)).collect();
        tracer.bind_topology(self.g.n(), self.g.m(), ends);
        // per-edge load tallies read the graph's flat `edge_ids` array
        // directly — no per-port side table to build
        self.sink.tracer = Some(tracer);
    }

    /// Detaches and returns the tracer (finish it to obtain the trace).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.sink.tracer.take()
    }

    /// Installs (or clears) a fault schedule. Every subsequent delivery —
    /// on both the `step` and the `exchange` path — consults the plan;
    /// destroyed messages never reach an inbox and are tallied into the
    /// [`RoundStats`] fault counters (and, when a tracer is attached, as
    /// fault events in the trace). The plan keys its random drops by
    /// `(round, edge)`, so a faulty execution is exactly as deterministic
    /// and thread-count-invariant as a fault-free one.
    ///
    /// Installing [`FaultPlan::none`] (or any vacuous plan) is
    /// indistinguishable from installing `None`: results and statistics
    /// stay byte-identical to an undisturbed execution.
    ///
    /// # Panics
    ///
    /// Panics when the plan references vertices or edges outside this
    /// network's graph, or a drop probability outside `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcg_congest::{FaultPlan, Model, Network};
    ///
    /// let g = lcg_graph::gen::path(3);
    /// let mut net = Network::new(&g, Model::congest());
    /// net.set_fault_plan(Some(FaultPlan::none().with_link_failure(0, 0, u64::MAX)));
    /// net.step(|v, _, out| {
    ///     if v == 0 {
    ///         out.send(0, [7]); // crosses edge 0 — destroyed
    ///     }
    /// });
    /// net.step(|_, inbox, _| assert!(inbox.iter().all(Option::is_none)));
    /// assert_eq!(net.stats().dropped_messages, 1);
    /// assert_eq!(net.stats().messages, 1); // sending is still charged
    /// ```
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(|p| FaultState::compile(p, self.g.n(), self.g.m()));
    }

    /// The attached tracer, if any (e.g. to annotate the current span).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.sink.tracer.as_mut()
    }

    /// Opens a span on the attached tracer; `None` when untraced, so call
    /// sites need no tracing-enabled branch of their own.
    pub fn span_open(&mut self, name: &str) -> Option<SpanId> {
        self.sink.tracer.as_mut().map(|t| t.open_span(name))
    }

    /// Closes a span previously opened with [`Network::span_open`].
    pub fn span_close(&mut self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (self.sink.tracer.as_mut(), id) {
            t.close_span(id);
        }
    }

    /// Attaches a metrics recorder: every subsequent round feeds the
    /// deterministic registry (messages, words, delivered/spilled counts,
    /// per-round word histogram), and the recorder's profiling plane keeps
    /// observing wall time and executor utilization on the side. Replaces
    /// any previously attached recorder. `None` (the default) keeps every
    /// hook a skipped branch — results, statistics, and traces are
    /// byte-identical with metrics off.
    pub fn attach_metrics(&mut self, recorder: Recorder) {
        self.sink.metrics = Some(recorder);
    }

    /// Detaches and returns the metrics recorder (finish it to obtain the
    /// two-plane report).
    pub fn take_metrics(&mut self) -> Option<Recorder> {
        self.sink.metrics.take()
    }

    /// Runs `body` as the named phase: one boundary for both observers —
    /// a trace span (the phase's rounds, messages and words) and a
    /// profiling-plane timer (its wall time) open before `body` and close
    /// after it, each a no-op when its observer is not attached.
    /// [`Network::span_open`]/[`Network::span_close`] remain for spans
    /// that carry no timer.
    pub fn phase<T>(&mut self, name: &str, body: impl FnOnce(&mut Network<'g>) -> T) -> T {
        let span = self.span_open(name);
        if let Some(rec) = self.sink.metrics.as_mut() {
            rec.phase_start(name);
        }
        let out = body(self);
        if let Some(rec) = self.sink.metrics.as_mut() {
            rec.phase_end(name);
        }
        self.span_close(span);
        out
    }

    /// Executes one synchronous round.
    ///
    /// `f(v, inbox, outbox)` is called once per vertex; the inbox holds the
    /// messages sent to `v` in the previous round. Messages written to the
    /// outbox are delivered at the *next* round, as in the synchronous
    /// model.
    ///
    /// This variant accepts `FnMut` (closures capturing shared mutable
    /// state) and therefore always runs sequentially regardless of
    /// [`ExecConfig`]; use [`Network::run_state`] for the parallel engine.
    pub fn step<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, &Inbox, &mut Outbox),
    {
        let mut unit = vec![(); self.g.n()];
        let compose = |_: &mut (), _, v, inbox: &Inbox, out: &mut Outbox| f(v, inbox, out);
        self.rounds_seq(1, &mut unit, compose, None::<NoRecv<()>>, None::<NoHalt<()>>);
    }

    /// One round with per-vertex state: [`Network::run_state`] with
    /// `rounds = 1`.
    pub fn step_state<S, F>(&mut self, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, usize, &Inbox, &mut Outbox) + Sync,
    {
        self.run_state(1, states, f);
    }

    /// Runs `rounds` rounds of the same per-vertex-state closure on the
    /// configured thread pool.
    ///
    /// `states[v]` is vertex `v`'s private state; `f(state, v, inbox,
    /// outbox)` may mutate it freely. Because state is split per vertex
    /// the closure is `Fn + Sync` and rounds parallelize; the contiguous
    /// chunking + chunk-order merge guarantee outputs and [`RoundStats`]
    /// are **bit-identical for every thread count** (see module docs).
    ///
    /// On the parallel path this is a single **batch** on the persistent
    /// worker pool: workers spawn once, own their state chunk for all
    /// rounds, and park on a rendezvous between rounds. Results and
    /// [`RoundStats`] stay bit-identical to `rounds` sequential
    /// [`Network::step`] calls over the same states (which is exactly how
    /// the sub-threshold fallback executes them), so `run_state(k)` ≡
    /// k × `step_state`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != n`. A panic inside `f` on a worker
    /// thread (e.g. a CONGEST violation) re-raises with its original
    /// payload after the pool is torn down (never a hang); the network
    /// remains usable afterwards.
    pub fn run_state<S, F>(&mut self, rounds: usize, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, usize, &Inbox, &mut Outbox) + Sync,
    {
        let compose = |s: &mut S, _, v, inbox: &Inbox, out: &mut Outbox| f(s, v, inbox, out);
        self.rounds(rounds, states, compose, None::<NoRecv<S>>, None::<NoHalt<S>>);
    }

    /// Executes one synchronous round with the *standard* round structure:
    /// every vertex first composes its outgoing messages from its current
    /// state (`send`), then all messages are delivered and processed
    /// (`recv`) — so information travels one hop per round, exactly as in
    /// the textbook CONGEST definition.
    ///
    /// Do not mix with in-flight [`Network::step`] messages: both forms
    /// use the one inbox grid (debug builds assert it is empty).
    ///
    /// `FnMut` variant — always sequential; see
    /// [`Network::exchange_rounds`] for the parallel engine.
    pub fn exchange<S, R>(&mut self, mut send: S, mut recv: R)
    where
        S: FnMut(usize, &mut Outbox),
        R: FnMut(usize, &Inbox),
    {
        self.debug_assert_drained();
        let mut unit = vec![(); self.g.n()];
        let compose = |_: &mut (), _, v, _: &Inbox, out: &mut Outbox| send(v, out);
        let consume = |_: &mut (), _, v, inbox: &Inbox| recv(v, inbox);
        self.rounds_seq(1, &mut unit, compose, Some(consume), None::<NoHalt<()>>);
    }

    /// The `exchange` family's precondition, checked where a run enters:
    /// its rounds consume the inbox grid whole, `step` leftovers included.
    fn debug_assert_drained(&self) {
        debug_assert!(
            self.pending.iter().all(Option::is_none),
            "an exchange round was started with undelivered step() messages pending"
        );
    }

    /// The sequential round body: up to `max_rounds` rounds of compose →
    /// deliver → consume on the caller's thread, stopping early once every
    /// state is `halted`; returns the rounds executed. Without a `consume`
    /// phase, `compose` reads the previous round's deliveries; with one,
    /// the rows it sees are empty and `consume` reads this round's. The
    /// phase that read a row clears it, so delivery lands on clean slots.
    /// It takes the states itself because both closures mutate them and
    /// cannot each capture the slice.
    fn rounds_seq<St, C, R, H>(
        &mut self,
        max_rounds: usize,
        states: &mut [St],
        mut compose: C,
        mut consume: Option<R>,
        halted: Option<H>,
    ) -> u64
    where
        C: FnMut(&mut St, usize, usize, &Inbox, &mut Outbox),
        R: FnMut(&mut St, usize, usize, &Inbox),
        H: Fn(&St) -> bool,
    {
        let cap = self.model.capacity();
        let offsets = self.g.csr_offsets();
        let mut inbox = take_grid(self.g, &mut self.pending);
        let mut outgoing = take_grid(self.g, &mut self.spare_outgoing);
        let mut executed = 0u64;
        for round in 0..max_rounds {
            if halted.as_ref().is_some_and(|h| states.iter().all(h)) {
                break;
            }
            let mut counters = ChunkCounters::default();
            for (v, state) in states.iter_mut().enumerate() {
                let row = row_of(offsets, v);
                let slots = &mut outgoing[row.clone()];
                let mut out = Outbox { slots: &mut *slots, capacity: cap, vertex: v };
                compose(state, round, v, &inbox[row.clone()], &mut out);
                counters.count(slots);
                if consume.is_none() {
                    clear_slots(&mut inbox[row]);
                }
            }
            let whole = std::iter::once((0..self.g.n(), &mut outgoing[..]));
            self.route(whole, |_u, dest, msg| inbox[dest] = Some(msg));
            self.sink.round(counters);
            if let Some(recv) = consume.as_mut() {
                for (v, state) in states.iter_mut().enumerate() {
                    let row = &mut inbox[row_of(offsets, v)];
                    recv(state, round, v, row);
                    clear_slots(row);
                }
            }
            executed += 1;
        }
        self.pending = inbox;
        return_clean(&mut self.spare_outgoing, outgoing);
        executed
    }

    /// [`Network::exchange`] for a round in which only `senders` have
    /// anything to say: `send` runs for those vertices only, delivery walks
    /// only their outbox rows, and `recv` runs — in ascending vertex order —
    /// only for the vertices a message actually reached. Statistics, trace,
    /// metrics, fault adjudication and every delivered inbox are exactly
    /// those of `exchange` with the other vertices sending nothing; what
    /// changes is the cost, Θ(Σ deg(senders) + messages + Σ deg(receivers))
    /// instead of Θ(n + 2m) (DESIGN §10). Sequential, like `exchange`: a
    /// round this sparse is under any parallel work threshold.
    ///
    /// # Panics
    ///
    /// Panics if `senders` is not strictly ascending or names a vertex
    /// outside the graph.
    pub fn exchange_active<S, R>(&mut self, senders: &[usize], mut send: S, mut recv: R)
    where
        S: FnMut(usize, &mut Outbox),
        R: FnMut(usize, &Inbox),
    {
        self.debug_assert_drained();
        assert!(
            senders.windows(2).all(|w| w[0] < w[1])
                && senders.last().is_none_or(|&v| v < self.g.n()),
            "senders must be strictly ascending vertex ids"
        );
        let cap = self.model.capacity();
        let offsets = self.g.csr_offsets();
        let mut outgoing = take_grid(self.g, &mut self.spare_outgoing);
        let mut counters = ChunkCounters::default();
        for &v in senders {
            let slots = &mut outgoing[row_of(offsets, v)];
            let mut out = Outbox { slots: &mut *slots, capacity: cap, vertex: v };
            send(v, &mut out);
            counters.count(slots);
        }
        let mut inboxes = take_grid(self.g, &mut self.pending);
        let mut receivers = std::mem::take(&mut self.receivers);
        self.route(sender_rows(offsets, senders, &mut outgoing), |u, dest, msg| {
            inboxes[dest] = Some(msg);
            receivers.push(u);
        });
        self.sink.round(counters);
        receivers.sort_unstable();
        receivers.dedup();
        for &u in &receivers {
            let row = &mut inboxes[row_of(offsets, u)];
            recv(u, row);
            row.fill(None);
        }
        receivers.clear();
        self.receivers = receivers;
        return_clean(&mut self.pending, inboxes);
        return_clean(&mut self.spare_outgoing, outgoing);
    }

    /// Runs up to `max_rounds` standard exchange rounds
    /// ([`Network::exchange`] semantics over per-vertex state, `Fn + Sync`
    /// closures) as one **batch** on the persistent worker pool, stopping
    /// early once every vertex reports halted. Per round:
    /// `send(state, round, v, outbox)` composes, the
    /// engine delivers (fault adjudication and tracing included), then
    /// `recv(state, round, v, inbox)` consumes. `halted` is evaluated on
    /// each state as the previous round left it — a network that is
    /// quiescent on entry executes zero rounds. Returns the number of
    /// rounds executed.
    ///
    /// This is the multi-round driver the paper's flood/peel/walk loops
    /// run on: one batch amortizes the worker spawn across the whole loop,
    /// and the per-chunk halt votes replace the leader-side all-vertices
    /// scan. Results and [`RoundStats`] are bit-identical to the
    /// equivalent sequential loop over [`Network::exchange`] at every
    /// thread count — which is exactly how the sub-threshold fallback
    /// executes it.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != n`. Worker panics re-raise with their
    /// original payload after the pool is torn down (never a hang); the
    /// network remains usable afterwards.
    pub fn exchange_rounds<St, S, R, H>(
        &mut self,
        max_rounds: usize,
        states: &mut [St],
        send: S,
        recv: R,
        halted: H,
    ) -> u64
    where
        St: Send,
        S: Fn(&mut St, usize, usize, &mut Outbox) + Sync,
        R: Fn(&mut St, usize, usize, &Inbox) + Sync,
        H: Fn(&St) -> bool + Sync,
    {
        self.debug_assert_drained();
        let compose = |s: &mut St, round, v, _: &Inbox, out: &mut Outbox| send(s, round, v, out);
        self.rounds(max_rounds, states, compose, Some(recv), Some(halted))
    }

    /// The pool round body: the contract of [`Network::rounds_seq`] —
    /// which it runs when the work threshold withholds the pool — as one
    /// batch on persistent workers. Per round: a compose phase on the
    /// workers; barrier merge, delivery and round tick on the leader;
    /// then, only when there is a `consume` closure, a consume phase on
    /// the workers. Panics if `states.len() != n`.
    fn rounds<St, C, R, H>(
        &mut self,
        max_rounds: usize,
        states: &mut [St],
        compose: C,
        consume: Option<R>,
        halted: Option<H>,
    ) -> u64
    where
        St: Send,
        C: Fn(&mut St, usize, usize, &Inbox, &mut Outbox) + Sync,
        R: Fn(&mut St, usize, usize, &Inbox) + Sync,
        H: Fn(&St) -> bool + Sync,
    {
        assert_eq!(states.len(), self.g.n(), "one state per vertex");
        let chunks = match self.exec.par_chunks(self.g.n()) {
            Some(chunks) if max_rounds > 0 => chunks,
            _ => return self.rounds_seq(max_rounds, states, compose, consume, halted),
        };
        let (consume, halted) = (consume.as_ref(), halted.as_ref());
        let cap = self.model.capacity();
        let g = self.g;
        let offsets = g.csr_offsets();
        let mut inbox = take_grid(g, &mut self.pending);
        let mut arena = take_grid(g, &mut self.spare_outgoing);
        let mut inbox_parts = split_flat(&mut inbox, &chunks, offsets);
        let mut arena_parts = split_flat(&mut arena, &chunks, offsets);
        let mut all_halted = halted.is_some_and(|h| states.iter().all(h));
        let audit_on = self.exec.audit().is_shuffle();
        let Network { sink, rev_slot, faults, .. } = &mut *self;
        let topo = Topo::of(g, rev_slot);
        let mut counted = Vec::with_capacity(chunks.len());
        let mut sampled = sink.metrics.is_some().then(ExecProfile::default);
        let executed = pool::run_batch(
            &chunks,
            states,
            // worker: one phase of one round over its chunk's rows. Written
            // in place so the `Fn(.., Job) -> Job` bound pins the job handed
            // in and the job returned to one lifetime
            &|_w: usize, range: std::ops::Range<usize>, states: &mut [St], mut job: RoundJob| {
                let base = offsets[range.start] as usize;
                let recv = consume.filter(|_| job.phase == Phase::Consume);
                // the round's last phase read the inbox rows: it clears
                // them and votes on quiescence
                let last = recv.is_some() == consume.is_some();
                for (v, state) in range.clone().zip(states.iter_mut()) {
                    let local = offsets[v] as usize - base..offsets[v + 1] as usize - base;
                    let inbox = &mut job.inbox[local.clone()];
                    match recv {
                        Some(recv) => recv(state, job.round, v, inbox),
                        None => {
                            let slots = &mut job.arena[local];
                            let mut out = Outbox { slots: &mut *slots, capacity: cap, vertex: v };
                            compose(state, job.round, v, inbox, &mut out);
                            job.counters.count(slots);
                        }
                    }
                    if last {
                        clear_slots(inbox);
                    }
                }
                job.all_halted = last && halted.is_some_and(|h| states.iter().all(h));
                job
            },
            sampled.as_mut(),
            // leader: merge, deliver and tick after every chunk has
            // composed, exactly as the sequential body orders them
            |pool| {
                let mut executed = 0u64;
                for round in 0..max_rounds {
                    if all_halted {
                        break;
                    }
                    all_halted =
                        run_phase(pool, Phase::Compose, round, &mut inbox_parts, &mut arena_parts, &mut counted);
                    let total = barrier_total("rounds/ChunkCounters", sink.stats.rounds, audit_on, &counted);
                    deliver_chunked(&chunks, &mut arena_parts, &mut inbox_parts, faults.as_ref(), topo, sink);
                    sink.round(total);
                    if consume.is_some() {
                        all_halted =
                            run_phase(pool, Phase::Consume, round, &mut inbox_parts, &mut arena_parts, &mut counted);
                    }
                    executed += 1;
                }
                executed
            },
        );
        sink.samples(sampled);
        self.pending = inbox;
        return_clean(&mut self.spare_outgoing, arena);
        executed
    }

    /// Moves the outbox rows in `parts` to wherever `put` stores them: the
    /// [`sweep`] (see there for the contract on `parts`) over this
    /// network's topology, fault plan and sink.
    fn route<'s, I, P>(&mut self, parts: I, put: P)
    where
        I: Iterator<Item = (std::ops::Range<usize>, &'s mut [Option<Msg>])>,
        P: FnMut(usize, usize, Msg),
    {
        let Network { g, rev_slot, faults, sink, .. } = self;
        sweep(faults.as_ref(), Topo::of(g, rev_slot), sink, parts, put);
    }

    /// Merges externally-measured statistics into this network's counters
    /// (used when phases are executed on parallel per-cluster networks and
    /// their aggregate must be attributed to the main execution).
    pub fn charge_stats(&mut self, s: &RoundStats) {
        self.sink.external(s);
    }

    /// Charges `rounds` silent rounds (no messages) to the statistics.
    ///
    /// Used when an algorithm's specification spends rounds waiting (e.g.
    /// the fixed `b`-round windows of the §2.3 failure-detection protocol)
    /// without any traffic in the simulation shortcut.
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.sink.quiet_rounds(rounds);
    }

    /// Neighbor vertex on `port` of `v`.
    #[inline]
    #[must_use]
    pub fn neighbor(&self, v: usize, port: usize) -> usize {
        let row = self.g.row_range(v);
        debug_assert!(port < row.len(), "port {port} out of range for vertex {v}");
        self.g.csr_neighbors()[row.start + port] as usize
    }
}

// ------------------------------------------------------------- snapshots
//
// Engine-state serialization (see `crate::snapshot` for the file format
// and DESIGN.md §14 for the schema). Lives here because it is the one
// consumer of the network's private fields outside the round engine.

impl<'g> Network<'g> {
    /// FNV-1a fingerprint of the graph's edge list: edge ids with their
    /// endpoint pairs, in id order. Two graphs that fingerprint equal (at
    /// equal `n`/`m`) are interchangeable as resume targets.
    fn topology_fingerprint(g: &Graph) -> u64 {
        let mut enc = Enc::new();
        for (e, u, v) in g.edges() {
            enc.usize(e);
            enc.usize(u);
            enc.usize(v);
        }
        snapshot::fnv1a64(&enc.into_bytes())
    }

    /// Appends the engine's snapshot sections (`TOPO` … `METR`) to `w`.
    /// Supervisors call this, then append their own sections (per-node
    /// program state, RNG positions, progress) before writing the file.
    ///
    /// Only state that carries information across rounds is serialized:
    /// the `pending` grid travels, the outbox arena does not (it is
    /// all-`None` between rounds by the pool invariant and is rebuilt
    /// fresh on resume), and `rev_slot` is a pure function of the
    /// graph. A fault schedule is stored as its *plan* — drop coins are
    /// keyed by `(round, edge)` and the round counter is in `STAT`, so
    /// plan + counter is complete fault progress. The metrics section
    /// keeps only the deterministic registry; the profiling plane is
    /// wall-clock state and deliberately dies with the process.
    pub fn write_snapshot_sections(&self, w: &mut SnapshotWriter) {
        w.state_section("TOPO", &(self.g.n(), self.g.m(), Network::topology_fingerprint(self.g)));
        w.state_section("MODL", &self.model);
        w.state_section("EXEC", &self.exec);
        w.state_section("STAT", &self.sink.stats);
        // the flat arena is written in the wire shape of the historical
        // nested grid (row count, then per row its length and slots), so
        // snapshots stay byte-compatible across the CSR change; a cold
        // grid (lost to a panic mid-round) is written as the empty rows the
        // next round will see in its place
        let mut pend = Enc::new();
        pend.usize(self.g.n());
        for v in 0..self.g.n() {
            let row = self.g.row_range(v);
            pend.usize(row.len());
            for s in row {
                self.pending.get(s).unwrap_or(&None).encode(&mut pend);
            }
        }
        w.section("PEND", pend.into_bytes());
        let plan: Option<FaultPlan> = self.faults.as_ref().map(|f| f.plan().clone());
        w.state_section("FLTS", &plan);
        w.state_section("TRCE", &self.sink.tracer.as_ref().map(Tracer::snapshot_state));
        let metr = self.sink.metrics.as_ref();
        w.state_section("METR", &metr.map(|rec| (rec.label().to_string(), rec.registry().to_json())));
    }

    /// Writes a complete engine snapshot to `w`: magic, version header,
    /// the checksummed sections of [`Network::write_snapshot_sections`],
    /// and the terminator.
    pub fn save_snapshot<W: std::io::Write>(&self, w: W) -> Result<(), SnapshotError> {
        let mut sw = SnapshotWriter::new();
        self.write_snapshot_sections(&mut sw);
        sw.write_to(w)
    }

    /// Reconstructs a network from a parsed snapshot, binding it to `g`.
    /// The snapshot's `TOPO` fingerprint must match `g` — resuming onto a
    /// different graph is a typed [`SnapshotError::TopologyMismatch`],
    /// not undefined behavior. All errors leave no partial state behind:
    /// the network is built only after every section has decoded.
    pub fn restore_snapshot_sections(
        g: &'g Graph,
        r: &SnapshotReader,
    ) -> Result<Network<'g>, SnapshotError> {
        let (n, m, fp): (usize, usize, u64) = r.state_section("TOPO")?;
        let here = Network::topology_fingerprint(g);
        if n != g.n() || m != g.m() || fp != here {
            return Err(SnapshotError::TopologyMismatch {
                detail: format!(
                    "snapshot has n={n} m={m} edges#{fp:016x}, resume graph has n={} m={} edges#{here:016x}",
                    g.n(),
                    g.m()
                ),
            });
        }
        let model: Model = r.state_section("MODL")?;
        let exec: ExecConfig = r.state_section("EXEC")?;
        let stats: RoundStats = r.state_section("STAT")?;
        // inverse of the writer: the wire format is the historical nested
        // grid, decoded row by row straight into the flat arena
        let mut pend = Dec::new("PEND", r.section("PEND")?);
        let rows = pend.usize()?;
        if rows != g.n() {
            return Err(SnapshotError::Corrupt {
                detail: "pending grid shape does not match the graph".to_string(),
            });
        }
        let mut pending: Grid = vec![None; g.slots()];
        for v in 0..g.n() {
            let deg = pend.usize()?;
            if deg != g.degree(v) {
                return Err(SnapshotError::Corrupt {
                    detail: "pending grid shape does not match the graph".to_string(),
                });
            }
            for slot in &mut pending[g.row_range(v)] {
                *slot = Option::<Msg>::decode(&mut pend)?;
            }
        }
        pend.finish()?;
        let plan: Option<FaultPlan> = r.state_section("FLTS")?;
        if let Some(p) = &plan {
            if p.link_failures.iter().any(|l| l.edge >= g.m())
                || p.crashes.iter().any(|c| c.node >= g.n())
            {
                return Err(SnapshotError::Corrupt {
                    detail: "fault plan references edges/nodes outside the graph".to_string(),
                });
            }
        }
        let tracer = r
            .state_section::<Option<TracerState>>("TRCE")?
            .map(Tracer::from_snapshot_state)
            .transpose()
            .map_err(|e| SnapshotError::Corrupt { detail: format!("tracer state: {e}") })?;
        let metrics = r
            .state_section::<Option<(String, String)>>("METR")?
            .map(|(label, json)| {
                let registry = lcg_metrics::Registry::from_json(&json)?;
                let mut rec = Recorder::new(&label);
                rec.merge_registry(&registry);
                Ok(rec)
            })
            .transpose()
            .map_err(|e: String| SnapshotError::Corrupt { detail: format!("metrics registry: {e}") })?;

        // every section decoded — only now is engine state assembled
        let mut net = Network::with_exec(g, model, exec);
        // direct field set: `attach_tracer` would re-bind the topology and
        // reset the restored per-edge loads
        net.sink = Sink { stats, tracer, metrics };
        net.pending = pending;
        net.set_fault_plan(plan); // recompiles FaultState from the plan
        Ok(net)
    }

    /// Reads a complete snapshot from `r` and resumes it against `g` —
    /// the inverse of [`Network::save_snapshot`]. A resumed network
    /// continues bit-identically to the network that was saved: same
    /// stats, same in-flight messages, same fault schedule at the same
    /// round, same RNG-free engine state.
    pub fn resume_snapshot<R: std::io::Read>(
        g: &'g Graph,
        r: R,
    ) -> Result<Network<'g>, SnapshotError> {
        let reader = SnapshotReader::read_from(r)?;
        Network::restore_snapshot_sections(g, &reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use lcg_graph::gen;

    #[test]
    fn messages_delivered_next_round() {
        let g = gen::path(3);
        let mut net = Network::new(&g, Model::congest());
        // round 1: vertex 0 sends 7 to its only neighbor (vertex 1)
        net.step(|v, inbox, out| {
            assert!(inbox.iter().all(Option::is_none)); // nothing yet
            if v == 0 {
                out.send(0, [7]);
            }
        });
        let mut got = false;
        net.step(|v, inbox, _out| {
            if v == 1 {
                let port_from_0 = 0; // neighbor 0 is first in sorted order
                // borrow, don't copy: the inbox is only read
                got = inbox[port_from_0].as_deref() == Some([7u64].as_slice());
            }
        });
        assert!(got, "the 1-word message must arrive on port 0");
        assert_eq!(net.stats().rounds, 2);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn oversized_message_panics() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Congest { words_per_edge: 1 });
        net.step(|_, _, out| out.send(0, [1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn oversized_message_panics_in_parallel_worker() {
        let g = gen::grid(8, 8);
        let exec = ExecConfig::with_threads(4).with_work_threshold(1);
        let mut net = Network::with_exec(&g, Model::Congest { words_per_edge: 1 }, exec);
        net.step_state(&mut vec![(); g.n()], |_, v, _, out| {
            if v == 37 {
                out.send(0, [1, 2, 3]); // violation inside a worker thread
            }
        });
    }

    #[test]
    fn local_allows_big_messages() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.step(|_, _, out| out.send(0, vec![0u64; 1000]));
        assert_eq!(net.stats().max_words_edge_round, 1000);
    }

    #[test]
    #[should_panic(expected = "sent twice")]
    fn double_send_panics() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.step(|_, _, out| {
            out.send(0, [1]);
            out.send(0, [2]);
        });
    }

    #[test]
    fn ports_are_consistent() {
        let g = gen::cycle(5);
        let net = Network::new(&g, Model::congest());
        for v in 0..5 {
            for p in 0..2 {
                let u = net.neighbor(v, p);
                let q = g.neighbor_row(u).iter().position(|&w| w as usize == v).unwrap();
                assert_eq!(net.neighbor(u, q), v);
            }
        }
    }

    #[test]
    fn flood_reaches_everyone() {
        let g = gen::grid(6, 6);
        let mut net = Network::new(&g, Model::congest());
        let n = g.n();
        let mut informed = vec![false; n];
        informed[0] = true;
        // BFS flood: diameter of 6x6 grid is 10. `informed[v]` is only
        // ever written by vertex v's own closure call, so reading it after
        // the inbox update already reflects this round — no per-round
        // snapshot copy needed.
        for _ in 0..11 {
            net.step(|v, inbox, out| {
                if inbox.iter().any(Option::is_some) {
                    informed[v] = true;
                }
                if informed[v] {
                    for p in 0..out.ports() {
                        out.send(p, [1u64]);
                    }
                }
            });
        }
        assert!(informed.iter().all(|&b| b));
        // capacity respected throughout
        assert!(net.stats().max_words_edge_round <= 2);
    }

    /// The same flood as a per-vertex-state program, on every thread
    /// count: outputs and stats must match the sequential `step` run.
    #[test]
    fn parallel_flood_matches_sequential_bitwise() {
        let g = gen::grid(6, 6);
        let run = |threads: usize| {
            let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(threads));
            let mut informed: Vec<bool> = vec![false; g.n()];
            informed[0] = true;
            for _ in 0..11 {
                net.step_state(&mut informed, |me, _v, inbox, out| {
                    if inbox.iter().any(Option::is_some) {
                        *me = true;
                    }
                    if *me {
                        for p in 0..out.ports() {
                            out.send(p, [1]);
                        }
                    }
                });
            }
            (informed, net.stats())
        };
        let (seq_informed, seq_stats) = run(1);
        assert!(seq_informed.iter().all(|&b| b));
        for threads in [2, 4, 8] {
            let (par_informed, par_stats) = run(threads);
            assert_eq!(par_informed, seq_informed, "{threads} threads diverged");
            stats::compare(&seq_stats, &par_stats).unwrap();
        }
    }

    #[test]
    fn exchange_rounds_matches_exchange_bitwise() {
        let g = gen::grid(5, 7);
        // sequential FnMut exchange
        let mut seq_net = Network::new(&g, Model::congest());
        let mut seq_seen: Vec<u64> = vec![0; g.n()];
        seq_net.exchange(
            |v, out| {
                for p in 0..out.ports() {
                    out.send(p, [v as u64 + 1]);
                }
            },
            |v, inbox| {
                seq_seen[v] = inbox.iter().flatten().map(|m| m[0]).sum();
            },
        );
        for threads in [1, 2, 4, 8] {
            let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(threads));
            let mut seen: Vec<u64> = vec![0; g.n()];
            let executed = net.exchange_rounds(
                1,
                &mut seen,
                |_me, _round, v, out| {
                    for p in 0..out.ports() {
                        out.send(p, [v as u64 + 1]);
                    }
                },
                |me, _round, _v, inbox| {
                    *me = inbox.iter().flatten().map(|m| m[0]).sum();
                },
                |_| false,
            );
            assert_eq!(executed, 1);
            assert_eq!(seen, seq_seen, "{threads} threads diverged");
            stats::compare(&seq_net.stats(), &net.stats()).unwrap();
        }
    }

    #[test]
    fn step_state_loop_counts_rounds() {
        let g = gen::cycle(9);
        let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(3));
        for _ in 0..5 {
            net.step_state(&mut [(); 9], |_, _, _, out| out.send(0, [1]));
        }
        assert_eq!(net.stats().rounds, 5);
        assert_eq!(net.stats().messages, 45);
    }

    #[test]
    fn charge_rounds_counts() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        net.charge_rounds(17);
        assert_eq!(net.stats().rounds, 17);
        assert_eq!(net.stats().messages, 0);
    }

    /// `stats` == trace totals == `net.*` registry counters, field by
    /// field, after every public round form and both charge paths, under
    /// an active fault plan. `external_faults` are the fault tallies that
    /// arrived through `charge_stats`: the trace keeps fault *events* (with
    /// the round they struck in), which foreign statistics do not carry.
    fn assert_sinks_agree(net: &mut Network, span: Option<SpanId>, external_faults: &RoundStats, what: &str) {
        let s = net.stats();
        let mut tracer = net.sink.tracer.clone().expect("tracer attached");
        tracer.close_span(span.expect("span open"));
        let trace = tracer.finish();
        let t = &trace.total;
        assert_eq!(
            (t.rounds, t.messages, t.words, t.max_words_edge_round),
            (s.rounds, s.messages, s.words, s.max_words_edge_round),
            "trace totals after {what}"
        );
        assert_eq!(trace.span_rounds("phase"), s.rounds, "the open span saw everything ({what})");
        let events = |kind: &str| -> u64 {
            trace.faults.iter().filter(|f| f.kind == kind).map(|f| f.count).sum()
        };
        assert_eq!(
            (events("drop") + events("link"), events("crash"), events("trunc")),
            (
                s.dropped_messages - external_faults.dropped_messages,
                s.crashed_messages - external_faults.crashed_messages,
                s.truncated_messages - external_faults.truncated_messages,
            ),
            "trace fault events after {what}"
        );
        let reg = net.sink.metrics.as_ref().expect("recorder attached").registry();
        let mirrored = RoundStats {
            rounds: reg.counter("net.rounds"),
            messages: reg.counter("net.messages"),
            words: reg.counter("net.words"),
            max_words_edge_round: reg.gauge("net.max_words_edge_round").unwrap_or(0) as usize,
            dropped_messages: reg.counter("net.dropped_messages"),
            crashed_messages: reg.counter("net.crashed_messages"),
            truncated_messages: reg.counter("net.truncated_messages"),
        };
        stats::compare(&s, &mirrored).unwrap_or_else(|e| panic!("registry after {what}: {e}"));
        let destroyed = s.dropped_messages + s.crashed_messages
            - external_faults.dropped_messages
            - external_faults.crashed_messages;
        assert_eq!(
            reg.counter("net.delivered_messages") + destroyed + external_faults.messages,
            s.messages,
            "every message sent on this network was delivered or destroyed ({what})"
        );
    }

    #[test]
    fn tracer_mirrors_stats_across_all_charge_paths() {
        let g = gen::grid(4, 4);
        // threshold 1 forces the pool, so the state-carrying forms run
        // their batch engines; `step`/`exchange*` are the sequential bodies
        let exec = ExecConfig::with_threads(2).with_work_threshold(1);
        let mut net = Network::with_exec(&g, Model::congest(), exec);
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
        net.attach_metrics(Recorder::new("t"));
        net.set_fault_plan(Some(
            FaultPlan::drops(0x51, 0.3).with_crash(5, 1).with_link_failure(2, 0, 4).with_truncation(1),
        ));
        let sp = net.span_open("phase");
        let mut external = RoundStats::default();
        let flood = |out: &mut Outbox| {
            for p in 0..out.ports() {
                out.send(p, [1, 2]);
            }
        };
        let mut unit = vec![(); g.n()];

        net.step(|_, _, out| flood(out));
        assert_sinks_agree(&mut net, sp, &external, "step");
        net.step_state(&mut unit, |_, _, _, out| flood(out));
        assert_sinks_agree(&mut net, sp, &external, "step_state");
        net.run_state(2, &mut unit, |_, _, _, out| flood(out));
        assert_sinks_agree(&mut net, sp, &external, "run_state");
        net.step(|_, _, _| {}); // drain: the exchange forms need an empty pending grid
        net.exchange(|_, out| flood(out), |_, _| {});
        assert_sinks_agree(&mut net, sp, &external, "exchange");
        net.exchange_active(&[0, 6, 15], |_, out| flood(out), |_, _| {});
        assert_sinks_agree(&mut net, sp, &external, "exchange_active");
        let ran = net.exchange_rounds(3, &mut unit, |_, _, _, out| flood(out), |_, _, _, _| {}, |_| false);
        assert_eq!(ran, 3);
        assert_sinks_agree(&mut net, sp, &external, "exchange_rounds");
        net.charge_rounds(7);
        assert_sinks_agree(&mut net, sp, &external, "charge_rounds");
        external = RoundStats {
            rounds: 2,
            messages: 5,
            words: 9,
            max_words_edge_round: 3,
            dropped_messages: 4,
            crashed_messages: 1,
            truncated_messages: 2,
        };
        net.charge_stats(&external);
        assert_sinks_agree(&mut net, sp, &external, "charge_stats");

        let s = net.stats();
        assert!(s.dropped_messages > 4 && s.crashed_messages > 1 && s.truncated_messages > 2, "{s}");
        net.span_close(sp);
        let trace = net.take_tracer().expect("tracer attached").finish();
        // ten executed rounds were sampled; charged rounds are quiet
        assert_eq!(trace.series.len(), 10);
    }

    #[test]
    fn tracer_records_per_edge_loads_on_both_delivery_paths() {
        let g = gen::path(3); // edges: 0 = {0,1}, 1 = {1,2}
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
        // step path: vertex 0 sends 2 words to vertex 1
        net.step(|v, _, out| {
            if v == 0 {
                out.send(0, [1, 2]);
            }
        });
        net.step(|_, _, _| {}); // drain the pending delivery
        // exchange path: vertex 2 sends 1 word to vertex 1
        net.exchange(
            |v, out| {
                if v == 2 {
                    out.send(0, [9]);
                }
            },
            |_, _| {},
        );
        let trace = net.take_tracer().expect("tracer attached").finish();
        assert_eq!(trace.hotspots.len(), 2);
        assert_eq!((trace.hotspots[0].edge, trace.hotspots[0].words), (0, 2));
        assert_eq!((trace.hotspots[1].edge, trace.hotspots[1].words), (1, 1));
        assert_eq!((trace.hotspots[0].u, trace.hotspots[0].v), (0, 1));
    }

    #[test]
    fn tracing_does_not_change_stats() {
        let g = gen::grid(5, 5);
        let run = |traced: bool| {
            let mut net = Network::new(&g, Model::congest());
            if traced {
                net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
            }
            for _ in 0..3 {
                net.step_state(&mut vec![(); g.n()], |_, _, _, out| {
                    for p in 0..out.ports() {
                        out.send(p, [4]);
                    }
                });
            }
            net.stats()
        };
        stats::compare(&run(false), &run(true)).unwrap();
    }

    #[test]
    fn untraced_network_span_helpers_are_noops() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        let sp = net.span_open("nothing");
        assert!(sp.is_none());
        net.span_close(sp); // must not panic
        assert!(net.take_tracer().is_none());
        assert!(net.tracer_mut().is_none());
    }

    #[test]
    fn reset_stats_takes() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        net.step(|_, _, out| out.send(0, [1]));
        let s = net.reset_stats();
        assert_eq!(s.rounds, 1);
        assert_eq!(net.stats().rounds, 0);
    }

    /// An all-to-all flood for `rounds` rounds under `plan`, returning the
    /// final stats and how many messages were received in the last round.
    fn flood_under_plan(
        g: &lcg_graph::Graph,
        plan: Option<FaultPlan>,
        threads: usize,
        rounds: usize,
    ) -> (RoundStats, Vec<u64>) {
        let mut net = Network::with_exec(g, Model::congest(), ExecConfig::with_threads(threads));
        net.set_fault_plan(plan);
        let mut received: Vec<u64> = vec![0; g.n()];
        for _ in 0..rounds {
            net.step_state(&mut received, |me, _v, inbox, out| {
                *me += inbox.iter().flatten().count() as u64;
                for p in 0..out.ports() {
                    out.send(p, [1, 2]);
                }
            });
        }
        (net.stats(), received)
    }

    #[test]
    fn vacuous_plan_is_bit_identical_to_no_plan() {
        let g = gen::grid(5, 5);
        let (base_stats, base_recv) = flood_under_plan(&g, None, 1, 4);
        let (vac_stats, vac_recv) = flood_under_plan(&g, Some(FaultPlan::none()), 1, 4);
        assert_eq!(base_recv, vac_recv);
        stats::compare(&base_stats, &vac_stats).expect("vacuous plan changed stats");
        assert_eq!(base_stats, vac_stats);
    }

    #[test]
    fn faulty_run_is_bit_identical_across_thread_counts() {
        let g = gen::grid(6, 6);
        let plan = FaultPlan::drops(0xFA07, 0.3).with_crash(7, 2).with_link_failure(3, 1, 3);
        let (seq_stats, seq_recv) = flood_under_plan(&g, Some(plan.clone()), 1, 5);
        assert!(seq_stats.dropped_messages > 0, "p=0.3 over 5 rounds must drop something");
        assert!(seq_stats.crashed_messages > 0);
        for threads in [2, 4] {
            let (par_stats, par_recv) = flood_under_plan(&g, Some(plan.clone()), threads, 5);
            assert_eq!(par_recv, seq_recv, "{threads}-thread faulty run diverged");
            assert_eq!(par_stats, seq_stats);
        }
    }

    #[test]
    fn drops_suppress_delivery_but_not_send_accounting() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::drops(1, 1.0)));
        let mut got_any = false;
        for _ in 0..5 {
            net.step(|_, inbox, out| {
                got_any |= inbox.iter().any(Option::is_some);
                out.send(0, [1]);
            });
        }
        assert!(!got_any, "p = 1.0 must destroy every message");
        let s = net.stats();
        assert_eq!(s.messages, 10, "sends are still charged");
        // round 5's sends are adjudicated at delivery within round 5, so
        // all 10 messages were dropped even though none could be *read*
        assert_eq!(s.dropped_messages, 10);
    }

    #[test]
    fn link_failure_interval_applies_per_round() {
        let g = gen::path(2); // single edge 0
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::none().with_link_failure(0, 1, 3)));
        let mut received = 0u64;
        for _ in 0..5 {
            net.step(|v, inbox, out| {
                if v == 1 && inbox[0].is_some() {
                    received += 1;
                }
                if v == 0 {
                    out.send(0, [9]);
                }
            });
        }
        // rounds 0..5 all send; rounds 1 and 2 are down, and the round-4
        // delivery has no later round to be read in
        assert_eq!(net.stats().dropped_messages, 2);
        assert_eq!(received, 2);
    }

    #[test]
    fn crash_stop_kills_both_directions_on_both_paths() {
        let g = gen::path(3); // 0 - 1 - 2
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::none().with_crash(1, 0)));
        // step path: everyone sends to everyone
        net.step(|_, _, out| {
            for p in 0..out.ports() {
                out.send(p, [1]);
            }
        });
        net.step(|v, inbox, _| {
            if v != 1 {
                assert!(inbox.iter().all(Option::is_none), "vertex {v} heard a crashed node");
            }
        });
        assert_eq!(net.stats().crashed_messages, 4);
        // exchange path: same adjudication
        let mut net2 = Network::new(&g, Model::congest());
        net2.set_fault_plan(Some(FaultPlan::none().with_crash(1, 0)));
        let mut heard = vec![false; 3];
        net2.exchange(
            |_, out| {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
            },
            |v, inbox| heard[v] = inbox.iter().any(Option::is_some),
        );
        assert_eq!(heard, vec![false, false, false]);
        assert_eq!(net2.stats().crashed_messages, 4);
    }

    #[test]
    fn truncation_caps_delivered_words() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.set_fault_plan(Some(FaultPlan::none().with_truncation(2)));
        net.step(|v, _, out| {
            if v == 0 {
                out.send(0, [1, 2, 3, 4, 5]);
            }
        });
        let mut got = false;
        net.step(|v, inbox, _| {
            if v == 1 {
                // borrow the truncated payload instead of cloning it
                got = inbox[0].as_deref() == Some([1u64, 2].as_slice());
            }
        });
        assert!(got, "message must arrive truncated to the cap");
        assert_eq!(net.stats().truncated_messages, 1);
        assert_eq!(net.stats().words, 5, "send accounting sees the full message");
    }

    #[test]
    fn fault_events_reach_the_trace() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
        net.set_fault_plan(Some(FaultPlan::none().with_link_failure(0, 0, u64::MAX)));
        net.step(|_, _, out| out.send(0, [1]));
        let trace = net.take_tracer().expect("tracer attached").finish();
        assert_eq!(trace.faults.len(), 1);
        assert_eq!(trace.faults[0].kind, "link");
        assert_eq!(trace.faults[0].count, 2);
        assert_eq!(trace.faults[0].round, 0);
    }
}
