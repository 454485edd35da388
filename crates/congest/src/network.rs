//! The synchronous message-passing engine.
//!
//! A [`Network`] wraps a graph and a [`Model`] and executes synchronous
//! rounds. Algorithms are written as closures over a per-vertex state
//! slice: in each round a closure is invoked once per vertex with that
//! vertex's own state, its inbox (one optional message per port, as in the
//! standard CONGEST definition where each edge carries at most one message
//! per direction per round) or its outbox. The engine enforces the
//! model's per-edge capacity — an oversized send in CONGEST mode panics,
//! so a test passing is a proof that the algorithm really fit its messages
//! into `O(log n)` bits.
//!
//! # One round body, four forms
//!
//! The model has one kind of round — compose, deliver, consume — and the
//! engine writes it out once, as a sequential body on the caller's thread
//! (DESIGN §10). The paper prices an algorithm in rounds, not seconds, so
//! how a round executes is pure implementation; a worker pool under this
//! body measured slower than one thread on every committed benchmark row
//! and was deleted (DESIGN §10.3). Delivery is not a phase of its own:
//! [`Outbox::send`] stores the message in the receiver's inbox slot at
//! once, so composing *is* delivering. The two round *structures* differ
//! only in when the inbox is read: a step round reads last round's
//! deliveries while composing the next round's into a second grid, and
//! has no consume phase; an exchange round composes, then consumes. The
//! phase that read an inbox row clears it. The public forms are adapters:
//!
//! * [`Network::run_state`] runs `k` step rounds and
//!   [`Network::exchange_rounds`] up to `k` exchange rounds, handing each
//!   vertex its own element of a state slice (`&mut [S]`);
//!   [`Network::step_state`] is `run_state(1)`. An exchange round is the
//!   CONGEST round verbatim: every vertex sends from its own state, then
//!   updates that state from what arrived — so no caller copies its state
//!   to keep the send phase from reading what the receive phase writes.
//! * [`Network::exchange_active`] is one exchange round for a caller that
//!   knows which vertices send: its own sparse body over closures, so the
//!   round costs what it carries instead of a pass over every vertex and
//!   slot.
//!
//! A panic inside a closure (e.g. a CONGEST capacity violation) unwinds
//! to the caller with its payload, and the network remains usable.
//!
//! # Accounting (DESIGN §8)
//!
//! [`RoundStats`], the optional [`Tracer`] and the optional [`Recorder`]
//! live in one private sink that books each round once, from the tallies
//! its sends kept; the charge paths report there too, so the three views
//! cannot drift. [`Network::phase`] is the one boundary above it: a trace
//! span and a profiling-plane timer opened and closed together.
//!
//! # Memory model (DESIGN §10)
//!
//! The hot path is allocation-free: messages are [`Msg`] values that store
//! CONGEST-size payloads inline (an inbox slot is 24 bytes), and the
//! network owns the per-vertex/per-port inbox grids a round writes into.
//! An exchange round delivers into the one grid its consume phase then
//! drains; a step round also needs a back buffer to deliver into while the
//! compose phase still reads the front one. The first round allocates what
//! it needs — the slot pairing, the inbox grid, a step round's back buffer
//! — so a network that only exchanges holds one grid, and one that only
//! carries a fault schedule (a charged walk's, a retry's base) holds none.
//! A round takes the grids out of the network, works in place, and puts
//! them back. A panic mid-round loses them with the round's in-flight
//! messages; the next round starts from fresh, identically shaped grids.

use lcg_graph::Graph;
use lcg_metrics::Recorder;
use lcg_trace::{SpanId, Tracer};

use crate::faults::{FaultPlan, FaultState, FaultVerdict};
use crate::model::Model;
use crate::msg::{Msg, INLINE_WORDS};
use crate::stats::RoundStats;

/// Inbox of one vertex: `inbox[port]` is the message received on that port
/// this round, if any. Port `p` of vertex `v` is the `p`-th entry of
/// `Graph::neighbors(v)` (sorted by neighbor id).
pub type Inbox = [Option<Msg>];

/// One per-vertex/per-port inbox grid as a flat arena indexed by CSR
/// edge slot: the message delivered to vertex `v` on port `p` lives at
/// slot `g.csr_offsets()[v] + p`. One contiguous allocation of
/// `g.slots() = 2m` entries, read row by row.
type Grid = Vec<Option<Msg>>;

/// Takes a grid out of its slot for the duration of a round, falling back
/// to a fresh allocation when the slot is cold: never used yet (no round
/// has run, or none has needed a back buffer), or a panic unwound mid-round
/// and the grid, with the failed round's in-flight messages, was lost.
fn take_grid(g: &Graph, slot: &mut Grid) -> Grid {
    let grid = std::mem::take(slot);
    if grid.len() == g.slots() {
        grid
    } else {
        vec![None; g.slots()]
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
/// pass: every phase that reads an inbox row clears it, so a grid whose
/// rows were all read qualifies (a step round's front buffer, an exchange
/// round's grid). Taking the grids without a clearing pass (DESIGN §10)
/// rests on this, hence the debug check.
fn return_clean(slot: &mut Grid, grid: Grid) {
    debug_assert!(grid.iter().all(Option::is_none), "a grid went back to the network dirty");
    *slot = grid;
}

/// The slot range of vertex `v`'s row, as plain indices.
#[inline]
fn row_of(offsets: &[u32], v: usize) -> std::ops::Range<usize> {
    offsets[v] as usize..offsets[v + 1] as usize
}

/// A synchronous CONGEST/LOCAL network over a graph.
///
/// # Examples
///
/// One round of "send your id to all neighbors" (no state kept):
///
/// ```
/// use lcg_congest::{Model, Network};
/// use lcg_graph::gen;
///
/// let g = gen::cycle(5);
/// let mut net = Network::new(&g, Model::congest());
/// net.step_state(&mut [(); 5], |_, v, _inbox, out| {
///     for p in 0..out.ports() {
///         out.send(p, [v as u64]);
///     }
/// });
/// let stats = net.stats();
/// assert_eq!(stats.rounds, 1);
/// assert_eq!(stats.messages, 10); // 2 per vertex
/// ```
pub struct Network<'g> {
    g: &'g Graph,
    model: Model,
    /// Statistics, trace and metrics; every engine event lands here once.
    sink: Sink,
    /// The inbox grid: the slot `g.csr_offsets()[v] + p` holds the
    /// message delivered to `v` on port `p`. Between step rounds it
    /// carries the messages awaiting the next one; an exchange round
    /// fills and drains it. Empty until the first round takes it, and
    /// taken out of `self` for the duration of a round, so a panic
    /// mid-round leaves it cold (empty).
    pending: Grid,
    /// A step round's back buffer, the grid it delivers into while its
    /// compose phase reads `pending`; swapped with `pending` after each
    /// step round. Empty until the first step round takes it.
    back: Grid,
    /// `rev_slot[s]`: the receiving-side slot of slot `s`'s edge — where
    /// a message sent on slot `s` lands (the receiver itself is
    /// `g.csr_neighbors()[s]`). Empty until the first round pairs the slots.
    rev_slot: Vec<u32>,
    /// Scratch of [`Network::exchange_active`]: the vertices that received
    /// a message this round. Kept here so a sparse round allocates nothing.
    receivers: Vec<usize>,
    /// Scratch of a watched round: the slots holding a message the plan
    /// destroyed, cleared when composing ends.
    doomed: Vec<usize>,
    /// Compiled fault schedule ([`Network::set_fault_plan`]). `None` (the
    /// default) keeps every send on the plain store — zero cost,
    /// bit-identical behavior.
    faults: Option<FaultState>,
}

/// What one round's sends came to: the tallies [`Sink::round`] books.
#[derive(Default)]
struct Tally {
    messages: u64,
    words: u64,
    /// Largest single message (words).
    max_words: usize,
    /// Messages too long for [`Msg`]'s inline storage (LOCAL-mode payloads
    /// that cost a heap allocation) — a deterministic model of the round's
    /// allocation count, surfaced through the metrics registry.
    spilled: u64,
    /// Messages the fault plan destroyed, by cause.
    dropped: u64,
    link: u64,
    crashed: u64,
}

/// A round's outbox, handed to a compose closure for one vertex at a time
/// (the engine moves it from vertex to vertex). [`Outbox::send`] delivers
/// at once, into the receiving vertex's slot of the grid the round
/// delivers into.
pub struct Outbox<'a> {
    /// The composing vertex.
    vertex: usize,
    /// Its row of `rev_slot`: where each of its ports delivers.
    rev: &'a [u32],
    offsets: &'a [u32],
    rev_slot: &'a [u32],
    capacity: Option<usize>,
    grid: &'a mut [Option<Msg>],
    tally: Tally,
    /// Present when a fault plan or an edge-load tracer must see each
    /// message; a plain round stores and counts, nothing else.
    watch: Option<Watch<'a>>,
}

/// What a watched round does with each message besides storing it.
struct Watch<'a> {
    /// The 0-based index of the round in flight: the plan's clock.
    round: u64,
    faults: Option<&'a FaultState>,
    /// The tracer, when it tallies words per edge.
    edges: Option<&'a mut Tracer>,
    neighbors: &'a [u32],
    edge_ids: &'a [u32],
    /// The slots holding a destroyed message (see [`Outbox::deliver`]).
    doomed: &'a mut Vec<usize>,
}

impl<'a> Outbox<'a> {
    /// Number of ports (the vertex degree).
    #[inline]
    #[must_use]
    pub fn ports(&self) -> usize {
        self.rev.len()
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
        // the round's grid was clean, and this port is the only sender
        // into its slot: an occupied slot is this port's earlier message
        let dest = self.rev[port] as usize;
        assert!(self.grid[dest].is_none(), "vertex {} sent twice on port {port} in one round", self.vertex);
        let t = &mut self.tally;
        t.messages += 1;
        t.words += msg.len() as u64;
        t.max_words = t.max_words.max(msg.len());
        t.spilled += u64::from(msg.len() > INLINE_WORDS);
        if self.watch.is_some() {
            self.deliver(port, dest, msg);
        } else {
            self.grid[dest] = Some(msg);
        }
    }

    /// A watched round's delivery of `msg`, sent on `port`, to slot `dest`:
    /// the plan adjudicates it — a destroyed message is tallied by cause —
    /// and the tracer tallies its edge's *delivered* words. A destroyed
    /// message is stored all the same, so a second send on the port is
    /// still caught, and its slot is listed for [`Outbox::finish`] to
    /// clear before anything reads the grid.
    #[inline(never)]
    fn deliver(&mut self, port: usize, dest: usize, msg: Msg) {
        let w = self.watch.as_mut().expect("only a watched round delivers here");
        let s = self.offsets[self.vertex] as usize + port;
        let e = w.edge_ids[s] as usize;
        if let Some(fs) = w.faults {
            let t = &mut self.tally;
            let lost = match fs.classify(w.round, e, self.vertex, w.neighbors[s] as usize) {
                FaultVerdict::Deliver => None,
                FaultVerdict::Crashed => Some(&mut t.crashed),
                FaultVerdict::LinkDown => Some(&mut t.link),
                FaultVerdict::Dropped => Some(&mut t.dropped),
            };
            if let Some(count) = lost {
                *count += 1;
                w.doomed.push(dest);
                self.grid[dest] = Some(msg);
                return;
            }
        }
        if let Some(tracer) = w.edges.as_mut() {
            tracer.add_edge_words(e, msg.len() as u64);
        }
        self.grid[dest] = Some(msg);
    }

    /// Moves the outbox to vertex `v`.
    #[inline]
    fn at(&mut self, v: usize) {
        let rev_slot: &'a [u32] = self.rev_slot;
        self.vertex = v;
        self.rev = &rev_slot[row_of(self.offsets, v)];
    }

    /// Ends the compose phase: clears the destroyed messages' slots and
    /// returns the round's tallies.
    fn finish(self) -> Tally {
        if let Some(w) = self.watch {
            for d in w.doomed.drain(..) {
                self.grid[d] = None;
            }
        }
        self.tally
    }
}

/// The one accounting sink under the round engine. Each round is booked
/// once, from its [`Tally`], and each charge path reports here, so
/// `stats` == trace totals == the `net.*` registry counters by
/// construction (DESIGN §8). With no tracer and no recorder attached
/// every method is the `stats` update plus skipped branches.
#[derive(Default)]
struct Sink {
    stats: RoundStats,
    /// Opt-in trace recorder ([`Network::attach_tracer`]).
    tracer: Option<Tracer>,
    /// Opt-in metrics recorder ([`Network::attach_metrics`]).
    metrics: Option<Recorder>,
}

impl Sink {
    /// One round: what the plan destroyed (by cause), what was delivered,
    /// then the round itself with the tallies of every message *sent*.
    /// `dropped` and `link` share a statistics field; the trace keeps
    /// them apart.
    fn round(&mut self, t: &Tally) {
        let s = &mut self.stats;
        s.dropped_messages += t.dropped + t.link;
        s.crashed_messages += t.crashed;
        s.messages += t.messages;
        s.words += t.words;
        s.max_words_edge_round = s.max_words_edge_round.max(t.max_words);
        s.rounds += 1;
        if let Some(tracer) = self.tracer.as_mut() {
            for (kind, count) in [("drop", t.dropped), ("link", t.link), ("crash", t.crashed)] {
                if count > 0 {
                    tracer.record_fault(kind, count);
                }
            }
            tracer.record_round(t.messages, t.words, t.max_words);
        }
        self.fault_counters(t.dropped + t.link, t.crashed);
        if let Some(rec) = self.metrics.as_mut() {
            rec.counter_add("net.delivered_messages", t.messages - t.dropped - t.link - t.crashed);
            rec.counter_add("net.rounds", 1);
            rec.counter_add("net.messages", t.messages);
            rec.counter_add("net.words", t.words);
            if t.spilled > 0 {
                rec.counter_add("net.spilled_messages", t.spilled);
            }
            rec.gauge_max("net.max_words_edge_round", t.max_words as u64);
            rec.histogram_record("net.words_per_round", t.words);
        }
    }

    /// Mirrors fault tallies into the registry; a counter that never fired
    /// stays absent from the report.
    fn fault_counters(&mut self, dropped: u64, crashed: u64) {
        let Some(rec) = self.metrics.as_mut() else { return };
        for (name, count) in [("net.dropped_messages", dropped), ("net.crashed_messages", crashed)] {
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
        self.fault_counters(s.dropped_messages, s.crashed_messages);
    }
}

/// The closure types of an absent consume phase and an absent halt vote:
/// what the compose-only adapters name when they pass `None`.
type NoRecv<St> = fn(&mut St, usize, usize, &Inbox);
type NoHalt<St> = fn(&St) -> bool;

impl<'g> Network<'g> {
    /// Creates a network over `g` under `model`. It allocates nothing per
    /// slot: the first round does.
    pub fn new(g: &'g Graph, model: Model) -> Network<'g> {
        Network {
            g,
            model,
            sink: Sink::default(),
            pending: Grid::new(),
            back: Grid::new(),
            rev_slot: Vec::new(),
            receivers: Vec::new(),
            doomed: Vec::new(),
            faults: None,
        }
    }

    /// Pairs up the two CSR slots of every edge into `rev_slot`, once, in
    /// one O(m) pass: the first slot seen for edge e waits in `first`, the
    /// second closes the pair in both directions.
    fn pair_slots(&mut self) {
        if self.rev_slot.len() == self.g.slots() {
            return;
        }
        let mut first = vec![u32::MAX; self.g.m()];
        let mut rev_slot = vec![0u32; self.g.slots()];
        for (s, &e) in self.g.csr_edge_ids().iter().enumerate() {
            let other = &mut first[e as usize];
            if *other == u32::MAX {
                *other = s as u32;
            } else {
                rev_slot[s] = *other;
                rev_slot[*other as usize] = s as u32;
            }
        }
        self.rev_slot = rev_slot;
    }

    /// [`Network::new`]; the thread count is ignored. Kept only for the
    /// frozen `benchmark/` crate; ROADMAP item 9(c) deletes it.
    pub fn with_exec(g: &'g Graph, model: Model, _exec: crate::ExecConfig) -> Network<'g> {
        Network::new(g, model)
    }

    /// The underlying graph, borrowed for its own lifetime, not this
    /// network's: a round loop reads adjacency rows while it drives `self`.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> RoundStats {
        self.sink.stats
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
    /// net.step_state(&mut [(); 4], |_, _, _, out| out.send(0, [1]));
    /// net.span_close(sp);
    /// let trace = net.take_tracer().expect("tracer was attached").finish();
    /// assert_eq!(trace.span_rounds("ping"), 1);
    /// assert_eq!(trace.total.messages, net.stats().messages);
    /// ```
    pub fn attach_tracer(&mut self, mut tracer: Tracer) {
        // only an edge-load tracer's hotspots name an edge's two ends
        let ends = if tracer.records_edge_loads() { self.g.edges().map(|(_, u, v)| (u, v)).collect() } else { Vec::new() };
        tracer.bind_topology(self.g.n(), self.g.m(), ends);
        self.sink.tracer = Some(tracer);
    }

    /// Detaches and returns the tracer (finish it to obtain the trace).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.sink.tracer.take()
    }

    /// Installs (or clears) a fault schedule. Every subsequent delivery —
    /// in every round form — consults the plan;
    /// destroyed messages never reach an inbox and are tallied into the
    /// [`RoundStats`] fault counters (and, when a tracer is attached, as
    /// fault events in the trace). The plan keys its random drops by
    /// `(round, edge)`, so a faulty execution is exactly as deterministic
    /// as a fault-free one.
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
    /// let mut heard = [false; 3];
    /// net.exchange_rounds(
    ///     1,
    ///     &mut heard,
    ///     |_, _, v, out| {
    ///         if v == 0 {
    ///             out.send(0, [7]); // crosses edge 0 — destroyed
    ///         }
    ///     },
    ///     |heard, _, _, inbox| *heard = inbox.iter().any(Option::is_some),
    ///     |_| false,
    /// );
    /// assert_eq!(heard, [false; 3]);
    /// assert_eq!(net.stats().dropped_messages, 1);
    /// assert_eq!(net.stats().messages, 1); // sending is still charged
    /// ```
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(|p| FaultState::compile(p, self.g.n(), self.g.m()));
    }

    /// A network over `sub = G[map]`, a cluster of this network's graph
    /// (`map[local] = host`), under this network's model and the schedule
    /// [`Network::cluster_faults`] views; no tracer or recorder. Its round 0
    /// is this network's next round.
    pub fn cluster<'s>(&self, sub: &'s Graph, map: &[usize]) -> Network<'s> {
        let mut net = Network::new(sub, self.model);
        net.faults = self.cluster_faults(sub, map);
        net
    }

    /// This network's fault schedule seen from its cluster `sub = G[map]`
    /// ([`Network::cluster`]'s, for a walk that asks [`FaultState::kills`]
    /// and runs no rounds): `sub`'s ids in, round 0 at this network's next
    /// round (`stats.rounds`), this network's verdicts out; `None` without
    /// a plan.
    pub fn cluster_faults(&self, sub: &Graph, map: &[usize]) -> Option<FaultState> {
        self.faults.as_ref().map(|f| f.cluster(self.g, sub, map, self.sink.stats.rounds))
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
    /// observing wall time and memory on the side. Replaces
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

    /// One round with per-vertex state: [`Network::run_state`] with
    /// `rounds = 1`.
    pub fn step_state<S, F>(&mut self, states: &mut [S], f: F)
    where
        F: FnMut(&mut S, usize, &Inbox, &mut Outbox),
    {
        self.run_state(1, states, f);
    }

    /// Runs `rounds` step rounds of the same per-vertex-state closure:
    /// `states[v]` is vertex `v`'s private state, and `f(state, v, inbox,
    /// outbox)` may mutate it freely. The inbox holds the messages sent to
    /// `v` in the previous round; what `f` writes to the outbox is read at
    /// the *next* round, as in the synchronous model.
    /// `run_state(k)` ≡ k × `step_state`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != n`. A panic inside `f` (e.g. a CONGEST
    /// violation) unwinds with its payload; the network remains usable
    /// afterwards.
    pub fn run_state<S, F>(&mut self, rounds: usize, states: &mut [S], mut f: F)
    where
        F: FnMut(&mut S, usize, &Inbox, &mut Outbox),
    {
        let compose = |s: &mut S, _, v, inbox: &Inbox, out: &mut Outbox| f(s, v, inbox, out);
        self.rounds(rounds, states, compose, None::<NoRecv<S>>, None::<NoHalt<S>>);
    }

    /// The exchange forms' precondition, checked where a run enters: their
    /// rounds consume the inbox grid whole, step-round leftovers included.
    fn debug_assert_drained(&self) {
        debug_assert!(
            self.pending.iter().all(Option::is_none),
            "an exchange round was started with undelivered step-round messages pending"
        );
    }

    /// The outbox of a round that delivers into `grid` (clean on entry),
    /// before [`Outbox::at`] moves it to a vertex. It is watched — every send leaves the plain store —
    /// when a fault plan is installed or the tracer tallies edge words.
    fn outbox<'a>(&'a mut self, grid: &'a mut [Option<Msg>]) -> Outbox<'a> {
        let Network { g, model, sink, rev_slot, doomed, faults, .. } = self;
        let edges = sink.tracer.as_mut().filter(|t| t.records_edge_loads());
        let watch = (faults.is_some() || edges.is_some()).then(|| {
            // a panic mid-round may have left slots of a lost grid here
            doomed.clear();
            Watch {
                // delivery precedes the round's booking, so `stats.rounds`
                // is the 0-based index of the round in flight
                round: sink.stats.rounds,
                faults: faults.as_ref(),
                edges,
                neighbors: g.csr_neighbors(),
                edge_ids: g.csr_edge_ids(),
                doomed,
            }
        });
        Outbox {
            vertex: 0,
            rev: &[],
            offsets: g.csr_offsets(),
            rev_slot,
            capacity: model.capacity(),
            grid,
            tally: Tally::default(),
            watch,
        }
    }

    /// The round body: up to `max_rounds` rounds of compose (which
    /// delivers) → consume on the caller's thread, stopping early once
    /// every state is `halted`; returns the rounds executed. Without a
    /// `consume` phase, `compose` reads the previous round's deliveries
    /// while delivering into the back buffer, and the two grids swap after
    /// the round; with one, `compose` is handed an empty inbox, delivers
    /// into the one grid, and `consume` reads it. The phase that read a
    /// row clears it, so delivery lands on clean slots. It takes the states
    /// itself because both closures mutate them and cannot each capture
    /// the slice. Panics if `states.len() != n`.
    fn rounds<St, C, R, H>(
        &mut self,
        max_rounds: usize,
        states: &mut [St],
        mut compose: C,
        mut consume: Option<R>,
        mut halted: Option<H>,
    ) -> u64
    where
        C: FnMut(&mut St, usize, usize, &Inbox, &mut Outbox),
        R: FnMut(&mut St, usize, usize, &Inbox),
        H: FnMut(&St) -> bool,
    {
        assert_eq!(states.len(), self.g.n(), "one state per vertex");
        self.pair_slots();
        let offsets = self.g.csr_offsets();
        let step = consume.is_none();
        let mut inbox = take_grid(self.g, &mut self.pending);
        let mut next = if step { take_grid(self.g, &mut self.back) } else { Grid::new() };
        let mut executed = 0u64;
        for round in 0..max_rounds {
            if halted.as_mut().is_some_and(|h| states.iter().all(h)) {
                break;
            }
            let (dest, mut read) = if step { (&mut next, Some(&mut inbox)) } else { (&mut inbox, None) };
            let mut out = self.outbox(dest);
            for (v, state) in states.iter_mut().enumerate() {
                out.at(v);
                let row: &mut Inbox = match read.as_mut() {
                    Some(read) => &mut read[row_of(offsets, v)],
                    None => &mut [],
                };
                compose(state, round, v, row, &mut out);
                clear_slots(row);
            }
            let tally = out.finish();
            self.sink.round(&tally);
            match consume.as_mut() {
                Some(recv) => {
                    for (v, state) in states.iter_mut().enumerate() {
                        let row = &mut inbox[row_of(offsets, v)];
                        recv(state, round, v, row);
                        clear_slots(row);
                    }
                }
                None => std::mem::swap(&mut inbox, &mut next),
            }
            executed += 1;
        }
        self.pending = inbox;
        if step {
            return_clean(&mut self.back, next);
        }
        executed
    }

    /// One exchange round in which only `senders` have anything to say:
    /// `send` runs for those vertices only, and `recv` runs — in ascending
    /// vertex order — only for the vertices a message actually reached.
    /// Statistics, trace, metrics, fault adjudication and every delivered
    /// inbox are exactly those of [`Network::exchange_rounds`]`(1, …)` with
    /// the other vertices sending nothing; what changes is the cost,
    /// Θ(Σ deg(senders) + Σ deg(receivers)) instead of Θ(n + 2m)
    /// (DESIGN §10).
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
        self.pair_slots();
        let (offsets, neighbors) = (self.g.csr_offsets(), self.g.csr_neighbors());
        let mut inbox = take_grid(self.g, &mut self.pending);
        let mut out = self.outbox(&mut inbox);
        for &v in senders {
            out.at(v);
            send(v, &mut out);
        }
        let tally = out.finish();
        self.sink.round(&tally);
        // the grid was clean and each slot has one sender: a sender's port
        // reached its neighbor iff the slot it delivers to is occupied
        let mut receivers = std::mem::take(&mut self.receivers);
        for &v in senders {
            for s in row_of(offsets, v) {
                if inbox[self.rev_slot[s] as usize].is_some() {
                    receivers.push(neighbors[s] as usize);
                }
            }
        }
        receivers.sort_unstable();
        receivers.dedup();
        for &u in &receivers {
            let row = &mut inbox[row_of(offsets, u)];
            recv(u, row);
            row.fill(None);
        }
        receivers.clear();
        self.receivers = receivers;
        return_clean(&mut self.pending, inbox);
    }

    /// Runs up to `max_rounds` exchange rounds over per-vertex state,
    /// stopping early once every vertex reports halted. Per round: every
    /// vertex composes from its current state (`send(state, round, v,
    /// outbox)`), the engine delivers (fault adjudication and tracing
    /// included), then every vertex consumes (`recv(state, round, v,
    /// inbox)`) — so information travels one hop per round, exactly as in
    /// the textbook CONGEST definition, and `send` never sees what this
    /// round's `recv` wrote. `halted` is evaluated on each state as the
    /// previous round left it — a network that is quiescent on entry,
    /// the empty network included, executes zero rounds. Returns the
    /// number of rounds executed.
    ///
    /// Do not start one with step-round messages in flight: both
    /// structures use the one inbox grid (debug builds assert it is
    /// empty).
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != n`. A panic inside a closure unwinds with
    /// its payload; the network remains usable afterwards.
    pub fn exchange_rounds<St, S, R, H>(
        &mut self,
        max_rounds: usize,
        states: &mut [St],
        mut send: S,
        recv: R,
        halted: H,
    ) -> u64
    where
        S: FnMut(&mut St, usize, usize, &mut Outbox),
        R: FnMut(&mut St, usize, usize, &Inbox),
        H: FnMut(&St) -> bool,
    {
        self.debug_assert_drained();
        let compose = |s: &mut St, round, v, _: &Inbox, out: &mut Outbox| send(s, round, v, out);
        self.rounds(max_rounds, states, compose, Some(recv), Some(halted))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn messages_delivered_next_round() {
        let g = gen::path(3);
        let mut net = Network::new(&g, Model::congest());
        // round 1: vertex 0 sends 7 to its only neighbor (vertex 1)
        net.step_state(&mut [(); 3], |_, v, inbox, out| {
            assert!(inbox.iter().all(Option::is_none)); // nothing yet
            if v == 0 {
                out.send(0, [7]);
            }
        });
        let mut got = [false; 3];
        net.step_state(&mut got, |got, _v, inbox, _out| {
            // borrow, don't copy: the inbox is only read
            *got = inbox[0].as_deref() == Some([7u64].as_slice());
        });
        // neighbor 0 is first in vertex 1's sorted order
        assert_eq!(got, [false, true, false], "the 1-word message must arrive on port 0 of vertex 1");
        assert_eq!(net.stats().rounds, 2);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn oversized_message_panics() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Congest { words_per_edge: 1 });
        net.step_state(&mut [(); 2], |_, _, _, out| out.send(0, [1, 2, 3]));
    }

    #[test]
    fn local_allows_big_messages() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.step_state(&mut [(); 2], |_, _, _, out| out.send(0, vec![0u64; 1000]));
        assert_eq!(net.stats().max_words_edge_round, 1000);
    }

    #[test]
    #[should_panic(expected = "sent twice")]
    fn double_send_panics() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.step_state(&mut [(); 2], |_, _, _, out| {
            out.send(0, [1]);
            out.send(0, [2]);
        });
    }

    /// A second send on a port is caught even when the plan destroys the
    /// first message (its link is down, or every coin drops), in every
    /// round form.
    #[test]
    fn double_send_is_caught_when_the_first_message_is_destroyed() {
        let g = gen::path(2);
        let twice = |out: &mut Outbox| {
            out.send(0, [1]);
            out.send(0, [2]);
        };
        let forms: [&dyn Fn(&mut Network); 3] = [
            &|net| net.step_state(&mut [(); 2], |_, _, _, out| twice(out)),
            &|net| {
                net.exchange_rounds(1, &mut [(); 2], |_, _, _, out| twice(out), |_, _, _, _| {}, |_| false);
            },
            &|net| net.exchange_active(&[1], |_, out| twice(out), |_, _| {}),
        ];
        for plan in [FaultPlan::none().with_link_failure(0, 0, u64::MAX), FaultPlan::drops(3, 1.0)] {
            for (i, form) in forms.iter().enumerate() {
                let mut net = Network::new(&g, Model::congest());
                net.set_fault_plan(Some(plan.clone()));
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| form(&mut net)))
                    .expect_err("the second send must panic");
                let text = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(text.contains("sent twice on port 0"), "form {i} under {plan:?}: {text}");
            }
        }
    }

    #[test]
    fn ports_are_consistent() {
        let g = gen::cycle(5);
        let mut net = Network::new(&g, Model::congest());
        // every vertex sends its id on every port: port p of v must hear
        // v's p-th neighbor
        let mut heard = vec![Vec::new(); 5];
        net.exchange_rounds(
            1,
            &mut heard,
            |_, _, v, out| {
                for p in 0..out.ports() {
                    out.send(p, [v as u64]);
                }
            },
            |heard, _, _, inbox| *heard = inbox.iter().flatten().map(|m| m[0] as u32).collect(),
            |_| false,
        );
        for (v, heard) in heard.iter().enumerate() {
            assert_eq!(heard, g.neighbor_row(v));
        }
    }

    #[test]
    fn flood_reaches_everyone() {
        let g = gen::grid(6, 6);
        let mut net = Network::new(&g, Model::congest());
        let n = g.n();
        let mut informed = vec![false; n];
        informed[0] = true;
        // BFS flood: diameter of 6x6 grid is 10. Each vertex reads and
        // writes only its own state, so reading it after the inbox update
        // already reflects this round — no per-round snapshot copy needed.
        net.run_state(11, &mut informed, |informed, _v, inbox, out| {
            if inbox.iter().any(Option::is_some) {
                *informed = true;
            }
            if *informed {
                for p in 0..out.ports() {
                    out.send(p, [1u64]);
                }
            }
        });
        assert!(informed.iter().all(|&b| b));
        // capacity respected throughout
        assert!(net.stats().max_words_edge_round <= 2);
    }

    #[test]
    fn exchange_rounds_matches_single_round_calls_bitwise() {
        let g = gen::grid(5, 7);
        // every vertex sends its running sum; `send` must see the state as
        // the previous round's `recv` left it, never this round's
        let run = |net: &mut Network, seen: &mut [u64], rounds: usize| {
            net.exchange_rounds(
                rounds,
                seen,
                |me, _round, v, out| {
                    for p in 0..out.ports() {
                        out.send(p, [*me + v as u64 + 1]);
                    }
                },
                |me, _round, _v, inbox| {
                    *me += inbox.iter().flatten().map(|m| m[0]).sum::<u64>();
                },
                |_| false,
            )
        };
        let mut one_by_one = Network::new(&g, Model::congest());
        let mut want: Vec<u64> = vec![0; g.n()];
        for _ in 0..3 {
            assert_eq!(run(&mut one_by_one, &mut want, 1), 1);
        }
        let mut net = Network::new(&g, Model::congest());
        let mut seen: Vec<u64> = vec![0; g.n()];
        assert_eq!(run(&mut net, &mut seen, 3), 3);
        assert_eq!(seen, want);
        assert_eq!(one_by_one.stats(), net.stats(), "three rounds in one call");
    }

    #[test]
    fn step_state_loop_counts_rounds() {
        let g = gen::cycle(9);
        let mut net = Network::new(&g, Model::congest());
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
            (events("drop") + events("link"), events("crash")),
            (
                s.dropped_messages - external_faults.dropped_messages,
                s.crashed_messages - external_faults.crashed_messages,
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
            ..RoundStats::default()
        };
        assert_eq!(s, mirrored, "registry after {what}");
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
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
        net.attach_metrics(Recorder::new("t"));
        net.set_fault_plan(Some(
            FaultPlan::drops(0x51, 0.3).with_crash(5, 1).with_link_failure(2, 0, 4),
        ));
        let sp = net.span_open("phase");
        let mut external = RoundStats::default();
        let flood = |out: &mut Outbox| {
            for p in 0..out.ports() {
                out.send(p, [1, 2]);
            }
        };
        let mut unit = vec![(); g.n()];

        net.step_state(&mut unit, |_, _, _, out| flood(out));
        assert_sinks_agree(&mut net, sp, &external, "step_state");
        net.run_state(2, &mut unit, |_, _, _, out| flood(out));
        assert_sinks_agree(&mut net, sp, &external, "run_state");
        net.step_state(&mut unit, |_, _, _, _| {}); // drain: the exchange forms need an empty pending grid
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
            ..RoundStats::default()
        };
        net.charge_stats(&external);
        assert_sinks_agree(&mut net, sp, &external, "charge_stats");

        let s = net.stats();
        assert!(s.dropped_messages > 4 && s.crashed_messages > 1, "{s}");
        net.span_close(sp);
        let trace = net.take_tracer().expect("tracer attached").finish();
        // eight executed rounds were sampled; charged rounds are quiet
        assert_eq!(trace.series.len(), 8);
    }

    #[test]
    fn tracer_records_per_edge_loads_on_both_delivery_paths() {
        let g = gen::path(3); // edges: 0 = {0,1}, 1 = {1,2}
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
        let mut unit = [(); 3];
        // step path: vertex 0 sends 2 words to vertex 1
        net.step_state(&mut unit, |_, v, _, out| {
            if v == 0 {
                out.send(0, [1, 2]);
            }
        });
        net.step_state(&mut unit, |_, _, _, _| {}); // drain the pending delivery
        // exchange path: vertex 2 sends 1 word to vertex 1
        net.exchange_rounds(
            1,
            &mut unit,
            |_, _, v, out| {
                if v == 2 {
                    out.send(0, [9]);
                }
            },
            |_, _, _, _| {},
            |_| false,
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
        assert_eq!(run(false), run(true), "a tracer changed the stats");
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

    /// An all-to-all flood for `rounds` rounds under `plan`, returning the
    /// final stats and how many messages were received in the last round.
    fn flood_under_plan(g: &lcg_graph::Graph, plan: Option<FaultPlan>, rounds: usize) -> (RoundStats, Vec<u64>) {
        let mut net = Network::new(g, Model::congest());
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
        let (base_stats, base_recv) = flood_under_plan(&g, None, 4);
        let (vac_stats, vac_recv) = flood_under_plan(&g, Some(FaultPlan::none()), 4);
        assert_eq!(base_recv, vac_recv);
        assert_eq!(base_stats, vac_stats, "vacuous plan changed stats");
    }

    #[test]
    fn drops_suppress_delivery_but_not_send_accounting() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::drops(1, 1.0)));
        let mut got_any = [false; 2];
        net.run_state(5, &mut got_any, |got_any, _, inbox, out| {
            *got_any |= inbox.iter().any(Option::is_some);
            out.send(0, [1]);
        });
        assert_eq!(got_any, [false; 2], "p = 1.0 must destroy every message");
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
        let mut received = [0u64; 2];
        net.run_state(5, &mut received, |received, v, inbox, out| {
            if inbox[0].is_some() {
                *received += 1;
            }
            if v == 0 {
                out.send(0, [9]);
            }
        });
        // rounds 0..5 all send; rounds 1 and 2 are down, and the round-4
        // delivery has no later round to be read in
        assert_eq!(net.stats().dropped_messages, 2);
        assert_eq!(received, [0, 2]);
    }

    #[test]
    fn crash_stop_kills_both_directions_on_both_paths() {
        let g = gen::path(3); // 0 - 1 - 2
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::none().with_crash(1, 0)));
        let flood = |out: &mut Outbox| {
            for p in 0..out.ports() {
                out.send(p, [1]);
            }
        };
        // step path: everyone sends to everyone
        net.step_state(&mut [(); 3], |_, _, _, out| flood(out));
        net.step_state(&mut [(); 3], |_, v, inbox, _| {
            if v != 1 {
                assert!(inbox.iter().all(Option::is_none), "vertex {v} heard a crashed node");
            }
        });
        assert_eq!(net.stats().crashed_messages, 4);
        // exchange path: same adjudication
        let mut net2 = Network::new(&g, Model::congest());
        net2.set_fault_plan(Some(FaultPlan::none().with_crash(1, 0)));
        let mut heard = vec![false; 3];
        net2.exchange_rounds(
            1,
            &mut heard,
            |_, _, _, out| flood(out),
            |heard, _, _, inbox| *heard = inbox.iter().any(Option::is_some),
            |_| false,
        );
        assert_eq!(heard, vec![false, false, false]);
        assert_eq!(net2.stats().crashed_messages, 4);
    }

    #[test]
    fn fault_events_reach_the_trace() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(lcg_trace::Tracer::new(lcg_trace::TraceConfig::full("t")));
        net.set_fault_plan(Some(FaultPlan::none().with_link_failure(0, 0, u64::MAX)));
        net.step_state(&mut [(); 2], |_, _, _, out| out.send(0, [1]));
        let trace = net.take_tracer().expect("tracer attached").finish();
        assert_eq!(trace.faults.len(), 1);
        assert_eq!(trace.faults[0].kind, "link");
        assert_eq!(trace.faults[0].count, 2);
        assert_eq!(trace.faults[0].round, 0);
    }

    /// Unit cost of the dense round forms on `engine-dense`'s graph
    /// (`power_law(4·10⁵, 2)`): a full exchange round (every port sends 2
    /// words) and a quarter-full step round (one 2-word message per vertex),
    /// best of five on a warm network, and cold — the first of each on a
    /// fresh network, in `engine-dense`'s order, so they also pay the slot
    /// pairing and the grids they allocate. `cargo test --release -p
    /// lcg-congest --lib probe_round -- --ignored --nocapture --test-threads=1`.
    #[test]
    #[ignore = "probe: prints ns per slot of a full and a quarter-full round, warm and cold"]
    #[expect(clippy::disallowed_methods, reason = "a probe times itself and only prints; nothing asserts on the clock")]
    fn probe_round_unit_cost() {
        let g = gen::power_law(400_000, 2, &mut gen::seeded_rng(20220725));
        let mut acc = vec![0u64; g.n()];
        let absorb = |acc: &mut u64, inbox: &Inbox| {
            for m in inbox.iter().flatten() {
                *acc = acc.wrapping_add(m[0]).rotate_left(m[1] as u32 % 63 + 1);
            }
        };
        let full = |net: &mut Network, acc: &mut [u64]| {
            let sends = |acc: &mut u64, _, v: usize, out: &mut Outbox| {
                for p in 0..out.ports() {
                    out.send(p, [*acc ^ v as u64, p as u64]);
                }
            };
            net.exchange_rounds(1, acc, sends, |acc, _, _, inbox| absorb(acc, inbox), |_| false);
        };
        let quarter = |net: &mut Network, acc: &mut [u64]| {
            net.step_state(acc, |acc, v, inbox, out| {
                absorb(acc, inbox);
                if out.ports() > 0 {
                    out.send(v % out.ports(), [*acc, v as u64]);
                }
            });
        };
        let mut timed = |net: &mut Network, round: &dyn Fn(&mut Network, &mut [u64])| {
            let started = std::time::Instant::now();
            round(net, &mut acc);
            started.elapsed().as_nanos() as f64
        };
        let mut cold = Network::new(&g, Model::congest());
        let (cold_full, cold_quarter) = (timed(&mut cold, &full), timed(&mut cold, &quarter));
        let mut net = Network::new(&g, Model::congest());
        let mut best_ns = |round: &dyn Fn(&mut Network, &mut [u64])| {
            (0..5).map(|_| timed(&mut net, round)).fold(f64::INFINITY, f64::min)
        };
        let (full, quarter) = (best_ns(&full), best_ns(&quarter));
        let slots = g.slots() as f64;
        println!(
            "round n {} slots {}: full exchange {:.1} ns/slot warm, {:.1} cold; quarter-full step {:.1} ns/slot warm, {:.1} cold",
            g.n(),
            g.slots(),
            full / slots,
            cold_full / slots,
            quarter / slots,
            cold_quarter / slots
        );
    }
}
