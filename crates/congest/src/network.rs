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
//! once, so composing *is* delivering. Every form delivers into the one
//! inbox grid. The two round *structures* differ only in when the inbox
//! is read: a step round reads last round's deliveries while composing
//! the next round's, and has no consume phase; an exchange round
//! composes, then consumes. In a step round a vertex reads its row just
//! before it composes, so a send to a vertex that has read its row lands
//! at once, and a send to a later vertex is stored marked as this
//! round's, which that vertex's read leaves for the next round — unless
//! the slot still holds the vertex's unread message, and then the send is
//! held until the sweep ends. The phase that read an inbox row clears
//! it. The public forms are adapters:
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
//! CONGEST-size payloads inline, and the network owns the one inbox grid
//! every round form writes into — `2m` slots of two words and a tag byte,
//! 17 bytes each, a CONGEST message per edge direction. The tag holds the
//! length, whether the slot is full, destroyed by the fault plan or held,
//! the parity of the step round that stored it, and a spill mark: a LOCAL
//! payload longer than two words waits in a side table, and the slot's
//! first word is its index there. Closures still see an [`Inbox`], a
//! scratch row the engine copies the vertex's grid row into, clearing the
//! grid row as it goes. The first round allocates the slot pairing and the
//! grid, so a network that only carries a fault schedule (a charged
//! walk's, a retry's base) holds neither. A round takes the grid out of
//! the network, works in place, and puts it back. A panic mid-round loses
//! it with the round's in-flight messages; the next round starts from a
//! fresh, empty grid.

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

/// Tag bits of an inbox slot ([`Grid`]). `LEN`: the length of an inline
/// payload, `0..=INLINE_WORDS`.
const LEN: u8 = 0b11;
/// The slot holds a message (perhaps a destroyed one).
const FULL: u8 = 1 << 2;
/// The payload is longer than [`INLINE_WORDS`]: it waits in the side table
/// of the slot's `MARK`, and the slot's first word is its index there.
const SPILL: u8 = 1 << 3;
/// The fault plan destroyed the message: it occupies the slot until read,
/// so a second send on its port is still caught, and reads as absent.
const DESTROYED: u8 = 1 << 4;
/// The parity of the step round that stored the message: a step round
/// leaves a message stored this round for the next one to read.
const MARK: u8 = 1 << 5;
/// The slot still holds the receiver's unread message of the previous
/// step round, and this round's send into it waits in [`Grid::held`].
const HELD: u8 = 1 << 6;

/// Bytes per inbox slot: two payload words and the tag.
const SLOT_BYTES: usize = size_of::<[u64; INLINE_WORDS]>() + size_of::<u8>();
const _: () = assert!(SLOT_BYTES == 17);

/// The one inbox grid of every round form, indexed by CSR edge slot: the
/// message delivered to vertex `v` on port `p` lives at slot
/// `g.csr_offsets()[v] + p`. A slot is two words and a tag byte, in two
/// zero-initialised arrays of `g.slots() = 2m` entries; a tag of 0 is an
/// empty slot. Closures never see it: the engine copies the row a vertex
/// reads into a scratch `Inbox` and clears it as it goes.
#[derive(Default)]
struct Grid {
    /// The payload words of an inline message, or a spilled one's index.
    words: Vec<[u64; INLINE_WORDS]>,
    /// The slot tags (`LEN`, `FULL`, `SPILL`, `DESTROYED`, `MARK`, `HELD`).
    tags: Vec<u8>,
    /// The payloads longer than [`INLINE_WORDS`], one table per `MARK`
    /// parity: a step round reads one while storing into the other.
    spill: [Vec<Msg>; 2],
    /// A step round's sends into slots whose unread message the receiver
    /// reads later in the same round: stored when the round's sweep ends.
    held: Vec<(u32, Msg)>,
    /// Step rounds executed on this grid: the parity of the count is the
    /// round's `MARK`. Charged rounds do not move it, since they touch no
    /// slot.
    step_rounds: u64,
}

/// Whether a send into a slot tagged `tag` is the second one of its port
/// this round: the slot holds a message of this round's `mark`, or one
/// held for the end of the round. Each slot has one sender, its port.
#[inline]
fn sent_this_round(tag: u8, mark: u8) -> bool {
    tag & HELD != 0 || tag & (FULL | MARK) == FULL | mark
}

impl Grid {
    /// An empty grid of `slots` slots. The words are zero-filled in one
    /// sequential pass rather than allocated zeroed (`vec![[0; 2]; slots]`),
    /// whose pages fault in on first touch: the first round's sends touch
    /// them in random order, and on `engine-dense` that cost more than the
    /// fill. The tags, a seventeenth of the grid, come zeroed.
    fn new(slots: usize) -> Grid {
        let mut words = Vec::with_capacity(slots);
        words.resize(slots, [0; INLINE_WORDS]);
        Grid { words, tags: vec![0; slots], ..Grid::default() }
    }

    /// The `MARK` bit of the round in flight.
    #[inline]
    fn mark(&self) -> u8 {
        if self.step_rounds % 2 == 1 {
            MARK
        } else {
            0
        }
    }

    /// Whether slot `s` holds a message to be read (neither destroyed nor
    /// empty).
    #[inline]
    fn is_live(&self, s: usize) -> bool {
        self.tags[s] & (FULL | DESTROYED) == FULL
    }

    /// Stores `msg`, sent this round, at slot `s` (tagged `tag`): at once,
    /// or — when the slot still holds the receiver's unread message of the
    /// previous step round — held until the round's sweep ends.
    #[inline]
    fn store(&mut self, s: usize, tag: u8, mark: u8, msg: Msg) {
        if tag & (FULL | DESTROYED) == FULL {
            self.hold(s, tag, msg);
        } else {
            self.put(s, mark, msg);
        }
    }

    /// Holds `msg` for slot `s` (tagged `tag`) until the round's sweep ends.
    #[inline(never)]
    fn hold(&mut self, s: usize, tag: u8, msg: Msg) {
        self.tags[s] = tag | HELD;
        self.held.push((s as u32, msg));
    }

    /// Marks the message sent this round into slot `s` (tagged `tag`)
    /// destroyed: its payload is dropped, its send still occupies the slot.
    #[inline]
    fn destroy(&mut self, s: usize, tag: u8, mark: u8) {
        self.tags[s] = if tag & (FULL | DESTROYED) == FULL { tag | HELD } else { FULL | DESTROYED | mark };
    }

    /// Writes `msg` into slot `s`, overwriting it.
    #[inline(always)]
    fn put(&mut self, s: usize, mark: u8, msg: Msg) {
        match msg.inline_words() {
            Some((words, len)) => {
                self.words[s] = words;
                self.tags[s] = FULL | mark | len as u8;
            }
            None => self.put_spilled(s, mark, msg),
        }
    }

    /// [`Grid::put`] of a payload longer than [`INLINE_WORDS`].
    #[inline(never)]
    fn put_spilled(&mut self, s: usize, mark: u8, msg: Msg) {
        let table = &mut self.spill[usize::from(mark != 0)];
        self.words[s] = [table.len() as u64, 0];
        table.push(msg);
        self.tags[s] = FULL | SPILL | mark;
    }

    /// Stores the sends held this round: their receivers have read (and
    /// cleared) their rows since.
    fn release_held(&mut self, mark: u8) {
        let mut held = std::mem::take(&mut self.held);
        for (s, msg) in held.drain(..) {
            self.put(s as usize, mark, msg);
        }
        self.held = held;
    }

    /// Takes the message at slot `s` and clears the slot — unless its tag
    /// reads `keep` under `FULL | MARK` (a step round keeps what it stored
    /// this round; an exchange round, passing 0, keeps nothing).
    #[inline]
    fn take(&mut self, s: usize, keep: u8) -> Option<Msg> {
        let tag = self.tags[s];
        if tag & FULL == 0 || tag & (FULL | MARK) == keep {
            return None;
        }
        self.tags[s] = 0;
        if tag & DESTROYED != 0 {
            return None;
        }
        let words = self.words[s];
        Some(if tag & SPILL == 0 {
            Msg::from_inline_words(words, usize::from(tag & LEN))
        } else {
            std::mem::take(&mut self.spill[usize::from(tag & MARK != 0)][words[0] as usize])
        })
    }

    /// Copies the slots `row` into `inbox`, taking each message ([`Grid::take`]).
    #[inline]
    fn read_row(&mut self, row: std::ops::Range<usize>, keep: u8, inbox: &mut Vec<Option<Msg>>) {
        inbox.clear();
        inbox.extend(row.map(|s| self.take(s, keep)));
    }

    /// Ends a step round: every message of the previous one has been read,
    /// so its side table empties, and the next round's mark flips.
    fn end_step_round(&mut self) {
        self.spill[usize::from(self.mark() == 0)].clear();
        self.step_rounds += 1;
    }

    /// Ends an exchange round, whose messages have all been read.
    fn end_exchange_round(&mut self) {
        self.spill[usize::from(self.mark() != 0)].clear();
    }

    /// Whether no slot holds a message to be read.
    fn drained(&self) -> bool {
        (0..self.tags.len()).all(|s| !self.is_live(s))
    }
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
    /// The inbox grid of every round form. Between step rounds it carries
    /// the messages awaiting the next one; an exchange round fills and
    /// drains it. Empty until the first round takes it, and taken out of
    /// `self` for the duration of a round, so a panic mid-round leaves it
    /// cold (empty).
    grid: Grid,
    /// The scratch inbox a vertex's closure reads: its grid row, copied.
    /// Kept here so a round allocates nothing.
    row: Vec<Option<Msg>>,
    /// `rev_slot[s]`: the receiving-side slot of slot `s`'s edge — where
    /// a message sent on slot `s` lands (the receiver itself is
    /// `g.csr_neighbors()[s]`). Empty until the first round pairs the slots.
    rev_slot: Vec<u32>,
    /// Scratch of [`Network::exchange_active`]: the vertices that received
    /// a message this round. Kept here so a sparse round allocates nothing.
    receivers: Vec<usize>,
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
/// at once, into the receiving vertex's slot of the inbox grid.
pub struct Outbox<'a> {
    /// The composing vertex.
    vertex: usize,
    /// Its row of `rev_slot`: where each of its ports delivers.
    rev: &'a [u32],
    offsets: &'a [u32],
    rev_slot: &'a [u32],
    capacity: Option<usize>,
    grid: &'a mut Grid,
    /// The `MARK` of the round in flight.
    mark: u8,
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
        // this port is the only sender into its slot: a message of this
        // round there is this port's earlier one
        let dest = self.rev[port] as usize;
        let tag = self.grid.tags[dest];
        if tag != 0 {
            self.check_second_send(port, tag);
        }
        let t = &mut self.tally;
        t.messages += 1;
        t.words += msg.len() as u64;
        t.max_words = t.max_words.max(msg.len());
        t.spilled += u64::from(msg.len() > INLINE_WORDS);
        if self.watch.is_some() {
            self.deliver(port, dest, tag, msg);
        } else {
            self.grid.store(dest, tag, self.mark, msg);
        }
    }

    /// Panics if the slot `tag` describes holds this port's earlier
    /// message of this round.
    #[cold]
    #[inline(never)]
    fn check_second_send(&self, port: usize, tag: u8) {
        assert!(!sent_this_round(tag, self.mark), "vertex {} sent twice on port {port} in one round", self.vertex);
    }

    /// A watched round's delivery of `msg`, sent on `port`, to slot `dest`
    /// (tagged `tag`): the plan adjudicates it — a destroyed message is
    /// tallied by cause — and the tracer tallies its edge's *delivered*
    /// words. A destroyed message still occupies its slot, tagged
    /// `DESTROYED`, so a second send on the port is still caught; reading
    /// the slot clears it.
    #[inline(never)]
    fn deliver(&mut self, port: usize, dest: usize, tag: u8, msg: Msg) {
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
                self.grid.destroy(dest, tag, self.mark);
                return;
            }
        }
        if let Some(tracer) = w.edges.as_mut() {
            tracer.add_edge_words(e, msg.len() as u64);
        }
        self.grid.store(dest, tag, self.mark, msg);
    }

    /// Moves the outbox to vertex `v`.
    #[inline]
    fn at(&mut self, v: usize) {
        let rev_slot: &'a [u32] = self.rev_slot;
        self.vertex = v;
        self.rev = &rev_slot[row_of(self.offsets, v)];
    }

    /// Ends the compose phase: stores the held sends and returns the
    /// round's tallies.
    fn finish(self) -> Tally {
        self.grid.release_held(self.mark);
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
            grid: Grid::default(),
            row: Vec::new(),
            rev_slot: Vec::new(),
            receivers: Vec::new(),
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

    /// Takes the inbox grid out for the duration of a round, allocating a
    /// fresh one when the network's is cold: no round has run yet, or a
    /// panic unwound mid-round and the grid, with the failed round's
    /// in-flight messages, was lost.
    fn take_grid(&mut self) -> Grid {
        let grid = std::mem::take(&mut self.grid);
        if grid.tags.len() == self.g.slots() {
            grid
        } else {
            Grid::new(self.g.slots())
        }
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
            self.grid.drained(),
            "an exchange round was started with undelivered step-round messages pending"
        );
    }

    /// The outbox of a round that delivers into `grid`, before
    /// [`Outbox::at`] moves it to a vertex. It is watched — every send
    /// leaves the plain store — when a fault plan is installed or the
    /// tracer tallies edge words.
    fn outbox<'a>(&'a mut self, grid: &'a mut Grid) -> Outbox<'a> {
        let Network { g, model, sink, rev_slot, faults, .. } = self;
        let edges = sink.tracer.as_mut().filter(|t| t.records_edge_loads());
        let watch = (faults.is_some() || edges.is_some()).then(|| Watch {
            // delivery precedes the round's booking, so `stats.rounds`
            // is the 0-based index of the round in flight
            round: sink.stats.rounds,
            faults: faults.as_ref(),
            edges,
            neighbors: g.csr_neighbors(),
            edge_ids: g.csr_edge_ids(),
        });
        Outbox {
            vertex: 0,
            rev: &[],
            offsets: g.csr_offsets(),
            rev_slot,
            capacity: model.capacity(),
            mark: grid.mark(),
            grid,
            tally: Tally::default(),
            watch,
        }
    }

    /// The round body: up to `max_rounds` rounds of compose (which
    /// delivers) → consume on the caller's thread, stopping early once
    /// every state is `halted`; returns the rounds executed. Both round
    /// structures deliver into the one grid. Without a `consume` phase,
    /// each vertex reads its row — last round's deliveries — as it
    /// composes, and leaves what this round stored there for the next
    /// round; with one, `compose` is handed an empty inbox and `consume`
    /// reads the rows. Reading a row clears it. It takes the states
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
        let mut grid = self.take_grid();
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        let mut executed = 0u64;
        for round in 0..max_rounds {
            if halted.as_mut().is_some_and(|h| states.iter().all(h)) {
                break;
            }
            let keep = FULL | grid.mark();
            let mut out = self.outbox(&mut grid);
            for (v, state) in states.iter_mut().enumerate() {
                out.at(v);
                if step {
                    out.grid.read_row(row_of(offsets, v), keep, &mut row);
                }
                compose(state, round, v, &row, &mut out);
            }
            let tally = out.finish();
            self.sink.round(&tally);
            match consume.as_mut() {
                Some(recv) => {
                    for (v, state) in states.iter_mut().enumerate() {
                        grid.read_row(row_of(offsets, v), 0, &mut row);
                        recv(state, round, v, &row);
                    }
                    row.clear();
                    grid.end_exchange_round();
                }
                None => grid.end_step_round(),
            }
            executed += 1;
        }
        debug_assert!(step || grid.drained(), "an exchange round left a message unread");
        self.grid = grid;
        self.row = row;
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
        let mut grid = self.take_grid();
        let mut out = self.outbox(&mut grid);
        for &v in senders {
            out.at(v);
            send(v, &mut out);
        }
        let tally = out.finish();
        self.sink.round(&tally);
        // each slot has one sender: a sender's port reached its neighbor
        // iff the slot it delivers to holds a live message; a destroyed
        // one is cleared here, as no receiver reads it
        let mut receivers = std::mem::take(&mut self.receivers);
        for &v in senders {
            for s in row_of(offsets, v) {
                let d = self.rev_slot[s] as usize;
                if grid.is_live(d) {
                    receivers.push(neighbors[s] as usize);
                } else {
                    grid.tags[d] = 0;
                }
            }
        }
        receivers.sort_unstable();
        receivers.dedup();
        let mut row = std::mem::take(&mut self.row);
        for &u in &receivers {
            grid.read_row(row_of(offsets, u), 0, &mut row);
            recv(u, &row);
        }
        row.clear();
        grid.end_exchange_round();
        receivers.clear();
        self.receivers = receivers;
        self.row = row;
        debug_assert!(grid.drained(), "a sparse round left a message unread");
        self.grid = grid;
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
    /// structures use the one inbox grid (debug builds assert it holds
    /// none).
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

    /// Every round form runs on one grid of `2m` slots at 17 bytes each —
    /// two words and a tag — and a step round keeps no second one.
    #[test]
    fn one_grid_of_17_byte_slots_serves_every_round_form() {
        let g = gen::grid(5, 6);
        let mut net = Network::new(&g, Model::congest());
        let flood = |out: &mut Outbox| {
            for p in 0..out.ports() {
                out.send(p, [1, 2]);
            }
        };
        let mut unit = vec![(); g.n()];
        let holds_one_grid = |net: &Network, what: &str| {
            let grid = &net.grid;
            assert_eq!((grid.words.len(), grid.tags.len()), (g.slots(), g.slots()), "{what}");
            let bytes = grid.words.capacity() * size_of::<[u64; INLINE_WORDS]>() + grid.tags.capacity();
            assert!(bytes <= SLOT_BYTES * g.slots(), "{what}: {bytes} bytes for {} slots", g.slots());
        };
        net.run_state(3, &mut unit, |_, _, _, out| flood(out));
        holds_one_grid(&net, "step rounds");
        net.step_state(&mut unit, |_, _, _, _| {});
        net.exchange_rounds(2, &mut unit, |_, _, _, out| flood(out), |_, _, _, _| {}, |_| false);
        holds_one_grid(&net, "exchange rounds");
        net.exchange_active(&[0, 7, 29], |_, out| flood(out), |_, _| {});
        holds_one_grid(&net, "a sparse round");
        assert_eq!(SLOT_BYTES, 17);
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
        net.step_state(&mut unit, |_, _, _, _| {}); // drain: the exchange forms need a grid with no message pending
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
