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
//! and was deleted (DESIGN §10.3). Every form delivers the same way:
//! [`Outbox::send`] appends the message to the bin of the receiver's
//! destination block — a run of about 2¹⁶ consecutive inbox slots — and
//! the sweep that reads the rows delivers each block into a small ring of
//! inbox slots just before its first row is read, then hands each vertex
//! its row of the ring and clears it. The two round *structures* differ
//! only in when the rows are read: a step round reads last round's bins
//! while appending to this round's, and has no consume phase; an exchange
//! round composes, then reads. The public forms are adapters:
//!
//! * [`Network::run_state`] runs `k` step rounds and
//!   [`Network::exchange_rounds`] up to `k` exchange rounds, handing each
//!   vertex its own element of a state slice (`&mut [S]`);
//!   [`Network::step_state`] is `run_state(1)`. An exchange round is the
//!   CONGEST round verbatim: every vertex sends from its own state, then
//!   updates that state from what arrived — so no caller copies its state
//!   to keep the send phase from reading what the receive phase writes.
//! * [`Network::exchange_active`] is one exchange round for a caller that
//!   knows which vertices send: its sends list their receivers, and only
//!   those rows are read, so the round costs what it carries instead of a
//!   pass over every vertex and slot.
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
//! CONGEST-size payloads inline, and a round's traffic is a list of at most
//! `2m` records of 19 bytes — two payload words, the slot's offset in its
//! block and a tag (length, and a spill mark: a LOCAL payload longer than
//! two words waits in its bin set's side table, and the record's first
//! word is its index there) — appended in send order to per-block bins.
//! The bins store their records in fixed-size chunks drawn from one free
//! list, so the two bin sets of a step round share their storage: a block
//! delivered gives its chunks back before the sends that follow need them.
//! The ring holds `Option<Msg>` slots, enough for a block plus the longest
//! row (rounded up to a power of two, or all `2m` slots of a smaller
//! graph), and a row that does not wrap around its end is handed to the
//! closure in place. A message the
//! fault plan destroys is counted at send and never binned; the
//! double-send check is a mask over the composing vertex's ports. The
//! first round allocates the slot pairing, the bins and the ring, so a
//! network that only carries a fault schedule (a charged walk's, a retry's
//! base) holds none of them, and no later round allocates unless it
//! carries more than any before it. A round takes the delivery state out
//! of the network and puts it back; a panic mid-round loses it with the
//! round's in-flight messages, and the next round starts empty.

use std::ops::Range;

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

/// Log₂ of the inbox slots in a destination block. A message sent on
/// slot `s` goes to block `rev_slot[s] >> SHIFT`; a record keeps its
/// offset within the block in a `u16`.
const SHIFT: u32 = 16;
const _: () = assert!(SHIFT <= u16::BITS);
/// Inbox slots per destination block.
const BLOCK: usize = 1 << SHIFT;
/// Records per chunk of bin storage (fewer on a graph of fewer slots).
const CHUNK: usize = 1 << 10;

/// Tag bits of a [`Record`]. `LEN`: the length of an inline payload,
/// `0..=INLINE_WORDS`.
const LEN: u8 = 0b11;
/// The payload is longer than [`INLINE_WORDS`]: it waits in its bin set's
/// side table, and the record's first word is its index there.
const SPILL: u8 = 1 << 2;

/// A message on its way to its destination block: the payload words (or a
/// spilled payload's index), the receiving slot's offset within the
/// block, and a tag (`LEN`, `SPILL`). Packed, so that a round's records
/// take 19 bytes each.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct Record {
    words: [u64; INLINE_WORDS],
    off: u16,
    tag: u8,
}
const _: () = assert!(size_of::<Record>() <= 19);

/// One round's messages, binned by destination block in send order. A bin
/// is a list of chunks: `open[b]` takes block `b`'s next record, and
/// `full[b]` holds its filled chunks.
#[derive(Default)]
struct BinSet {
    open: Vec<Vec<Record>>,
    full: Vec<Vec<Vec<Record>>>,
    /// The payloads longer than [`INLINE_WORDS`].
    spill: Vec<Msg>,
}

impl BinSet {
    fn new(blocks: usize) -> BinSet {
        BinSet { open: vec![Vec::new(); blocks], full: vec![Vec::new(); blocks], spill: Vec::new() }
    }

    /// Whether no bin holds a record.
    fn is_empty(&self) -> bool {
        self.open.iter().all(Vec::is_empty) && self.full.iter().all(Vec::is_empty)
    }
}

/// The two bin sets of the round engine and the chunks they share.
#[derive(Default)]
struct Bins {
    /// The messages sent this round. Between step rounds: the messages
    /// awaiting the next one.
    sent: BinSet,
    /// The messages the round's sweep reads.
    arrived: BinSet,
    /// Empty chunks, each of capacity `chunk`.
    free: Vec<Vec<Record>>,
    /// Records per chunk.
    chunk: usize,
}

impl Bins {
    /// Appends `msg` to the bin of the block holding inbox slot `dest`.
    #[inline(always)]
    fn push(&mut self, dest: usize, msg: Msg) {
        let (words, tag) = match msg.inline_words() {
            Some((words, len)) => (words, len as u8),
            None => (self.spill(msg), SPILL),
        };
        let record = Record { words, off: (dest & (BLOCK - 1)) as u16, tag };
        let open = &mut self.sent.open[dest >> SHIFT];
        if open.len() < open.capacity() {
            open.push(record);
        } else {
            self.push_to_new_chunk(dest >> SHIFT, record);
        }
    }

    /// Keeps a payload longer than [`INLINE_WORDS`] in the side table; its
    /// record's words are its index there.
    #[inline(never)]
    fn spill(&mut self, msg: Msg) -> [u64; INLINE_WORDS] {
        self.sent.spill.push(msg);
        [self.sent.spill.len() as u64 - 1, 0]
    }

    /// Closes block `b`'s open chunk, which is full, and appends `record`
    /// to a fresh one.
    #[inline(never)]
    fn push_to_new_chunk(&mut self, b: usize, record: Record) {
        let mut chunk = self.free.pop().unwrap_or_else(|| Vec::with_capacity(self.chunk));
        chunk.push(record);
        let full = std::mem::replace(&mut self.sent.open[b], chunk);
        if full.capacity() > 0 {
            self.sent.full[b].push(full);
        }
    }

    /// Turns this round's sends into the messages to read, and the drained
    /// set into the one the next sends fill.
    fn turn(&mut self) {
        std::mem::swap(&mut self.sent, &mut self.arrived);
        debug_assert!(self.sent.is_empty(), "a round left a message unread");
        self.sent.spill.clear();
    }

    /// Delivers block `b` of the arrived messages into `ring` (slot `s` at
    /// `s & mask`) and gives the block's chunks back.
    fn deliver(&mut self, b: usize, ring: &mut [Option<Msg>], mask: usize) {
        let BinSet { open, full, spill } = &mut self.arrived;
        let base = b << SHIFT;
        let last = std::mem::take(&mut open[b]);
        for mut chunk in full[b].drain(..).chain([last]) {
            for &Record { words, off, tag } in &chunk {
                let msg = if tag & SPILL == 0 {
                    Msg::from_inline_words(words, usize::from(tag & LEN))
                } else {
                    std::mem::take(&mut spill[words[0] as usize])
                };
                let slot = &mut ring[(base + usize::from(off)) & mask];
                debug_assert!(slot.is_none(), "a delivery overwrote an unread message");
                *slot = Some(msg);
            }
            if chunk.capacity() > 0 {
                chunk.clear();
                self.free.push(chunk);
            }
        }
    }
}

/// The inbox slots of the blocks a round's sweep has delivered so far:
/// slot `s` at `slots[s & mask]`. It holds a block plus the longest row,
/// so the slots from the row being read to the end of the last block
/// delivered never share a position — or, on a graph of fewer slots,
/// every slot, indexed by the slot itself.
#[derive(Default)]
struct Ring {
    /// `None` where no message waits.
    slots: Vec<Option<Msg>>,
    /// The ring's length − 1, a power of two less one; `usize::MAX` when
    /// the ring holds every slot.
    mask: usize,
    /// The next block of the arrived messages to deliver.
    next: usize,
}

impl Ring {
    /// Starts a sweep at block 0.
    fn rewind(&mut self) {
        self.next = 0;
    }

    /// The inbox of the row of slots `row`, once every block that starts
    /// before its end has been delivered from `bins`: the ring's slots in
    /// place, or — when the row wraps around the ring's end — taken into
    /// `scratch`.
    #[inline]
    fn read<'r>(&'r mut self, row: Range<usize>, bins: &mut Bins, scratch: &'r mut Vec<Option<Msg>>) -> &'r Inbox {
        let mask = self.mask;
        while self.next < bins.arrived.open.len() && self.next << SHIFT < row.end {
            bins.deliver(self.next, &mut self.slots, mask);
            self.next += 1;
        }
        let at = row.start & mask;
        if at + row.len() <= self.slots.len() {
            &self.slots[at..at + row.len()]
        } else {
            scratch.clear();
            scratch.extend(row.map(|s| self.slots[s & mask].take()));
            scratch
        }
    }

    /// Clears the row [`Ring::read`] handed out.
    #[inline]
    fn clear(&mut self, row: Range<usize>) {
        let at = row.start & self.mask;
        if let Some(slots) = self.slots.get_mut(at..at + row.len()) {
            slots.fill(None);
        }
    }
}

/// What a round delivers through: the bins, the ring, and the composing
/// vertex's port mask.
#[derive(Default)]
struct Delivery {
    bins: Bins,
    ring: Ring,
    /// Bit `p` is set once the composing vertex has sent on port `p`.
    ports: Vec<u64>,
}

impl Delivery {
    /// Empty bins over `g`'s blocks, an empty ring of a block plus the
    /// longest row (rounded up to a power of two, or `2m` slots when that
    /// is fewer), and a port mask of the longest row.
    fn new(g: &Graph) -> Delivery {
        let (slots, max_degree) = (g.slots(), g.max_degree());
        let blocks = slots.div_ceil(BLOCK);
        let ring = (BLOCK + max_degree).next_power_of_two();
        let (ring, mask) = if slots <= ring { (slots, usize::MAX) } else { (ring, ring - 1) };
        Delivery {
            bins: Bins {
                sent: BinSet::new(blocks),
                arrived: BinSet::new(blocks),
                free: Vec::new(),
                chunk: CHUNK.min(slots.max(1)),
            },
            ring: Ring { slots: vec![None; ring], mask, next: 0 },
            ports: vec![0; max_degree.div_ceil(64)],
        }
    }

    /// Whether no message is in flight.
    fn drained(&self) -> bool {
        self.bins.sent.is_empty() && self.bins.arrived.is_empty()
    }
}

/// The slot range of vertex `v`'s row, as plain indices.
#[inline]
fn row_of(offsets: &[u32], v: usize) -> Range<usize> {
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
    /// The bins and ring of every round form. Between step rounds the bins
    /// carry the messages awaiting the next one; an exchange round fills
    /// and drains them. Empty until the first round takes it, and taken
    /// out of `self` for the duration of a round, so a panic mid-round
    /// leaves it cold (empty).
    delivery: Delivery,
    /// The scratch inbox of a row that wraps around the ring's end. Kept
    /// here so a round allocates nothing.
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
/// (the engine moves it from vertex to vertex). [`Outbox::send`] appends
/// each message to the bin of its receiver's destination block.
pub struct Outbox<'a> {
    /// The composing vertex.
    vertex: usize,
    /// Its row of `rev_slot`: where each of its ports delivers.
    rev: &'a [u32],
    offsets: &'a [u32],
    rev_slot: &'a [u32],
    neighbors: &'a [u32],
    capacity: Option<usize>,
    bins: &'a mut Bins,
    /// The composing vertex's port mask: bit `p` is set once it has sent
    /// on port `p` this round.
    sent: &'a mut [u64],
    /// [`Network::exchange_active`]'s receivers: the vertex each message
    /// reaches is listed as it is binned.
    receivers: Option<&'a mut Vec<usize>>,
    tally: Tally,
    /// Present when a fault plan or an edge-load tracer must see each
    /// message; a plain round bins and counts, nothing else.
    watch: Option<Watch<'a>>,
}

/// What a watched round does with each message besides binning it.
struct Watch<'a> {
    /// The 0-based index of the round in flight: the plan's clock.
    round: u64,
    faults: Option<&'a FaultState>,
    /// The tracer, when it tallies words per edge.
    edges: Option<&'a mut Tracer>,
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
        let dest = self.rev[port] as usize;
        let (word, bit) = (port / 64, 1u64 << (port % 64));
        assert!(self.sent[word] & bit == 0, "vertex {} sent twice on port {port} in one round", self.vertex);
        self.sent[word] |= bit;
        let t = &mut self.tally;
        t.messages += 1;
        t.words += msg.len() as u64;
        t.max_words = t.max_words.max(msg.len());
        t.spilled += u64::from(msg.len() > INLINE_WORDS);
        if self.watch.is_some() {
            self.deliver(port, dest, msg);
        } else {
            self.bin(port, dest, msg);
        }
    }

    /// Bins `msg`, sent on `port`, for inbox slot `dest`, and lists its
    /// receiver when the round is sparse.
    #[inline(always)]
    fn bin(&mut self, port: usize, dest: usize, msg: Msg) {
        if let Some(receivers) = self.receivers.as_mut() {
            receivers.push(self.neighbors[self.offsets[self.vertex] as usize + port] as usize);
        }
        self.bins.push(dest, msg);
    }

    /// A watched round's delivery of `msg`, sent on `port`, to slot `dest`:
    /// the plan adjudicates it — a destroyed message is tallied by cause
    /// and never binned — and the tracer tallies its edge's *delivered*
    /// words.
    #[inline(never)]
    fn deliver(&mut self, port: usize, dest: usize, msg: Msg) {
        let w = self.watch.as_mut().expect("only a watched round delivers here");
        let s = self.offsets[self.vertex] as usize + port;
        let e = w.edge_ids[s] as usize;
        if let Some(fs) = w.faults {
            let t = &mut self.tally;
            let lost = match fs.classify(w.round, e, self.vertex, self.neighbors[s] as usize) {
                FaultVerdict::Deliver => None,
                FaultVerdict::Crashed => Some(&mut t.crashed),
                FaultVerdict::LinkDown => Some(&mut t.link),
                FaultVerdict::Dropped => Some(&mut t.dropped),
            };
            if let Some(count) = lost {
                *count += 1;
                return;
            }
        }
        if let Some(tracer) = w.edges.as_mut() {
            tracer.add_edge_words(e, msg.len() as u64);
        }
        self.bin(port, dest, msg);
    }

    /// Moves the outbox to vertex `v`, none of whose ports has sent.
    #[inline]
    fn at(&mut self, v: usize) {
        let rev_slot: &'a [u32] = self.rev_slot;
        self.vertex = v;
        self.rev = &rev_slot[row_of(self.offsets, v)];
        self.sent[..self.rev.len().div_ceil(64)].fill(0);
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
            delivery: Delivery::default(),
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

    /// Takes the delivery state out for the duration of a round, pairing
    /// the slots and allocating fresh bins and ring when the network's are
    /// cold: no round has run yet, or a panic unwound mid-round and they
    /// were lost with the failed round's in-flight messages.
    fn take_delivery(&mut self) -> Delivery {
        self.pair_slots();
        let delivery = std::mem::take(&mut self.delivery);
        if delivery.ring.slots.is_empty() {
            Delivery::new(self.g)
        } else {
            delivery
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
    /// rounds read every message binned, step-round leftovers included.
    fn debug_assert_drained(&self) {
        debug_assert!(
            self.delivery.drained(),
            "an exchange round was started with undelivered step-round messages pending"
        );
    }

    /// The outbox of a round that bins into `bins`, before [`Outbox::at`]
    /// moves it to a vertex. It is watched — every send leaves the plain
    /// path — when a fault plan is installed or the tracer tallies edge
    /// words.
    fn outbox<'a>(&'a mut self, bins: &'a mut Bins, sent: &'a mut [u64]) -> Outbox<'a> {
        let Network { g, model, sink, rev_slot, faults, .. } = self;
        let edges = sink.tracer.as_mut().filter(|t| t.records_edge_loads());
        let watch = (faults.is_some() || edges.is_some()).then(|| Watch {
            // sending precedes the round's booking, so `stats.rounds` is
            // the 0-based index of the round in flight
            round: sink.stats.rounds,
            faults: faults.as_ref(),
            edges,
            edge_ids: g.csr_edge_ids(),
        });
        Outbox {
            vertex: 0,
            rev: &[],
            offsets: g.csr_offsets(),
            rev_slot,
            neighbors: g.csr_neighbors(),
            capacity: model.capacity(),
            bins,
            sent,
            receivers: None,
            tally: Tally::default(),
            watch,
        }
    }

    /// The round body: up to `max_rounds` rounds of compose (which bins)
    /// → consume on the caller's thread, stopping early once every state
    /// is `halted`; returns the rounds executed. Both round structures
    /// read through the one ring. Without a `consume` phase, each vertex
    /// reads its row — last round's messages — as it composes, while its
    /// sends fill this round's bins; with one, `compose` is handed an
    /// empty inbox and `consume` reads the rows. Reading a row clears it.
    /// It takes the states itself because both closures mutate them and
    /// cannot each capture the slice. Panics if `states.len() != n`.
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
        let offsets = self.g.csr_offsets();
        let step = consume.is_none();
        let mut delivery = self.take_delivery();
        let Delivery { bins, ring, ports } = &mut delivery;
        let mut row = std::mem::take(&mut self.row);
        let mut executed = 0u64;
        for round in 0..max_rounds {
            if halted.as_mut().is_some_and(|h| states.iter().all(h)) {
                break;
            }
            if step {
                bins.turn();
                ring.rewind();
            }
            let mut out = self.outbox(bins, ports);
            for (v, state) in states.iter_mut().enumerate() {
                out.at(v);
                if step {
                    let inbox = ring.read(row_of(offsets, v), out.bins, &mut row);
                    compose(state, round, v, inbox, &mut out);
                    ring.clear(row_of(offsets, v));
                } else {
                    compose(state, round, v, &[], &mut out);
                }
            }
            let tally = out.tally;
            self.sink.round(&tally);
            if let Some(recv) = consume.as_mut() {
                bins.turn();
                ring.rewind();
                for (v, state) in states.iter_mut().enumerate() {
                    recv(state, round, v, ring.read(row_of(offsets, v), bins, &mut row));
                    ring.clear(row_of(offsets, v));
                }
            }
            executed += 1;
        }
        debug_assert!(step || delivery.drained(), "an exchange round left a message unread");
        self.delivery = delivery;
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
        let offsets = self.g.csr_offsets();
        let mut delivery = self.take_delivery();
        let Delivery { bins, ring, ports } = &mut delivery;
        let mut receivers = std::mem::take(&mut self.receivers);
        let mut out = self.outbox(bins, ports);
        out.receivers = Some(&mut receivers);
        for &v in senders {
            out.at(v);
            send(v, &mut out);
        }
        let tally = out.tally;
        self.sink.round(&tally);
        // every binned message lists its receiver, and no other row holds one
        receivers.sort_unstable();
        receivers.dedup();
        bins.turn();
        ring.rewind();
        let mut row = std::mem::take(&mut self.row);
        for &u in &receivers {
            recv(u, ring.read(row_of(offsets, u), bins, &mut row));
            ring.clear(row_of(offsets, u));
        }
        receivers.clear();
        self.receivers = receivers;
        self.row = row;
        debug_assert!(delivery.drained(), "a sparse round left a message unread");
        self.delivery = delivery;
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
    /// structures use the one set of bins (debug builds assert it holds
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

    /// A network holds nothing per slot before its first round. After
    /// every round form its bins hold at most the largest round's messages
    /// in 19-byte records, plus one chunk per bin: a full step round gives
    /// a block's chunks back before the sends that follow need them, and
    /// the ring stays a block plus the longest row.
    #[test]
    fn bins_hold_the_largest_round_plus_a_chunk_per_bin() {
        let g = gen::power_law(60_000, 2, &mut gen::seeded_rng(7));
        let blocks = g.slots().div_ceil(BLOCK);
        assert!(blocks >= 3, "{} slots", g.slots());
        let mut net = Network::new(&g, Model::congest());
        let cold = &net.delivery;
        assert!(net.rev_slot.is_empty() && net.row.is_empty(), "no slot pairing or scratch row");
        assert!(cold.ring.slots.is_empty() && cold.bins.sent.open.is_empty() && cold.ports.is_empty(), "no bins or ring");
        let flood = |out: &mut Outbox| {
            for p in 0..out.ports() {
                out.send(p, [1, 2]);
            }
        };
        let mut largest = 0;
        let mut bounded = |net: &Network, before: RoundStats, what: &str| {
            largest = largest.max(net.stats().since(&before).messages as usize);
            let Bins { sent, arrived, free, chunk } = &net.delivery.bins;
            let sets = [sent, arrived];
            let chunks = free.iter().chain(sets.iter().flat_map(|set| set.open.iter().chain(set.full.iter().flatten())));
            let bytes = chunks.map(Vec::capacity).sum::<usize>() * size_of::<Record>();
            let bound = (largest + 2 * blocks * chunk) * size_of::<Record>();
            assert!(bytes <= bound, "{what}: {bytes} bytes of bins, largest round {largest} messages");
            assert!(net.delivery.ring.slots.len() <= (BLOCK + g.max_degree()).next_power_of_two(), "{what}");
        };
        let mut unit = vec![(); g.n()];
        let before = net.stats();
        net.exchange_active(&(0..500).collect::<Vec<_>>(), |_, out| flood(out), |_, _| {});
        bounded(&net, before, "a sparse round");
        for rounds in 1..=3 {
            let before = net.stats();
            net.step_state(&mut unit, |_, _, _, out| flood(out));
            bounded(&net, before, &format!("step round {rounds}"));
        }
        net.step_state(&mut unit, |_, _, _, _| {});
        let before = net.stats();
        net.exchange_rounds(1, &mut unit, |_, _, _, out| flood(out), |_, _, _, _| {}, |_| false);
        bounded(&net, before, "an exchange round");
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
        net.step_state(&mut unit, |_, _, _, _| {}); // drain: the exchange forms need bins with no message pending
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
    /// words), split into its compose half (up to the first `recv`) and its
    /// read half, and a quarter-full step round (one 2-word message per
    /// vertex, on port `(v + round) % ports` as `engine-dense`'s token
    /// rounds send). Warm is the best of five on a network that has run
    /// three rounds of each; cold is the first of each on a fresh network,
    /// in `engine-dense`'s order, so it also pays the slot pairing and
    /// whatever the first rounds allocate. `cargo test --release -p
    /// lcg-congest --lib probe_round -- --ignored --nocapture --test-threads=1`.
    #[test]
    #[ignore = "probe: prints ns per slot of a full and a quarter-full round, warm and cold"]
    #[expect(clippy::disallowed_methods, reason = "a probe times itself and only prints; nothing asserts on the clock")]
    fn probe_round_unit_cost() {
        use std::time::Instant;
        let g = gen::power_law(400_000, 2, &mut gen::seeded_rng(20220725));
        let mut acc = vec![0u64; g.n()];
        let absorb = |acc: &mut u64, inbox: &Inbox| {
            for m in inbox.iter().flatten() {
                *acc = acc.wrapping_add(m[0]).rotate_left(m[1] as u32 % 63 + 1);
            }
        };
        // (compose, read) nanoseconds of one full exchange round
        let full = |net: &mut Network, acc: &mut [u64]| {
            let sends = |acc: &mut u64, _, v: usize, out: &mut Outbox| {
                for p in 0..out.ports() {
                    out.send(p, [*acc ^ v as u64, p as u64]);
                }
            };
            let started = Instant::now();
            let mut reading = None;
            let recv = |acc: &mut u64, _, v: usize, inbox: &Inbox| {
                if v == 0 {
                    reading = Some(Instant::now());
                }
                absorb(acc, inbox);
            };
            net.exchange_rounds(1, acc, sends, recv, |_| false);
            let (done, reading) = (Instant::now(), reading.expect("vertex 0 consumes"));
            ((reading - started).as_nanos() as f64, (done - reading).as_nanos() as f64)
        };
        let mut step_round = 0usize;
        let mut quarter = |net: &mut Network, acc: &mut [u64]| {
            let round = step_round;
            step_round += 1;
            let started = Instant::now();
            net.step_state(acc, |acc, v, inbox, out| {
                absorb(acc, inbox);
                if out.ports() > 0 {
                    out.send((v + round) % out.ports(), [*acc, round as u64]);
                }
            });
            started.elapsed().as_nanos() as f64
        };
        let mut cold = Network::new(&g, Model::congest());
        let cold_full = full(&mut cold, &mut acc);
        let cold_quarter = quarter(&mut cold, &mut acc);
        drop(cold);
        let mut net = Network::new(&g, Model::congest());
        for _ in 0..3 {
            full(&mut net, &mut acc);
        }
        let warm_full = (0..5).map(|_| full(&mut net, &mut acc)).fold((f64::INFINITY, 0.0), |best, (c, r)| {
            if c + r < best.0 + best.1 {
                (c, r)
            } else {
                best
            }
        });
        for _ in 0..3 {
            quarter(&mut net, &mut acc);
        }
        let warm_quarter = (0..5).map(|_| quarter(&mut net, &mut acc)).fold(f64::INFINITY, f64::min);
        // drain the last step round's messages
        net.step_state(&mut acc, |acc, _, inbox, _| absorb(acc, inbox));
        let per = |ns: f64| ns / g.slots() as f64;
        println!("round n {} slots {}", g.n(), g.slots());
        for (form, (compose, read)) in [("warm", warm_full), ("cold", cold_full)] {
            println!(
                "  full exchange, {form}: {:.1} ns/slot = compose {:.1} + read {:.1}",
                per(compose + read),
                per(compose),
                per(read)
            );
        }
        for (form, ns) in [("warm", warm_quarter), ("cold", cold_quarter)] {
            println!("  quarter-full step, {form}: {:.1} ns/slot", per(ns));
        }
        assert!(acc.iter().any(|&a| a != 0), "the rounds carried the payloads");
    }
}
