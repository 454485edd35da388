//! The recording side: [`Tracer`] accumulates spans, per-round samples,
//! and per-edge loads while an execution runs, then [`Tracer::finish`]es
//! into an immutable [`Trace`].
//!
//! A paused recording crosses a checkpoint as a [`TracerState`] — plain
//! data taken out by [`Tracer::snapshot_state`] and validated on the way
//! back in by [`Tracer::from_snapshot_state`]. This crate defines no byte
//! format: the one snapshot codec (`lcg_congest::snapshot`, which sits
//! above this crate) encodes the state next to the engine's own.

use crate::trace::{FaultEvent, Hotspot, RoundSample, SpanRecord, Totals, Trace, TraceMeta};

/// What a [`Tracer`] records beyond the span tree (which is always on).
///
/// The two heavyweight channels are opt-in so that an always-attached
/// tracer (e.g. the framework's phase accounting) costs a handful of
/// integer updates per round and **allocates nothing per round**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Label stored in the trace header (e.g. `"framework"`).
    pub label: String,
    /// Record one [`RoundSample`] per executed round.
    pub series: bool,
    /// Accumulate cumulative words per edge (enables hotspots).
    pub edge_loads: bool,
    /// Number of hotspot edges kept when finishing (ignored unless
    /// `edge_loads`).
    pub top_k: usize,
}

impl TraceConfig {
    /// Spans only: the cheapest mode, suitable for always-on phase
    /// accounting. No per-round allocation, no per-edge state.
    pub fn spans_only(label: &str) -> TraceConfig {
        TraceConfig { label: label.to_string(), series: false, edge_loads: false, top_k: 0 }
    }

    /// Everything: spans, per-round series, and edge-load hotspots
    /// (top 10 by default; see [`TraceConfig::with_top_k`]).
    pub fn full(label: &str) -> TraceConfig {
        TraceConfig { label: label.to_string(), series: true, edge_loads: true, top_k: 10 }
    }

    /// Spans plus edge loads, without the per-round series. Used for
    /// short-lived helper networks whose hotspot contribution is merged
    /// into a main tracer ([`Tracer::merge_edge_words_from`]).
    pub fn hotspots_only(label: &str) -> TraceConfig {
        TraceConfig { label: label.to_string(), series: false, edge_loads: true, top_k: 10 }
    }

    /// Overrides the hotspot count.
    pub fn with_top_k(mut self, top_k: usize) -> TraceConfig {
        self.top_k = top_k;
        self
    }
}

/// Handle to an open span, returned by [`Tracer::open_span`].
///
/// Spans close in LIFO order (they are intervals of the single logical
/// round clock, so they nest properly or not at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// State of one span while recording; the index of a span in
/// [`TracerState::spans`] is its creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanState {
    /// Span name.
    pub name: String,
    /// Index of the enclosing span (always an earlier one), if any.
    pub parent: Option<usize>,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Round count when the span opened.
    pub start_round: u64,
    /// Round count when the span closed; `None` while it is open.
    pub end_round: Option<u64>,
    /// Rounds executed or charged while the span was open.
    pub rounds: u64,
    /// Messages sent while the span was open.
    pub messages: u64,
    /// Words sent while the span was open.
    pub words: u64,
    /// Maximum words over one edge in one round while the span was open.
    pub max_words: usize,
    /// `key = value` annotations, in attachment order.
    pub notes: Vec<(String, u64)>,
}

/// A [`Tracer`]'s complete recording state as plain data: what
/// [`Tracer::snapshot_state`] takes out and [`Tracer::from_snapshot_state`]
/// validates and puts back. The trace crate defines no byte format for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerState {
    /// Recording configuration.
    pub cfg: TraceConfig,
    /// Bound vertex count ([`Tracer::bind_topology`]).
    pub n: usize,
    /// Bound edge count.
    pub m: usize,
    /// Endpoints per edge id; `m` pairs when edge loads are on, else empty.
    pub ends: Vec<(usize, usize)>,
    /// Running totals.
    pub total: Totals,
    /// Every span opened so far, closed or not.
    pub spans: Vec<SpanState>,
    /// Indices of the still-open spans, outermost first.
    pub open: Vec<usize>,
    /// Per-round samples (when the series is on).
    pub series: Vec<RoundSample>,
    /// Cumulative words per edge id; `m` entries when edge loads are on,
    /// else empty.
    pub edge_words: Vec<u64>,
    /// Fault events, in adjudication order.
    pub faults: Vec<FaultEvent>,
}

/// Records one execution. Drive it through the simulator's hook points
/// (`record_round` per executed round, `record_quiet_rounds` for charged
/// silent rounds, `record_external` for merged foreign stats) and scope
/// phases with `open_span`/`close_span`; then [`Tracer::finish`].
///
/// Everything recorded is a pure function of the deterministic engine's
/// counters, so two runs with the same seed produce identical traces at
/// any thread count.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Private, so the invariants [`Tracer::from_snapshot_state`] spells
    /// out hold by construction for a tracer that only ever recorded.
    state: TracerState,
}

impl Tracer {
    /// A tracer with nothing recorded yet.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            state: TracerState {
                cfg,
                n: 0,
                m: 0,
                ends: Vec::new(),
                total: Totals::default(),
                spans: Vec::new(),
                open: Vec::new(),
                series: Vec::new(),
                edge_words: Vec::new(),
                faults: Vec::new(),
            },
        }
    }

    /// Declares the topology being traced: vertex count, edge count, and
    /// (edge id → endpoints). Called once by the network the tracer is
    /// attached to; the per-edge load table is allocated here — never per
    /// round.
    pub fn bind_topology(&mut self, n: usize, m: usize, ends: Vec<(usize, usize)>) {
        self.state.n = n;
        self.state.m = m;
        if self.state.cfg.edge_loads {
            assert_eq!(ends.len(), m, "one endpoint pair per edge");
            self.state.ends = ends;
            if self.state.edge_words.len() != m {
                self.state.edge_words = vec![0; m];
            }
        }
    }

    /// `true` when this tracer accumulates per-edge loads (the network
    /// only walks the edge table when someone is listening).
    pub fn records_edge_loads(&self) -> bool {
        self.state.cfg.edge_loads
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.state.total.rounds
    }

    /// Opens a nested span named `name`, starting at the current round.
    pub fn open_span(&mut self, name: &str) -> SpanId {
        let parent = self.state.open.last().copied();
        let id = self.state.spans.len();
        self.state.spans.push(SpanState {
            name: name.to_string(),
            parent,
            depth: self.state.open.len(),
            start_round: self.state.total.rounds,
            end_round: None,
            rounds: 0,
            messages: 0,
            words: 0,
            max_words: 0,
            notes: Vec::new(),
        });
        self.state.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close_span(&mut self, id: SpanId) {
        let top = self.state.open.pop();
        assert_eq!(top, Some(id.0), "spans close in LIFO order");
        self.state.spans[id.0].end_round = Some(self.state.total.rounds);
    }

    /// Attaches a `key = value` annotation to a span (open or closed) —
    /// e.g. a cluster's charged rounds or walk-step count. Annotation
    /// order is preserved in the trace.
    pub fn annotate(&mut self, id: SpanId, key: &str, value: u64) {
        self.state.spans[id.0].notes.push((key.to_string(), value));
    }

    /// Records one executed round: `messages` sent, `words` sent, and the
    /// maximum words that crossed a single edge (one direction) this round.
    pub fn record_round(&mut self, messages: u64, words: u64, max_edge_words: usize) {
        self.state.total.rounds += 1;
        self.state.total.messages += messages;
        self.state.total.words += words;
        self.state.total.max_words_edge_round = self.state.total.max_words_edge_round.max(max_edge_words);
        for &i in &self.state.open {
            let s = &mut self.state.spans[i];
            s.rounds += 1;
            s.messages += messages;
            s.words += words;
            s.max_words = s.max_words.max(max_edge_words);
        }
        if self.state.cfg.series {
            self.state.series.push(RoundSample {
                round: self.state.total.rounds - 1,
                messages,
                words,
                max_edge_words,
            });
        }
    }

    /// Records `rounds` charged silent rounds (no traffic, no samples —
    /// sample round indices make the gap explicit).
    pub fn record_quiet_rounds(&mut self, rounds: u64) {
        self.state.total.rounds += rounds;
        for &i in &self.state.open {
            self.state.spans[i].rounds += rounds;
        }
    }

    /// Merges externally-measured statistics (e.g. traffic of per-cluster
    /// networks whose rounds are charged separately) into the counters.
    pub fn record_external(&mut self, rounds: u64, messages: u64, words: u64, max_edge_words: usize) {
        self.state.total.rounds += rounds;
        self.state.total.messages += messages;
        self.state.total.words += words;
        self.state.total.max_words_edge_round = self.state.total.max_words_edge_round.max(max_edge_words);
        for &i in &self.state.open {
            let s = &mut self.state.spans[i];
            s.rounds += rounds;
            s.messages += messages;
            s.words += words;
            s.max_words = s.max_words.max(max_edge_words);
        }
    }

    /// Records `count` messages meeting fault `kind` (`"drop"`, `"link"`,
    /// `"crash"`, or `"trunc"`) in the round currently being delivered.
    /// Delivery precedes the round tick, so the event's round index is
    /// the current round count — the 0-based index of the round in
    /// flight, matching the `round` indices of the series samples.
    pub fn record_fault(&mut self, kind: &str, count: u64) {
        self.state.faults.push(FaultEvent { round: self.state.total.rounds, kind: kind.to_string(), count });
    }

    /// Adds `words` to edge `edge`'s cumulative load. No-op unless
    /// edge loads are enabled and the topology is bound.
    pub fn add_edge_words(&mut self, edge: usize, words: u64) {
        if let Some(w) = self.state.edge_words.get_mut(edge) {
            *w += words;
        }
    }

    /// Sums another tracer's per-edge loads into this one. Both tracers
    /// must be bound to the same topology (same edge ids) — used when
    /// logically-parallel helper networks run over the same host graph.
    pub fn merge_edge_words_from(&mut self, other: &Tracer) {
        assert_eq!(
            self.state.edge_words.len(),
            other.state.edge_words.len(),
            "edge-load merge requires the same topology"
        );
        for (a, b) in self.state.edge_words.iter_mut().zip(&other.state.edge_words) {
            *a += b;
        }
    }

    /// The complete recording state — config, bound topology, running
    /// totals, the span list *with* the stack of still-open spans, series,
    /// edge loads, fault events — taken out as plain data, for the engine
    /// snapshot layer to persist (`lcg_congest::snapshot` owns the bytes).
    ///
    /// Unlike [`Tracer::finish`], open spans are legal here: a snapshot
    /// taken mid-phase must capture the open stack so the resumed run
    /// closes the same spans the original opened.
    pub fn snapshot_state(&self) -> TracerState {
        self.state.clone()
    }

    /// Puts a [`Tracer::snapshot_state`] back. A restored tracer continues
    /// recording exactly where the original stood: same open-span stack,
    /// same counters, same edge loads.
    ///
    /// The state may come from a foreign file, so everything the recording
    /// and [`Tracer::finish`] index or unwrap on trust is checked here;
    /// errors with a description, never panics.
    pub fn from_snapshot_state(state: TracerState) -> Result<Tracer, String> {
        let TracerState { cfg, m, ends, spans, open, edge_words, .. } = &state;
        if let Some(i) = (0..spans.len()).find(|&i| spans[i].parent.is_some_and(|p| p >= i)) {
            return Err(format!("span {i} names parent {:?}, not an earlier span", spans[i].parent));
        }
        // the stack nests: each open span is the child of the one below it
        // (so, parents being earlier spans, its indices strictly increase)
        let mut below = None;
        for &i in open {
            let span = spans
                .get(i)
                .ok_or_else(|| format!("open-span index {i} out of range ({} spans)", spans.len()))?;
            if span.parent != below || span.end_round.is_some() {
                return Err(format!("open span {i} is closed, or not nested in the one below it"));
            }
            below = Some(i);
        }
        // `finish` unwraps the end round of every span off the stack
        if spans.iter().filter(|s| s.end_round.is_none()).count() != open.len() {
            return Err("a span off the open-span stack has no end round".to_string());
        }
        // `finish` indexes `ends[edge]` for every loaded edge
        let edges = if cfg.edge_loads { *m } else { 0 };
        if ends.len() != edges || edge_words.len() != edges {
            return Err(format!(
                "{} endpoint pairs and {} edge loads for {edges} load-tracked edges",
                ends.len(),
                edge_words.len()
            ));
        }
        Ok(Tracer { state })
    }

    /// Seals the recording into an immutable [`Trace`]: resolves the span
    /// tree, computes the top-k hotspots, and snapshots the totals.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open (every `open_span` needs its
    /// `close_span`).
    pub fn finish(self) -> Trace {
        let TracerState { cfg, n, m, ends, total, spans, open, series, edge_words, faults } =
            self.state;
        assert!(
            open.is_empty(),
            "unclosed span {:?} at finish",
            open.last().map(|&i| spans[i].name.clone())
        );
        let spans: Vec<SpanRecord> = spans
            .into_iter()
            .enumerate()
            .map(|(id, s)| SpanRecord {
                id,
                parent: s.parent,
                name: s.name,
                depth: s.depth,
                start_round: s.start_round,
                end_round: s.end_round.expect("every span was closed"),
                rounds: s.rounds,
                messages: s.messages,
                words: s.words,
                max_words_edge_round: s.max_words,
                notes: s.notes,
            })
            .collect();
        // hotspots: heaviest first, ties broken by edge id (deterministic)
        let mut loaded: Vec<(usize, u64)> = edge_words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(e, &w)| (e, w))
            .collect();
        loaded.sort_by_key(|&(e, w)| (std::cmp::Reverse(w), e));
        let hotspots: Vec<Hotspot> = loaded
            .into_iter()
            .take(cfg.top_k)
            .enumerate()
            .map(|(rank, (edge, words))| {
                let (u, v) = ends[edge];
                Hotspot { rank: rank + 1, edge, u, v, words }
            })
            .collect();
        Trace {
            meta: TraceMeta {
                schema: 2,
                label: cfg.label,
                n,
                m,
                series: cfg.series,
                edge_loads: cfg.edge_loads,
            },
            total,
            spans,
            series,
            hotspots,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_capture_deltas() {
        let mut t = Tracer::new(TraceConfig::spans_only("x"));
        let outer = t.open_span("outer");
        t.record_round(2, 4, 1);
        let inner = t.open_span("inner");
        t.record_round(1, 1, 1);
        t.record_quiet_rounds(10);
        t.close_span(inner);
        t.record_round(3, 9, 3);
        t.close_span(outer);
        let trace = t.finish();
        let outer = trace.span("outer").expect("outer span recorded");
        let inner = trace.span("inner").expect("inner span recorded");
        assert_eq!(outer.rounds, 13);
        assert_eq!(outer.messages, 6);
        assert_eq!(outer.words, 14);
        assert_eq!(outer.max_words_edge_round, 3);
        assert_eq!(inner.rounds, 11);
        assert_eq!(inner.messages, 1);
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.depth, 1);
        assert_eq!((inner.start_round, inner.end_round), (1, 12));
        assert_eq!(trace.total.rounds, 13);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn spans_must_close_in_lifo_order() {
        let mut t = Tracer::new(TraceConfig::spans_only("x"));
        let a = t.open_span("a");
        let _b = t.open_span("b");
        t.close_span(a);
    }

    #[test]
    #[should_panic(expected = "unclosed span")]
    fn finish_rejects_open_spans() {
        let mut t = Tracer::new(TraceConfig::spans_only("x"));
        let _ = t.open_span("a");
        let _ = t.finish();
    }

    #[test]
    fn series_records_round_indices_across_quiet_gaps() {
        let mut t = Tracer::new(TraceConfig::full("x"));
        t.record_round(1, 2, 1);
        t.record_quiet_rounds(5);
        t.record_round(3, 4, 2);
        let trace = t.finish();
        assert_eq!(trace.total.rounds, 7);
        assert_eq!(trace.series.len(), 2);
        assert_eq!(trace.series[0].round, 0);
        assert_eq!(trace.series[1].round, 6);
    }

    #[test]
    fn hotspots_rank_by_load_then_edge_id() {
        let mut t = Tracer::new(TraceConfig::full("x").with_top_k(2));
        t.bind_topology(4, 3, vec![(0, 1), (1, 2), (2, 3)]);
        t.add_edge_words(1, 5);
        t.add_edge_words(0, 5);
        t.add_edge_words(2, 9);
        let trace = t.finish();
        assert_eq!(trace.hotspots.len(), 2);
        assert_eq!((trace.hotspots[0].edge, trace.hotspots[0].words), (2, 9));
        assert_eq!((trace.hotspots[1].edge, trace.hotspots[1].words), (0, 5));
        assert_eq!((trace.hotspots[0].u, trace.hotspots[0].v), (2, 3));
        assert_eq!(trace.hotspots[0].rank, 1);
    }

    #[test]
    fn merge_edge_words_sums_elementwise() {
        let mk = || {
            let mut t = Tracer::new(TraceConfig::hotspots_only("x"));
            t.bind_topology(3, 2, vec![(0, 1), (1, 2)]);
            t
        };
        let mut a = mk();
        let mut b = mk();
        a.add_edge_words(0, 3);
        b.add_edge_words(0, 4);
        b.add_edge_words(1, 1);
        a.merge_edge_words_from(&b);
        let trace = a.finish();
        assert_eq!((trace.hotspots[0].edge, trace.hotspots[0].words), (0, 7));
        assert_eq!((trace.hotspots[1].edge, trace.hotspots[1].words), (1, 1));
    }

    #[test]
    fn spans_only_mode_records_no_series_or_edges() {
        let mut t = Tracer::new(TraceConfig::spans_only("x"));
        t.bind_topology(3, 2, vec![(0, 1), (1, 2)]);
        t.record_round(1, 1, 1);
        t.add_edge_words(0, 5); // silently ignored: no table allocated
        let trace = t.finish();
        assert!(trace.series.is_empty());
        assert!(trace.hotspots.is_empty());
        assert!(!trace.meta.series && !trace.meta.edge_loads);
    }

    #[test]
    fn external_stats_attribute_to_open_spans() {
        let mut t = Tracer::new(TraceConfig::spans_only("x"));
        let sp = t.open_span("gathering");
        t.record_external(0, 100, 200, 2);
        t.close_span(sp);
        let trace = t.finish();
        let s = trace.span("gathering").expect("span recorded");
        assert_eq!((s.rounds, s.messages, s.words), (0, 100, 200));
    }

    /// A two-deep open stack mid-recording, with edge loads bound.
    fn mid_recording() -> Tracer {
        let mut t = Tracer::new(TraceConfig::full("ckpt").with_top_k(3));
        t.bind_topology(3, 3, vec![(0, 1), (1, 2), (0, 2)]);
        let done = t.open_span("done");
        t.close_span(done);
        let _outer = t.open_span("outer");
        t.record_round(2, 4, 1);
        t.add_edge_words(1, 7);
        let _inner = t.open_span("inner");
        t.record_fault("drop", 2);
        t
    }

    #[test]
    fn state_round_trips_mid_recording_with_open_spans() {
        let mut t = mid_recording();
        let state = t.snapshot_state();
        assert_eq!(state.open, vec![1, 2]);
        let mut back = Tracer::from_snapshot_state(state.clone()).expect("own state is valid");
        assert_eq!(back.snapshot_state(), state);
        // drive both forward identically and compare the sealed traces
        for tr in [&mut t, &mut back] {
            tr.record_round(1, 2, 1);
            tr.close_span(SpanId(2));
            tr.close_span(SpanId(1));
        }
        assert_eq!(t.finish(), back.finish());
    }

    /// Everything recording and `finish` index or unwrap on trust is
    /// rejected at put-back, with a description — never a later panic.
    #[test]
    fn put_back_rejects_state_the_recording_would_trip_over() {
        let good = mid_recording().snapshot_state();
        let rejects = |what: &str, edit: fn(&mut TracerState)| {
            let mut bad = good.clone();
            edit(&mut bad);
            assert!(Tracer::from_snapshot_state(bad).is_err(), "{what} must be rejected");
        };
        rejects("open index out of range", |s| s.open.push(9));
        rejects("parent not earlier", |s| s.spans[1].parent = Some(1));
        rejects("parent not earlier (forward)", |s| s.spans[0].parent = Some(2));
        rejects("open stack not nested", |s| s.open = vec![2]);
        rejects("open stack out of order", |s| s.open = vec![2, 1]);
        rejects("open stack repeats a span", |s| s.open = vec![1, 2, 2]);
        rejects("closed span on the open stack", |s| s.spans[2].end_round = Some(1));
        rejects("open span off the stack", |s| s.spans[0].end_round = None);
        rejects("endpoint table shorter than m", |s| s.ends.truncate(2));
        rejects("edge loads shorter than m", |s| s.edge_words.truncate(1));
        rejects("edge loads without the channel", |s| s.cfg.edge_loads = false);
        rejects("m moved under the tables", |s| s.m = 4);
    }
}
