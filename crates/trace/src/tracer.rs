//! The recording side: [`Tracer`] accumulates spans, per-round samples,
//! and per-edge loads while an execution runs, then [`Tracer::finish`]es
//! into an immutable [`Trace`].

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
/// [`Tracer`]'s span list is its creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanData {
    /// Span name.
    name: String,
    /// Index of the enclosing span (always an earlier one), if any.
    parent: Option<usize>,
    /// Nesting depth (0 = top level).
    depth: usize,
    /// Round count when the span opened.
    start_round: u64,
    /// Round count when the span closed; `None` while it is open.
    end_round: Option<u64>,
    /// Rounds executed or charged while the span was open.
    rounds: u64,
    /// Messages sent while the span was open.
    messages: u64,
    /// Words sent while the span was open.
    words: u64,
    /// Maximum words over one edge in one round while the span was open.
    max_words: usize,
    /// `key = value` annotations, in attachment order.
    notes: Vec<(String, u64)>,
}

/// Records one execution. Drive it through the simulator's hook points
/// (`record_round` per executed round, `record_quiet_rounds` for charged
/// silent rounds, `record_external` for merged foreign stats) and scope
/// phases with `open_span`/`close_span`; then [`Tracer::finish`].
///
/// Everything recorded is a pure function of the deterministic engine's
/// counters, so two runs with the same seed produce identical traces at
/// any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracer {
    /// Recording configuration.
    cfg: TraceConfig,
    /// Bound vertex count ([`Tracer::bind_topology`]).
    n: usize,
    /// Bound edge count.
    m: usize,
    /// Endpoints per edge id; `m` pairs when edge loads are on, else empty.
    ends: Vec<(usize, usize)>,
    /// Running totals.
    total: Totals,
    /// Every span opened so far, closed or not.
    spans: Vec<SpanData>,
    /// Indices of the still-open spans, outermost first.
    open: Vec<usize>,
    /// Per-round samples (when the series is on).
    series: Vec<RoundSample>,
    /// Cumulative words per edge id; `m` entries when edge loads are on,
    /// else empty.
    edge_words: Vec<u64>,
    /// Fault events, in adjudication order.
    faults: Vec<FaultEvent>,
}

impl Tracer {
    /// A tracer with nothing recorded yet.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
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
        }
    }

    /// Declares the topology being traced: vertex count, edge count, and
    /// (edge id → endpoints). Called once by the network the tracer is
    /// attached to; the per-edge load table is allocated here — never per
    /// round.
    pub fn bind_topology(&mut self, n: usize, m: usize, ends: Vec<(usize, usize)>) {
        self.n = n;
        self.m = m;
        if self.cfg.edge_loads {
            assert_eq!(ends.len(), m, "one endpoint pair per edge");
            self.ends = ends;
            if self.edge_words.len() != m {
                self.edge_words = vec![0; m];
            }
        }
    }

    /// `true` when this tracer accumulates per-edge loads (the network
    /// only walks the edge table when someone is listening).
    pub fn records_edge_loads(&self) -> bool {
        self.cfg.edge_loads
    }

    /// Opens a nested span named `name`, starting at the current round.
    pub fn open_span(&mut self, name: &str) -> SpanId {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        self.spans.push(SpanData {
            name: name.to_string(),
            parent,
            depth: self.open.len(),
            start_round: self.total.rounds,
            end_round: None,
            rounds: 0,
            messages: 0,
            words: 0,
            max_words: 0,
            notes: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close_span(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close in LIFO order");
        self.spans[id.0].end_round = Some(self.total.rounds);
    }

    /// Attaches a `key = value` annotation to a span (open or closed) —
    /// e.g. a cluster's charged rounds or walk-step count. Annotation
    /// order is preserved in the trace.
    pub fn annotate(&mut self, id: SpanId, key: &str, value: u64) {
        self.spans[id.0].notes.push((key.to_string(), value));
    }

    /// Records one executed round: `messages` sent, `words` sent, and the
    /// maximum words that crossed a single edge (one direction) this round.
    pub fn record_round(&mut self, messages: u64, words: u64, max_edge_words: usize) {
        self.total.rounds += 1;
        self.total.messages += messages;
        self.total.words += words;
        self.total.max_words_edge_round = self.total.max_words_edge_round.max(max_edge_words);
        for &i in &self.open {
            let s = &mut self.spans[i];
            s.rounds += 1;
            s.messages += messages;
            s.words += words;
            s.max_words = s.max_words.max(max_edge_words);
        }
        if self.cfg.series {
            self.series.push(RoundSample {
                round: self.total.rounds - 1,
                messages,
                words,
                max_edge_words,
            });
        }
    }

    /// Records `rounds` charged silent rounds (no traffic, no samples —
    /// sample round indices make the gap explicit).
    pub fn record_quiet_rounds(&mut self, rounds: u64) {
        self.record_external(rounds, 0, 0, 0);
    }

    /// Merges externally-measured statistics (e.g. traffic of per-cluster
    /// networks whose rounds are charged separately) into the counters.
    pub fn record_external(&mut self, rounds: u64, messages: u64, words: u64, max_edge_words: usize) {
        self.total.rounds += rounds;
        self.total.messages += messages;
        self.total.words += words;
        self.total.max_words_edge_round = self.total.max_words_edge_round.max(max_edge_words);
        for &i in &self.open {
            let s = &mut self.spans[i];
            s.rounds += rounds;
            s.messages += messages;
            s.words += words;
            s.max_words = s.max_words.max(max_edge_words);
        }
    }

    /// Records `count` messages meeting fault `kind` (`"drop"`, `"link"`,
    /// or `"crash"`) in the round currently being delivered.
    /// Delivery precedes the round tick, so the event's round index is
    /// the current round count — the 0-based index of the round in
    /// flight, matching the `round` indices of the series samples.
    pub fn record_fault(&mut self, kind: &str, count: u64) {
        self.faults.push(FaultEvent { round: self.total.rounds, kind: kind.to_string(), count });
    }

    /// Adds `words` to edge `edge`'s cumulative load. No-op unless
    /// edge loads are enabled and the topology is bound.
    pub fn add_edge_words(&mut self, edge: usize, words: u64) {
        if let Some(w) = self.edge_words.get_mut(edge) {
            *w += words;
        }
    }

    /// Seals the recording into an immutable [`Trace`]: resolves the span
    /// tree, computes the top-k hotspots, and snapshots the totals.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open (every `open_span` needs its
    /// `close_span`).
    pub fn finish(self) -> Trace {
        let Tracer { cfg, n, m, ends, total, spans, open, series, edge_words, faults } = self;
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
}
