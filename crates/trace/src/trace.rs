//! The immutable trace artifact and its JSONL schema.
//!
//! A [`Trace`] serializes to **JSON Lines**: one object per line, each
//! tagged with a `"type"` field. Line order is fixed — `meta`, `total`,
//! every `span` in creation (pre-order) order, every `round` sample in
//! round order, every `hotspot` in rank order — and object keys are
//! `BTreeMap`-sorted by the vendored serde, so a trace has exactly one
//! byte representation. All quantities are integers (logical rounds and
//! word counts); wall-clock time never appears (D003 in `clippy.toml`).
//!
//! Schema (version 2 — version 1 plus trailing `fault` lines):
//!
//! ```text
//! {"type":"meta", "schema":2, "label":…, "n":…, "m":…, "series":bool, "edge_loads":bool}
//! {"type":"total", "rounds":…, "messages":…, "words":…, "max_words_edge_round":…}
//! {"type":"span", "id":…, "parent":…|null, "name":…, "depth":…, "start_round":…,
//!   "end_round":…, "rounds":…, "messages":…, "words":…, "max_words_edge_round":…,
//!   "notes":[["key",value],…]}
//! {"type":"round", "round":…, "messages":…, "words":…, "max_edge_words":…}
//! {"type":"hotspot", "rank":…, "edge":…, "u":…, "v":…, "words":…}
//! {"type":"fault", "round":…, "kind":"drop"|"link"|"crash", "count":…}
//! ```
//!
//! Span `notes` serialize as an array of pairs (not an object) to keep
//! their insertion order. Quiet charged rounds produce no `round` lines;
//! the `round` index on each sample makes the gaps explicit. `fault`
//! lines (one per `(round, kind)` with at least one destroyed message, in
//! event order) appear only in runs executed under
//! a fault plan — fault-free traces are bytewise version-1 traces except
//! for the `schema` field.

use serde::{Deserialize, Error, Serialize, Value};

/// Trace header: what was traced and which channels were enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Schema version (currently 2).
    pub schema: u32,
    /// Caller-chosen label (e.g. `"framework"`).
    pub label: String,
    /// Vertices of the traced network.
    pub n: usize,
    /// Edges of the traced network.
    pub m: usize,
    /// Whether per-round samples were recorded.
    pub series: bool,
    /// Whether per-edge loads (and hence hotspots) were recorded.
    pub edge_loads: bool,
}

/// Whole-run totals; field-for-field the simulator's `RoundStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Synchronous rounds executed or charged.
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total 64-bit words sent.
    pub words: u64,
    /// Maximum words over a single edge (one direction) in one round.
    pub max_words_edge_round: usize,
}

/// One closed span: a named interval of the logical round clock with the
/// counter deltas that accrued inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Creation-order index; also the pre-order position in the tree.
    pub id: usize,
    /// Enclosing span's id, `None` for roots.
    pub parent: Option<usize>,
    /// Phase name (e.g. `"gathering"`).
    pub name: String,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Round clock when the span opened.
    pub start_round: u64,
    /// Round clock when the span closed.
    pub end_round: u64,
    /// Rounds that elapsed inside the span.
    pub rounds: u64,
    /// Messages sent inside the span.
    pub messages: u64,
    /// Words sent inside the span.
    pub words: u64,
    /// Max per-edge words of any single round inside the span.
    pub max_words_edge_round: usize,
    /// Ordered `(key, value)` annotations.
    pub notes: Vec<(String, u64)>,
}

/// One executed round's traffic (quiet charged rounds are not sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSample {
    /// Round index (0-based position on the logical clock).
    pub round: u64,
    /// Messages sent this round.
    pub messages: u64,
    /// Words sent this round.
    pub words: u64,
    /// Max words over a single edge (one direction) this round.
    pub max_edge_words: usize,
}

/// One of the top-k most-loaded edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hotspot {
    /// 1-based rank (1 = heaviest).
    pub rank: usize,
    /// Edge id in the traced graph.
    pub edge: usize,
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Cumulative words that crossed the edge (both directions).
    pub words: u64,
}

/// One round's destroyed messages of one fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Round (0-based) in which the messages were adjudicated.
    pub round: u64,
    /// Fault cause: `"drop"`, `"link"`, or `"crash"`.
    pub kind: String,
    /// How many messages this round met this fate.
    pub count: u64,
}

/// A finished, immutable trace: header, totals, span tree, per-round
/// series, hotspot table, and fault events. Produced by `Tracer::finish`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Header.
    pub meta: TraceMeta,
    /// Whole-run totals.
    pub total: Totals,
    /// Spans in creation (pre-order) order.
    pub spans: Vec<SpanRecord>,
    /// Per-round samples in round order (empty unless `meta.series`).
    pub series: Vec<RoundSample>,
    /// Top-k edges by load (empty unless `meta.edge_loads`).
    pub hotspots: Vec<Hotspot>,
    /// Fault events in event order (empty for fault-free runs).
    pub faults: Vec<FaultEvent>,
}

impl Trace {
    /// First span named `name` in pre-order, if any. Phase names are
    /// unique at the top level, so for those this is *the* phase span.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Rounds of the first span named `name` (0 if absent).
    pub fn span_rounds(&self, name: &str) -> u64 {
        self.span(name).map_or(0, |s| s.rounds)
    }

    /// Serializes to the canonical JSONL text (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        push_line(&mut out, "meta", self.meta.to_value());
        push_line(&mut out, "total", self.total.to_value());
        for s in &self.spans {
            push_line(&mut out, "span", s.to_value());
        }
        for r in &self.series {
            push_line(&mut out, "round", r.to_value());
        }
        for h in &self.hotspots {
            push_line(&mut out, "hotspot", h.to_value());
        }
        for f in &self.faults {
            push_line(&mut out, "fault", f.to_value());
        }
        out
    }

    /// Parses JSONL text produced by [`Trace::to_jsonl`]. Line order
    /// within each record type is preserved; unknown `"type"` tags are an
    /// error (bump `schema` before adding record types).
    pub fn from_jsonl(text: &str) -> Result<Trace, Error> {
        let mut meta = None;
        let mut total = None;
        let mut spans = Vec::new();
        let mut series = Vec::new();
        let mut hotspots = Vec::new();
        let mut faults = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = serde_json::parse_value(line)
                .map_err(|e| Error::msg(format!("line {}: {}", i + 1, e.0)))?;
            let tag = v
                .get("type")
                .and_then(|t| match t {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .ok_or_else(|| Error::msg(format!("line {}: missing \"type\" tag", i + 1)))?;
            match tag {
                "meta" => meta = Some(TraceMeta::from_value(&v)?),
                "total" => total = Some(Totals::from_value(&v)?),
                "span" => spans.push(SpanRecord::from_value(&v)?),
                "round" => series.push(RoundSample::from_value(&v)?),
                "hotspot" => hotspots.push(Hotspot::from_value(&v)?),
                "fault" => faults.push(FaultEvent::from_value(&v)?),
                other => {
                    return Err(Error::msg(format!("line {}: unknown record type `{other}`", i + 1)))
                }
            }
        }
        Ok(Trace {
            meta: meta.ok_or_else(|| Error::msg("trace has no meta line"))?,
            total: total.ok_or_else(|| Error::msg("trace has no total line"))?,
            spans,
            series,
            hotspots,
            faults,
        })
    }
}

/// Appends one tagged JSONL line.
fn push_line(out: &mut String, tag: &str, body: Value) {
    let mut fields = match body {
        Value::Object(m) => m,
        _ => unreachable!("record bodies are objects"),
    };
    fields.insert("type".to_string(), Value::Str(tag.to_string()));
    struct Line(Value);
    impl Serialize for Line {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let line = serde_json::to_string(&Line(Value::Object(fields)))
        .expect("vendored serde_json::to_string is infallible");
    out.push_str(&line);
    out.push('\n');
}

/// Shared "missing field" helper for the hand-written impls below.
fn field<'v>(v: &'v Value, k: &str) -> Result<&'v Value, Error> {
    v.get(k).ok_or_else(|| Error::msg(format!("missing field `{k}`")))
}

// Hand-written serde impls (vendored serde has no derive). These emit the
// record *body*; the `"type"` tag is added/ignored at the line layer.

impl Serialize for TraceMeta {
    fn to_value(&self) -> Value {
        Value::object([
            ("schema".to_string(), self.schema.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("n".to_string(), self.n.to_value()),
            ("m".to_string(), self.m.to_value()),
            ("series".to_string(), self.series.to_value()),
            ("edge_loads".to_string(), self.edge_loads.to_value()),
        ])
    }
}

impl Deserialize for TraceMeta {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(TraceMeta {
            schema: u32::from_value(field(v, "schema")?)?,
            label: String::from_value(field(v, "label")?)?,
            n: usize::from_value(field(v, "n")?)?,
            m: usize::from_value(field(v, "m")?)?,
            series: bool::from_value(field(v, "series")?)?,
            edge_loads: bool::from_value(field(v, "edge_loads")?)?,
        })
    }
}

impl Serialize for Totals {
    fn to_value(&self) -> Value {
        Value::object([
            ("rounds".to_string(), self.rounds.to_value()),
            ("messages".to_string(), self.messages.to_value()),
            ("words".to_string(), self.words.to_value()),
            ("max_words_edge_round".to_string(), self.max_words_edge_round.to_value()),
        ])
    }
}

impl Deserialize for Totals {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Totals {
            rounds: u64::from_value(field(v, "rounds")?)?,
            messages: u64::from_value(field(v, "messages")?)?,
            words: u64::from_value(field(v, "words")?)?,
            max_words_edge_round: usize::from_value(field(v, "max_words_edge_round")?)?,
        })
    }
}

impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        Value::object([
            ("id".to_string(), self.id.to_value()),
            ("parent".to_string(), self.parent.to_value()),
            ("name".to_string(), self.name.to_value()),
            ("depth".to_string(), self.depth.to_value()),
            ("start_round".to_string(), self.start_round.to_value()),
            ("end_round".to_string(), self.end_round.to_value()),
            ("rounds".to_string(), self.rounds.to_value()),
            ("messages".to_string(), self.messages.to_value()),
            ("words".to_string(), self.words.to_value()),
            ("max_words_edge_round".to_string(), self.max_words_edge_round.to_value()),
            ("notes".to_string(), self.notes.to_value()),
        ])
    }
}

impl Deserialize for SpanRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(SpanRecord {
            id: usize::from_value(field(v, "id")?)?,
            parent: Option::<usize>::from_value(field(v, "parent")?)?,
            name: String::from_value(field(v, "name")?)?,
            depth: usize::from_value(field(v, "depth")?)?,
            start_round: u64::from_value(field(v, "start_round")?)?,
            end_round: u64::from_value(field(v, "end_round")?)?,
            rounds: u64::from_value(field(v, "rounds")?)?,
            messages: u64::from_value(field(v, "messages")?)?,
            words: u64::from_value(field(v, "words")?)?,
            max_words_edge_round: usize::from_value(field(v, "max_words_edge_round")?)?,
            notes: Vec::<(String, u64)>::from_value(field(v, "notes")?)?,
        })
    }
}

impl Serialize for RoundSample {
    fn to_value(&self) -> Value {
        Value::object([
            ("round".to_string(), self.round.to_value()),
            ("messages".to_string(), self.messages.to_value()),
            ("words".to_string(), self.words.to_value()),
            ("max_edge_words".to_string(), self.max_edge_words.to_value()),
        ])
    }
}

impl Deserialize for RoundSample {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(RoundSample {
            round: u64::from_value(field(v, "round")?)?,
            messages: u64::from_value(field(v, "messages")?)?,
            words: u64::from_value(field(v, "words")?)?,
            max_edge_words: usize::from_value(field(v, "max_edge_words")?)?,
        })
    }
}

impl Serialize for Hotspot {
    fn to_value(&self) -> Value {
        Value::object([
            ("rank".to_string(), self.rank.to_value()),
            ("edge".to_string(), self.edge.to_value()),
            ("u".to_string(), self.u.to_value()),
            ("v".to_string(), self.v.to_value()),
            ("words".to_string(), self.words.to_value()),
        ])
    }
}

impl Deserialize for Hotspot {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Hotspot {
            rank: usize::from_value(field(v, "rank")?)?,
            edge: usize::from_value(field(v, "edge")?)?,
            u: usize::from_value(field(v, "u")?)?,
            v: usize::from_value(field(v, "v")?)?,
            words: u64::from_value(field(v, "words")?)?,
        })
    }
}

impl Serialize for FaultEvent {
    fn to_value(&self) -> Value {
        Value::object([
            ("round".to_string(), self.round.to_value()),
            ("kind".to_string(), self.kind.to_value()),
            ("count".to_string(), self.count.to_value()),
        ])
    }
}

impl Deserialize for FaultEvent {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(FaultEvent {
            round: u64::from_value(field(v, "round")?)?,
            kind: String::from_value(field(v, "kind")?)?,
            count: u64::from_value(field(v, "count")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, Tracer};

    fn sample_trace() -> Trace {
        let mut t = Tracer::new(TraceConfig::full("unit").with_top_k(3));
        t.bind_topology(4, 4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let root = t.open_span("root");
        t.record_round(4, 8, 2);
        let leaf = t.open_span("leaf");
        t.record_quiet_rounds(3);
        t.record_round(2, 2, 1);
        t.annotate(leaf, "tokens", 7);
        t.close_span(leaf);
        t.close_span(root);
        t.add_edge_words(2, 10);
        t.add_edge_words(0, 4);
        t.finish()
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).expect("own output parses");
        assert_eq!(back, trace);
        // canonical: re-serializing the parse is byte-identical
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_line_order_and_tags_are_stable() {
        let text = sample_trace().to_jsonl();
        let tags: Vec<String> = text
            .lines()
            .map(|l| {
                let val = serde_json::parse_value(l).expect("valid JSON line");
                match val.get("type") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("line without string type tag: {l}"),
                }
            })
            .collect();
        assert_eq!(tags, ["meta", "total", "span", "span", "round", "round", "hotspot", "hotspot"]);
    }

    #[test]
    fn notes_preserve_insertion_order() {
        let mut t = Tracer::new(TraceConfig::spans_only("x"));
        let sp = t.open_span("s");
        t.annotate(sp, "zeta", 1);
        t.annotate(sp, "alpha", 2);
        t.close_span(sp);
        let trace = t.finish();
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).expect("parses");
        assert_eq!(
            back.spans[0].notes,
            vec![("zeta".to_string(), 1), ("alpha".to_string(), 2)]
        );
    }

    #[test]
    fn fault_lines_roundtrip_after_hotspots() {
        let mut t = Tracer::new(TraceConfig::full("faulty").with_top_k(2));
        t.bind_topology(3, 2, vec![(0, 1), (1, 2)]);
        // delivery (and hence fault adjudication) precedes the round tick,
        // mirroring the simulator's call order
        t.record_fault("drop", 3);
        t.record_round(2, 4, 2);
        t.record_fault("crash", 1);
        t.record_round(1, 1, 1);
        t.add_edge_words(0, 5);
        let trace = t.finish();
        assert_eq!(
            trace.faults,
            vec![
                FaultEvent { round: 0, kind: "drop".to_string(), count: 3 },
                FaultEvent { round: 1, kind: "crash".to_string(), count: 1 },
            ]
        );
        let text = trace.to_jsonl();
        let tags: Vec<String> = text
            .lines()
            .map(|l| {
                match serde_json::parse_value(l).expect("valid JSON line").get("type") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("line without string type tag: {l}"),
                }
            })
            .collect();
        assert_eq!(tags, ["meta", "total", "round", "round", "hotspot", "fault", "fault"]);
        let back = Trace::from_jsonl(&text).expect("faulty trace parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn unknown_record_type_is_rejected() {
        let trace = sample_trace();
        let mut text = trace.to_jsonl();
        text.push_str("{\"type\":\"gauge\",\"v\":1}\n");
        let err = Trace::from_jsonl(&text).expect_err("unknown tag rejected");
        assert!(err.0.contains("gauge"));
    }

    #[test]
    fn missing_header_lines_are_rejected() {
        assert!(Trace::from_jsonl("").is_err());
        let only_meta = sample_trace().to_jsonl().lines().next().map(String::from)
            .expect("meta line exists");
        assert!(Trace::from_jsonl(&only_meta).is_err());
    }

    #[test]
    fn span_lookup_is_preorder_first_match() {
        let trace = sample_trace();
        assert_eq!(trace.span("root").map(|s| s.id), Some(0));
        assert_eq!(trace.span_rounds("leaf"), 4);
        assert_eq!(trace.span_rounds("absent"), 0);
    }
}
