//! # lcg-trace — deterministic round traces for the CONGEST simulator
//!
//! The paper's claims are round- and bandwidth-shaped: Theorems 1.1–1.5
//! bound rounds, and the §2 framework bounds per-edge load during
//! gathering and routing. Aggregate [`RoundStats`]-style counters say how
//! much a run cost in total; this crate records *where inside the run* the
//! rounds and the congestion went:
//!
//! * **Spans** ([`Tracer::open_span`]) scope logical-round intervals —
//!   "election", "gathering", … — and capture the per-span delta of every
//!   counter. Spans nest; the span tree is the phase breakdown.
//! * **Per-round time series**: messages, words, and the maximum per-edge
//!   words of each executed round, recorded by the simulator behind an
//!   opt-in hook.
//! * **Per-edge cumulative load histogram**: total words that crossed each
//!   edge, from which the top-k congestion hotspot edges are surfaced.
//!
//! A finished [`Trace`] exports to **JSONL** with a stable, deterministic
//! schema (see [`trace`]): integers only, `BTreeMap`-ordered keys, logical
//! rounds only. The same seed produces the byte-identical trace at every
//! `LCG_THREADS` setting, because every recorded quantity comes out of the
//! bit-deterministic round engine. Wall-clock timing is deliberately
//! absent (lcg-lint rule D003): traces are replayable artifacts, not
//! profiles.
//!
//! The `trace-report` binary renders a trace file as a span tree with
//! round/word budgets, an ASCII per-round sparkline, and a hotspot table
//! ([`report`]).
//!
//! ## Example
//!
//! ```
//! use lcg_trace::{TraceConfig, Tracer};
//!
//! let mut t = Tracer::new(TraceConfig::full("demo"));
//! t.bind_topology(3, 2, vec![(0, 1), (1, 2)]);
//! let sp = t.open_span("flood");
//! t.record_round(4, 8, 2); // one simulator round: 4 msgs, 8 words, max 2/edge
//! t.add_edge_words(0, 6);
//! t.add_edge_words(1, 2);
//! t.close_span(sp);
//! let trace = t.finish();
//! assert_eq!(trace.total.rounds, 1);
//! assert_eq!(trace.span_rounds("flood"), 1);
//! assert_eq!(trace.hotspots[0].edge, 0); // heaviest edge first
//! let jsonl = trace.to_jsonl();
//! assert_eq!(lcg_trace::Trace::from_jsonl(&jsonl).unwrap(), trace);
//! ```
//!
//! [`RoundStats`]: https://docs.rs/lcg-congest

pub mod report;
pub mod trace;
mod tracer;

pub use trace::{FaultEvent, Hotspot, RoundSample, SpanRecord, Totals, Trace, TraceMeta};
pub use tracer::{SpanId, SpanState, TraceConfig, Tracer, TracerState};
