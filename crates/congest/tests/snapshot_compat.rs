//! Wire compatibility of the engine snapshot format (DESIGN.md §14.1).
//!
//! `golden/engine_v1.lcgsnap` is a schema-1 file, written by an older build
//! from the fixed recipe below while snapshots still carried the `EXEC`
//! section (the thread count a network was built with). Schema 2 retired
//! that section, and this build must still load the v1 file, re-emit it
//! as schema 2 — the same sections, byte for byte, minus the `EXEC` frame —
//! and continue it exactly like a run that never stopped.
//!
//! The file is never re-blessed: no schema-2 build can write a v1 file. A
//! later schema bump adds its own golden, written by the build it replaces.

use std::path::PathBuf;

use lcg_congest::snapshot::SCHEMA;
use lcg_congest::{FaultPlan, Inbox, Model, Network, Outbox};
use lcg_graph::{gen, Graph};
use lcg_metrics::Recorder;
use lcg_trace::{SpanId, TraceConfig, Tracer};

const ROUNDS_BEFORE: usize = 3;
const ROUNDS_AFTER: usize = 3;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_v1.lcgsnap")
}

/// Two-word always-send flood: every informed vertex talks every round, so
/// `PEND` holds in-flight messages at the snapshot point and the plan's
/// one-word truncation has something to cut.
fn flood(me: &mut bool, v: usize, inbox: &Inbox, out: &mut Outbox) {
    if inbox.iter().any(Option::is_some) {
        *me = true;
    }
    if *me {
        for p in 0..out.ports() {
            out.send(p, [v as u64, 7]);
        }
    }
}

/// The recipe: a 4×4 grid network with every optional section live — a full tracer holding one closed annotated span and one still
/// open, a recorder, and a plan with drops, a link failure, a crash and
/// truncation — paused after three flood rounds. Returns the network, the
/// per-vertex states at the pause, and the handle of the open span.
fn recipe(g: &Graph) -> (Network<'_>, Vec<bool>, SpanId) {
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(Some(
        FaultPlan::drops(0xC0DEC, 0.2)
            .with_link_failure(5, 1, 4)
            .with_crash(9, 2)
            .with_truncation(1),
    ));
    let mut tracer = Tracer::new(TraceConfig::full("compat").with_top_k(4));
    let setup = tracer.open_span("setup");
    tracer.annotate(setup, "vertices", g.n() as u64);
    tracer.close_span(setup);
    let open = tracer.open_span("flood");
    tracer.annotate(open, "source", 0);
    net.attach_tracer(tracer);
    let mut rec = Recorder::new("compat");
    rec.counter_add("compat.setup", 16);
    net.attach_metrics(rec);
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    net.run_state(ROUNDS_BEFORE, &mut informed, flood);
    (net, informed, open)
}

fn save(net: &Network<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    net.save_snapshot(&mut buf).expect("serializing to a Vec cannot fail");
    buf
}

/// Length of the file header: magic, u16-prefixed crate version, u32
/// schema. The version string is diagnostic only, so a later crate version
/// re-emits the same *sections*, not the same header.
fn header_len(bytes: &[u8]) -> usize {
    8 + 2 + usize::from(u16::from_le_bytes([bytes[8], bytes[9]])) + 4
}

/// The schema number in the file header.
fn schema(bytes: &[u8]) -> u32 {
    let at = header_len(bytes) - 4;
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// Everything after the file header: the framed sections and terminator.
fn body(bytes: &[u8]) -> &[u8] {
    &bytes[header_len(bytes)..]
}

/// `body` with the one frame tagged `tag` (tag, length, payload, checksum)
/// cut out; panics if there is no such frame.
fn without_frame(body: &[u8], tag: &[u8; 4]) -> Vec<u8> {
    let mut at = 0;
    while at < body.len() {
        let len = u64::from_le_bytes(body[at + 4..at + 12].try_into().expect("eight bytes"));
        let end = at + 12 + usize::try_from(len).expect("frame fits") + 8;
        if &body[at..at + 4] == tag {
            return [&body[..at], &body[end..]].concat();
        }
        at = end;
    }
    panic!("no `{}` frame", String::from_utf8_lossy(tag));
}

/// Runs the tail on `net`, closes the open span, and renders everything a
/// continuation can be compared on.
fn finish(mut net: Network<'_>, mut informed: Vec<bool>, open: SpanId) -> (String, String, String, Vec<bool>) {
    net.run_state(ROUNDS_AFTER, &mut informed, flood);
    net.span_close(Some(open));
    let stats = format!("{:?}", net.stats());
    let trace = net.take_tracer().expect("tracer attached").finish().to_jsonl();
    let metrics = net.take_metrics().expect("recorder attached").finish().deterministic_json();
    (stats, trace, metrics, informed)
}

#[test]
fn parent_written_golden_loads_resaves_and_continues_identically() {
    let g = gen::grid(4, 4);
    let (straight, informed, open) = recipe(&g);
    let path = golden_path();
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); see the module docs"));
    assert_eq!(schema(&golden), 1, "the golden must stay the older writer's v1 file");
    let resumed = Network::resume_snapshot(&g, golden.as_slice()).expect("the golden must load");

    let want = without_frame(body(&golden), b"EXEC");
    let resaved = save(&resumed);
    assert_eq!(schema(&resaved), SCHEMA);
    assert_eq!(SCHEMA, 2);
    assert_eq!(body(&resaved), want, "re-save must be the golden minus its EXEC frame");
    let written = save(&straight);
    assert_eq!(schema(&written), SCHEMA);
    assert_eq!(body(&written), want, "the recipe must write the same body");

    let (stats, trace, metrics, states) = finish(straight, informed.clone(), open);
    let (r_stats, r_trace, r_metrics, r_states) = finish(resumed, informed, open);
    assert_eq!(r_stats, stats);
    assert_eq!(r_trace, trace);
    assert_eq!(r_metrics, metrics);
    assert_eq!(r_states, states);
    // the recipe must keep exercising what it claims to
    for kind in ["drop", "link", "crash", "trunc"] {
        assert!(trace.contains(&format!("\"kind\":\"{kind}\"")), "no `{kind}` fault event in the trace");
    }
    assert!(trace.contains("\"type\":\"hotspot\""), "no edge loads in the trace");
}
