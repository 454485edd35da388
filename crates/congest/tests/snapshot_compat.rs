//! Wire compatibility of the engine snapshot format (DESIGN.md §14.1).
//!
//! `golden/engine_v1.lcgsnap` was written by the build *before* the tracer
//! state moved onto the one snapshot codec, from the fixed recipe below.
//! Every later build must load it, re-emit it byte for byte, and continue
//! it exactly like a run that never stopped — that is what "schema v1" means,
//! checked against a committed file instead of a hand-built scratch probe.
//!
//! Re-bless only together with a schema bump (`snapshot::SCHEMA`), and do
//! it with the build that is being replaced, so the file keeps proving
//! that an *older* writer's bytes still load:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lcg-congest --test snapshot_compat
//! ```

use std::path::PathBuf;

use lcg_congest::{ExecConfig, FaultPlan, Inbox, Model, Network, Outbox};
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

/// The recipe: a pooled 4×4 grid network with every optional section
/// live — a full tracer holding one closed annotated span and one still
/// open, a recorder, and a plan with drops, a link failure, a crash and
/// truncation — paused after three flood rounds. Returns the network, the
/// per-vertex states at the pause, and the handle of the open span.
fn recipe(g: &Graph) -> (Network<'_>, Vec<bool>, SpanId) {
    let exec = ExecConfig::with_threads(2).with_work_threshold(1);
    let mut net = Network::with_exec(g, Model::congest(), exec);
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

/// Everything after the file header (magic, u16-prefixed crate version,
/// u32 schema). The version string is diagnostic only, so a later crate
/// version re-emits the same *sections*, not the same header.
fn body(bytes: &[u8]) -> &[u8] {
    let vlen = usize::from(u16::from_le_bytes([bytes[8], bytes[9]]));
    &bytes[8 + 2 + vlen + 4..]
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
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, save(&straight)).expect("write golden");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); see the module docs before re-blessing")
    });
    let resumed = Network::resume_snapshot(&g, golden.as_slice()).expect("the golden must load");
    assert_eq!(body(&save(&resumed)), body(&golden), "re-save must be byte-identical");
    assert_eq!(body(&save(&straight)), body(&golden), "the recipe must still write the golden");

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
