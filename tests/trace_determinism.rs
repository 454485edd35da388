//! The trace layer inherits the round engine's core guarantee: a traced
//! run's JSONL export is *byte-identical* at every thread count,
//! and matches a checked-in golden trace exactly.
//!
//! The golden file doubles as the sample input for the `trace-report`
//! CLI smoke test in CI. To re-bless after an intentional schema or
//! algorithm change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_determinism
//! ```

mod common;

use locongest::congest::ExecConfig;
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::gen;
use locongest::trace::{report, Trace};

/// The canonical traced pipeline: full tracing (series + hotspots) on a
/// small planar instance, at `threads` threads.
fn traced_jsonl(threads: usize) -> String {
    let mut rng = gen::seeded_rng(0x7ACE);
    let g = gen::random_planar(150, 0.5, &mut rng);
    let cfg = FrameworkConfig {
        trace: true,
        trace_top_k: 8,
        exec: ExecConfig::with_threads(threads),
        ..FrameworkConfig::planar(0.3, 13)
    };
    run_framework(&g, &cfg).trace.to_jsonl()
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    let baseline = traced_jsonl(1);
    for threads in [2, 4] {
        assert_eq!(
            traced_jsonl(threads),
            baseline,
            "{threads}-thread trace diverged from sequential"
        );
    }
}

#[test]
fn trace_matches_golden_file() {
    common::check_golden("planar_small_trace.jsonl", &traced_jsonl(1));
}

/// The golden trace (the bytes [`trace_matches_golden_file`] holds the
/// run to) must round-trip through the parser and render without
/// panicking — the same pair of operations the `trace-report` CLI performs.
#[test]
fn golden_trace_parses_and_renders() {
    let text = traced_jsonl(1);
    let trace = Trace::from_jsonl(&text).unwrap();
    assert_eq!(trace.to_jsonl(), text, "canonical form must be stable");
    let rendered = report::render(&trace);
    for phase in ["election", "orientation", "gathering", "broadcast"] {
        assert!(rendered.contains(phase), "report missing `{phase}`");
    }
    assert!(rendered.contains("hotspot"));
}
