//! The two-plane contract of `lcg-metrics`, end to end.
//!
//! The deterministic plane must serialize **byte-identically** at any
//! worker-thread count — same counters, same gauges, same histogram
//! buckets, same JSON bytes — while the same run's profiling plane
//! records real wall time, per-worker executor utilization, and peak
//! RSS. And attaching metrics must change nothing: a metrics-off run is
//! bit-identical to the historical engine, which is why every golden
//! replays unchanged with zero re-blessing.

use locongest::congest::ExecConfig;
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::gen;
use locongest::metrics::Report;

/// Forces `threads` workers regardless of the ambient `LCG_THREADS`,
/// with the parallel threshold floored so small graphs still fan out.
fn forced(threads: usize) -> ExecConfig {
    ExecConfig::with_threads(threads).with_work_threshold(1)
}

fn metered_run(threads: usize) -> Report {
    let mut rng = gen::seeded_rng(77);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let cfg = FrameworkConfig {
        metrics: true,
        exec: forced(threads),
        ..FrameworkConfig::planar(0.3, 13)
    };
    run_framework(&g, &cfg).metrics.expect("metrics: true always yields a report")
}

/// The acceptance bar of the two-plane design: one run per thread count,
/// deterministic JSON compared as raw bytes, profile plane live.
#[test]
fn deterministic_plane_is_byte_identical_across_thread_counts() {
    let reports: Vec<Report> = [1, 2, 4].iter().map(|&t| metered_run(t)).collect();
    let baseline = reports[0].deterministic_json();
    assert!(
        baseline.contains("\"net.messages\"") && baseline.contains("\"phase.election.rounds\""),
        "the deterministic plane must carry the logical counters: {baseline}"
    );
    assert!(
        !baseline.contains("profile") && !baseline.contains("wall_ns"),
        "the stripped view must not leak profiling keys: {baseline}"
    );
    for (i, report) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            report.deterministic_json(),
            baseline,
            "deterministic plane diverged between 1 thread and {} threads",
            [1, 2, 4][i]
        );
    }
    // the full report differs only by its profile section
    for report in &reports {
        assert_eq!(report.deterministic, reports[0].deterministic);
        assert_eq!(report.label, reports[0].label);
    }
}

/// The same run whose deterministic plane is byte-stable must still
/// observe the real machine: nonzero wall time, per-worker utilization
/// on the multithreaded run, and a readable RSS high-water mark.
#[test]
fn profile_plane_observes_real_time_and_memory() {
    let report = metered_run(4);
    let prof = &report.profile;
    assert!(prof.wall_ns > 0, "wall clock must advance during a framework run");
    assert!(prof.peak_rss_bytes > 0, "VmHWM must be readable on Linux");
    assert!(
        prof.phases.iter().any(|p| p.name == "election"),
        "phase timers must cover the framework phases: {:?}",
        prof.phases
    );
    assert_eq!(prof.exec.workers.len(), 4, "one sample slot per forced worker");
    assert!(prof.exec.batches > 0, "the executor must have sampled batches");
    assert!(
        prof.exec.workers.iter().any(|w| w.jobs > 0 && w.busy_ns > 0),
        "at least one worker must report busy time: {:?}",
        prof.exec.workers
    );
}

/// Executor samples are per run, not per process: eight metered framework
/// runs overlapping on eight threads, each with its own forced worker
/// count, must each report exactly their own workers — a shared sink would
/// show the widest run's slot count (or nothing, after a sibling drained
/// it) in the others.
#[test]
fn concurrent_metered_runs_keep_their_own_executor_samples() {
    let counts: Vec<usize> = (2..=9).collect();
    let start = std::sync::Barrier::new(counts.len());
    let reports: Vec<(usize, Report)> = std::thread::scope(|scope| {
        let handles: Vec<_> = counts
            .iter()
            .map(|&threads| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (threads, metered_run(threads))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("metered run panicked")).collect()
    });
    let baseline = reports[0].1.deterministic_json();
    for (threads, report) in &reports {
        let exec = &report.profile.exec;
        assert_eq!(exec.workers.len(), *threads, "run forced to {threads} workers: {exec:?}");
        assert!(exec.batches > 0, "the {threads}-worker run sampled no batch");
        assert!(
            exec.workers.iter().all(|w| w.jobs > 0),
            "every one of the {threads} workers ran jobs: {:?}",
            exec.workers
        );
        assert_eq!(report.deterministic_json(), baseline, "deterministic plane at {threads} threads");
    }
}

/// Metrics off is the historical engine, bit for bit: stats, phases,
/// and clustering all agree with a metrics-on run of the same instance,
/// and no report is attached. This is the zero-re-blessing guarantee
/// the goldens rely on.
#[test]
fn metrics_off_is_bit_identical_to_metrics_on() {
    let mut rng = gen::seeded_rng(77);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let base = FrameworkConfig { exec: forced(2), ..FrameworkConfig::planar(0.3, 13) };
    let plain = run_framework(&g, &base);
    let metered = run_framework(&g, &FrameworkConfig { metrics: true, ..base.clone() });
    assert!(plain.metrics.is_none());
    assert_eq!(plain.stats, metered.stats);
    assert_eq!(plain.phases, metered.phases);
    assert_eq!(plain.decomposition.cluster_of, metered.decomposition.cluster_of);
    assert_eq!(plain.decomposition.cut_edges, metered.decomposition.cut_edges);
}

/// Round-tripping the full report through JSON preserves both planes,
/// and the deterministic registry mirrors the engine's own accounting.
#[test]
fn report_roundtrips_and_mirrors_round_stats() {
    let mut rng = gen::seeded_rng(77);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let cfg = FrameworkConfig {
        metrics: true,
        exec: forced(2),
        ..FrameworkConfig::planar(0.3, 13)
    };
    let out = run_framework(&g, &cfg);
    let report = out.metrics.expect("metrics report");
    let back = Report::from_json(&report.to_json()).expect("roundtrip");
    assert_eq!(back, report);
    let det = &report.deterministic;
    assert_eq!(det.counter("net.rounds"), out.stats.rounds);
    assert_eq!(det.counter("net.messages"), out.stats.messages);
    assert_eq!(det.counter("net.words"), out.stats.words);
    assert_eq!(
        det.gauge("net.max_words_edge_round"),
        Some(out.stats.max_words_edge_round as u64)
    );
    let words_hist = det.histogram("net.words_per_round").expect("per-round histogram");
    assert_eq!(words_hist.sum, out.stats.words, "histogram sums the same words");
}
