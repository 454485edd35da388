//! The two-plane contract of `lcg-metrics`, end to end.
//!
//! The deterministic plane must serialize **byte-identically** at any
//! thread count — same counters, same gauges, same histogram
//! buckets, same JSON bytes — while the same run's profiling plane
//! records real wall time and peak RSS. And attaching metrics must change nothing: a metrics-off run is
//! bit-identical to the historical engine, which is why every golden
//! replays unchanged with zero re-blessing.

mod common;

use locongest::congest::ExecConfig;
use locongest::core::framework::{run_framework, run_framework_on, FrameworkConfig};
use locongest::expander::decomp::{decompose, Threshold};
use locongest::graph::gen;
use locongest::metrics::Report;

fn metered_run(threads: usize) -> Report {
    let mut rng = gen::seeded_rng(77);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let cfg = FrameworkConfig {
        metrics: true,
        exec: ExecConfig::with_threads(threads),
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
/// observe the real machine: nonzero wall time, per-phase timers, and a
/// readable RSS high-water mark.
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
}

/// Reports are per run, not per process: eight metered framework runs
/// overlapping on eight threads, each recording its own thread count,
/// must each time their own phases — every phase once, as a lone
/// run does — and agree on the deterministic plane.
#[test]
fn concurrent_metered_runs_keep_their_own_reports() {
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
    let phases = |report: &Report| report.profile.phases.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
    let lone = metered_run(1);
    for (threads, report) in &reports {
        assert_eq!(phases(report), phases(&lone), "phases of the {threads}-thread run");
        assert_eq!(report.deterministic_json(), lone.deterministic_json(), "deterministic plane at {threads} threads");
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
    let base = FrameworkConfig { exec: ExecConfig::with_threads(2), ..FrameworkConfig::planar(0.3, 13) };
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
        exec: ExecConfig::with_threads(2),
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

/// The stats and deterministic metrics JSON of a plain run and of phases
/// 2–5 on the paper's worst-case decomposition, as
/// `tests/golden/framework_metrics.txt` holds them: the recorder that times
/// the decomposition and the one `run_framework_on` starts must register
/// the same counters, bit for bit, at 1 and 3 threads.
#[test]
fn framework_runs_reproduce_the_blessed_metrics() {
    let mut rng = gen::seeded_rng(0x24);
    let g = gen::grid_with_noise(16, 16, 0.02, &mut rng);
    let render = |threads| {
        let cfg = FrameworkConfig {
            metrics: true,
            exec: ExecConfig::with_threads(threads),
            ..FrameworkConfig::planar(0.3, 6)
        };
        let paper = decompose(&g, cfg.epsilon / cfg.density_bound, Threshold::WorstCase, cfg.exec);
        [("run_framework", run_framework(&g, &cfg)), ("run_framework_on", run_framework_on(&g, paper, &cfg))]
            .iter()
            .map(|(name, out)| {
                let report = out.metrics.as_ref().expect("metrics: true always yields a report");
                format!("{name}\n{}\n{}\n", serde_json::to_string(&out.stats).unwrap(), report.deterministic_json())
            })
            .collect::<String>()
    };
    let got = render(1);
    common::check_golden("framework_metrics.txt", &got);
    assert_eq!(render(3), got, "a framework run diverged at 3 threads");
}
