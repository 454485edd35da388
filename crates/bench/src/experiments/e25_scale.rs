//! **E25** — the million-node scale tier: the flat-CSR engine on the
//! huge-sparse generator family (`lcg_graph::gen::{power_law,
//! bounded_arboricity, grid_with_noise}`).
//!
//! Three workloads, one per row:
//!
//! * **flood** — source flood to quiescence on a preferential-attachment
//!   power-law graph (O(log n) diameter, so the flood converges in a few
//!   dozen rounds even at n = 10⁶);
//! * **routing** — fixed-round 2-word token forwarding (the Lemma 2.4
//!   message shape) on a bounded-arboricity instance;
//! * **framework** — the full Theorem 2.6 decompose → solve → route
//!   pipeline on a planar-ish grid-with-noise instance.
//!
//! Every row reports the deterministic quantities (rounds, messages) next
//! to the quarantined profiling plane of the attached metrics recorder:
//! wall time and peak RSS come from `lcg_metrics`' profile section, never
//! from ad-hoc timers, so the numbers live behind the same two-plane wall
//! as every other profile figure in the repo.
//!
//! Options read: [`Opts::scale_n`] (`--scale-n`, vertex count override;
//! default 10⁵ quick / 10⁶ full), [`Opts::e25_metrics`]
//! (`--e25-metrics PATH`: the framework row's two-plane `metrics.json` is
//! written there; the CI `scale-smoke` lane uploads it as an artifact) and
//! [`Opts::exec`] (`--threads N`: the framework row's thread count; its
//! rounds and messages are the same at every count).

use lcg_congest::{Inbox, Model, Network, Outbox, RoundStats};
use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_graph::{gen, Graph};
use lcg_metrics::{ProfileReport, Recorder};

use crate::{cells, Opts, Table};

/// Per-vertex flood state: `informed` latches, `fresh` marks the one
/// round a newly informed vertex still has to gossip.
#[derive(Clone, Copy)]
struct FloodState {
    informed: bool,
    fresh: bool,
}

fn flood_to_quiescence(g: &Graph) -> (RoundStats, ProfileReport) {
    let mut net = Network::new(g, Model::congest());
    net.attach_metrics(Recorder::new("e25-flood"));
    let mut states = vec![FloodState { informed: false, fresh: false }; g.n()];
    states[0] = FloodState { informed: true, fresh: true };
    net.exchange_rounds(
        4 * g.n(),
        &mut states,
        |s, _round, _v, out| {
            if s.fresh {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
                s.fresh = false;
            }
        },
        |s, _round, _v, inbox: &Inbox| {
            if !s.informed && inbox.iter().any(Option::is_some) {
                s.informed = true;
                s.fresh = true;
            }
        },
        |s| !s.fresh,
    );
    assert!(states.iter().all(|s| s.informed), "flood must reach every vertex");
    let report = net.take_metrics().expect("recorder was attached").finish();
    (net.stats(), report.profile)
}

fn routing_fixed_rounds(g: &Graph, rounds: usize) -> (RoundStats, ProfileReport) {
    let mut net = Network::new(g, Model::congest());
    net.attach_metrics(Recorder::new("e25-routing"));
    let mut tokens: Vec<u64> = (0..g.n() as u64).collect();
    for round in 0..rounds as u64 {
        net.step_state(&mut tokens, |tok, v, inbox: &Inbox, out: &mut Outbox| {
            for m in inbox.iter().flatten() {
                *tok = (*tok).wrapping_add(m[0]).rotate_left((m[1] % 63) as u32 + 1);
            }
            if out.ports() > 0 {
                out.send((v + round as usize) % out.ports(), [*tok, round]);
            }
        });
    }
    let report = net.take_metrics().expect("recorder was attached").finish();
    (net.stats(), report.profile)
}

fn framework_run(g: &Graph, seed: u64, opts: &Opts) -> (RoundStats, ProfileReport) {
    let cfg = FrameworkConfig { metrics: true, exec: opts.exec, ..FrameworkConfig::planar(0.3, seed) };
    let out = run_framework(g, &cfg);
    let report = out.metrics.expect("metrics: true always yields a report");
    if let Some(path) = &opts.e25_metrics {
        std::fs::write(path, report.to_json()).expect("write --e25-metrics report");
    }
    (out.stats, report.profile)
}

/// Runs E25.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let n = opts.scale_n.unwrap_or_else(|| scale.pick(100_000, 1_000_000));
    let mut t = Table::new(
        "E25",
        &format!(
            "million-node scale tier (n = {n}): flat-CSR engine on the huge-sparse generator \
             family; wall time and peak RSS from the metrics profiling plane (quarantined — the \
             rounds/messages columns are the deterministic ones)"
        ),
        &["workload", "graph", "n", "m", "rounds", "messages", "wall ms", "peak RSS MB"],
    );
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let ms = |ns: u64| ns as f64 / 1e6;

    let pl = gen::power_law(n, 2, &mut gen::seeded_rng(0xE2501));
    let (stats, prof) = flood_to_quiescence(&pl);
    t.row(cells!(
        "flood",
        "power_law(k=2)",
        pl.n(),
        pl.m(),
        stats.rounds,
        stats.messages,
        format!("{:.1}", ms(prof.wall_ns)),
        format!("{:.0}", mb(prof.peak_rss_bytes))
    ));
    drop(pl);

    let ba = gen::bounded_arboricity(n, 3, &mut gen::seeded_rng(0xE2502));
    let rounds = scale.pick(8, 16);
    let (stats, prof) = routing_fixed_rounds(&ba, rounds);
    t.row(cells!(
        "routing",
        "bounded_arboricity(a=3)",
        ba.n(),
        ba.m(),
        stats.rounds,
        stats.messages,
        format!("{:.1}", ms(prof.wall_ns)),
        format!("{:.0}", mb(prof.peak_rss_bytes))
    ));
    drop(ba);

    // rows × cols ≈ n, close to square
    let rows = (n as f64).sqrt() as usize;
    let cols = n.div_ceil(rows);
    let gn = gen::grid_with_noise(rows, cols, 0.02, &mut gen::seeded_rng(0xE2503));
    let (stats, prof) = framework_run(&gn, 0xE25, opts);
    t.row(cells!(
        "framework",
        "grid_with_noise(2%)",
        gn.n(),
        gn.m(),
        stats.rounds,
        stats.messages,
        format!("{:.1}", ms(prof.wall_ns)),
        format!("{:.0}", mb(prof.peak_rss_bytes))
    ));

    vec![t]
}
