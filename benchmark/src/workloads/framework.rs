//! `framework-gridnoise` and `framework-faithful`: Theorem 2.6 as a user
//! runs it, on a grid with 2 % short chords.

use lcg_congest::primitives::{self, Scope};
use lcg_congest::{ExecConfig, RoundStats};
use lcg_core::framework::{run_framework, FrameworkConfig, PhaseRounds};
use lcg_expander::decomp::ExpanderDecomposition;
use lcg_expander::routing::{self, RoutingOutcome};
use lcg_graph::{gen, Graph};
use lcg_trace::{TraceConfig, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{
    build_network, count_engine, decompose, decomposition_layers, engine_layers, ratio,
    stats_delta, Checks, Instance, Layers, Rep, Seeds,
};
use crate::spans::Spans;
use crate::spec::EPSILON;

pub const CHECKS: u64 = 6;

pub fn generate(side: usize, seeds: &Seeds) -> Graph {
    gen::grid_with_noise(side, side, 0.02, &mut gen::seeded_rng(seeds.generator))
}

fn config(inst: &Instance, faithful: bool, threads: usize) -> FrameworkConfig {
    FrameworkConfig {
        message_faithful: faithful,
        exec: ExecConfig::with_threads(threads),
        ..FrameworkConfig::planar(EPSILON, inst.seeds.algorithm)
    }
}

/// What the output checks look at, from either way of running the theorem.
struct Observed<'a> {
    decomposition: &'a ExpanderDecomposition,
    /// Per cluster: its gathering outcome and whether the flood agreed.
    clusters: Vec<(RoutingOutcome, bool)>,
    phases: PhaseRounds,
    stats: RoundStats,
}

impl Observed<'_> {
    fn check(&self, g: &Graph, checks: &mut Checks) {
        let d = self.decomposition;
        checks.check("decomposition.validate", d.validate(g).is_ok());
        checks.check(
            "cut edges <= eps*min(n,m)",
            d.cut_edges.len() as f64 <= EPSILON * g.n().min(g.m()) as f64,
        );
        checks.check(
            "every cluster gathered completely",
            self.clusters.iter().all(|(r, _)| r.complete()),
        );
        checks.check(
            "every election agrees",
            self.clusters.iter().all(|&(_, agrees)| agrees),
        );
        let p = self.phases;
        checks.check(
            "phase rounds sum to stats.rounds",
            p.election + p.orientation + p.gathering + p.broadcast == self.stats.rounds,
        );
        checks.check(
            "max_words_edge_round <= 2",
            self.stats.max_words_edge_round <= 2,
        );
    }

    fn rep(&self) -> Rep {
        let (p, s) = (self.phases, self.stats);
        Rep {
            rounds: s.rounds,
            msgs: s.messages,
            words: s.words,
            fingerprint: vec![
                p.election,
                p.orientation,
                p.gathering,
                p.broadcast,
                s.max_words_edge_round as u64,
                self.decomposition.k() as u64,
                self.decomposition.cut_edges.len() as u64,
            ],
        }
    }
}

pub fn run(
    inst: &Instance,
    faithful: bool,
    threads: usize,
    staged: bool,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Rep {
    let g = inst.load(spans);
    let cfg = config(inst, faithful, threads);
    if staged {
        return run_staged(&g, &cfg, spans, checks);
    }
    let out = spans.scope("core.run_framework", |_| run_framework(&g, &cfg));
    let observed = Observed {
        decomposition: &out.decomposition,
        clusters: out
            .clusters
            .iter()
            .map(|c| (c.routing, c.election_agrees))
            .collect(),
        phases: out.phases,
        stats: out.stats,
    };
    spans.scope("validate", |_| observed.check(&g, checks));
    observed.rep()
}

/// The stages of `run_framework`, called one by one in its order with its
/// arguments, each under a span. The glue between the calls (degree scans,
/// leader choice, token counts) mirrors `framework.rs` and is what
/// `core.framework_self_ms` estimates.
fn run_staged(g: &Graph, cfg: &FrameworkConfig, spans: &mut Spans, checks: &mut Checks) -> Rep {
    let m = g.m();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let decomposition = decompose(spans, g, cfg.epsilon / cfg.density_bound);
    let cluster_of = &decomposition.cluster_of;

    let members = spans.scope("congest.cluster_members", |_| {
        primitives::cluster_members(cluster_of)
    });
    let mut diam_bound = 0usize;
    let mut subs = Vec::new();
    for cluster in members.values() {
        let (sub, mapping) = spans.scope("graph.induced_subgraph", |_| g.induced_subgraph(cluster));
        diam_bound = diam_bound.max(spans.scope("graph.diameter", |_| sub.diameter().unwrap_or(0)));
        subs.push((sub, mapping));
    }
    let intra = |v: usize| {
        g.neighbor_vertices(v)
            .filter(move |&u| cluster_of[u] == cluster_of[v])
    };
    let degrees: Vec<u64> = (0..g.n()).map(|v| intra(v).count() as u64).collect();

    let mut net = build_network(spans, g, cfg.exec);
    // run_framework always attaches a spans-only tracer; so does the replay,
    // so both engines do the same work per round
    net.attach_tracer(Tracer::new(TraceConfig::spans_only("framework")));

    let elected = spans.scope("congest.max_flood", |s| {
        let r = primitives::max_flood(&mut net, &degrees, diam_bound, Scope::Intra(cluster_of));
        count_engine(s, &net.stats(), m);
        r
    });
    let election = net.stats();
    let layer = spans.scope("congest.h_partition", |s| {
        let max_layers = 4 * ((g.n().max(2) as f64).log2().ceil() as usize) + 8;
        let r = primitives::h_partition_distributed(
            &mut net,
            cfg.density_bound,
            1.0,
            max_layers,
            Scope::Intra(cluster_of),
        );
        count_engine(s, &stats_delta(&net.stats(), &election), m);
        r
    });
    let orientation = stats_delta(&net.stats(), &election);
    let out_deg: Vec<usize> = (0..g.n())
        .map(|v| {
            let lv = layer[v].unwrap_or(usize::MAX);
            intra(v)
                .filter(|&u| {
                    let lu = layer[u].unwrap_or(usize::MAX);
                    lv < lu || (lv == lu && v < u)
                })
                .count()
        })
        .collect();

    let mut clusters = Vec::new();
    let mut gathering = 0u64;
    let mut stats = net.stats();
    for (sub, mapping) in &subs {
        let leader = mapping
            .iter()
            .copied()
            .max_by_key(|&v| (degrees[v], v))
            .expect("clusters are non-empty");
        let agrees = mapping.iter().all(|&v| elected[v].1 == leader);
        let counts: Vec<usize> = mapping.iter().map(|&v| 1 + out_deg[v]).collect();
        let total = counts.iter().sum();
        let outcome = if sub.n() <= 1 {
            RoutingOutcome {
                delivered: total,
                total,
                steps: 0,
                rounds: 0,
                max_edge_load: 0,
            }
        } else if cfg.message_faithful {
            let mut cluster_net = build_network(spans, g, cfg.exec);
            let (outcome, traffic) = spans.scope("expander.net_walk_routing", |s| {
                let r = routing::network_walk_routing_with_counts(
                    &mut cluster_net,
                    mapping,
                    leader,
                    &counts,
                    cfg.max_walk_steps,
                    &mut rng,
                );
                count_engine(s, &r.1, m);
                count_routing(s, &r.0);
                r
            });
            stats.merge(&RoundStats {
                rounds: 0,
                ..traffic
            });
            outcome
        } else {
            spans.scope("expander.walk_routing", |s| {
                let r = routing::random_walk_routing_with_counts_exec(
                    g,
                    mapping,
                    leader,
                    &counts,
                    cfg.max_walk_steps,
                    &mut rng,
                    cfg.exec,
                );
                count_routing(s, &r);
                r
            })
        };
        gathering = gathering.max(outcome.rounds);
        clusters.push((outcome, agrees));
    }
    // clusters gather in parallel and the broadcast reverses the gathering
    stats.rounds += 2 * gathering;

    let observed = Observed {
        decomposition: &decomposition,
        clusters,
        phases: PhaseRounds {
            election: election.rounds,
            orientation: orientation.rounds,
            gathering,
            broadcast: gathering,
        },
        stats,
    };
    spans.scope("validate", |_| observed.check(g, checks));
    observed.rep()
}

fn count_routing(spans: &mut Spans, r: &RoutingOutcome) {
    spans.count("steps", r.steps as u64);
    spans.count("charged_rounds", r.rounds);
    spans.count("delivered", r.delivered as u64);
    spans.count("injected", r.total as u64);
}

/// Per-layer metrics from the `direct`, `pipeline` and `pipeline_t2` spans
/// of this instance, plus one more `run_framework` with the full trace on
/// and one with the metrics report on to price the two observers.
pub fn layers(inst: &Instance, faithful: bool, spans: &mut Spans, layers: &mut Layers) {
    let g = inst.load(&mut Spans::disabled());
    let cfg = config(inst, faithful, 1);
    let traced = spans.scope("trace.run_framework", |_| {
        run_framework(
            &g,
            &FrameworkConfig {
                trace: true,
                ..cfg.clone()
            },
        )
    });
    let jsonl = spans.scope("trace.to_jsonl", |_| traced.trace.to_jsonl());
    let metered = spans.scope("metrics.run_framework", |_| {
        run_framework(
            &g,
            &FrameworkConfig {
                metrics: true,
                ..cfg
            },
        )
    });
    let report = metered.metrics.expect("metrics: true yields a report");
    let report_json = report.to_json();

    let (direct, pipeline, pipeline_t2, extra) = (
        spans.root("direct"),
        spans.root("pipeline"),
        spans.root("pipeline_t2"),
        spans.root("attribution"),
    );
    let ms = |name: &str| spans.ms_in(pipeline, name);
    let sum = |name: &str, key: &str| spans.sum_in(pipeline, name, key) as f64;

    let framework_ms = spans.ms_in(direct, "core.run_framework");
    layers.set("core.framework_ms", framework_ms);
    let children = [
        "expander.decompose_adaptive",
        "congest.cluster_members",
        "graph.induced_subgraph",
        "graph.diameter",
        "congest.build",
        "congest.max_flood",
        "congest.h_partition",
        "expander.walk_routing",
        "expander.net_walk_routing",
    ];
    layers.set(
        "core.framework_self_ms",
        framework_ms - children.iter().map(|c| ms(c)).sum::<f64>(),
    );
    layers.set("core.validate_ms", ms("validate"));

    layers.set("graph.induced_ms", ms("graph.induced_subgraph"));
    layers.set("graph.diameter_ms", ms("graph.diameter"));

    decomposition_layers(spans, pipeline, &traced.decomposition, layers);
    let walk = if faithful {
        "expander.net_walk_routing"
    } else {
        "expander.walk_routing"
    };
    layers.set(
        if faithful {
            "expander.net_routing_ms"
        } else {
            "expander.routing_ms"
        },
        ms(walk),
    );
    layers.set("expander.routing_steps", sum(walk, "steps"));
    layers.set("expander.routing_rounds", sum(walk, "charged_rounds"));
    layers.set(
        "expander.routing_ns_per_step",
        ratio(ms(walk) * 1e6, sum(walk, "steps")),
    );
    layers.set(
        "expander.routing_delivered_frac",
        ratio(sum(walk, "delivered"), sum(walk, "injected")),
    );

    layers.set("congest.build_ms", ms("congest.build"));
    layers.set(
        "congest.build_ns_per_slot",
        ratio(ms("congest.build") * 1e6, sum("congest.build", "slots")),
    );
    layers.set("congest.election_ms", ms("congest.max_flood"));
    layers.set("congest.orientation_ms", ms("congest.h_partition"));
    // the message-faithful router steps a Network from inside its closure:
    // seen from outside, router and engine are one span
    let engine: &[&str] = if faithful {
        &[
            "congest.max_flood",
            "congest.h_partition",
            "expander.net_walk_routing",
        ]
    } else {
        &["congest.max_flood", "congest.h_partition"]
    };
    engine_layers(spans, pipeline, pipeline_t2, engine, layers);

    layers.set(
        "trace.full_overhead_frac",
        ratio(spans.ms_in(extra, "trace.run_framework"), framework_ms) - 1.0,
    );
    layers.set("trace.export_ms", spans.ms_in(extra, "trace.to_jsonl"));
    layers.set("trace.jsonl_bytes", jsonl.len() as f64);
    layers.set(
        "metrics.overhead_frac",
        ratio(spans.ms_in(extra, "metrics.run_framework"), framework_ms) - 1.0,
    );
    layers.set("metrics.report_bytes", report_json.len() as f64);
    // against the wall seen from outside: the recorder starts its own clock
    // only after the decomposition
    let phase_ms = report.profile.phases.iter().map(|p| p.wall_ns).sum::<u64>() as f64 / 1e6;
    layers.set(
        "metrics.phase_sum_frac",
        ratio(phase_ms, spans.ms_in(extra, "metrics.run_framework")),
    );
}
