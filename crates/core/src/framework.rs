//! **Theorem 2.6** — the paper's core framework.
//!
//! Given ε, partition an H-minor-free network so that (i) at most
//! `ε·min(|V|, |E|)` edges cross clusters, and (ii) each cluster has a
//! leader `v_i*` that learns the entire topology of `G[V_i]` and can
//! exchange an `O(log n)`-bit message with every cluster member.
//!
//! The theorem *consumes* an (ε, φ) decomposition — Theorems 2.1/2.2 are a
//! black box it cites — and the code is cut at the same joint:
//! [`run_framework_on`] is phases 2–5 on whatever decomposition it is
//! handed, [`run_framework`] computes the default one first. The phases and
//! their round accounting (every phase that communicates runs in the
//! `lcg-congest` simulator or is charged its measured cost):
//!
//! 1. **Decomposition** (Theorem 2.1, substituted per DESIGN.md): computed
//!    by the sequential reference algorithm (`decompose_adaptive` with
//!    `ε' = ε / t`); its Θ(ε^{-O(1)} log^{O(1)} n) construction rounds are
//!    *not* charged — every other phase's are.
//! 2. **Leader election** (§2.3 proof): `b` rounds of max-degree flooding
//!    inside each cluster, `b` = max cluster diameter; real 2-word
//!    messages.
//! 3. **Orientation** (Barenboim–Elkin): distributed H-partition peeling,
//!    one round per layer, so each vertex owns `O(1)` edges to ship.
//! 4. **Gathering** (Lemma 2.4): every vertex routes `1 + outdeg(v)`
//!    2-word messages to the leader by lazy random walks; rounds charged
//!    are the measured per-step maximum edge loads, summed.
//! 5. **Broadcast** (reversal, as in the paper): charged the same number
//!    of rounds as gathering.

use lcg_congest::primitives::{self, Scope};
use lcg_congest::{ExecConfig, FaultPlan, Model, Network, RoundStats};
use lcg_expander::decomp::{self, ExpanderDecomposition};
use lcg_expander::routing;
use lcg_graph::Graph;
use lcg_metrics::{Recorder, Report};
use lcg_trace::{Trace, TraceConfig, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of a framework run.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// The ε of Theorem 2.6 (cut-edge budget, relative to min(|V|, |E|)).
    pub epsilon: f64,
    /// Edge-density bound `t` of the minor-closed class (3 for planar,
    /// 2 for outerplanar, 1 for forests, `k` for treewidth-k, ...). The
    /// decomposition [`run_framework`] computes runs with `ε' = ε / t`
    /// exactly as in the theorem.
    pub density_bound: f64,
    /// RNG seed of the routing walks (the decomposition ignores it).
    pub seed: u64,
    /// Cap on lazy-walk steps per routing execution.
    pub max_walk_steps: usize,
    /// Execute the gathering phase with **real messages** in the simulator
    /// (`network_walk_routing_with_counts`: every token a 2-word message,
    /// capacity-enforced) instead of the charged-cost walk. Slower but
    /// fully message-faithful; Experiment E17 shows the two agree within
    /// a factor ≈ 2.
    pub message_faithful: bool,
    /// Worker threads for the simulator and the walk phases. Never changes
    /// results — the engine is bit-deterministic for every thread count —
    /// only wall-clock. Defaults to [`ExecConfig::from_env`] (`LCG_THREADS`).
    pub exec: ExecConfig,
    /// Record a **full** trace: per-round time series, per-edge load
    /// histogram with hotspots, and per-cluster routing spans (see
    /// `FrameworkOutcome::trace`). When `false` (the default) only the
    /// phase spans are recorded — a handful of integer updates per round,
    /// zero allocations — and the result's trace carries the span tree
    /// but no series or hotspots. Never changes results or `stats`.
    pub trace: bool,
    /// Hotspot edges kept in the trace (ignored unless `trace`).
    pub trace_top_k: usize,
    /// Record a two-plane metrics report (`FrameworkOutcome::metrics`):
    /// deterministic counters/gauges/histograms for the logical quantities
    /// of the run, plus the quarantined profiling plane (per-phase wall
    /// time, executor utilization, peak RSS). Like `trace`, observation
    /// only: never changes results, `stats`, or the trace.
    pub metrics: bool,
    /// Fault schedule injected into every communicating phase (election,
    /// orientation, gathering — both the charged-walk and message-faithful
    /// routers). `None` (the default) and [`FaultPlan::is_vacuous`] plans
    /// are bit-identical to the fault-free engine. Under active faults the
    /// run still terminates and reports honestly — elections may disagree
    /// ([`ClusterRun::election_agrees`]), routing may be incomplete — and
    /// the §2.3 detectors plus [`crate::recovery::run_framework_resilient`]
    /// turn those reports into retries.
    pub faults: Option<FaultPlan>,
}

impl FrameworkConfig {
    /// Standard configuration for planar inputs.
    pub fn planar(epsilon: f64, seed: u64) -> FrameworkConfig {
        FrameworkConfig {
            epsilon,
            density_bound: 3.0,
            seed,
            max_walk_steps: 2_000_000,
            message_faithful: false,
            exec: ExecConfig::from_env(),
            trace: false,
            trace_top_k: 10,
            metrics: false,
            faults: None,
        }
    }

    /// Configuration for a general H-minor-free class with density `t`.
    pub fn minor_free(epsilon: f64, density_bound: f64, seed: u64) -> FrameworkConfig {
        FrameworkConfig {
            density_bound,
            ..FrameworkConfig::planar(epsilon, seed)
        }
    }
}

/// One cluster, ready for its leader to solve problems on.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Cluster id (index into `FrameworkOutcome::clusters`).
    pub id: usize,
    /// The elected max-degree leader `v_i*` (host id).
    pub leader: usize,
    /// The induced subgraph `G[V_i]` the leader reconstructed.
    pub subgraph: Graph,
    /// The cluster's host-graph vertices, sorted: `mapping[local] = host`
    /// translates a vertex of `subgraph`.
    pub mapping: Vec<usize>,
    /// Did the max-degree flood elect this leader at *every* member?
    /// Always `true` in a fault-free run (asserted in debug builds); under
    /// an active [`FrameworkConfig::faults`] plan, dropped flood messages
    /// can leave members with a stale candidate — the §2.3 detectors treat
    /// `false` as a failed execution.
    pub election_agrees: bool,
    /// Gathering statistics for this cluster.
    pub routing: routing::RoutingOutcome,
}

/// Result of running the Theorem 2.6 framework.
#[derive(Debug, Clone)]
pub struct FrameworkOutcome {
    /// The (ε', φ) decomposition used.
    pub decomposition: ExpanderDecomposition,
    /// Per-cluster data.
    pub clusters: Vec<ClusterRun>,
    /// The `b` of §2.3: the largest cluster diameter, measured. The
    /// election flooded for this many rounds, and the diameter detector of
    /// a successful execution checks clusters against it.
    pub diameter_bound: usize,
    /// Rounds/messages measured across all communicating phases.
    pub stats: RoundStats,
    /// Phase breakdown of the rounds in `stats`, derived from the span
    /// tree in `trace` (the four top-level spans partition the run).
    pub phases: PhaseRounds,
    /// The round trace: phase spans always; per-round series, per-cluster
    /// routing spans, and congestion hotspots when `FrameworkConfig::trace`
    /// was set. Export with `Trace::to_jsonl`.
    pub trace: Trace,
    /// The two-plane metrics report when `FrameworkConfig::metrics` was
    /// set: deterministic plane byte-identical at any thread count,
    /// profiling plane (wall time, executor utilization, peak RSS)
    /// explicitly nondeterministic. Export with `Report::to_json`.
    pub metrics: Option<Report>,
}

/// Round counts per framework phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseRounds {
    /// Leader election (max-degree flood).
    pub election: u64,
    /// Distributed low-out-degree orientation.
    pub orientation: u64,
    /// Topology gathering via expander routing.
    pub gathering: u64,
    /// Result broadcast (reversed routing).
    pub broadcast: u64,
}

impl FrameworkOutcome {
    /// Cluster id of a host vertex.
    pub fn cluster_of(&self, v: usize) -> usize {
        self.decomposition.cluster_of[v]
    }

    /// Number of inter-cluster edges.
    pub fn cut_edges(&self) -> usize {
        self.decomposition.cut_edges.len()
    }
}

/// Checks `cfg`'s ε and `t`, then computes the decomposition
/// [`run_framework`] runs on: `decompose_adaptive` with `ε' = ε / t`.
/// With `cfg.metrics` on, also returns the run's recorder with the
/// decomposition timed on its profiling plane — it charges no rounds and so
/// has no span, but is most of the wall time at charged-walk sizes.
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)` or `density_bound < 1`.
pub(crate) fn decompose_timed(
    g: &Graph,
    cfg: &FrameworkConfig,
) -> (ExpanderDecomposition, Option<Recorder>) {
    assert!(cfg.epsilon > 0.0 && cfg.epsilon < 1.0, "epsilon must be in (0,1)");
    assert!(cfg.density_bound >= 1.0, "density bound must be >= 1");
    let mut recorder = cfg.metrics.then(|| Recorder::new("framework"));
    if let Some(rec) = recorder.as_mut() {
        rec.phase_start("decomposition");
    }
    let decomposition = decomp::decompose_adaptive(g, cfg.epsilon / cfg.density_bound);
    if let Some(rec) = recorder.as_mut() {
        rec.phase_end("decomposition");
    }
    (decomposition, recorder)
}

/// Runs the Theorem 2.6 pipeline on `g`: the (ε/t, φ) decomposition of
/// `decompose_adaptive` (phase 1, substituted), then [`run_framework_on`].
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)` or `density_bound < 1`.
pub fn run_framework(g: &Graph, cfg: &FrameworkConfig) -> FrameworkOutcome {
    let (decomposition, recorder) = decompose_timed(g, cfg);
    run_framework_timed(g, decomposition, recorder, cfg)
}

/// Phases 2–5 of Theorem 2.6 on a decomposition the caller supplies — the
/// theorem consumes an (ε, φ) decomposition, it does not say whose. Every
/// result is a function of `(g, decomposition, cfg)`; `cfg.epsilon` and
/// `cfg.density_bound` are not re-checked against the decomposition
/// (`density_bound` still sets the orientation's forest threshold).
///
/// # Examples
///
/// ```
/// use lcg_core::framework::{run_framework, run_framework_on, FrameworkConfig};
/// use lcg_expander::decomp::decompose;
/// use lcg_graph::gen;
///
/// let g = gen::grid(12, 12);
/// let cfg = FrameworkConfig::planar(0.3, 7);
/// // decompose_adaptive(g, ε/t), then election, orientation, gathering
/// let fw = run_framework(&g, &cfg);
/// // the same phases on the paper's worst-case φ = Θ(ε / log n) instead
/// let paper = decompose(&g, cfg.epsilon / cfg.density_bound);
/// let on_paper = run_framework_on(&g, paper, &cfg);
/// assert!(on_paper.clusters.len() <= fw.clusters.len());
/// ```
///
/// # Panics
///
/// Panics if `decomposition` does not assign a cluster to each of `g`'s
/// vertices ("decomposition is not of this graph").
pub fn run_framework_on(
    g: &Graph,
    decomposition: ExpanderDecomposition,
    cfg: &FrameworkConfig,
) -> FrameworkOutcome {
    run_framework_timed(g, decomposition, None, cfg)
}

/// [`run_framework_on`], continuing the recorder that timed the
/// decomposition when this run is the one that computed it. Metrics are
/// opt-in, and like tracing are observation only: with a recorder attached
/// the deterministic registry mirrors the logical counters while the
/// profiling plane times the same phase boundaries the spans mark.
pub(crate) fn run_framework_timed(
    g: &Graph,
    decomposition: ExpanderDecomposition,
    timed: Option<Recorder>,
    cfg: &FrameworkConfig,
) -> FrameworkOutcome {
    assert_eq!(decomposition.cluster_of.len(), g.n(), "decomposition is not of this graph");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    let mut net = Network::with_exec(g, Model::congest(), cfg.exec);
    // The tracer is always attached: spans are how PhaseRounds is
    // measured. Series/edge-load recording is the opt-in part.
    net.attach_tracer(Tracer::new(if cfg.trace {
        TraceConfig::full("framework").with_top_k(cfg.trace_top_k)
    } else {
        TraceConfig::spans_only("framework")
    }));
    if let Some(rec) = timed.or_else(|| cfg.metrics.then(|| Recorder::new("framework"))) {
        net.attach_metrics(rec);
    }
    net.set_fault_plan(cfg.faults.clone());
    // A vacuous plan exercises the fault-adjudicating delivery sweep but
    // changes nothing (bit-verified in lcg-congest); only an *active* plan
    // relaxes the fault-free invariants below.
    let faults_active = cfg.faults.as_ref().is_some_and(|f| !f.is_vacuous());
    let cluster_of = decomposition.cluster_of.clone();

    // Phase 2: leader election. b = max cluster diameter (each G[V_i] has
    // diameter O(φ^{-1} log n); we use the measured bound).
    let mut diam_bound = 0usize;
    let mut subs: Vec<(Graph, Vec<usize>)> = Vec::new();
    for info in &decomposition.clusters {
        let (sub, mapping) = g.induced_subgraph(&info.members);
        diam_bound = diam_bound.max(sub.diameter().unwrap_or(0));
        subs.push((sub, mapping));
    }
    // degree within the cluster graph G_i (cut edges excluded)
    let degrees: Vec<u64> = (0..g.n())
        .map(|v| g.neighbor_vertices(v).filter(|&u| cluster_of[u] == cluster_of[v]).count() as u64)
        .collect();
    let elected = net.phase("election", |net| {
        primitives::max_flood(net, &degrees, diam_bound, Scope::Intra(&cluster_of))
    });

    // Phase 3: distributed orientation (so each vertex ships O(1) edges).
    let max_layers = 4 * ((g.n().max(2) as f64).log2().ceil() as usize) + 8;
    let layer = net.phase("orientation", |net| {
        primitives::h_partition_distributed(net, cfg.density_bound, 1.0, max_layers, Scope::Intra(&cluster_of))
    });
    // out-edges: lower layer -> higher layer (ties by id), intra-cluster
    let out_deg: Vec<usize> = (0..g.n())
        .map(|v| {
            g.neighbor_vertices(v)
                .filter(|&u| cluster_of[u] == cluster_of[v])
                .filter(|&u| {
                    let lv = layer[v].unwrap_or(usize::MAX);
                    let lu = layer[u].unwrap_or(usize::MAX);
                    lv < lu || (lv == lu && v < u)
                })
                .count()
        })
        .collect();

    // Phases 4-5: gather topology to each leader, then broadcast back.
    // Clusters run in parallel: charge the maximum over clusters.
    let mut clusters = Vec::new();
    let mut gather_rounds = 0u64;
    let mut faithful_traffic = RoundStats::default();
    net.phase("gathering", |net| {
        for (cid, (sub, mapping)) in subs.into_iter().enumerate() {
            let leader = mapping
                .iter()
                .copied()
                .max_by_key(|&v| (degrees[v], v))
                .expect("decomposition clusters are non-empty");
            // sanity: the flood elects the same leader everywhere — unless an
            // active fault plan dropped flood messages, in which case the
            // disagreement is *recorded* for the §2.3 detectors, not asserted.
            let election_agrees = mapping.iter().all(|&v| elected[v].1 == leader);
            debug_assert!(
                faults_active || election_agrees,
                "fault-free election must agree on the max-degree leader"
            );
            let counts: Vec<usize> = mapping.iter().map(|&v| 1 + out_deg[v]).collect();
            let routing_outcome = if sub.n() <= 1 {
                routing::RoutingOutcome {
                    delivered: counts.iter().sum(),
                    total: counts.iter().sum(),
                    steps: 0,
                    rounds: 0,
                    max_edge_load: 0,
                }
            } else if cfg.message_faithful {
                // run this cluster's routing on its own network (clusters run
                // in parallel; rounds take the max, traffic sums)
                let mut cluster_net = Network::with_exec(g, Model::congest(), cfg.exec);
                if cfg.trace {
                    // the cluster net shares the host graph, so its per-edge
                    // loads merge 1:1 into the main tracer's table
                    cluster_net.attach_tracer(Tracer::new(TraceConfig::hotspots_only("cluster")));
                }
                // same host graph, same edge ids: the fault schedule applies
                // to the cluster's traffic exactly as it would on the host
                cluster_net.set_fault_plan(cfg.faults.clone());
                let (outcome, rstats) = routing::network_walk_routing_with_counts(
                    &mut cluster_net,
                    &mapping,
                    leader,
                    &counts,
                    cfg.max_walk_steps,
                    &mut rng,
                );
                if let Some(cluster_tracer) = cluster_net.take_tracer() {
                    if let Some(t) = net.tracer_mut() {
                        t.merge_edge_words_from(&cluster_tracer);
                    }
                }
                // clusters run in parallel: rounds are charged once below, as
                // the max; everything else sums
                faithful_traffic.merge(&RoundStats { rounds: 0, ..rstats });
                outcome
            } else {
                // One charged walk whatever is being observed: an active plan
                // adjudicates each crossing (killed tokens consumed their
                // bandwidth; the outcome honestly reports the shortfall for
                // the §2.3 reversal detector), a full trace asks for the
                // host-edge loads of the hotspot table. Same single rng draw
                // and same trajectories in every combination.
                let (outcome, loads) = routing::charged_walk_routing(
                    g,
                    &mapping,
                    leader,
                    &counts,
                    cfg.max_walk_steps,
                    &mut rng,
                    cfg.exec,
                    cfg.faults.as_ref().filter(|_| faults_active),
                    cfg.trace,
                );
                if let Some(t) = net.tracer_mut() {
                    for (e, w) in loads {
                        t.add_edge_words(e, w);
                    }
                }
                outcome
            };
            gather_rounds = gather_rounds.max(routing_outcome.rounds);
            if cfg.trace {
                // zero-round child span carrying this cluster's routing budget
                // (rounds are charged once after the loop, as the max)
                let csp = net.span_open("cluster");
                if let (Some(id), Some(t)) = (csp, net.tracer_mut()) {
                    t.annotate(id, "cluster", cid as u64);
                    t.annotate(id, "members", mapping.len() as u64);
                    t.annotate(id, "rounds", routing_outcome.rounds);
                    t.annotate(id, "steps", routing_outcome.steps as u64);
                    t.annotate(id, "max_edge_load", routing_outcome.max_edge_load as u64);
                    t.annotate(id, "delivered", routing_outcome.delivered as u64);
                }
                net.span_close(csp);
            }
            clusters.push(ClusterRun {
                id: cid,
                leader,
                subgraph: sub,
                mapping,
                election_agrees,
                routing: routing_outcome,
            });
        }
        net.charge_rounds(gather_rounds);
        if cfg.message_faithful {
            // the per-cluster networks' traffic (rounds were charged above)
            net.charge_stats(&faithful_traffic);
        }
    });

    // broadcast = reversed routing (same cost, as in the paper)
    net.phase("broadcast", |net| net.charge_rounds(gather_rounds));

    let metrics_recorder = net.take_metrics();
    let stats = net.stats();
    let trace = net.take_tracer().expect("tracer attached at run start").finish();
    // PhaseRounds is derived from the span tree: the four top-level spans
    // partition the run, so their round counts must sum to stats.rounds.
    let phases = PhaseRounds {
        election: trace.span_rounds("election"),
        orientation: trace.span_rounds("orientation"),
        gathering: trace.span_rounds("gathering"),
        broadcast: trace.span_rounds("broadcast"),
    };
    debug_assert_eq!(
        phases.election + phases.orientation + phases.gathering + phases.broadcast,
        stats.rounds,
        "phase spans must partition the run's rounds"
    );
    // Seal the metrics report with the run-level deterministic facts: the
    // clustering shape and the per-phase round budget read off the trace.
    let metrics = metrics_recorder.map(|mut rec| {
        rec.gauge_set("framework.vertices", g.n() as u64);
        rec.gauge_set("framework.edges", g.m() as u64);
        rec.gauge_set("framework.clusters", clusters.len() as u64);
        rec.gauge_set("framework.cut_edges", decomposition.cut_edges.len() as u64);
        rec.counter_add("phase.election.rounds", phases.election);
        rec.counter_add("phase.orientation.rounds", phases.orientation);
        rec.counter_add("phase.gathering.rounds", phases.gathering);
        rec.counter_add("phase.broadcast.rounds", phases.broadcast);
        rec.finish()
    });
    FrameworkOutcome {
        decomposition,
        clusters,
        diameter_bound: diam_bound,
        stats,
        phases,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn framework_on_planar_graph() {
        let mut rng = gen::seeded_rng(210);
        let g = gen::stacked_triangulation(120, &mut rng);
        let cfg = FrameworkConfig::planar(0.3, 7);
        let out = run_framework(&g, &cfg);
        out.decomposition.validate(&g).unwrap();
        // Theorem 2.6 cut bound: ε·min(|V|, |E|)
        let bound = 0.3 * (g.n().min(g.m()) as f64);
        assert!(
            (out.cut_edges() as f64) <= bound,
            "{} cut edges > {bound}",
            out.cut_edges()
        );
        // every cluster gathered completely
        for c in &out.clusters {
            assert!(c.routing.complete(), "cluster {} incomplete", c.id);
            assert!(c.mapping.contains(&c.leader));
        }
        assert!(out.stats.rounds > 0);
        assert!(out.stats.max_words_edge_round <= 2);
    }

    #[test]
    fn leader_has_max_cluster_degree() {
        let mut rng = gen::seeded_rng(211);
        let g = gen::random_planar(100, 0.5, &mut rng);
        let out = run_framework(&g, &FrameworkConfig::planar(0.25, 3));
        let cluster_of = &out.decomposition.cluster_of;
        for c in &out.clusters {
            let deg_in = |v: usize| {
                g.neighbor_vertices(v)
                    .filter(|&u| cluster_of[u] == cluster_of[v])
                    .count()
            };
            let max_deg = c.mapping.iter().map(|&v| deg_in(v)).max().unwrap();
            assert_eq!(deg_in(c.leader), max_deg);
        }
    }

    #[test]
    fn subgraphs_match_members() {
        let mut rng = gen::seeded_rng(212);
        let g = gen::ktree(80, 2, &mut rng);
        let out = run_framework(&g, &FrameworkConfig::minor_free(0.3, 2.0, 5));
        let total: usize = out.clusters.iter().map(|c| c.subgraph.n()).sum();
        assert_eq!(total, g.n());
        for c in &out.clusters {
            assert_eq!(c.subgraph.n(), c.mapping.len());
            assert!(c.subgraph.is_connected() || c.subgraph.n() <= 1);
        }
    }

    #[test]
    fn deterministic_routing_variant() {
        let mut rng = gen::seeded_rng(213);
        let g = gen::random_planar(80, 0.4, &mut rng);
        let out = run_framework(&g, &FrameworkConfig::planar(0.3, 11));
        for c in &out.clusters {
            assert!(routing::tree_routing(&g, &c.mapping, c.leader).complete());
        }
    }

    #[test]
    fn phase_breakdown_sums() {
        let g = gen::grid(10, 10);
        let out = run_framework(&g, &FrameworkConfig::planar(0.3, 2));
        let p = out.phases;
        assert_eq!(
            out.stats.rounds,
            p.election + p.orientation + p.gathering + p.broadcast
        );
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let g = gen::path(4);
        run_framework(&g, &FrameworkConfig::planar(1.5, 0));
    }

    /// `phases` is no longer counted separately — it is read off the span
    /// tree — so the two views must agree by construction, and the four
    /// top-level spans must partition every charged round.
    #[test]
    fn phases_match_trace_spans() {
        let g = gen::grid(12, 8);
        let out = run_framework(&g, &FrameworkConfig::planar(0.3, 4));
        let p = out.phases;
        assert_eq!(out.trace.span_rounds("election"), p.election);
        assert_eq!(out.trace.span_rounds("orientation"), p.orientation);
        assert_eq!(out.trace.span_rounds("gathering"), p.gathering);
        assert_eq!(out.trace.span_rounds("broadcast"), p.broadcast);
        assert_eq!(
            out.trace.total.rounds,
            p.election + p.orientation + p.gathering + p.broadcast
        );
        assert_eq!(out.trace.total.rounds, out.stats.rounds);
    }

    #[test]
    fn traced_run_is_complete_and_changes_nothing() {
        let mut rng = gen::seeded_rng(214);
        let g = gen::random_planar(90, 0.5, &mut rng);
        let plain = run_framework(&g, &FrameworkConfig::planar(0.3, 9));
        let traced = run_framework(
            &g,
            &FrameworkConfig {
                trace: true,
                trace_top_k: 5,
                ..FrameworkConfig::planar(0.3, 9)
            },
        );
        // tracing is observation only: identical stats, phases, clustering
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.phases, traced.phases);
        assert_eq!(
            plain.decomposition.cluster_of,
            traced.decomposition.cluster_of
        );

        // the span tree covers all four named phases...
        for name in ["election", "orientation", "gathering", "broadcast"] {
            assert!(traced.trace.span(name).is_some(), "missing span `{name}`");
        }
        // ...plus one child span per cluster, annotated with its budget
        let cluster_spans: Vec<_> = traced
            .trace
            .spans
            .iter()
            .filter(|s| s.name == "cluster")
            .collect();
        assert_eq!(cluster_spans.len(), traced.clusters.len());
        for (s, c) in cluster_spans.iter().zip(&traced.clusters) {
            assert_eq!(s.depth, 1);
            let note = |k: &str| {
                s.notes
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("missing note `{k}`"))
            };
            assert_eq!(note("cluster"), c.id as u64);
            assert_eq!(note("members"), c.mapping.len() as u64);
            assert_eq!(note("rounds"), c.routing.rounds);
        }
        // full tracing records the per-round series and edge hotspots
        assert!(
            !traced.trace.series.is_empty(),
            "full trace must record round samples"
        );
        assert!(!traced.trace.hotspots.is_empty());
        assert!(traced.trace.hotspots.len() <= 5);
        for w in traced.trace.hotspots.windows(2) {
            assert!(w[0].words >= w[1].words, "hotspots must be sorted");
        }
        // spans-only runs allocate nothing per round
        assert!(plain.trace.series.is_empty());
        assert!(plain.trace.hotspots.is_empty());
    }

    /// Metrics are observation only: a metrics-on run must produce the
    /// exact stats/phases/clustering of a metrics-off run (the zero
    /// re-blessing guarantee), while its deterministic registry mirrors
    /// the logical counters and its profiling plane observes real time.
    #[test]
    fn metrics_run_changes_nothing_and_mirrors_stats() {
        let mut rng = gen::seeded_rng(219);
        let g = gen::random_planar(90, 0.5, &mut rng);
        let plain = run_framework(&g, &FrameworkConfig::planar(0.3, 9));
        let metered = run_framework(
            &g,
            &FrameworkConfig { metrics: true, ..FrameworkConfig::planar(0.3, 9) },
        );
        assert_eq!(plain.stats, metered.stats);
        assert_eq!(plain.phases, metered.phases);
        assert_eq!(plain.decomposition.cluster_of, metered.decomposition.cluster_of);
        assert!(plain.metrics.is_none(), "metrics off must attach nothing");

        let report = metered.metrics.expect("metrics on must produce a report");
        let det = &report.deterministic;
        assert_eq!(det.counter("net.rounds"), metered.stats.rounds);
        assert_eq!(det.counter("net.messages"), metered.stats.messages);
        assert_eq!(det.counter("net.words"), metered.stats.words);
        assert_eq!(
            det.counter("phase.election.rounds")
                + det.counter("phase.orientation.rounds")
                + det.counter("phase.gathering.rounds")
                + det.counter("phase.broadcast.rounds"),
            metered.stats.rounds,
        );
        assert_eq!(det.gauge("framework.clusters"), Some(metered.clusters.len() as u64));
        assert_eq!(
            det.gauge("framework.cut_edges"),
            Some(metered.decomposition.cut_edges.len() as u64)
        );
        // the profiling plane observed real time and memory, and timed the
        // decomposition and all four phase boundaries
        assert!(report.profile.wall_ns > 0, "wall clock must advance");
        assert!(report.profile.peak_rss_bytes > 0, "VmHWM must be readable");
        let phase_names: Vec<&str> =
            report.profile.phases.iter().map(|p| p.name.as_str()).collect();
        for name in ["decomposition", "election", "orientation", "gathering", "broadcast"] {
            assert!(phase_names.contains(&name), "missing phase timer `{name}`");
        }
    }

    /// Message-faithful gathering runs on per-cluster networks whose stats
    /// reach the host through `charge_stats`: the registry must see their
    /// fault tallies too, not only their rounds/messages/words.
    #[test]
    fn faithful_faulty_metrics_mirror_the_fault_counters() {
        let mut rng = gen::seeded_rng(220);
        let g = gen::random_planar(90, 0.5, &mut rng);
        let cfg = FrameworkConfig {
            message_faithful: true,
            metrics: true,
            faults: Some(lcg_congest::FaultPlan::drops(0xD0, 0.2)),
            max_walk_steps: 20_000,
            ..FrameworkConfig::planar(0.3, 9)
        };
        let out = run_framework(&g, &cfg);
        let det = &out.metrics.as_ref().expect("metrics on must produce a report").deterministic;
        // the election + orientation drops alone are fewer than the total,
        // so equality below really covers the per-cluster networks
        assert!(out.stats.dropped_messages > 0, "0.2 drop rate must bite");
        assert_eq!(det.counter("net.dropped_messages"), out.stats.dropped_messages);
        assert_eq!(det.counter("net.crashed_messages"), out.stats.crashed_messages);
        assert_eq!(det.counter("net.truncated_messages"), out.stats.truncated_messages);
        assert_eq!(det.counter("net.messages"), out.stats.messages);
    }

    /// `faults: Some(FaultPlan::none())` exercises the fault-adjudicating
    /// delivery sweep and the plan-compilation path but must be
    /// bit-identical to a `None` run — this is what lets resilient callers
    /// always pass a plan without forking on vacuity.
    #[test]
    fn vacuous_fault_plan_changes_nothing() {
        let mut rng = gen::seeded_rng(216);
        let g = gen::random_planar(90, 0.5, &mut rng);
        let plain = run_framework(&g, &FrameworkConfig::planar(0.3, 9));
        let vacuous = run_framework(
            &g,
            &FrameworkConfig {
                faults: Some(lcg_congest::FaultPlan::none()),
                ..FrameworkConfig::planar(0.3, 9)
            },
        );
        assert_eq!(plain.stats, vacuous.stats);
        assert_eq!(plain.phases, vacuous.phases);
        assert_eq!(plain.decomposition.cluster_of, vacuous.decomposition.cluster_of);
        for (a, b) in plain.clusters.iter().zip(&vacuous.clusters) {
            assert_eq!(a.leader, b.leader);
            assert_eq!(a.routing, b.routing);
            assert!(b.election_agrees);
        }
    }

    /// Heavy drops: the run must still terminate (no panic, no spin) and
    /// report the damage honestly through the new per-cluster flags and
    /// the fault counters, instead of pretending the gathering succeeded.
    #[test]
    fn faulty_run_terminates_and_reports_damage() {
        let mut rng = gen::seeded_rng(217);
        let g = gen::random_planar(80, 0.5, &mut rng);
        let cfg = FrameworkConfig {
            faults: Some(lcg_congest::FaultPlan::drops(0xBAD, 0.6)),
            max_walk_steps: 20_000,
            ..FrameworkConfig::planar(0.3, 9)
        };
        let out = run_framework(&g, &cfg);
        // the decomposition itself is substituted (sequential), so it is
        // intact; the communicating phases took the hits
        out.decomposition.validate(&g).unwrap();
        assert!(out.stats.dropped_messages > 0, "0.6 drop rate must bite");
        let damaged = out
            .clusters
            .iter()
            .any(|c| !c.election_agrees || !c.routing.complete());
        assert!(damaged, "some multi-vertex cluster must show damage");
    }

    /// The same fault plan on the same seed is bit-deterministic across
    /// worker-thread counts: schedule keys are (round, edge), not
    /// scheduling order.
    #[test]
    fn faulty_run_is_thread_count_invariant() {
        let mut rng = gen::seeded_rng(218);
        let g = gen::random_planar(70, 0.5, &mut rng);
        let run = |threads: usize| {
            run_framework(
                &g,
                &FrameworkConfig {
                    faults: Some(
                        lcg_congest::FaultPlan::drops(0xFA, 0.25).with_link_failure(2, 1, 6),
                    ),
                    exec: ExecConfig::with_threads(threads),
                    ..FrameworkConfig::planar(0.3, 5)
                },
            )
        };
        let base = run(1);
        for t in [2, 4] {
            let other = run(t);
            assert_eq!(base.stats, other.stats, "stats diverged at {t} threads");
            assert_eq!(base.phases, other.phases);
            for (a, b) in base.clusters.iter().zip(&other.clusters) {
                assert_eq!(a.routing, b.routing);
                assert_eq!(a.election_agrees, b.election_agrees);
            }
        }
    }

    #[test]
    fn traced_message_faithful_run_collects_hotspots() {
        let mut rng = gen::seeded_rng(215);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let cfg = FrameworkConfig {
            message_faithful: true,
            trace: true,
            ..FrameworkConfig::planar(0.3, 6)
        };
        let out = run_framework(&g, &cfg);
        for c in &out.clusters {
            assert!(c.routing.complete());
        }
        // the per-cluster networks' edge loads fold into the host trace
        assert!(!out.trace.hotspots.is_empty());
        for h in &out.trace.hotspots {
            assert!(h.edge < g.m(), "hotspot edge id must be a host edge");
        }
    }
}
