//! Goldens of the experiment tables and of the two Lemma 2.4 routers, and
//! the golden harness's own check.
//!
//! * The timing-free experiment tables at `--quick` scale, rendered exactly
//!   as `experiments <ids> --quick` prints them to stdout: the app
//!   experiments (Theorems 1.1–1.5 and 3.2, the MDS extension, the kernel
//!   ablation, the fault sweep), the expander experiments (decompositions,
//!   Lemma 2.3's ratio, walk and tree routing, the φ ablation, the faithful
//!   router) and the graph/engine ones (Theorem 1.6's separators, E12's
//!   LOCAL-vs-CONGEST words per edge). A change that moves a clustering, a
//!   walk or an app's output shows as a changed table line. E25's columns
//!   stay with CI's `scale-smoke` job (tens of seconds in release even at
//!   `--quick`); E26 is timing only.
//! * The charged router (`charged_walk_routing`), blessed from the
//!   implementation that advanced every token — absorbed or not — and
//!   zeroed every edge load on every walk step, and the message-faithful
//!   router (`network_walk_routing_with_counts`), blessed when it took the
//!   charged walk's draw. Their contract is bit-identity: the same
//!   `RoutingOutcome`, the same loads or `RoundStats`, and the caller's RNG
//!   left at the same position.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test goldens
//! ```

mod common;

use std::fmt::Write as _;

use common::{check_golden, first_difference, fnv1a64};
use lcg_bench::{experiments, Opts, Scale};
use locongest::congest::{FaultPlan, Model, Network};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::routing::{charged_walk_routing, network_walk_routing_with_counts, RoutingOutcome};
use locongest::graph::{gen, Graph};
use rand::Rng;

/// Every table of the experiments `ids` at `--quick` scale, as the
/// `experiments` binary prints them: in `experiments::all()` order, each
/// followed by an empty line.
fn quick_tables(ids: &[&str]) -> String {
    let opts = Opts::new(Scale::Quick);
    let mut out = String::new();
    for (id, run) in experiments::all() {
        if ids.contains(&id) {
            for table in run(&opts) {
                out.push_str(&table.render());
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn apps_quick_tables() {
    let ids = ["e4", "e5", "e6", "e7", "e8", "e9", "e13", "e16", "e20"];
    check_golden("apps_quick_tables.txt", &quick_tables(&ids));
}

#[test]
fn expander_quick_tables() {
    let ids = ["e1", "e2", "e3", "e11", "e14", "e15", "e17", "e18"];
    check_golden("expander_quick_tables.txt", &quick_tables(&ids));
}

#[test]
fn graph_engine_quick_tables() {
    check_golden("graph_engine_quick_tables.txt", &quick_tables(&["e10", "e12"]));
}

/// One cluster the charged router walks.
struct Instance {
    name: &'static str,
    g: Graph,
    members: Vec<usize>,
    leader: usize,
    counts: Vec<usize>,
    seed: u64,
}

/// The charged router's instances: a whole `grid_with_noise` graph as one
/// cluster, shipping what the framework ships (`1 + outdeg(v)` tokens under
/// the by-id orientation, to the max-degree leader); a strict subset of the
/// host listed in descending order, so local ids differ from host order
/// (the left three columns of a 6 × 4 grid); and a clique.
fn charged_instances() -> [Instance; 3] {
    let g = gen::grid_with_noise(12, 12, 0.02, &mut gen::seeded_rng(0x6121));
    let members: Vec<usize> = (0..g.n()).collect();
    let counts = members.iter().map(|&v| 1 + g.neighbor_vertices(v).filter(|&u| u > v).count()).collect();
    let leader = (0..g.n()).max_by_key(|&v| (g.degree(v), v)).expect("non-empty grid");
    let noisy_grid = Instance { name: "noisy_grid", g, members, leader, counts, seed: 160 };

    let members: Vec<usize> = (0..24).rev().filter(|v| v % 6 < 3).collect();
    let counts = members.iter().map(|&v| 1 + v % 3).collect();
    let subcluster = Instance { name: "grid_subcluster", g: gen::grid(6, 4), members, leader: 7, counts, seed: 161 };

    let members: Vec<usize> = (0..18).collect();
    let counts = members.iter().map(|&v| 1 + v % 2).collect();
    let clique = Instance { name: "clique", g: gen::complete(18), members, leader: 4, counts, seed: 162 };

    [noisy_grid, subcluster, clique]
}

/// The outcome, the tracked host-edge loads and the caller's next draw of
/// one charged walk, far below its step cap.
fn route(inst: &Instance, faults: Option<&FaultPlan>, track: bool) -> (RoutingOutcome, Vec<(usize, u64)>, u64) {
    let mut rng = gen::seeded_rng(inst.seed);
    let (out, loads) =
        charged_walk_routing(&inst.g, &inst.members, inst.leader, &inst.counts, 200_000, &mut rng, faults, track);
    (out, loads, rng.gen::<u64>())
}

/// Each instance without a plan and under a lossy one, a line each: the
/// outcome, the number of loaded edges with an FNV-1a hash over the
/// `(edge, words)` pairs, and the next draw. The vacuous plan must walk
/// exactly as no plan, and an untracked walk as a tracked one that
/// reports no loads.
#[test]
fn charged_router_golden() {
    let vacuous = FaultPlan::none();
    let lossy = FaultPlan::drops(0xFA, 0.01).with_link_failure(3, 0, 50);
    let mut got = String::new();
    for inst in &charged_instances() {
        for (label, plans) in [("none", &[None, Some(&vacuous)][..]), ("lossy", &[Some(&lossy)][..])] {
            let (out, loads, draw) = route(inst, plans[0], true);
            for &faults in plans {
                for track in [false, true] {
                    let want = (out, if track { loads.clone() } else { Vec::new() }, draw);
                    assert_eq!(route(inst, faults, track), want, "{}: faults {faults:?}, track {track}", inst.name);
                }
            }
            let bytes: Vec<u8> =
                loads.iter().flat_map(|&(e, w)| (e as u64).to_le_bytes().into_iter().chain(w.to_le_bytes())).collect();
            let (name, edges, hash) = (inst.name, loads.len(), fnv1a64(&bytes));
            writeln!(got, "{name} {label} {out:?} loads={edges} fnv={hash} draw={draw}").unwrap();
        }
    }
    check_golden("charged_router.txt", &got);
}

/// One message-faithful walk of `1 + v mod 3` tokens per member.
fn faithful_line(name: &str, g: &Graph, members: &[usize], leader: usize, plan: Option<FaultPlan>, seed: u64) -> String {
    let counts: Vec<usize> = members.iter().map(|&v| 1 + v % 3).collect();
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(plan);
    let mut rng = gen::seeded_rng(seed);
    let (out, stats) = network_walk_routing_with_counts(&mut net, members, leader, &counts, 100_000, &mut rng);
    format!("{name} {out:?} {stats:?} draw={}\n", rng.gen::<u64>())
}

/// One message-faithful framework run under `plan` with the full trace on:
/// its stats, every cluster's gathering outcome and the trace's hotspots.
fn faithful_framework_line(name: &str, g: &Graph, plan: FaultPlan, seed: u64) -> String {
    let mut cfg = FrameworkConfig::planar(0.3, seed);
    (cfg.message_faithful, cfg.trace, cfg.faults) = (true, true, Some(plan));
    let out = run_framework(g, &cfg);
    assert!(out.clusters.len() > 1, "{name}: one cluster pins no cluster-local view");
    let outcomes: Vec<RoutingOutcome> = out.clusters.iter().map(|c| c.routing).collect();
    let hotspots: Vec<(usize, u64)> = out.trace.hotspots.iter().map(|h| (h.edge, h.words)).collect();
    format!("{name} {:?} clusters={outcomes:?} hotspots={hotspots:?}\n", out.stats)
}

/// A strict subcluster (the left three columns of a 6 × 4 grid) fault-free
/// and under an active plan, the whole of a random planar graph under
/// another, and a faithful framework run of many clusters under a third:
/// i.i.d. drops, a link-down interval and a crash-stop destroy tokens in
/// transit, so a walk ends incomplete once nothing is left waiting.
#[test]
fn faithful_router_golden() {
    let grid = gen::grid(6, 4);
    let left: Vec<usize> = (0..24).filter(|v| v % 6 < 3).collect();
    let inside = grid.edge_id(7, 8).expect("an edge between two left-column vertices");
    let sub_plan = FaultPlan::drops(0xFB, 0.03).with_link_failure(inside, 4, 60).with_crash(13, 30);
    let planar = gen::random_planar(60, 0.5, &mut gen::seeded_rng(0x60_1D));
    let all: Vec<usize> = (0..planar.n()).collect();
    let plan = FaultPlan::drops(0xFA, 0.02).with_link_failure(3, 0, 50).with_crash(17, 40);
    let noisy = gen::grid_with_noise(20, 20, 0.02, &mut gen::seeded_rng(0x6E));
    let fw_plan = FaultPlan::drops(0xFC, 0.01).with_link_failure(5, 0, 200).with_crash(40, 60);
    let got = faithful_line("subcluster", &grid, &left, 0, None, 136)
        + &faithful_line("faulty", &planar, &all, 5, Some(plan), 137)
        + &faithful_line("faulty-subcluster", &grid, &left, 0, Some(sub_plan), 138)
        + &faithful_framework_line("framework", &noisy, fw_plan, 139);
    check_golden("faithful_router.txt", &got);
}

/// The harness names the first line that differs, also when the golden
/// is one line short of the run or one line longer.
#[test]
fn golden_diff_names_a_missing_or_extra_last_line() {
    let diff = first_difference("a\nb\n", "a\nb\nc\n").expect("the run printed one line more");
    assert_eq!(diff, "line 3 extra:\n+ c");
    let diff = first_difference("a\nb\nc\n", "a\nb\n").expect("the run printed one line less");
    assert_eq!(diff, "line 3 missing:\n- c");
    let diff = first_difference("a\nb\n", "a\nB\n").expect("line 2 changed");
    assert_eq!(diff, "line 2 differs:\n- b\n+ B");
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
}
