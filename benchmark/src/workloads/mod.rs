//! The four workloads: what is generated, what is run, what is checked.
//!
//! The program under test is called only through public functions of its
//! crates and receives only generated inputs; every seed it is handed is
//! derived here from `--seed`.

pub mod apps;
pub mod engine;
pub mod framework;

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::spans::Spans;
use crate::spec;

/// A workload at its full or its `--quick` size. Full sizes are part of
/// the benchmark's definition (README.md says how they were chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `triangulated_grid(side, side)`, ids shuffled; the six apps.
    AppsTrigrid { side: usize },
    /// `grid_with_noise(side, side, 0.02)`; `run_framework` with charged
    /// walks (`framework-gridnoise`) or `message_faithful`
    /// (`framework-faithful`).
    Framework { side: usize, faithful: bool },
    /// `power_law(n, 2)`; full flood rounds then quarter-full token rounds.
    EngineDense { n: usize },
}

impl Workload {
    pub fn by_name(name: &str, quick: bool) -> Option<Workload> {
        let size = |full: usize, small: usize| if quick { small } else { full };
        Some(match name {
            "apps-trigrid" => Workload::AppsTrigrid { side: size(16, 7) },
            "framework-gridnoise" => Workload::Framework {
                side: size(50, 22),
                faithful: false,
            },
            "framework-faithful" => Workload::Framework {
                side: size(36, 14),
                faithful: true,
            },
            "engine-dense" => Workload::EngineDense {
                n: size(400_000, 40_000),
            },
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::AppsTrigrid { .. } => "apps-trigrid",
            Workload::Framework {
                faithful: false, ..
            } => "framework-gridnoise",
            Workload::Framework { faithful: true, .. } => "framework-faithful",
            Workload::EngineDense { .. } => "engine-dense",
        }
    }

    /// Set-up repetitions per instance. Generating and saving a few
    /// thousand edges takes well under a millisecond, most of it creating the
    /// file, so the small workloads repeat it to get a steady median;
    /// `engine-dense` writes 10 MB per set-up and takes one sample per
    /// instance.
    pub fn setup_repetitions(&self) -> usize {
        match self {
            Workload::EngineDense { .. } => 1,
            _ => 20,
        }
    }

    /// Output checks one repetition attempts (a repetition that panics
    /// fails all of them).
    pub fn checks_per_repetition(&self) -> u64 {
        match self {
            Workload::AppsTrigrid { .. } => apps::CHECKS,
            Workload::Framework { .. } => framework::CHECKS,
            Workload::EngineDense { .. } => engine::CHECKS,
        }
    }

    /// Generates instance `index` of the run from `seed` and saves its edge
    /// list at `path`. Spans `graph.gen` and `graph.save`.
    pub fn setup(&self, seed: u64, index: u32, path: PathBuf, spans: &mut Spans) -> Instance {
        let seeds = Seeds::derive(seed, index);
        let g = spans.scope("graph.gen", |_| match *self {
            Workload::AppsTrigrid { side } => apps::generate(side, &seeds),
            Workload::Framework { side, .. } => framework::generate(side, &seeds),
            Workload::EngineDense { n } => engine::generate(n, &seeds),
        });
        spans
            .scope("graph.save", |_| lcg_graph::io::save_edge_list(&path, &g))
            .unwrap_or_else(|e| panic!("saving the edge list failed: {e}"));
        Instance {
            path,
            n: g.n(),
            m: g.m(),
            seeds,
        }
    }

    /// One repetition: edge-list load → pipeline → output checks.
    ///
    /// `staged` replaces `run_framework` by the harness calling its stages
    /// one by one with a span around each (the framework workloads); the
    /// other workloads already call one layer function per step, so for
    /// them both modes run the same code.
    pub fn run(
        &self,
        inst: &Instance,
        threads: usize,
        staged: bool,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> Rep {
        match *self {
            Workload::AppsTrigrid { .. } => apps::run(inst, threads, spans, checks),
            Workload::Framework { faithful, .. } => {
                framework::run(inst, faithful, threads, staged, spans, checks)
            }
            Workload::EngineDense { .. } => engine::run(inst, threads, spans, checks),
        }
    }

    /// Traced run only: work done after the pipeline to attribute its time
    /// to layers the pipeline does not expose (spans go under the open
    /// `attribution` span), then every per-layer metric of this instance.
    pub fn layers(&self, inst: &Instance, spans: &mut Spans, checks: &mut Checks) -> Layers {
        let mut layers = Layers::new();
        match *self {
            Workload::AppsTrigrid { .. } => apps::layers(inst, spans, checks, &mut layers),
            Workload::Framework { faithful, .. } => {
                framework::layers(inst, faithful, spans, &mut layers)
            }
            Workload::EngineDense { .. } => engine::layers(spans, &mut layers),
        }
        layers
    }
}

/// Every seed the program under test receives.
///
/// The graph of instance `index` is the same in every run: its generator
/// seed depends on the index alone. The decomposition's cluster structure,
/// and with it the whole run's cost, moves by ±10–15 % from one generated
/// graph to the next (even under a relabelling of one graph), which would
/// drown a bound of 25 % in input noise. Everything else the program
/// consumes — walk and solver randomness, weights, labels, flooded values —
/// is derived from `--seed` and the index by SplitMix64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub generator: u64,
    pub weights: u64,
    pub labels: u64,
    /// Seed of the theorem under test (walk routing, solver tie-breaks).
    pub algorithm: u64,
}

impl Seeds {
    pub fn derive(seed: u64, index: u32) -> Seeds {
        let stream =
            |k: u64| splitmix64(splitmix64(seed) ^ splitmix64((u64::from(index) << 8) | k));
        Seeds {
            generator: splitmix64(spec::STRUCTURE_SEED ^ u64::from(index)),
            weights: stream(2),
            labels: stream(3),
            algorithm: stream(4),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated input on disk.
#[derive(Debug, Clone)]
pub struct Instance {
    pub path: PathBuf,
    pub n: usize,
    pub m: usize,
    pub seeds: Seeds,
}

impl Instance {
    /// `io::load_edge_list` under a `graph.load_edge_list` span.
    pub fn load(&self, spans: &mut Spans) -> lcg_graph::Graph {
        spans
            .scope("graph.load_edge_list", |s| {
                s.count("edges", self.m as u64);
                lcg_graph::io::load_edge_list(&self.path, self.n)
            })
            .unwrap_or_else(|e| panic!("loading the edge list failed: {e}"))
    }
}

/// What one repetition computed, as far as the simulator is concerned.
/// Two repetitions on one instance must agree on all of it whatever their
/// thread counts: that is the engine's bit-determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rep {
    /// CONGEST rounds summed over the pipeline (the paper's cost measure).
    pub rounds: u64,
    pub msgs: u64,
    pub words: u64,
    /// Everything else that must repeat: per-app or per-phase rounds,
    /// solution sizes, checksums.
    pub fingerprint: Vec<u64>,
}

/// Output checks attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Records a repetition that panicked: it fails all `n` of its checks.
    pub fn fail_all(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        self.failures.push(why.to_string());
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// The per-layer metrics of one instance. Starts with every declared name
/// at 0 and refuses any other name, so the emitted set cannot drift from
/// `spec::PER_LAYER`.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(
            spec::PER_LAYER
                .iter()
                .map(|&(name, _)| (name, 0.0))
                .collect(),
        )
    }

    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite");
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload did not enter).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics of the engine spans below `root`: the spans named in
/// `engine` carry `rounds`, `msgs`, `words`, `slots` and `dropped` counts.
/// `t2_root` is the same pipeline run at two threads.
pub fn engine_layers(spans: &Spans, root: u32, t2_root: u32, engine: &[&str], layers: &mut Layers) {
    let sum = |key: &str| {
        engine
            .iter()
            .map(|name| spans.sum_in(root, name, key))
            .sum::<u64>() as f64
    };
    let ms = |r: u32| engine.iter().map(|name| spans.ms_in(r, name)).sum::<f64>();
    let (ns, rounds, msgs, slots) = (ms(root) * 1e6, sum("rounds"), sum("msgs"), sum("slots"));
    layers.set("congest.engine_rounds", rounds);
    layers.set("congest.msgs", msgs);
    layers.set("congest.words", sum("words"));
    layers.set("congest.dropped_msgs", sum("dropped"));
    layers.set("congest.ns_per_round", ratio(ns, rounds));
    layers.set("congest.ns_per_msg", ratio(ns, msgs));
    layers.set("congest.ns_per_slot", ratio(ns, slots));
    layers.set("congest.slot_occupancy", ratio(msgs, slots));
    layers.set("congest.exec_t2_speedup", ratio(ms(root), ms(t2_root)));
}

/// `decomp::decompose_adaptive` under a span carrying its size and outcome.
pub fn decompose(
    spans: &mut Spans,
    g: &lcg_graph::Graph,
    epsilon: f64,
) -> lcg_expander::decomp::ExpanderDecomposition {
    spans.scope("expander.decompose_adaptive", |s| {
        let d = lcg_expander::decomp::decompose_adaptive(g, epsilon);
        s.count("edges", g.m() as u64);
        s.count("clusters", d.k() as u64);
        s.count("cut_edges", d.cut_edges.len() as u64);
        d
    })
}

/// The `expander.decomp_*` metrics from the `decompose` spans below `root`;
/// `last` is the decomposition the last of them returned.
pub fn decomposition_layers(
    spans: &Spans,
    root: u32,
    last: &lcg_expander::decomp::ExpanderDecomposition,
    layers: &mut Layers,
) {
    let name = "expander.decompose_adaptive";
    let sum = |key: &str| spans.sum_in(root, name, key) as f64;
    let ms = spans.ms_in(root, name);
    layers.set("expander.decomp_ms", ms);
    layers.set("expander.decomp_ns_per_edge", ratio(ms * 1e6, sum("edges")));
    layers.set("expander.decomp_clusters", sum("clusters"));
    layers.set(
        "expander.decomp_cut_frac",
        ratio(sum("cut_edges"), sum("edges")),
    );
    layers.set("expander.decomp_min_phi", last.min_cluster_phi());
}

/// `Network::with_exec` in the CONGEST model under a `congest.build` span.
pub fn build_network<'g>(
    spans: &mut Spans,
    g: &'g lcg_graph::Graph,
    exec: lcg_congest::ExecConfig,
) -> lcg_congest::Network<'g> {
    spans.scope("congest.build", |s| {
        s.count("slots", 2 * g.m() as u64);
        lcg_congest::Network::with_exec(g, lcg_congest::Model::congest(), exec)
    })
}

/// Attaches the counts `engine_layers` reads to the innermost open span:
/// `stats` is what the engine did inside it, on a graph of `m` edges.
pub fn count_engine(spans: &mut Spans, stats: &lcg_congest::RoundStats, m: usize) {
    spans.count("rounds", stats.rounds);
    spans.count("msgs", stats.messages);
    spans.count("words", stats.words);
    spans.count("slots", stats.rounds * 2 * m as u64);
    spans.count("dropped", stats.dropped_messages + stats.crashed_messages);
}

/// `after − before` of a network's running statistics.
pub fn stats_delta(
    after: &lcg_congest::RoundStats,
    before: &lcg_congest::RoundStats,
) -> lcg_congest::RoundStats {
    lcg_congest::RoundStats {
        rounds: after.rounds - before.rounds,
        messages: after.messages - before.messages,
        words: after.words - before.words,
        max_words_edge_round: after.max_words_edge_round,
        dropped_messages: after.dropped_messages - before.dropped_messages,
        crashed_messages: after.crashed_messages - before.crashed_messages,
        truncated_messages: after.truncated_messages - before.truncated_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_a_function_of_seed_and_index_only() {
        assert_eq!(Seeds::derive(5, 2), Seeds::derive(5, 2));
        let (a, other_seed, other_index) = (
            Seeds::derive(5, 2),
            Seeds::derive(6, 2),
            Seeds::derive(5, 3),
        );
        // the graph belongs to the index, everything else to the seed too
        assert_eq!(a.generator, other_seed.generator);
        assert_ne!(a.generator, other_index.generator);
        let all = [
            a.generator,
            a.weights,
            a.labels,
            a.algorithm,
            other_seed.weights,
            other_seed.labels,
            other_seed.algorithm,
            other_index.weights,
            other_index.labels,
            other_index.algorithm,
        ];
        let distinct: std::collections::BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn every_declared_workload_has_a_full_and_a_quick_size() {
        for name in spec::WORKLOADS {
            for quick in [false, true] {
                assert_eq!(Workload::by_name(name, quick).map(|w| w.name()), Some(name));
            }
        }
        assert_eq!(Workload::by_name("nope", false), None);
    }

    #[test]
    fn layers_refuse_undeclared_names() {
        let mut l = Layers::new();
        l.set("graph.load_ms", 1.5);
        assert_eq!(l.get("graph.load_ms"), 1.5);
        assert_eq!(l.get("solvers.mis_ms"), 0.0);
        assert!(std::panic::catch_unwind(move || l.set("graph.nope_ms", 1.0)).is_err());
    }

    #[test]
    fn a_panicking_repetition_fails_all_its_checks() {
        let mut c = Checks::default();
        c.check("a", true);
        c.check("b", false);
        c.fail_all(6, "repetition panicked");
        assert_eq!((c.attempted, c.failed), (8, 7));
        assert_eq!(
            c.failures,
            vec!["b".to_string(), "repetition panicked".to_string()]
        );
    }
}
