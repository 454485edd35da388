//! **E12** — the LOCAL–CONGEST gap itself: what the GKM-style approach
//! (gather cluster topologies over single edges) actually ships in the
//! LOCAL model, versus the framework's `O(log n)`-bit messages in
//! CONGEST. The max-words-per-edge-per-round column is the model
//! separation the paper's title refers to.

use lcg_congest::{Model, Network};
use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Naive LOCAL gathering: r rounds of full-knowledge flooding; returns
/// (rounds, max words on any edge in any round).
fn local_gather(g: &lcg_graph::Graph, radius: usize) -> (u64, usize) {
    let n = g.n();
    let mut net = Network::new(g, Model::Local);
    let mut known: Vec<Vec<u64>> = (0..n)
        .map(|v| {
            g.neighbor_vertices(v)
                .map(|u| (v.min(u) * n + v.max(u)) as u64)
                .collect()
        })
        .collect();
    net.exchange_rounds(
        radius,
        &mut known,
        |known, _round, _v, out| {
            for p in 0..out.ports() {
                out.send(p, known.as_slice());
            }
        },
        |known, _round, _v, inbox| {
            for m in inbox.iter().flatten() {
                known.extend_from_slice(m);
            }
            known.sort_unstable();
            known.dedup();
        },
        |_| false,
    );
    let s = net.stats();
    (s.rounds, s.max_words_edge_round)
}

/// Runs E12.
pub fn run(opts: &Opts) -> Vec<Table> {
    let sizes: &[usize] = opts.scale.pick(&[100, 200][..], &[100, 200, 400, 800][..]);
    let mut t = Table::new(
        "E12",
        "LOCAL vs CONGEST: per-edge words of naive topology gathering vs the framework (planar)",
        &[
            "n", "m", "LOCAL radius", "LOCAL max words/edge", "framework max words/edge",
            "framework rounds", "congest ok",
        ],
    );
    let mut rng = gen::seeded_rng(0xE12);
    for &n in sizes {
        let g = gen::random_planar(n, 0.5, &mut rng);
        let radius = 5usize;
        let (_, local_words) = local_gather(&g, radius);
        let fw = run_framework(&g, &FrameworkConfig::planar(0.3, 1));
        t.row(cells!(
            g.n(),
            g.m(),
            radius,
            local_words,
            fw.stats.max_words_edge_round,
            fw.stats.rounds,
            fw.stats.max_words_edge_round <= 2
        ));
    }
    vec![t]
}
