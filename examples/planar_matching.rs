//! Theorem 3.2 / Theorem 1.1 scenario: matching kidney-exchange-style
//! compatibility networks.
//!
//! The intro of the paper motivates matching as *the* canonical
//! combinatorial optimization problem whose (1−ε) LOCAL algorithms did
//! not carry over to CONGEST. This example runs both matching results:
//!
//! * unweighted planar MCM with the Lemma 3.1 star-elimination kernel, on
//!   an adversarial pendant-heavy planar network;
//! * weighted MWM via the iterated-decomposition scaling harness, with a
//!   heavy-tailed weight distribution.
//!
//! Run with: `cargo run --example planar_matching`

use locongest::core::apps::{mcm, mwm};
use locongest::graph::gen;
use locongest::solvers::{matching, mwm as seq_mwm};
use rand::Rng;

fn main() {
    let mut rng = gen::seeded_rng(2024);

    // ---- unweighted: pendant-heavy planar network --------------------
    let core_n = 120;
    let pendants = 400;
    let base = gen::stacked_triangulation(core_n, &mut rng);
    let mut b = locongest::graph::GraphBuilder::new(core_n + pendants);
    for (_, u, v) in base.edges() {
        b.add_edge(u, v);
    }
    for i in 0..pendants {
        b.add_edge(core_n + i, rng.gen_range(0..core_n));
    }
    let g = b.build();
    println!("pendant-heavy planar network: n = {}, m = {}", g.n(), g.m());

    let eps = 0.3;
    let out = mcm::approx_maximum_matching(&g, eps, 11);
    assert!(mcm::is_valid(&g, &out));
    let opt = matching::maximum_matching(&g).size();
    println!(
        "star elimination removed {} vertices in {} passes",
        out.eliminated, out.elimination_passes
    );
    println!(
        "(1−ε)-MCM: {} edges vs exact ν = {opt} → ratio {:.4} (target ≥ {:.2})",
        out.size,
        out.size as f64 / opt as f64,
        1.0 - eps
    );
    println!("CONGEST cost: {}", out.stats);

    // ---- weighted: heavy-tailed compatibility scores ------------------
    let g = {
        let base = gen::random_planar(300, 0.5, &mut rng);
        let weights: Vec<u64> = (0..base.m())
            .map(|_| {
                // heavy tail: mostly small, a few huge
                if rng.gen_bool(0.05) {
                    rng.gen_range(1_000..10_000)
                } else {
                    rng.gen_range(1..50)
                }
            })
            .collect();
        base.with_weights(weights)
    };
    println!(
        "\nweighted planar network: n = {}, m = {}, W = {}",
        g.n(),
        g.m(),
        g.max_weight()
    );
    let eps = 0.2;
    let iters = mwm::recommended_iterations(eps);
    let out = mwm::approx_maximum_weight_matching(&g, eps, 3.0, 5, iters);
    let opt = seq_mwm::matching_weight(&g, &seq_mwm::maximum_weight_matching(&g));
    let greedy = seq_mwm::matching_weight(&g, &seq_mwm::greedy_mwm(&g));
    println!(
        "(1−ε)-MWM after {} of at most {iters} scaling iterations: weight {} vs exact {opt} → ratio {:.4}",
        out.history.len(),
        out.weight,
        out.weight as f64 / opt as f64
    );
    println!(
        "greedy 1/2-approx baseline: {greedy} (ratio {:.4})",
        greedy as f64 / opt as f64
    );
    print!("convergence:");
    for w in &out.history {
        print!(" {:.3}", *w as f64 / opt as f64);
    }
    println!();
    println!("CONGEST cost: {}", out.stats);
}
