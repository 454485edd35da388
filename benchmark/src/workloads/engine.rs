//! `engine-dense`: the round engine alone on a 400 000-vertex power-law
//! graph — full rounds (`max_flood`) then quarter-full ones (one 2-word
//! token per vertex per round, E25's routing shape).

use lcg_congest::primitives::{self, Scope};
use lcg_congest::{ExecConfig, Inbox, Outbox};
use lcg_graph::{gen, Graph};

use super::{
    build_network, count_engine, engine_layers, ratio, stats_delta, Checks, Instance, Layers, Rep,
    Seeds,
};
use crate::spans::Spans;

pub const CHECKS: u64 = 6;

/// Rounds of `max_flood`: every slot carries a message in every one.
const FLOOD_ROUNDS: usize = 8;
/// Rounds of token forwarding: one message per vertex, a quarter of the slots.
const TOKEN_ROUNDS: usize = 16;

pub fn generate(n: usize, seeds: &Seeds) -> Graph {
    gen::power_law(n, 2, &mut gen::seeded_rng(seeds.generator))
}

/// The value vertex `v` floods: a fixed bijective scramble of its id, so
/// the maximum sits at an arbitrary vertex and is known in advance.
fn flood_value(v: usize, salt: u64) -> u64 {
    (v as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub fn run(inst: &Instance, threads: usize, spans: &mut Spans, checks: &mut Checks) -> Rep {
    let (flood, tokens) = (FLOOD_ROUNDS, TOKEN_ROUNDS);
    let g = inst.load(spans);
    let (n, m) = (g.n(), g.m());
    let mut net = build_network(spans, &g, ExecConfig::with_threads(threads));

    let values: Vec<u64> = (0..n)
        .map(|v| flood_value(v, inst.seeds.algorithm))
        .collect();
    let best = spans.scope("congest.max_flood", |s| {
        let r = primitives::max_flood(&mut net, &values, flood, Scope::Global);
        count_engine(s, &net.stats(), m);
        r
    });
    let flooded = net.stats();

    let mut token: Vec<u64> = (0..n as u64).collect();
    spans.scope("congest.tokens", |s| {
        for round in 0..tokens as u64 {
            net.step_state(&mut token, |tok, v, inbox: &Inbox, out: &mut Outbox| {
                for msg in inbox.iter().flatten() {
                    *tok = (*tok)
                        .wrapping_add(msg[0])
                        .rotate_left((msg[1] % 63) as u32 + 1);
                }
                if out.ports() > 0 {
                    out.send((v + round as usize) % out.ports(), [*tok, round]);
                }
            });
        }
        count_engine(s, &stats_delta(&net.stats(), &flooded), m);
    });
    let stats = net.stats();
    let checksum = token.iter().fold(0u64, |acc, &t| acc.rotate_left(5) ^ t);

    spans.scope("validate", |_| {
        let senders = (0..n).filter(|&v| g.degree(v) > 0).count() as u64;
        checks.check("rounds", stats.rounds == (flood + tokens) as u64);
        checks.check(
            "messages",
            stats.messages == flood as u64 * 2 * m as u64 + tokens as u64 * senders,
        );
        checks.check("words", stats.words == 2 * stats.messages);
        checks.check("max_words_edge_round <= 2", stats.max_words_edge_round <= 2);
        checks.check(
            "no message dropped",
            stats.dropped_messages + stats.crashed_messages + stats.truncated_messages == 0,
        );
        let top = (0..n).max_by_key(|&v| (values[v], v)).expect("n > 0");
        checks.check(
            "the maximum reached its holder's neighbours",
            g.neighbor_vertices(top)
                .chain([top])
                .all(|u| best[u] == (values[top], top)),
        );
    });
    Rep {
        rounds: stats.rounds,
        msgs: stats.messages,
        words: stats.words,
        fingerprint: vec![checksum],
    }
}

pub fn layers(spans: &Spans, layers: &mut Layers) {
    let (pipeline, pipeline_t2) = (spans.root("pipeline"), spans.root("pipeline_t2"));
    let ms = |name: &str| spans.ms_in(pipeline, name);
    layers.set("congest.build_ms", ms("congest.build"));
    layers.set(
        "congest.build_ns_per_slot",
        ratio(
            ms("congest.build") * 1e6,
            spans.sum_in(pipeline, "congest.build", "slots") as f64,
        ),
    );
    layers.set("congest.max_flood_ms", ms("congest.max_flood"));
    layers.set("congest.tokens_ms", ms("congest.tokens"));
    layers.set("core.validate_ms", ms("validate"));
    engine_layers(
        spans,
        pipeline,
        pipeline_t2,
        &["congest.max_flood", "congest.tokens"],
        layers,
    );
}
