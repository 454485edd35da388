//! The golden harness every root test file shares: one function reads,
//! compares and re-blesses the files under `tests/golden/`. To re-bless
//! every golden after an intentional change, and to see what moved:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q
//! git diff --stat tests/golden
//! ```
//!
//! Each test binary uses its own subset of this module.
#![allow(dead_code, reason = "each test binary that includes this module uses its own subset")]

use std::path::PathBuf;

use locongest::congest::{ExecConfig, FaultPlan, Inbox, Model, Network, Outbox, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::{gen, Graph};

/// Checks `got` against the golden file `name` under `tests/golden/`,
/// byte for byte; with `UPDATE_GOLDEN` set, writes `got` there instead.
///
/// # Panics
///
/// When the file is missing or differs, naming the first differing line.
#[expect(
    clippy::disallowed_methods,
    reason = "the re-bless switch of the tests; the code under test reads no environment"
)]
pub fn check_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("cannot bless {path:?}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); bless with UPDATE_GOLDEN=1"));
    if let Some(diff) = first_difference(&want, got) {
        panic!("{name}: {diff}\n(re-bless with UPDATE_GOLDEN=1 only if the change is intended)");
    }
}

/// The first line where `got` departs from the golden `want`, or `None`
/// when the two are the same bytes. A line only one side has is named
/// `missing` (the run stopped short of the golden) or `extra` (the golden
/// stopped short of the run).
pub fn first_difference(want: &str, got: &str) -> Option<String> {
    let text = |l: &str| l.strip_suffix('\n').unwrap_or(l).to_string();
    let (mut want_lines, mut got_lines) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
    let mut line = 0;
    loop {
        line += 1;
        let (w, g) = match (want_lines.next(), got_lines.next()) {
            (None, None) => return None,
            (Some(w), None) => return Some(format!("line {line} missing:\n- {}", text(w))),
            (None, Some(g)) => return Some(format!("line {line} extra:\n+ {}", text(g))),
            (Some(w), Some(g)) if w == g => continue,
            (Some(w), Some(g)) => (text(w), text(g)),
        };
        return Some(if w == g {
            format!("line {line} ends in a newline on one side only")
        } else {
            format!("line {line} differs:\n- {w}\n+ {g}")
        });
    }
}

/// Checks `stats` against the golden `name.json`, as pretty JSON. The
/// fault counters serialize only when nonzero, so a vacuous plan is
/// invisible on disk.
pub fn check_stats_golden(name: &str, stats: &RoundStats) {
    check_golden(&format!("{name}.json"), &serde_json::to_string_pretty(stats).unwrap());
}

/// The three graphs of the `RoundStats` goldens, by golden-name prefix.
pub fn stats_golden_graphs() -> [(&'static str, Graph); 3] {
    let mut rng = gen::seeded_rng(0x601D);
    [
        ("cycle64", gen::cycle(64)),
        ("planar200", gen::random_planar(200, 0.5, &mut rng)),
        ("hypercube8", gen::hypercube(8)),
    ]
}

/// One round of the BFS flood: an informed vertex sends one word on every
/// port.
pub fn flood_round(me: &mut bool, _v: usize, inbox: &Inbox, out: &mut Outbox) {
    if inbox.iter().any(Option::is_some) {
        *me = true;
    }
    if *me {
        for p in 0..out.ports() {
            out.send(p, [1]);
        }
    }
}

/// BFS flood from vertex 0 for diameter + 1 rounds of `round` under
/// `plan`: as that many `step_state` calls, or with `one_call` as one
/// `run_state` call. The engine's bread-and-butter workload.
pub fn flood_stats(
    g: &Graph,
    plan: Option<FaultPlan>,
    one_call: bool,
    round: fn(&mut bool, usize, &Inbox, &mut Outbox),
) -> RoundStats {
    let diam = g.diameter().unwrap_or(0);
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(plan);
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    if one_call {
        net.run_state(diam + 1, &mut informed, round);
    } else {
        for _ in 0..=diam {
            net.step_state(&mut informed, round);
        }
    }
    assert!(informed.iter().all(|&b| b), "flood must reach everyone");
    net.stats()
}

/// The full Theorem 2.6 framework, fixed seed, at `threads` threads under
/// `faults`.
pub fn framework_stats(g: &Graph, threads: usize, faults: Option<FaultPlan>) -> RoundStats {
    let cfg = FrameworkConfig { exec: ExecConfig::with_threads(threads), faults, ..FrameworkConfig::planar(0.3, 5) };
    run_framework(g, &cfg).stats
}

/// FNV-1a 64-bit: a stable, dependency-free hash for a golden line.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
