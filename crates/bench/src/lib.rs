//! # lcg-bench — experiment harness
//!
//! One module per experiment in EXPERIMENTS.md (E1–E12). The
//! `experiments` binary regenerates any table:
//!
//! ```text
//! cargo run --release -p lcg-bench --bin experiments -- all
//! cargo run --release -p lcg-bench --bin experiments -- e4 --quick
//! ```
//!
//! Every experiment returns [`Table`]s that are printed and (via
//! `--json DIR`) serialized, so EXPERIMENTS.md rows are reproducible
//! artifacts, not prose.

pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;

/// Global experiment scale. `Quick` shrinks sizes/trials for CI; `Full`
/// matches the tables recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (seconds, used by tests).
    Quick,
    /// Full sizes (minutes, used to regenerate EXPERIMENTS.md).
    Full,
}

impl Scale {
    /// Picks `q` under `Quick` and `f` under `Full`.
    pub fn pick<T: Copy>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// What the `experiments` command line hands to every experiment: a flag an
/// experiment reads is a field here, never ambient process state. The
/// binary parses it once; flags only the binary reads stay there.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `--quick`: CI scale.
    pub scale: Scale,
    /// `--fault-seed S`: fault-schedule seed of `--faults`, E20 and E24.
    pub fault_seed: u64,
    /// `--retry-budget N`: max retries in E20 and the supervised run.
    pub retry_budget: u32,
    /// `--checkpoint-every K`: E24 engine-plane checkpoint cadence (rounds).
    pub checkpoint_every: u64,
    /// `--kill-at-round R`: E24 engine-plane injected crash round; half the
    /// run when absent.
    pub kill_at_round: Option<u64>,
    /// `--scale-n N`: E25 vertex count; 10⁵ quick / 10⁶ full when absent.
    pub scale_n: Option<usize>,
    /// `--e25-metrics PATH`: where E25 writes its framework row's report.
    pub e25_metrics: Option<String>,
}
