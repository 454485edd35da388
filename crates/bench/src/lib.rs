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
