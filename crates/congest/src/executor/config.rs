//! Execution configuration for the round engine.
//!
//! CONGEST rounds are embarrassingly parallel by definition: within one
//! round, every vertex computes from its own state and inbox only, so the
//! per-vertex step closures can run on any number of worker threads
//! without changing semantics. [`ExecConfig`] selects how many threads the
//! engine uses; the engine guarantees **bit-identical results and
//! [`crate::RoundStats`] for every thread count** (see
//! `Network::step_state` for how).
//!
//! The thread count and the audit mode are settable explicitly or
//! inherited from the environment (which the bench harness and the
//! experiments binary expose); the work threshold is set in code only
//! ([`ExecConfig::with_work_threshold`]):
//!
//! | `LCG_THREADS`     | behavior                              |
//! |-------------------|---------------------------------------|
//! | unset, empty, `1` | sequential (the default)              |
//! | `0` or `auto`     | one thread per available CPU          |
//! | `k`               | `k` worker threads                    |
//!
//! | `LCG_AUDIT`         | behavior                                      |
//! |---------------------|-----------------------------------------------|
//! | unset, empty, `off` | no auditing (the default)                     |
//! | `shuffle`           | permute + cross-check every leader merge (see |
//! |                     | [`super::audit`])                             |
//!
//! The *work threshold* is the adaptive sequential fallback: spinning up
//! workers only pays off when each has enough vertices per round, so the
//! engine runs a parallel section only when `n / work_threshold` grants at
//! least two workers ([`ExecConfig::par_chunks`]). Small graphs therefore
//! never pay parallel overhead, whatever `threads` says — and because the
//! engine is bit-identical across thread counts, the fallback is
//! unobservable in results.
//!
//! # Examples
//!
//! ```
//! use lcg_congest::ExecConfig;
//!
//! let seq = ExecConfig::sequential();
//! assert_eq!(seq.threads(), 1);
//!
//! let four = ExecConfig::with_threads(4);
//! assert_eq!(four.threads(), 4);
//! // contiguous, balanced vertex partition
//! let chunks = four.chunks(10);
//! assert_eq!(chunks.len(), 4);
//! assert_eq!(chunks[0], 0..3);
//! assert_eq!(chunks[3], 8..10);
//!
//! // below the work threshold the parallel partition is withheld
//! assert!(four.par_chunks(10).is_none());
//! assert!(four.with_work_threshold(1).par_chunks(10).is_some());
//! ```

use std::ops::Range;

use super::audit::AuditMode;

/// The default adaptive-fallback threshold: a parallel section must grant
/// every worker at least this many vertices, or the engine stays
/// sequential. Tuned so graphs of a few hundred vertices — where per-round
/// work is far below the cost of waking a worker — never pay for threads.
pub const DEFAULT_WORK_THRESHOLD: usize = 256;

/// How the round engine executes per-vertex work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
    work_threshold: usize,
    audit: AuditMode,
}

impl ExecConfig {
    /// Single-threaded execution.
    pub fn sequential() -> ExecConfig {
        ExecConfig {
            threads: 1,
            work_threshold: DEFAULT_WORK_THRESHOLD,
            audit: AuditMode::Off,
        }
    }

    /// Execution on `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` (use [`ExecConfig::auto`] for "all cores").
    pub fn with_threads(threads: usize) -> ExecConfig {
        assert!(threads >= 1, "thread count must be at least 1");
        ExecConfig {
            threads,
            work_threshold: DEFAULT_WORK_THRESHOLD,
            audit: AuditMode::Off,
        }
    }

    /// One thread per available CPU.
    pub fn auto() -> ExecConfig {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ExecConfig {
            threads,
            work_threshold: DEFAULT_WORK_THRESHOLD,
            audit: AuditMode::Off,
        }
    }

    /// Reads `LCG_THREADS` and `LCG_AUDIT` (see module docs and
    /// [`AuditMode::from_env`]); sequential with auditing off when unset,
    /// always with the default work threshold.
    pub fn from_env() -> ExecConfig {
        let cfg = match std::env::var("LCG_THREADS") {
            Err(_) => ExecConfig::sequential(),
            Ok(s) => {
                let s = s.trim();
                if s.is_empty() {
                    ExecConfig::sequential()
                } else if s == "auto" || s == "0" {
                    ExecConfig::auto()
                } else {
                    match s.parse::<usize>() {
                        Ok(k) if k >= 1 => ExecConfig::with_threads(k),
                        // lcg-lint: allow(P001) -- documented fail-fast: a malformed LCG_THREADS must abort at startup, not be silently coerced
                        _ => panic!("LCG_THREADS must be a positive integer, 0, or 'auto'; got {s:?}"),
                    }
                }
            }
        };
        cfg.with_audit(AuditMode::from_env())
    }

    /// Replaces the adaptive-fallback work threshold: a parallel section
    /// runs only when every worker gets at least this many vertices.
    /// `0` and `1` both mean "no threshold" (any `n ≥ 2` parallelizes);
    /// tests use `with_work_threshold(1)` to force the worker machinery on
    /// small graphs.
    #[must_use]
    pub fn with_work_threshold(mut self, work_threshold: usize) -> ExecConfig {
        self.work_threshold = work_threshold.max(1);
        self
    }

    /// Replaces the audit mode. [`AuditMode::Shuffle`] makes every leader
    /// merge re-execute in a seeded permutation of chunk order and
    /// cross-check against the canonical fold (see
    /// [`super::audit::check_merge_order`]) — a runtime proof-check of the
    /// commutativity the determinism guarantee rests on. Never changes
    /// results of a correct engine; an order-sensitive merge panics.
    #[must_use]
    pub fn with_audit(mut self, audit: AuditMode) -> ExecConfig {
        self.audit = audit;
        self
    }

    /// The configured audit mode.
    pub fn audit(&self) -> AuditMode {
        self.audit
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The adaptive-fallback work threshold (minimum vertices per worker).
    pub fn work_threshold(&self) -> usize {
        self.work_threshold
    }

    /// Partitions `0..n` into at most `threads` contiguous, balanced
    /// chunks (never empty unless `n == 0`). Chunk order is ascending, so
    /// concatenating per-chunk results in chunk order reproduces vertex
    /// order — the invariant every deterministic merge in the engine
    /// relies on.
    pub fn chunks(&self, n: usize) -> Vec<Range<usize>> {
        balanced_chunks(n, self.threads)
    }

    /// The partition a *parallel* section should use, or `None` when the
    /// section must run sequentially: `n == 0`, a single configured
    /// thread, `threads > n` with nothing to split, or `n` below the
    /// adaptive work threshold (fewer than two workers' worth of
    /// vertices). The returned partition always has ≥ 2 non-empty chunks,
    /// so the degenerate cases the old scheduler inherited (`threads > n`,
    /// `n == 0`) can never reach the worker pool.
    pub fn par_chunks(&self, n: usize) -> Option<Vec<Range<usize>>> {
        let granted = (n / self.work_threshold).clamp(1, self.threads).min(n);
        if granted <= 1 {
            return None;
        }
        Some(balanced_chunks(n, granted))
    }
}

/// `0..n` split into `min(k, n)` contiguous chunks, sizes balanced within
/// one, in ascending order.
fn balanced_chunks(n: usize, k: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Which chunk of the `k`-way balanced partition of `0..n` holds vertex
/// `v`, and `v`'s offset within it — the O(1) arithmetic inverse of
/// [`balanced_chunks`], used by the batch engine's delivery sweep to write
/// into per-chunk arenas without scanning ranges.
///
/// Requires `k <= n` (guaranteed for any partition [`balanced_chunks`]
/// produced) and `v < n`.
pub(crate) fn chunk_of(n: usize, k: usize, v: usize) -> (usize, usize) {
    debug_assert!(k >= 1 && k <= n && v < n);
    let base = n / k;
    let extra = n % k;
    let wide = extra * (base + 1);
    if v < wide {
        (v / (base + 1), v % (base + 1))
    } else {
        let r = v - wide;
        (extra + r / base, r % base)
    }
}

impl Default for ExecConfig {
    /// The ambient configuration: [`ExecConfig::from_env`].
    fn default() -> ExecConfig {
        ExecConfig::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_exactly() {
        for threads in 1..9 {
            let cfg = ExecConfig::with_threads(threads);
            for n in [0usize, 1, 2, 7, 16, 1000, 1001] {
                let chunks = cfg.chunks(n);
                // contiguous cover of 0..n
                let mut expect = 0;
                for c in &chunks {
                    assert_eq!(c.start, expect);
                    expect = c.end;
                }
                assert_eq!(expect, n);
                // balanced within 1
                if !chunks.is_empty() && n > 0 {
                    let min = chunks.iter().map(|c| c.len()).min().unwrap();
                    let max = chunks.iter().map(|c| c.len()).max().unwrap();
                    assert!(max - min <= 1, "unbalanced: {chunks:?}");
                    assert!(min >= 1);
                }
            }
        }
    }

    #[test]
    fn never_more_chunks_than_vertices() {
        let cfg = ExecConfig::with_threads(8);
        assert_eq!(cfg.chunks(3).len(), 3);
        assert_eq!(cfg.chunks(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        ExecConfig::with_threads(0);
    }

    #[test]
    fn auto_has_at_least_one_thread() {
        assert!(ExecConfig::auto().threads() >= 1);
    }

    /// The edge cases the batch scheduler inherits: `threads > n` and
    /// `n == 0` must degrade to the sequential path (`None`), never reach
    /// the pool as empty or singleton partitions.
    #[test]
    fn par_chunks_degrades_to_sequential_on_edge_cases() {
        let cfg = ExecConfig::with_threads(8).with_work_threshold(1);
        assert_eq!(cfg.par_chunks(0), None, "n == 0 must be sequential");
        assert_eq!(cfg.par_chunks(1), None, "a single vertex must be sequential");
        // threads > n: every granted chunk still holds >= 1 vertex
        let chunks = cfg.par_chunks(3).expect("3 vertices on 8 threads parallelize");
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| !c.is_empty()));
        // sequential configs never hand out a parallel partition
        assert_eq!(ExecConfig::sequential().par_chunks(1_000_000), None);
    }

    #[test]
    fn par_chunks_honors_work_threshold() {
        let cfg = ExecConfig::with_threads(4); // default threshold 256
        assert_eq!(cfg.par_chunks(200), None, "200 vertices < 2 workers' worth");
        assert_eq!(cfg.par_chunks(511), None, "511 / 256 = 1 worker granted");
        let two = cfg.par_chunks(512).expect("512 grants two workers");
        assert_eq!(two.len(), 2);
        let four = cfg.par_chunks(4096).expect("plenty of work");
        assert_eq!(four.len(), 4, "never more than the configured threads");
        // threshold 0 is clamped to 1: parallelize anything splittable
        let eager = ExecConfig::with_threads(4).with_work_threshold(0);
        assert_eq!(eager.par_chunks(2).expect("n = 2 splits in two").len(), 2);
    }

    #[test]
    fn chunk_of_inverts_every_partition() {
        for n in [1usize, 2, 3, 7, 16, 100, 257] {
            for k in 1..=n.min(9) {
                let chunks = balanced_chunks(n, k);
                for v in 0..n {
                    let (c, off) = chunk_of(n, k, v);
                    assert!(chunks[c].start + off == v && chunks[c].contains(&v),
                        "chunk_of({n}, {k}, {v}) = ({c}, {off}) but chunks = {chunks:?}");
                }
            }
        }
    }

    #[test]
    fn threshold_and_threads_survive_builder_chain() {
        let cfg = ExecConfig::with_threads(3).with_work_threshold(17);
        assert_eq!(cfg.threads(), 3);
        assert_eq!(cfg.work_threshold(), 17);
        assert_eq!(ExecConfig::sequential().work_threshold(), DEFAULT_WORK_THRESHOLD);
    }

    #[test]
    fn audit_mode_defaults_off_and_survives_the_builder_chain() {
        assert_eq!(ExecConfig::sequential().audit(), AuditMode::Off);
        let cfg = ExecConfig::with_threads(3)
            .with_audit(AuditMode::Shuffle)
            .with_work_threshold(1);
        assert_eq!(cfg.audit(), AuditMode::Shuffle);
        assert_eq!(cfg.threads(), 3);
    }
}
