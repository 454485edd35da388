//! Execution configuration: the caller's thread count, and the one place
//! that reads it.
//!
//! The round engine runs one sequential body on the caller's thread (DESIGN
//! §10.3). What runs on threads is Theorem 2.6 at the paper's grain — the
//! clusters' charged walks (`lcg_expander::routing::charged_walks`) and the
//! recursion nodes of one decomposition level
//! (`lcg_expander::decomp::decompose`) — and both go through
//! [`ExecConfig::map`]: independent items, each result owned by the thread
//! that computed it and returned in item order, so no output depends on the
//! thread count. The count itself is set by callers (`main` of a binary, a
//! test); the libraries read no environment variable, and a
//! [`Network`](crate::Network) stores none.
//!
//! # Examples
//!
//! ```
//! use lcg_congest::ExecConfig;
//!
//! assert_eq!(ExecConfig::sequential().threads(), 1);
//! let squares = ExecConfig::with_threads(4).map(&[3u64, 1, 2], |&x| x, |&x| x * x);
//! assert_eq!(squares, [9, 1, 4]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A thread count, set by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl ExecConfig {
    /// One thread.
    pub fn sequential() -> ExecConfig {
        ExecConfig { threads: 1 }
    }

    /// `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> ExecConfig {
        assert!(threads >= 1, "thread count must be at least 1");
        ExecConfig { threads }
    }

    /// The thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `items.iter().map(f).collect()`, on up to [`threads`](Self::threads)
    /// threads.
    ///
    /// At one thread, or with at most one item, that is exactly what runs,
    /// on the caller. Otherwise the items are placed into `threads` bins by
    /// longest processing time first — heaviest `weight` first, ties by
    /// index, each into the lightest bin so far (ties by bin) — bin 0 runs
    /// on the caller and every other bin on a scoped thread of its own, and
    /// each result lands at its item's index. `f` sees one item and nothing
    /// a sibling wrote, so the output is the sequential map's at every
    /// thread count; the bins change only when each result is computed.
    ///
    /// # Panics
    ///
    /// A panic inside `f` is re-raised on the caller's thread with its
    /// original payload once every bin has been joined; if several bins
    /// panic, the lowest-numbered bin's payload wins.
    pub fn map<T, R, W, F>(&self, items: &[T], weight: W, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        W: Fn(&T) -> u64,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let bins = lpt_bins(items.iter().map(weight).collect(), self.threads.min(items.len()));
        let run = &|bin: &[usize]| -> Vec<(usize, R)> { bin.iter().map(|&i| (i, f(&items[i]))).collect() };
        let mut done: Vec<Vec<(usize, R)>> = Vec::with_capacity(bins.len());
        std::thread::scope(|scope| {
            let siblings: Vec<_> = bins[1..].iter().map(|bin| scope.spawn(move || run(bin))).collect();
            let own = catch_unwind(AssertUnwindSafe(|| run(&bins[0])));
            // joined explicitly, so the scope never substitutes its generic
            // "a scoped thread panicked" for the payload
            let mut payload = None;
            for joined in std::iter::once(own).chain(siblings.into_iter().map(|s| s.join())) {
                match joined {
                    Ok(results) => done.push(results),
                    Err(p) => {
                        payload.get_or_insert(p);
                    }
                }
            }
            if let Some(p) = payload {
                resume_unwind(p);
            }
        });
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        for (i, r) in done.into_iter().flatten() {
            out[i] = Some(r);
        }
        out.into_iter().map(|r| r.expect("every item is in exactly one bin")).collect()
    }
}

/// Item indices per bin: longest processing time first over `weights`
/// (heaviest first, ties by index), each item into the bin with the least
/// weight so far (ties by bin), so no bin outweighs the lightest by more
/// than its own lightest item.
fn lpt_bins(weights: Vec<u64>, bins: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut load = vec![0u64; bins];
    let mut out = vec![Vec::new(); bins];
    for i in order {
        let lightest = (0..bins).min_by_key(|&b| (load[b], b)).expect("at least one bin");
        load[lightest] = load[lightest].saturating_add(weights[i]);
        out[lightest].push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        ExecConfig::with_threads(0);
    }

    #[test]
    fn results_come_back_in_item_order_for_any_weights() {
        let items: Vec<u64> = (0..23).map(|i| (i * 7919) % 31).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let weights: [fn(&u64) -> u64; 4] = [|_| 0, |&x| x, |&x| 100 - x, |&x| x % 3];
        for threads in [1, 2, 3, 4, 7] {
            for weight in weights {
                assert_eq!(ExecConfig::with_threads(threads).map(&items, weight, |x| x * 3 + 1), want);
            }
        }
    }

    #[test]
    fn more_threads_than_items() {
        let exec = ExecConfig::with_threads(16);
        assert_eq!(exec.map(&[5u8, 6, 7], |_| 1, |&x| x + 1), [6, 7, 8]);
        assert_eq!(exec.map(&[9u8], |_| 1, |&x| x), [9]);
        assert!(exec.map(&[] as &[u8], |_| 1, |&x| x).is_empty());
    }

    #[test]
    fn lpt_places_the_heaviest_items_apart() {
        // 9 and 8 go to bins 0 and 1, then 7 to bin 1 (8 < 9), 5 to bin 0
        assert_eq!(lpt_bins(vec![5, 9, 7, 8], 2), [vec![1, 0], vec![3, 2]]);
        // equal weights: index order, round robin
        assert_eq!(lpt_bins(vec![1; 5], 3), [vec![0, 3], vec![1, 4], vec![2]]);
    }

    /// Waits on the barrier when dropped — on the way out of a panic too.
    struct WaitOnDrop<'a>(&'a Barrier);

    impl Drop for WaitOnDrop<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }

    /// The caller's bin panics while its siblings are still working — none
    /// can finish before that unwinding passes the barrier — yet every
    /// sibling runs to its end before the payload surfaces, and of two
    /// panicking bins the lower one's payload wins.
    #[test]
    #[expect(clippy::disallowed_types, reason = "one completion flag per bin, set by the bin's own thread and read after the join")]
    fn a_panic_surfaces_only_after_every_sibling_joined() {
        // equal weights: item i lands in bin i
        let items: Vec<usize> = (0..4).collect();
        let unwinding = Barrier::new(4);
        let finished: Vec<std::sync::OnceLock<()>> = (0..4).map(|_| std::sync::OnceLock::new()).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            ExecConfig::with_threads(4).map(&items, |_| 1, |&i| {
                if i == 0 {
                    let _wait = WaitOnDrop(&unwinding);
                    panic!("bin 0 gave up");
                }
                unwinding.wait();
                finished[i].set(()).expect("each item runs once");
                assert!(i != 2, "bin 2 gave up too");
            })
        }))
        .expect_err("both panics must surface as one");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"bin 0 gave up"));
        assert!(finished[1..].iter().all(|f| f.get().is_some()), "bins 1..3 ran to the end before the caller resumed");
    }

    #[test]
    fn a_panic_in_a_later_bin_arrives_intact() {
        let payload = catch_unwind(|| {
            ExecConfig::with_threads(3).map(&[0usize, 1, 2], |_| 1, |&i| assert!(i != 2, "item {i} exploded"))
        })
        .expect_err("the item's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 2 exploded"));
    }
}
