//! The persistent worker pool behind the round engine's batch paths.
//!
//! The old engine spawned and joined a fresh `std::thread` per chunk *per
//! round* — 5–15 µs of scheduler traffic each, which swamps the per-round
//! work of the paper's decompose→solve→route loop on any graph small
//! enough to fit in cache. [`run_batch`] amortizes that cost: workers are
//! spawned **once per batch** (a multi-round `run_state`, a full
//! `exchange_rounds` loop, an entire random-walk routing execution), then
//! park on a rendezvous channel between rounds. Waking a parked worker is
//! one channel send — two orders of magnitude cheaper than a spawn.
//!
//! ## Barrier protocol
//!
//! Each worker owns one contiguous chunk of the per-vertex state for the
//! whole batch and a pair of capacity-1 rendezvous lanes:
//!
//! ```text
//!   leader --dispatch(job)--> [feed lane] --> worker (parked on recv)
//!   leader <--collect()------ [done lane] <-- worker (job transformed)
//! ```
//!
//! A round is one `dispatch` + one `collect` per worker, *in chunk order*.
//! Jobs carry the round's buffers (inbox rows, outbox arenas, counters) by
//! move, so no lock is ever taken and nothing is shared mutably: the
//! leader merges returned arenas in chunk order, which reproduces vertex
//! order exactly — the determinism argument is identical to the one-shot
//! engine's (DESIGN §10.3). At most one job may be outstanding per worker.
//!
//! ## Panic propagation (pool poisoning)
//!
//! A panic inside a worker's job (e.g. a CONGEST capacity violation in a
//! step closure) must reach the caller with its **original payload** and
//! must never leave siblings parked forever. `std::thread::scope` alone
//! discards unjoined payloads (re-panicking with a generic message), so
//! the pool handles both itself: when a `dispatch` or `collect` finds a
//! dead lane, the [`Conductor`] drops every feed lane — parked workers
//! observe the disconnect and exit — joins all workers in order, and
//! re-raises the first captured payload. A panic in the *leader* unwinds
//! through the scope, which performs the same drop-feeds-then-join dance
//! implicitly. Either way the pool is fully torn down before the panic
//! escapes: cleanly poisoned, never deadlocked, and the owning `Network`
//! remains usable afterwards.

use lcg_metrics::profile::{ExecProfile, Stamp, WorkerSample};
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::ScopedJoinHandle;

/// One worker's rendezvous lanes plus its join handle. The join value is
/// the worker's profiling-plane timing sample — observer-only data that
/// flows out to the batch's [`ExecProfile`] sink, never back into the batch.
struct Lane<'scope, Job> {
    feed: Option<SyncSender<Job>>,
    done: Receiver<Job>,
    handle: Option<ScopedJoinHandle<'scope, WorkerSample>>,
}

/// The leader's handle to a running batch: dispatches jobs to parked
/// workers and collects their results, one lane per chunk.
pub struct Conductor<'scope, Job> {
    lanes: Vec<Lane<'scope, Job>>,
}

impl<Job> Conductor<'_, Job> {
    /// Number of workers (= chunks) in the batch.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// Hands `job` to `worker`, waking it. At most one job may be
    /// outstanding per worker (dispatch again only after [`Conductor::collect`]).
    ///
    /// # Panics
    ///
    /// If the worker died (its job panicked), tears the pool down and
    /// re-raises that worker's original panic payload.
    pub fn dispatch(&mut self, worker: usize, job: Job) {
        let alive = match &self.lanes[worker].feed {
            Some(feed) => feed.send(job).is_ok(),
            None => false,
        };
        if !alive {
            self.poison_unwind();
        }
    }

    /// Blocks until `worker` finishes its outstanding job and returns it.
    ///
    /// # Panics
    ///
    /// If the worker died instead of answering, tears the pool down and
    /// re-raises that worker's original panic payload.
    pub fn collect(&mut self, worker: usize) -> Job {
        match self.lanes[worker].done.recv() {
            Ok(job) => job,
            Err(_) => self.poison_unwind(),
        }
    }

    /// Poisons the pool after a lane died: wakes every parked worker (by
    /// dropping the feed lanes), joins them all, and re-raises the first
    /// panic payload — so the caller sees the worker's original panic
    /// message, never a hang and never a generic proxy.
    fn poison_unwind(&mut self) -> ! {
        // a poisoned batch discards its timing samples — profiling data
        // never outlives the run it observed
        match drain(&mut self.lanes).0 {
            Some(payload) => std::panic::resume_unwind(payload),
            // lcg-lint: allow(P001) -- unreachable defensive arm: a lane only dies when its worker panicked, but a panic here still beats a deadlock
            None => panic!("worker pool poisoned: a worker exited without a panic payload"),
        }
    }
}

/// Drops all feed lanes (parked workers observe the disconnect and exit)
/// and joins every worker in lane order, returning the first panic payload
/// captured, if any, plus the per-worker timing samples of the workers
/// that exited cleanly.
fn drain<Job>(
    lanes: &mut [Lane<'_, Job>],
) -> (Option<Box<dyn std::any::Any + Send>>, Vec<WorkerSample>) {
    for lane in lanes.iter_mut() {
        lane.feed = None;
    }
    let mut payload = None;
    let mut samples = Vec::with_capacity(lanes.len());
    for lane in lanes.iter_mut() {
        if let Some(handle) = lane.handle.take() {
            match handle.join() {
                Ok(s) => samples.push(s),
                Err(p) => {
                    payload.get_or_insert(p);
                }
            }
        }
    }
    (payload, samples)
}

/// Runs one batch on a persistent worker pool.
///
/// `states` is split at the `chunks` boundaries; worker `i` owns chunk `i`
/// (as `&mut [St]`) for the whole batch, so per-vertex state never crosses
/// a thread boundary mid-batch and no synchronization is needed beyond the
/// job rendezvous. Each dispatched job is transformed by
/// `worker(chunk_index, chunk_range, chunk_states, job)` on the worker's
/// thread and handed back to the leader.
///
/// `sink` is the profiling plane's per-run sample sink: workers time their
/// busy/wait spans iff it is `Some`, and the samples are deposited there
/// after an orderly shutdown. With `None` the batch performs zero clock
/// reads.
///
/// `leader` drives the rounds (dispatch/collect in chunk order, merge
/// between rounds) and its return value is the batch's. When it returns,
/// the pool shuts down: feed lanes drop, parked workers exit, and all
/// threads are joined — re-raising a worker panic with its original
/// payload if one slipped through uncollected.
///
/// # Panics
///
/// Re-raises any worker panic (original payload) and propagates leader
/// panics; in both cases every worker is joined first — never a hang.
///
/// # Requirements
///
/// `chunks` must be non-empty, with lengths summing to `states.len()`
/// (e.g. from `ExecConfig::par_chunks`).
pub fn run_batch<St, Job, W, L, T>(
    chunks: &[Range<usize>],
    states: &mut [St],
    worker: &W,
    sink: Option<&mut ExecProfile>,
    leader: L,
) -> T
where
    St: Send,
    Job: Send,
    W: Fn(usize, Range<usize>, &mut [St], Job) -> Job + Sync,
    L: for<'s> FnOnce(&mut Conductor<'s, Job>) -> T,
{
    debug_assert_eq!(
        chunks.iter().map(|c| c.len()).sum::<usize>(),
        states.len(),
        "chunks must partition the states"
    );
    let sampling = sink.is_some();
    std::thread::scope(|scope| {
        let mut lanes: Vec<Lane<'_, Job>> = Vec::with_capacity(chunks.len());
        let mut rest = states;
        for (i, range) in chunks.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let (feed_tx, feed_rx) = sync_channel::<Job>(1);
            let (done_tx, done_rx) = sync_channel::<Job>(1);
            let range = range.clone();
            let handle = scope.spawn(move || {
                // Profiling-plane sampling is decided once per batch: when
                // off the loop below performs zero clock reads. The sample
                // is observer-only — it leaves on the join handle, never
                // through the job lanes.
                let mut sample = WorkerSample::default();
                // park between rounds; a dropped feed lane ends the batch
                loop {
                    let parked_at = sampling.then(Stamp::now);
                    let Ok(job) = feed_rx.recv() else { break };
                    let woke_at = sampling.then(Stamp::now);
                    let job = worker(i, range.clone(), &mut *chunk, job);
                    if let (Some(parked_at), Some(woke_at)) = (parked_at, woke_at) {
                        sample.wait_ns += woke_at.ns_since(parked_at);
                        sample.busy_ns += Stamp::now().ns_since(woke_at);
                        sample.jobs += 1;
                    }
                    if done_tx.send(job).is_err() {
                        break;
                    }
                }
                sample
            });
            lanes.push(Lane { feed: Some(feed_tx), done: done_rx, handle: Some(handle) });
        }
        let mut conductor = Conductor { lanes };
        let out = leader(&mut conductor);
        // orderly shutdown: same drain as poisoning, but normally no
        // payload surfaces
        let (payload, samples) = drain(&mut conductor.lanes);
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
        if let Some(sink) = sink {
            sink.record_batch(&samples);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_chunks(n: usize, k: usize) -> Vec<Range<usize>> {
        crate::executor::ExecConfig::with_threads(k).chunks(n)
    }

    #[test]
    fn batch_reuses_workers_across_rounds() {
        // 100 rounds of "+1 to every element" on 4 persistent workers
        let mut states: Vec<u64> = vec![0; 64];
        let chunks = even_chunks(64, 4);
        let worker =
            |_i: usize, _r: Range<usize>, chunk: &mut [u64], job: ()| {
                for s in chunk.iter_mut() {
                    *s += 1;
                }
                job
            };
        run_batch(&chunks, &mut states, &worker, None, |pool| {
            for _ in 0..100 {
                for i in 0..pool.workers() {
                    pool.dispatch(i, ());
                }
                for i in 0..pool.workers() {
                    pool.collect(i);
                }
            }
        });
        assert!(states.iter().all(|&s| s == 100));
    }

    #[test]
    fn jobs_move_buffers_in_and_out() {
        let mut states: Vec<usize> = (0..10).collect();
        let chunks = even_chunks(10, 3);
        let worker = |i: usize, r: Range<usize>, chunk: &mut [usize], mut buf: Vec<usize>| {
            assert_eq!(r.len(), chunk.len());
            buf.push(i);
            buf
        };
        let sizes = run_batch(&chunks, &mut states, &worker, None, |pool| {
            let mut out = Vec::new();
            for i in 0..pool.workers() {
                pool.dispatch(i, Vec::new());
            }
            for i in 0..pool.workers() {
                out.push(pool.collect(i));
            }
            out
        });
        assert_eq!(sizes, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn worker_panic_reaches_leader_with_payload() {
        let mut states: Vec<u64> = vec![0; 8];
        let chunks = even_chunks(8, 4);
        let worker = |i: usize, _r: Range<usize>, _c: &mut [u64], job: ()| {
            assert!(i != 2, "chunk 2 exploded");
            job
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&chunks, &mut states, &worker, None, |pool| {
                for i in 0..pool.workers() {
                    pool.dispatch(i, ());
                }
                for i in 0..pool.workers() {
                    pool.collect(i);
                }
            })
        }))
        .expect_err("worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("chunk 2 exploded"), "payload lost: {msg:?}");
    }

    #[test]
    fn sampling_records_per_worker_utilization() {
        // A batch handed a sink deposits exactly its own workers' samples,
        // one job per dispatched round; a batch handed `None` (every other
        // test here) reads no clock and deposits nowhere.
        let mut states: Vec<u64> = vec![0; 32];
        let chunks = even_chunks(32, 4);
        let worker = |_i: usize, _r: Range<usize>, chunk: &mut [u64], job: ()| {
            for s in chunk.iter_mut() {
                *s = s.wrapping_mul(31).wrapping_add(7);
            }
            job
        };
        let mut prof = ExecProfile::default();
        run_batch(&chunks, &mut states, &worker, Some(&mut prof), |pool| {
            for _ in 0..5 {
                for i in 0..pool.workers() {
                    pool.dispatch(i, ());
                }
                for i in 0..pool.workers() {
                    pool.collect(i);
                }
            }
        });
        assert_eq!(prof.batches, 1, "the sampled batch must deposit once");
        assert_eq!(prof.workers.len(), 4, "one slot per worker");
        assert!(
            prof.workers.iter().all(|w| w.jobs == 5),
            "each worker ran 5 jobs: {:?}",
            prof.workers
        );
        assert!(
            prof.workers.iter().any(|w| w.busy_ns + w.wait_ns > 0),
            "sampling must observe nonzero time"
        );
    }

    #[test]
    fn leader_panic_does_not_hang_parked_workers() {
        let mut states: Vec<u64> = vec![0; 8];
        let chunks = even_chunks(8, 2);
        let worker = |_i: usize, _r: Range<usize>, _c: &mut [u64], job: ()| job;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&chunks, &mut states, &worker, None, |pool| {
                pool.dispatch(0, ());
                pool.collect(0);
                panic!("leader bailed");
            })
        }))
        .expect_err("leader panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "leader bailed");
    }
}
