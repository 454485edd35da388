// Known-bad fixture for C001: cross-thread synchronization primitives in a
// deterministic crate, outside the whitelisted executor pool core. Every one
// of these introduces timing the chunk-order determinism proof cannot see.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

static mut TOTAL_ROUNDS: u64 = 0;

static PROGRESS: AtomicU64 = AtomicU64::new(0);

// process-global first-call state: two runs in one process share it
static EPOCH: OnceLock<Instant> = OnceLock::new();

pub struct SharedCounters {
    // workers racing on one counter: totals may match, bit-identity does not
    messages: Mutex<u64>,
    cache: RwLock<Vec<u64>>,
}

pub fn bump(c: &SharedCounters) {
    PROGRESS.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut m) = c.messages.lock() {
        *m += 1;
    }
}
