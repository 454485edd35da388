// Allow-suppressed counterpart of c001_bad.rs: an engine-internal
// diagnostics sink with written justifications — observability only,
// never read back into protocol or scheduling decisions.

// lcg-lint: allow(C001) -- diagnostics-only import, see the justified field below
use std::sync::atomic::{AtomicU64, Ordering};

// lcg-lint: allow(C001) -- build-time constant table parsed once, never written after first use
static UNITS: OnceLock<Vec<&'static str>> = OnceLock::new();

pub struct DiagSink {
    // lcg-lint: allow(C001) -- write-only progress gauge, never read by the engine
    progress: AtomicU64,
}

impl DiagSink {
    pub fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }
}
