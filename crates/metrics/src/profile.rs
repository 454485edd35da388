//! The profiling plane: wall-clock timers, executor utilization sampling,
//! and peak-RSS observation.
//!
//! **Everything in this module is explicitly nondeterministic.** It exists
//! to answer "how fast / how big", never "what happened": no value
//! produced here may influence protocol state, merge order, or RNG
//! seeding. That quarantine is enforced statically by lcg-lint rule O001,
//! and this file is the single sanctioned carve-out from rule D003
//! (wall-clock in deterministic crates): the monotonic clock and the
//! `VmHWM` read live here and nowhere else. Executor samples are per run —
//! each [`Profile`] owns the [`ExecProfile`] its batches deposit into — so
//! concurrent recorders in one process never see each other's workers.
//!
//! Golden tests strip the `profile` section of a metrics report before
//! comparing, so nothing in this module can ever force a re-blessing.

use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// One reading of the monotonic clock. There is no process-wide epoch, so
/// a reading means nothing alone; only the distance between two does.
///
/// This is the only clock the workspace's deterministic crates may touch,
/// and only from observer-side code: the executor pool reads it to sample
/// per-worker busy/wait time when a batch is handed an [`ExecProfile`].
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Instant);

impl Stamp {
    /// Reads the clock.
    #[must_use]
    pub fn now() -> Stamp {
        Stamp(Instant::now())
    }

    /// Nanoseconds from `earlier` to this reading (0 if it is not later).
    #[must_use]
    pub fn ns_since(self, earlier: Stamp) -> u64 {
        u64::try_from(self.0.saturating_duration_since(earlier.0).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One worker thread's accumulated timing observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSample {
    /// Nanoseconds spent executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked on the rendezvous channel waiting for work.
    pub wait_ns: u64,
    /// Jobs executed.
    pub jobs: u64,
}

impl WorkerSample {
    /// Folds another sample into this one (index-aligned accumulation).
    #[inline]
    pub fn accumulate(&mut self, other: &WorkerSample) {
        self.busy_ns += other.busy_ns;
        self.wait_ns += other.wait_ns;
        self.jobs += other.jobs;
    }

    /// Fraction of observed time spent busy, in `[0, 1]` (0 when idle).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

impl Serialize for WorkerSample {
    fn to_value(&self) -> Value {
        Value::object([
            ("busy_ns".to_string(), self.busy_ns.to_value()),
            ("wait_ns".to_string(), self.wait_ns.to_value()),
            ("jobs".to_string(), self.jobs.to_value()),
        ])
    }
}

impl Deserialize for WorkerSample {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        Ok(WorkerSample {
            busy_ns: u64::from_value(field("busy_ns")?)?,
            wait_ns: u64::from_value(field("wait_ns")?)?,
            jobs: u64::from_value(field("jobs")?)?,
        })
    }
}

/// Aggregated executor-pool utilization: one slot per worker index,
/// accumulated across every sampled batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Per-worker accumulated samples, indexed by worker id.
    pub workers: Vec<WorkerSample>,
    /// Batches that contributed samples.
    pub batches: u64,
}

impl ExecProfile {
    /// Deposits one batch's per-worker samples.
    ///
    /// Index-aligned: `samples[i]` accumulates into worker slot `i`, growing
    /// the slot vector on first contact.
    pub fn record_batch(&mut self, samples: &[WorkerSample]) {
        if samples.is_empty() {
            return;
        }
        if self.workers.len() < samples.len() {
            self.workers.resize(samples.len(), WorkerSample::default());
        }
        for (slot, s) in self.workers.iter_mut().zip(samples) {
            slot.accumulate(s);
        }
        self.batches += 1;
    }
}

impl Serialize for ExecProfile {
    fn to_value(&self) -> Value {
        Value::object([
            ("workers".to_string(), self.workers.to_value()),
            ("batches".to_string(), self.batches.to_value()),
        ])
    }
}

impl Deserialize for ExecProfile {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        Ok(ExecProfile {
            workers: Vec::from_value(field("workers")?)?,
            batches: u64::from_value(field("batches")?)?,
        })
    }
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 when the proc filesystem is unavailable.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Wall time of one named phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (matches the trace span name at the same boundary).
    pub name: String,
    /// Wall-clock nanoseconds between phase start and end.
    pub wall_ns: u64,
}

impl Serialize for PhaseTiming {
    fn to_value(&self) -> Value {
        Value::object([
            ("name".to_string(), self.name.to_value()),
            ("wall_ns".to_string(), self.wall_ns.to_value()),
        ])
    }
}

impl Deserialize for PhaseTiming {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        Ok(PhaseTiming {
            name: String::from_value(field("name")?)?,
            wall_ns: u64::from_value(field("wall_ns")?)?,
        })
    }
}

/// Live phase-timer state: an open-phase stack plus finished timings.
#[derive(Debug)]
pub struct Profile {
    started: Stamp,
    open: Vec<(String, Stamp)>,
    phases: Vec<PhaseTiming>,
    /// Where the executor batches this profile observes deposit their
    /// per-worker samples.
    pub exec: ExecProfile,
}

impl Profile {
    /// Starts a profile whose total wall time begins now.
    #[must_use]
    pub fn start() -> Profile {
        Profile {
            started: Stamp::now(),
            open: Vec::new(),
            phases: Vec::new(),
            exec: ExecProfile::default(),
        }
    }

    /// Opens a named phase timer.
    pub fn phase_start(&mut self, name: &str) {
        self.open.push((name.to_string(), Stamp::now()));
    }

    /// Closes the innermost open phase with this name; a close without a
    /// matching open is ignored (the profiler never panics the run it
    /// observes).
    pub fn phase_end(&mut self, name: &str) {
        let Some(pos) = self.open.iter().rposition(|(n, _)| n == name) else {
            return;
        };
        let (name, t0) = self.open.remove(pos);
        self.phases.push(PhaseTiming { name, wall_ns: Stamp::now().ns_since(t0) });
    }

    /// Finalizes: total wall time, peak RSS, finished phases, and the
    /// executor samples deposited since the profile started.
    #[must_use]
    pub fn finish(self) -> ProfileReport {
        ProfileReport {
            wall_ns: Stamp::now().ns_since(self.started),
            peak_rss_bytes: peak_rss_bytes(),
            phases: self.phases,
            exec: self.exec,
        }
    }
}

/// The finished profiling-plane section of a metrics report.
///
/// Golden tests strip this section entirely; nothing here participates in
/// determinism comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Total wall-clock nanoseconds covered by the recorder.
    pub wall_ns: u64,
    /// Peak resident-set size in bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
    /// Per-phase wall times in completion order.
    pub phases: Vec<PhaseTiming>,
    /// Executor-pool utilization accumulated while recording.
    pub exec: ExecProfile,
}

impl Serialize for ProfileReport {
    fn to_value(&self) -> Value {
        Value::object([
            ("wall_ns".to_string(), self.wall_ns.to_value()),
            ("peak_rss_bytes".to_string(), self.peak_rss_bytes.to_value()),
            ("phases".to_string(), self.phases.to_value()),
            ("exec".to_string(), self.exec.to_value()),
        ])
    }
}

impl Deserialize for ProfileReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        Ok(ProfileReport {
            wall_ns: u64::from_value(field("wall_ns")?)?,
            peak_rss_bytes: u64::from_value(field("peak_rss_bytes")?)?,
            phases: Vec::from_value(field("phases")?)?,
            exec: ExecProfile::from_value(field("exec")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = Stamp::now();
        let b = Stamp::now();
        assert_eq!(a.ns_since(a), 0);
        assert_eq!(a.ns_since(b), 0, "an earlier reading is never after a later one");
    }

    #[test]
    fn phase_timers_nest_and_tolerate_mismatch() {
        let mut p = Profile::start();
        p.phase_start("outer");
        p.phase_start("inner");
        p.phase_end("inner");
        p.phase_end("outer");
        p.phase_end("never-opened"); // ignored
        let report = p.finish();
        let names: Vec<&str> = report.phases.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
    }

    #[test]
    fn sink_accumulates_index_aligned() {
        let mut sink = ExecProfile::default();
        sink.record_batch(&[]); // an empty batch is not a batch
        sink.record_batch(&[WorkerSample { busy_ns: 10, wait_ns: 5, jobs: 1 }]);
        sink.record_batch(&[
            WorkerSample { busy_ns: 1, wait_ns: 1, jobs: 1 },
            WorkerSample { busy_ns: 2, wait_ns: 2, jobs: 2 },
        ]);
        assert_eq!(sink.batches, 2);
        assert_eq!(
            sink.workers,
            [
                WorkerSample { busy_ns: 11, wait_ns: 6, jobs: 2 },
                WorkerSample { busy_ns: 2, wait_ns: 2, jobs: 2 },
            ]
        );
        // the profile that owns the sink reports exactly these samples
        let mut p = Profile::start();
        p.exec = sink.clone();
        assert_eq!(p.finish().exec, sink);
    }

    #[test]
    fn rss_parses_on_linux_or_degrades_to_zero() {
        // On any Linux kernel VmHWM exists and is nonzero for a live
        // process; elsewhere the function must return 0, not panic.
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }

    #[test]
    fn utilization_is_a_fraction() {
        let s = WorkerSample { busy_ns: 3, wait_ns: 1, jobs: 1 };
        assert!((s.utilization() - 0.75).abs() < 1e-9);
        assert_eq!(WorkerSample::default().utilization(), 0.0);
    }

    #[test]
    fn profile_report_roundtrips() {
        let r = ProfileReport {
            wall_ns: 1234,
            peak_rss_bytes: 4096,
            phases: vec![PhaseTiming { name: "election".to_string(), wall_ns: 99 }],
            exec: ExecProfile {
                workers: vec![WorkerSample { busy_ns: 7, wait_ns: 3, jobs: 2 }],
                batches: 1,
            },
        };
        let json = serde_json::to_string(&r).expect("serialize profile");
        let back: ProfileReport = serde_json::from_str(&json).expect("roundtrip profile");
        assert_eq!(back, r);
    }
}
