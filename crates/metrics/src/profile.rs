//! The profiling plane: wall-clock phase timers and peak-RSS observation.
//!
//! **Everything in this module is explicitly nondeterministic.** It exists
//! to answer "how fast / how big", never "what happened": no value
//! produced here may influence protocol state, merge order, or RNG
//! seeding. That quarantine is enforced statically by the root
//! `clippy.toml` (rule O001: `Stamp::now`, `Stamp::ns_since` and
//! [`peak_rss_bytes`] are disallowed methods), and this module is the
//! single sanctioned carve-out from rule D003 (wall-clock in deterministic
//! crates): the monotonic clock and the `VmHWM` read live here and nowhere
//! else. Timers are per run — each [`Profile`] owns its own — so
//! concurrent recorders in one process never see each other's phases.
//!
//! Golden tests strip the `profile` section of a metrics report before
//! comparing, so nothing in this module can ever force a re-blessing.

#![expect(
    clippy::disallowed_methods,
    reason = "the profiling plane's quarantine: the one module that reads the clock and RSS (O001, D003)"
)]

use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// One reading of the monotonic clock. There is no process-wide epoch, so
/// a reading means nothing alone; only the distance between two does.
///
/// This is the only clock the workspace's deterministic crates may touch,
/// and only from observer-side code: [`Profile`]'s phase timers.
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
}

impl Profile {
    /// Starts a profile whose total wall time begins now.
    #[must_use]
    pub fn start() -> Profile {
        Profile {
            started: Stamp::now(),
            open: Vec::new(),
            phases: Vec::new(),
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

    /// Finalizes: total wall time, peak RSS and the finished phases.
    #[must_use]
    pub fn finish(self) -> ProfileReport {
        ProfileReport {
            wall_ns: Stamp::now().ns_since(self.started),
            peak_rss_bytes: peak_rss_bytes(),
            phases: self.phases,
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
}

impl Serialize for ProfileReport {
    fn to_value(&self) -> Value {
        Value::object([
            ("wall_ns".to_string(), self.wall_ns.to_value()),
            ("peak_rss_bytes".to_string(), self.peak_rss_bytes.to_value()),
            ("phases".to_string(), self.phases.to_value()),
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
    fn rss_parses_on_linux_or_degrades_to_zero() {
        // On any Linux kernel VmHWM exists and is nonzero for a live
        // process; elsewhere the function must return 0, not panic.
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }

    #[test]
    fn profile_report_roundtrips() {
        let r = ProfileReport {
            wall_ns: 1234,
            peak_rss_bytes: 4096,
            phases: vec![PhaseTiming { name: "election".to_string(), wall_ns: 99 }],
        };
        let json = serde_json::to_string(&r).expect("serialize profile");
        let back: ProfileReport = serde_json::from_str(&json).expect("roundtrip profile");
        assert_eq!(back, r);
    }
}
