//! # lcg-metrics — two-plane runtime observability
//!
//! Splits "what the protocol did" from "what the hardware did" into two
//! planes with a hard wall between them:
//!
//! - the **deterministic plane** ([`registry`]) counts logical quantities
//!   — messages, words, rounds, retries, cluster counts — and serializes
//!   bit-identically from run to run;
//! - the **profiling plane** ([`profile`]) observes wall-clock phase
//!   times and peak RSS; it is explicitly nondeterministic and
//!   *observer-only*.
//!
//! A [`Recorder`] runs both planes side by side and finishes into a
//! versioned [`Report`] whose JSON puts the deterministic section first
//! and the `profile` section last, so golden comparisons strip profiling
//! noise with [`Report::deterministic_json`].
//!
//! The quarantine is enforced statically by the root `clippy.toml`: only
//! [`profile`] may touch the monotonic clock (rule D003) or call the
//! profiling plane's readers (`Stamp::now`, `Stamp::ns_since`,
//! [`profile::peak_rss_bytes`]; rule O001).

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod profile;
pub mod registry;
pub mod report;

pub use profile::{PhaseTiming, Profile, ProfileReport};
pub use registry::{Histogram, Registry};

use serde::{Deserialize, Serialize, Value};

/// Live recorder: a deterministic [`Registry`] plus a profiling
/// [`Profile`] advancing together through a run.
#[derive(Debug)]
pub struct Recorder {
    label: String,
    registry: Registry,
    prof: Profile,
}

impl Recorder {
    /// Starts recording under a report label (e.g. `"framework"`).
    #[must_use]
    pub fn new(label: &str) -> Recorder {
        Recorder { label: label.to_string(), registry: Registry::new(), prof: Profile::start() }
    }

    /// Adds to a deterministic counter.
    #[inline]
    pub fn counter_add(&mut self, name: &str, v: u64) {
        self.registry.counter_add(name, v);
    }

    /// Sets a deterministic gauge.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        self.registry.gauge_set(name, v);
    }

    /// Raises a deterministic gauge to a new maximum.
    #[inline]
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        self.registry.gauge_max(name, v);
    }

    /// Records a deterministic histogram sample.
    #[inline]
    pub fn histogram_record(&mut self, name: &str, v: u64) {
        self.registry.histogram_record(name, v);
    }

    /// Opens a profiling-plane phase timer.
    pub fn phase_start(&mut self, name: &str) {
        self.prof.phase_start(name);
    }

    /// Closes a profiling-plane phase timer.
    pub fn phase_end(&mut self, name: &str) {
        self.prof.phase_end(name);
    }

    /// The deterministic registry recorded so far.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stops recording and produces the final two-plane report.
    #[must_use]
    pub fn finish(self) -> Report {
        Report {
            schema: Report::SCHEMA,
            label: self.label,
            deterministic: self.registry,
            profile: self.prof.finish(),
        }
    }
}

/// A finished, versioned metrics report: the deterministic registry plus
/// the quarantined profiling section.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version of the serialized form.
    pub schema: u32,
    /// Run label chosen at [`Recorder::new`].
    pub label: String,
    /// The deterministic plane — byte-identical from run to run.
    pub deterministic: Registry,
    /// The profiling plane — stripped by golden comparisons.
    pub profile: ProfileReport,
}

impl Report {
    /// Current schema version written by [`Report::to_json`].
    pub const SCHEMA: u32 = 1;

    /// Full pretty-printed JSON: `deterministic` and `label` sections
    /// first (BTreeMap key order), `profile` after, `schema` last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s =
            serde_json::to_string_pretty(self).expect("value-tree serialization is infallible");
        s.push('\n');
        s
    }

    /// Pretty-printed JSON of the deterministic plane only — the exact
    /// bytes determinism tests compare across thread counts.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        struct DetView<'a>(&'a Report);
        impl Serialize for DetView<'_> {
            fn to_value(&self) -> Value {
                Value::object([
                    ("schema".to_string(), self.0.schema.to_value()),
                    ("label".to_string(), self.0.label.to_value()),
                    ("deterministic".to_string(), self.0.deterministic.to_value()),
                ])
            }
        }
        let mut s = serde_json::to_string_pretty(&DetView(self))
            .expect("value-tree serialization is infallible");
        s.push('\n');
        s
    }

    /// Parses a report previously written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        Report::from_value(&v).map_err(|e| e.to_string())
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::object([
            ("schema".to_string(), self.schema.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("deterministic".to_string(), self.deterministic.to_value()),
            ("profile".to_string(), self.profile.to_value()),
        ])
    }
}

impl Deserialize for Report {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        Ok(Report {
            schema: u32::from_value(field("schema")?)?,
            label: String::from_value(field("label")?)?,
            deterministic: Registry::from_value(field("deterministic")?)?,
            profile: match v.get("profile") {
                Some(p) => ProfileReport::from_value(p)?,
                None => ProfileReport::default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_produces_both_planes() {
        let mut rec = Recorder::new("unit");
        rec.counter_add("net.messages", 5);
        rec.gauge_set("clusters", 3);
        rec.histogram_record("words", 17);
        rec.phase_start("p");
        rec.phase_end("p");
        let report = rec.finish();
        assert_eq!(report.schema, Report::SCHEMA);
        assert_eq!(report.label, "unit");
        assert_eq!(report.deterministic.counter("net.messages"), 5);
        assert_eq!(report.profile.phases.len(), 1);
    }

    #[test]
    fn json_roundtrips_and_sections_order() {
        let mut rec = Recorder::new("order");
        rec.counter_add("c", 1);
        let report = rec.finish();
        let json = report.to_json();
        let det = json.find("\"deterministic\"").expect("deterministic section");
        let prof = json.find("\"profile\"").expect("profile section");
        assert!(det < prof, "deterministic keys must precede profile: {json}");
        let back = Report::from_json(&json).expect("roundtrip report");
        assert_eq!(back, report);
    }

    #[test]
    fn deterministic_json_strips_the_profile_plane() {
        let mut rec = Recorder::new("strip");
        rec.counter_add("c", 1);
        let stripped = rec.finish().deterministic_json();
        assert!(!stripped.contains("profile"), "profile must be absent: {stripped}");
        assert!(!stripped.contains("wall_ns"));
        assert!(stripped.contains("\"deterministic\""));
    }

    #[test]
    fn report_without_profile_section_still_parses() {
        let mut rec = Recorder::new("legacy");
        rec.counter_add("c", 2);
        let report = rec.finish();
        let back = Report::from_json(&report.deterministic_json()).expect("parse stripped report");
        assert_eq!(back.deterministic, report.deterministic);
        assert_eq!(back.profile, ProfileReport::default());
    }
}
