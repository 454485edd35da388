//! The deterministic plane: a registry of named counters, gauges, and
//! histograms for *logical* quantities (messages, words, rounds, retries,
//! cluster counts).
//!
//! Everything in this module obeys the same determinism contract as the
//! engine itself: values are derived purely from protocol state, storage
//! is `BTreeMap` (stable iteration order), and the serialized form is
//! bit-identical from run to run. Wall-clock, RSS, and scheduling
//! observations are banned here — they live in [`crate::profile`], behind
//! the O001 quarantine of the root `clippy.toml`.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Power-of-two histogram over `u64` samples.
///
/// Samples are bucketed by bit width (`bucket 0` holds the value 0,
/// `bucket k` holds values in `[2^(k-1), 2^k)`), which keeps the bucket
/// map small, integer-only, and merge-commutative. Tracks exact
/// `count`/`sum`/`min`/`max` alongside the buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bit-width bucket -> sample count; absent buckets are zero.
    buckets: BTreeMap<u32, u64>,
}

/// Bit-width bucket index of a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> u32 {
    64 - v.leading_zeros()
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
    }

    /// Mean of the recorded samples, or 0 for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(bucket, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &c)| (b, c))
    }

    /// Accumulates another histogram into this one.
    // Order-insensitive: count/sum/bucket counts are u64 sums and min/max are lattice meets/joins (empty side is the identity); all commute and associate exactly (order-permutation proptest: crates/congest/tests/merge_order.rs)
    #[inline]
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<(u32, u64)> = self.buckets().collect();
        Value::object([
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("min".to_string(), self.min.to_value()),
            ("max".to_string(), self.max.to_value()),
            ("buckets".to_string(), buckets.to_value()),
        ])
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        let pairs = Vec::<(u32, u64)>::from_value(field("buckets")?)?;
        Ok(Histogram {
            count: u64::from_value(field("count")?)?,
            sum: u64::from_value(field("sum")?)?,
            min: u64::from_value(field("min")?)?,
            max: u64::from_value(field("max")?)?,
            buckets: pairs.into_iter().collect(),
        })
    }
}

/// The deterministic metrics registry: named counters (monotone sums),
/// gauges (point-in-time values; merge takes the max), and histograms.
///
/// Names are dotted paths (`net.messages`, `phase.election.rounds`);
/// `BTreeMap` storage makes iteration and serialization order independent
/// of registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `v` to the named counter (created at 0).
    #[inline]
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the named gauge to `v`.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Raises the named gauge to `v` if `v` is larger (created at `v`).
    #[inline]
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(v);
        *g = (*g).max(v);
    }

    /// Records a sample into the named histogram.
    #[inline]
    pub fn histogram_record(&mut self, name: &str, v: u64) {
        self.histograms.entry(name.to_string()).or_default().record(v);
    }

    /// The named counter's value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// `(name, value)` over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `(name, value)` over all gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `(name, histogram)` over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Accumulates another registry into this one (used by the recovery
    /// harness to fold per-attempt registries into one report).
    // Order-insensitive: counters are u64 sums, gauges merge by maximum, histograms by Histogram::merge; all three are commutative+associative with the empty registry as identity (order-permutation proptest: crates/congest/tests/merge_order.rs)
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(v);
            *g = (*g).max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl Serialize for Registry {
    fn to_value(&self) -> Value {
        Value::object([
            (
                "counters".to_string(),
                Value::object(self.counters.iter().map(|(k, v)| (k.clone(), v.to_value()))),
            ),
            (
                "gauges".to_string(),
                Value::object(self.gauges.iter().map(|(k, v)| (k.clone(), v.to_value()))),
            ),
            (
                "histograms".to_string(),
                Value::object(self.histograms.iter().map(|(k, v)| (k.clone(), v.to_value()))),
            ),
        ])
    }
}

impl Deserialize for Registry {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        fn section<T: Deserialize>(v: &Value, k: &str) -> Result<BTreeMap<String, T>, serde::Error> {
            match v.get(k) {
                None => Ok(BTreeMap::new()),
                Some(Value::Object(m)) => {
                    m.iter().map(|(k, v)| Ok((k.clone(), T::from_value(v)?))).collect()
                }
                Some(_) => Err(serde::Error::msg(format!("`{k}` must be an object"))),
            }
        }
        Ok(Registry {
            counters: section(v, "counters")?,
            gauges: section(v, "gauges")?,
            histograms: section(v, "histograms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_classes_are_bit_widths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_exact_extremes() {
        let mut h = Histogram::default();
        for v in [5, 0, 9, 2] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 16);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 9);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn histogram_merge_handles_empty_sides() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        b.record(7);
        let snapshot = b.clone();
        a.merge(&b); // empty ← nonempty adopts min/max
        assert_eq!(a, snapshot);
        a.merge(&Histogram::default()); // nonempty ← empty is a no-op
        assert_eq!(a, snapshot);
    }

    #[test]
    fn registry_operations_accumulate() {
        let mut r = Registry::new();
        r.counter_add("net.messages", 3);
        r.counter_add("net.messages", 4);
        r.gauge_set("clusters", 12);
        r.gauge_max("peak", 5);
        r.gauge_max("peak", 3);
        r.histogram_record("words", 8);
        assert_eq!(r.counter("net.messages"), 7);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("clusters"), Some(12));
        assert_eq!(r.gauge("peak"), Some(5));
        assert_eq!(r.histogram("words").map(|h| h.count), Some(1));
    }

    #[test]
    fn registry_merge_folds_all_three_kinds() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 10);
        a.histogram_record("h", 2);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 7);
        b.histogram_record("h", 5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(10), "gauges merge by max");
        let h = a.histogram("h").expect("merged histogram");
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 7, 2, 5));
    }

    #[test]
    fn serialization_roundtrips_and_orders_keys() {
        let mut r = Registry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 2);
        r.histogram_record("words", 300);
        let json = serde_json::to_string(&r).expect("serialize registry");
        let alpha = json.find("alpha").expect("alpha present");
        let zeta = json.find("zeta").expect("zeta present");
        assert!(alpha < zeta, "BTreeMap must order keys: {json}");
        let back: Registry = serde_json::from_str(&json).expect("roundtrip registry");
        assert_eq!(back, r);
    }
}
