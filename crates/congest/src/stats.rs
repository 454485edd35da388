//! Round/message/congestion accounting.

use serde::{Deserialize, Serialize, Value};

/// Metrics accumulated by a [`crate::Network`] execution.
///
/// `max_words_edge_round` is the largest message (in 64-bit words) that
/// crossed any edge in any single round — the quantity the CONGEST model
/// bounds by `O(log n)` and the LOCAL model does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Synchronous rounds executed.
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total 64-bit words sent.
    pub words: u64,
    /// Maximum words over a single edge (one direction) in a single round.
    pub max_words_edge_round: usize,
    /// Messages destroyed by a fault plan's i.i.d. coin or a link failure.
    pub dropped_messages: u64,
    /// Messages destroyed because an endpoint was crash-stopped.
    pub crashed_messages: u64,
    /// Messages truncated to the fault plan's capacity cap (still delivered).
    pub truncated_messages: u64,
}

// Hand-written serde impls (vendored serde has no derive).
//
// The fault counters serialize only when nonzero, so fault-free stats —
// including every pre-fault golden file — keep their exact historical
// byte representation.
impl Serialize for RoundStats {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("rounds".to_string(), self.rounds.to_value()),
            ("messages".to_string(), self.messages.to_value()),
            ("words".to_string(), self.words.to_value()),
            ("max_words_edge_round".to_string(), self.max_words_edge_round.to_value()),
        ];
        for (k, n) in [
            ("dropped_messages", self.dropped_messages),
            ("crashed_messages", self.crashed_messages),
            ("truncated_messages", self.truncated_messages),
        ] {
            if n != 0 {
                fields.push((k.to_string(), n.to_value()));
            }
        }
        Value::object(fields)
    }
}

impl Deserialize for RoundStats {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| v.get(k).ok_or_else(|| serde::Error::msg(format!("missing field `{k}`")));
        let opt = |k: &str| v.get(k).map(u64::from_value).transpose().map(|n| n.unwrap_or(0));
        Ok(RoundStats {
            rounds: u64::from_value(field("rounds")?)?,
            messages: u64::from_value(field("messages")?)?,
            words: u64::from_value(field("words")?)?,
            max_words_edge_round: usize::from_value(field("max_words_edge_round")?)?,
            dropped_messages: opt("dropped_messages")?,
            crashed_messages: opt("crashed_messages")?,
            truncated_messages: opt("truncated_messages")?,
        })
    }
}

impl RoundStats {
    /// Accumulates another phase's stats (rounds add; maxima take max).
    // lcg-lint: commutative -- every field is a u64/usize sum or a usize maximum; both commute and associate exactly (order-permutation proptest: tests/merge_order.rs)
    #[inline]
    pub fn merge(&mut self, other: &RoundStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.max_words_edge_round = self.max_words_edge_round.max(other.max_words_edge_round);
        self.dropped_messages += other.dropped_messages;
        self.crashed_messages += other.crashed_messages;
        self.truncated_messages += other.truncated_messages;
    }

    /// What the same execution accumulated after `start` was read: every
    /// running sum minus its earlier value. The edge peak is a maximum over
    /// the whole run, not a flow, and is reported as it stands.
    #[must_use]
    pub fn since(&self, start: &RoundStats) -> RoundStats {
        RoundStats {
            rounds: self.rounds - start.rounds,
            messages: self.messages - start.messages,
            words: self.words - start.words,
            max_words_edge_round: self.max_words_edge_round,
            dropped_messages: self.dropped_messages - start.dropped_messages,
            crashed_messages: self.crashed_messages - start.crashed_messages,
            truncated_messages: self.truncated_messages - start.truncated_messages,
        }
    }
}

/// Compares two executions' statistics field by field, returning a
/// human-readable diff on mismatch.
///
/// This is the assertion primitive behind the determinism test layer: the
/// parallel engine must reproduce the sequential engine's stats *exactly*,
/// and when it doesn't, "which counter diverged" is the first question.
///
/// # Examples
///
/// ```
/// use lcg_congest::stats::{compare, RoundStats};
///
/// let a = RoundStats { rounds: 3, messages: 10, words: 20, ..RoundStats::default() };
/// assert!(compare(&a, &a).is_ok());
/// let b = RoundStats { messages: 11, ..a };
/// let err = compare(&a, &b).unwrap_err();
/// assert!(err.contains("messages"));
/// ```
pub fn compare(a: &RoundStats, b: &RoundStats) -> Result<(), String> {
    let mut diffs = Vec::new();
    if a.rounds != b.rounds {
        diffs.push(format!("rounds: {} != {}", a.rounds, b.rounds));
    }
    if a.messages != b.messages {
        diffs.push(format!("messages: {} != {}", a.messages, b.messages));
    }
    if a.words != b.words {
        diffs.push(format!("words: {} != {}", a.words, b.words));
    }
    if a.max_words_edge_round != b.max_words_edge_round {
        diffs.push(format!(
            "max_words_edge_round: {} != {}",
            a.max_words_edge_round, b.max_words_edge_round
        ));
    }
    for (name, x, y) in [
        ("dropped_messages", a.dropped_messages, b.dropped_messages),
        ("crashed_messages", a.crashed_messages, b.crashed_messages),
        ("truncated_messages", a.truncated_messages, b.truncated_messages),
    ] {
        if x != y {
            diffs.push(format!("{name}: {x} != {y}"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("RoundStats diverged: {}", diffs.join("; ")))
    }
}

impl std::fmt::Display for RoundStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} messages={} words={} max_words/edge/round={}",
            self.rounds, self.messages, self.words, self.max_words_edge_round
        )?;
        for (name, n) in [
            ("dropped", self.dropped_messages),
            ("crashed", self.crashed_messages),
            ("truncated", self.truncated_messages),
        ] {
            if n != 0 {
                write!(f, " {name}={n}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = RoundStats {
            rounds: 3,
            messages: 10,
            words: 20,
            max_words_edge_round: 2,
            dropped_messages: 1,
            crashed_messages: 0,
            truncated_messages: 2,
        };
        let b = RoundStats {
            rounds: 2,
            messages: 5,
            words: 40,
            max_words_edge_round: 4,
            dropped_messages: 3,
            crashed_messages: 7,
            truncated_messages: 1,
        };
        let before = a;
        a.merge(&b);
        // `since` undoes the sums and keeps the run's peak
        assert_eq!(a.since(&before), RoundStats { max_words_edge_round: 4, ..b });
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 15);
        assert_eq!(a.words, 60);
        assert_eq!(a.max_words_edge_round, 4);
        assert_eq!(a.dropped_messages, 4);
        assert_eq!(a.crashed_messages, 7);
        assert_eq!(a.truncated_messages, 3);
    }

    /// `max_words_edge_round` is a *maximum over rounds*, not a flow: when
    /// two phases each peaked at k words on some edge, the combined run
    /// still peaked at k, not 2k. Summing it would inflate the CONGEST
    /// bandwidth bound the counter exists to certify.
    #[test]
    fn merge_takes_max_not_sum_for_edge_peak() {
        let mut a =
            RoundStats { rounds: 1, messages: 1, words: 3, max_words_edge_round: 3, ..RoundStats::default() };
        let b = a;
        a.merge(&b);
        assert_eq!(a.max_words_edge_round, 3, "equal peaks must not sum to 6");
        a.merge(&RoundStats { max_words_edge_round: 5, ..RoundStats::default() });
        assert_eq!(a.max_words_edge_round, 5);
        a.merge(&RoundStats { max_words_edge_round: 2, ..RoundStats::default() });
        assert_eq!(a.max_words_edge_round, 5, "smaller peak must not lower the max");
    }

    #[test]
    fn compare_reports_all_four_fields() {
        let a = RoundStats { rounds: 1, messages: 2, words: 3, max_words_edge_round: 4, ..RoundStats::default() };
        let b = RoundStats { rounds: 9, messages: 8, words: 7, max_words_edge_round: 6, ..RoundStats::default() };
        let err = compare(&a, &b).unwrap_err();
        for field in ["rounds", "messages", "words", "max_words_edge_round"] {
            assert!(err.contains(field), "diff is missing `{field}`: {err}");
        }
        // and each field diverging alone is caught
        for d in [
            RoundStats { rounds: 2, ..a },
            RoundStats { messages: 3, ..a },
            RoundStats { words: 4, ..a },
            RoundStats { max_words_edge_round: 5, ..a },
            RoundStats { dropped_messages: 1, ..a },
            RoundStats { crashed_messages: 1, ..a },
            RoundStats { truncated_messages: 1, ..a },
        ] {
            assert!(compare(&a, &d).is_err());
        }
        assert!(compare(&a, &a).is_ok());
    }

    /// The serialized form of fault-free stats must not change with the
    /// introduction of the fault counters: every golden stats file from
    /// before the fault layer parses and re-serializes byte-identically.
    #[test]
    fn fault_free_serialization_is_unchanged() {
        let a = RoundStats { rounds: 1, messages: 2, words: 3, max_words_edge_round: 4, ..RoundStats::default() };
        let json = serde_json::to_string(&a).expect("serialize stats");
        assert!(!json.contains("dropped"), "vacuous counters must not serialize: {json}");
        assert!(!json.contains("crashed"));
        assert!(!json.contains("truncated"));
        let back: RoundStats = serde_json::from_str(&json).expect("roundtrip stats");
        assert_eq!(back, a);
    }

    #[test]
    fn fault_counters_roundtrip_when_nonzero() {
        let a = RoundStats {
            rounds: 5,
            messages: 9,
            words: 14,
            max_words_edge_round: 2,
            dropped_messages: 3,
            crashed_messages: 1,
            truncated_messages: 4,
        };
        let json = serde_json::to_string(&a).expect("serialize stats");
        for field in ["dropped_messages", "crashed_messages", "truncated_messages"] {
            assert!(json.contains(field), "missing `{field}` in {json}");
        }
        let back: RoundStats = serde_json::from_str(&json).expect("roundtrip stats");
        assert_eq!(back, a);
        let shown = a.to_string();
        assert!(shown.contains("dropped=3") && shown.contains("crashed=1") && shown.contains("truncated=4"));
    }

    #[test]
    fn display_is_nonempty() {
        let s = RoundStats::default().to_string();
        assert!(s.contains("rounds=0"));
    }
}
