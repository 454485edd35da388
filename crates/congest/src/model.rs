//! The two message-passing models of the paper.

/// Communication model: CONGEST (bounded messages) or LOCAL (unbounded).
///
/// The paper's separation is exactly this: the GKM framework (STOC 2018)
/// gathers whole cluster topologies over single edges, which is free in
/// LOCAL but forbidden in CONGEST; the paper's framework re-enables the
/// gathering under CONGEST via expander routing.
///
/// Message sizes are measured in 64-bit *words*: an `O(log n)`-bit message
/// is a constant number of words for every practical `n` (`log₂ n ≤ 64`),
/// so `Congest { words_per_edge: 2 }` is the faithful default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// At most `words_per_edge` 64-bit words per edge, per direction, per
    /// round.
    Congest {
        /// Per-edge, per-direction, per-round capacity in words.
        words_per_edge: usize,
    },
    /// Unbounded message sizes (sizes are still *recorded* so experiments
    /// can report how much the LOCAL algorithms actually shipped).
    Local,
}

impl Model {
    /// Standard CONGEST with `O(log n)` = 2-word messages.
    pub fn congest() -> Model {
        Model::Congest { words_per_edge: 2 }
    }

    /// The per-edge capacity in words, or `None` for LOCAL.
    pub fn capacity(&self) -> Option<usize> {
        match *self {
            Model::Congest { words_per_edge } => Some(words_per_edge),
            Model::Local => None,
        }
    }
}

impl Default for Model {
    fn default() -> Model {
        Model::congest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_congest() {
        assert_eq!(Model::default(), Model::congest());
        assert_eq!(Model::default().capacity(), Some(2));
    }

    #[test]
    fn local_is_unbounded() {
        assert_eq!(Model::Local.capacity(), None);
    }
}
