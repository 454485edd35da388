//! The message value type of the simulator's hot path.
//!
//! A [`Msg`] holds up to [`INLINE_WORDS`] 64-bit words inline — no heap
//! allocation — and spills to a `Box<[u64]>` only beyond that. Two words is
//! exactly the CONGEST common case: every primitive in this reproduction
//! sends 1–2 word messages (`[root, dist]`, `[value, id]`, `[token,
//! step]`, …), so under `Model::congest()` the engine never allocates per
//! message. LOCAL-mode payloads (e.g. the E12 topology-gathering baseline)
//! take the spilled variant and behave exactly like the old
//! `Message = Vec<u64>`.
//!
//! # Size
//!
//! The inline length is `Len`, a three-valued enum rather than a `u8`:
//! its unused values are a niche rustc stores the variant tag in, and
//! `Option`'s `None` in the next one. So an inbox entry, `Option<Msg>`, is
//! 24 bytes (two words plus the length byte, padded) where a `u8` length
//! made it 32. The round engine's grid does not store `Option<Msg>`: its
//! slot is the two words and a tag byte, 17 bytes, and only the row a
//! closure reads is copied out as `Option<Msg>`s. A compile-time assertion
//! below holds the size, so a toolchain that stops finding the niche fails
//! the build instead of silently growing every inbox.
//!
//! # Representation invariant
//!
//! A message of `len() <= INLINE_WORDS` is **always** stored inline: the
//! constructors normalize, and nothing shortens a message after it is
//! built. Equality, hashing, and ordering
//! are defined on the word slice, so the invariant is belt-and-braces —
//! but it makes `Clone` of every CONGEST-size message a plain copy and
//! keeps the proptest round-trip in `tests/msg.rs` meaningful.
//!
//! Every constructor and accessor in this module is panic-free (asserted
//! by the `msg_ctor_idiom` lint fixture): a `Msg` can always be built
//! from any words, and capacity enforcement stays where it belongs, in
//! [`crate::Outbox::send`].

/// Words stored inline before spilling to the heap. Two words cover the
/// `O(log n)`-bit CONGEST messages of every primitive in the repo.
pub const INLINE_WORDS: usize = 2;

/// The length of an inline payload, `0..=INLINE_WORDS` (see the module
/// docs, "Size").
#[derive(Clone, Copy)]
enum Len {
    Zero,
    One,
    Two,
}

impl Len {
    /// The length `n`, for `n <= INLINE_WORDS` (larger `n` read as full).
    #[inline]
    const fn of(n: usize) -> Len {
        match n {
            0 => Len::Zero,
            1 => Len::One,
            _ => Len::Two,
        }
    }
}

#[derive(Clone)]
enum Repr {
    /// `words[..len]` is the payload.
    Inline { words: [u64; INLINE_WORDS], len: Len },
    /// Heap payload; by invariant longer than `INLINE_WORDS`.
    Spilled(Box<[u64]>),
}

const _: () = assert!(INLINE_WORDS == Len::Two as usize);
const _: () = assert!(size_of::<Option<Msg>>() == 24);

/// A simulator message: a small sequence of 64-bit words, stored inline
/// when it fits [`INLINE_WORDS`].
///
/// Dereferences to `[u64]`, so receive-side code indexes and iterates it
/// like the old `Vec<u64>`: `m[0]`, `m.len()`, `m.iter()`.
///
/// # Examples
///
/// ```
/// use lcg_congest::Msg;
///
/// let small = Msg::from([7u64, 9]);
/// assert!(small.is_inline());
/// assert_eq!(small[1], 9);
///
/// let big = Msg::from(vec![0u64; 100]); // LOCAL-mode payload
/// assert!(!big.is_inline());
/// assert_eq!(small, Msg::from(vec![7u64, 9])); // equality is by content
/// ```
#[derive(Clone)]
pub struct Msg(Repr);

impl Msg {
    /// The empty message (inline, zero words).
    #[inline]
    #[must_use]
    pub const fn new() -> Msg {
        Msg(Repr::Inline { words: [0; INLINE_WORDS], len: Len::Zero })
    }

    /// Builds a message from a word slice, inlining when it fits.
    #[inline]
    #[must_use]
    pub fn from_slice(words: &[u64]) -> Msg {
        if words.len() <= INLINE_WORDS {
            let mut buf = [0u64; INLINE_WORDS];
            for (dst, src) in buf.iter_mut().zip(words) {
                *dst = *src;
            }
            Msg(Repr::Inline { words: buf, len: Len::of(words.len()) })
        } else {
            Msg(Repr::Spilled(words.into()))
        }
    }

    /// Number of 64-bit words.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(b) => b.len(),
        }
    }

    /// `true` when the message carries no words.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the payload is stored inline (no heap allocation).
    #[inline]
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The payload as a word slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { words, len } => &words[..*len as usize],
            Repr::Spilled(b) => b,
        }
    }

    /// The inline payload as its two words (unused ones zero) and its
    /// length, or `None` for a spilled one: how the round engine's inbox
    /// grid stores a message.
    #[inline]
    pub(crate) fn inline_words(&self) -> Option<([u64; INLINE_WORDS], usize)> {
        match &self.0 {
            Repr::Inline { words, len } => Some((*words, *len as usize)),
            Repr::Spilled(_) => None,
        }
    }

    /// The inline message `words[..len]`, for `len <= INLINE_WORDS`
    /// (larger `len` read as full): the inverse of [`Msg::inline_words`].
    #[inline]
    pub(crate) fn from_inline_words(words: [u64; INLINE_WORDS], len: usize) -> Msg {
        Msg(Repr::Inline { words, len: Len::of(len) })
    }

    /// Copies the payload into a fresh `Vec<u64>` (mostly for tests and
    /// callers that outlive the inbox borrow).
    #[inline]
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.as_slice().to_vec()
    }
}

impl Default for Msg {
    #[inline]
    fn default() -> Msg {
        Msg::new()
    }
}

impl std::ops::Deref for Msg {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl AsRef<[u64]> for Msg {
    #[inline]
    fn as_ref(&self) -> &[u64] {
        self.as_slice()
    }
}

/// One-word message, zero-alloc: `out.send(p, 7u64)`.
impl From<u64> for Msg {
    #[inline]
    fn from(w: u64) -> Msg {
        Msg(Repr::Inline { words: [w, 0], len: Len::One })
    }
}

/// Fixed-size array message: inline for `N <= INLINE_WORDS` — the
/// zero-alloc spelling of the old `vec![a, b]` sends.
impl<const N: usize> From<[u64; N]> for Msg {
    #[inline]
    fn from(words: [u64; N]) -> Msg {
        Msg::from_slice(&words)
    }
}

impl From<&[u64]> for Msg {
    #[inline]
    fn from(words: &[u64]) -> Msg {
        Msg::from_slice(words)
    }
}

/// `Vec<u64>` messages keep working (the pre-`Msg` spelling): short ones
/// are inlined and the vector is dropped, long ones take ownership of the
/// allocation (shrunk to fit) — identical word accounting either way.
impl From<Vec<u64>> for Msg {
    #[inline]
    fn from(words: Vec<u64>) -> Msg {
        if words.len() <= INLINE_WORDS {
            Msg::from_slice(&words)
        } else {
            Msg(Repr::Spilled(words.into_boxed_slice()))
        }
    }
}

impl FromIterator<u64> for Msg {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Msg {
        let mut buf = [0u64; INLINE_WORDS];
        let mut it = iter.into_iter();
        let mut len = 0usize;
        for dst in buf.iter_mut() {
            match it.next() {
                Some(w) => {
                    *dst = w;
                    len += 1;
                }
                None => return Msg(Repr::Inline { words: buf, len: Len::of(len) }),
            }
        }
        match it.next() {
            None => Msg(Repr::Inline { words: buf, len: Len::of(len) }),
            Some(w) => {
                let mut v = Vec::with_capacity(INLINE_WORDS + 2);
                v.extend_from_slice(&buf);
                v.push(w);
                v.extend(it);
                Msg(Repr::Spilled(v.into_boxed_slice()))
            }
        }
    }
}

// Content equality: two messages with the same words are equal regardless
// of representation (the invariant makes representations agree anyway).
impl PartialEq for Msg {
    #[inline]
    fn eq(&self, other: &Msg) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Msg {}

impl PartialEq<[u64]> for Msg {
    #[inline]
    fn eq(&self, other: &[u64]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u64; N]> for Msg {
    #[inline]
    fn eq(&self, other: &[u64; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u64>> for Msg {
    #[inline]
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Msg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_boundary_is_exact() {
        assert!(Msg::new().is_inline());
        assert!(Msg::from([1u64]).is_inline());
        assert!(Msg::from([1u64, 2]).is_inline());
        assert!(!Msg::from([1u64, 2, 3]).is_inline());
        assert!(Msg::from(vec![1u64, 2]).is_inline(), "short Vec must inline");
        assert!(!Msg::from(vec![1u64, 2, 3]).is_inline());
    }

    #[test]
    fn content_round_trips() {
        for n in 0..6usize {
            let words: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let m = Msg::from_slice(&words);
            assert_eq!(m.as_slice(), &words[..]);
            assert_eq!(m.len(), n);
            assert_eq!(m.is_empty(), n == 0);
            assert_eq!(m, Msg::from(words.clone()));
            assert_eq!(m.to_vec(), words);
        }
    }

    #[test]
    fn deref_gives_slice_ops() {
        let m = Msg::from([5u64, 9]);
        assert_eq!(m[0], 5);
        assert_eq!(m.iter().sum::<u64>(), 14);
        assert_eq!(m.first(), Some(&5));
    }

    #[test]
    fn equality_is_by_content() {
        let a = Msg::from([1u64, 2]);
        let b: Msg = vec![1u64, 2].into();
        assert_eq!(a, b);
        assert_eq!(a, [1u64, 2]);
        assert_eq!(a, vec![1u64, 2]);
        assert_ne!(a, Msg::from([1u64]));
    }

    #[test]
    fn from_iterator_handles_both_sides_of_the_boundary() {
        let short: Msg = (0..2u64).collect();
        assert!(short.is_inline());
        assert_eq!(short, [0u64, 1]);
        let long: Msg = (0..7u64).collect();
        assert!(!long.is_inline());
        assert_eq!(long.as_slice(), &[0u64, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn hashes_agree_across_representations() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |m: &Msg| {
            let mut s = DefaultHasher::new();
            m.hash(&mut s);
            s.finish()
        };
        let a = Msg::from([3u64, 4]);
        let b = Msg::from(vec![3u64, 4]);
        assert_eq!(h(&a), h(&b));
    }
}
