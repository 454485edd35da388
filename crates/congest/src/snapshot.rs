//! Versioned binary engine snapshots (schema v1).
//!
//! A snapshot is the complete state of a paused execution: everything the
//! engine needs to continue a run **bit-identically** to one that never
//! stopped. The format is designed for crash tolerance first — a reader
//! must be able to reject a torn, truncated, or bit-flipped file with a
//! typed [`SnapshotError`] and *never* panic or hand back partial state.
//!
//! ## Layout
//!
//! ```text
//! magic    8  b"LCGSNAP1"
//! version  2+ u16 length + crate-version string (diagnostic only)
//! schema   4  u32 = 1 — the compatibility gate (VersionSkew on mismatch)
//! section* :  tag[4] ++ len:u64 ++ payload[len] ++ fnv1a64(tag++len++payload)
//! end      :  the "END." section (empty payload) terminates the stream
//! ```
//!
//! Every section is independently length-prefixed and checksummed, so a
//! reader localizes corruption to a named section. All integers are
//! little-endian. Section order is written deterministically but readers
//! accept any order (duplicates are an error).
//!
//! ## Engine sections
//!
//! [`Network::save_snapshot`](crate::Network::save_snapshot) writes:
//!
//! | tag    | contents |
//! |--------|----------|
//! | `TOPO` | topology fingerprint: n, m, FNV hash of the edge list |
//! | `MODL` | [`Model`] |
//! | `EXEC` | [`ExecConfig`]: threads, threshold, audit |
//! | `STAT` | [`RoundStats`], all seven counters |
//! | `PEND` | the pending message grid (in-flight deliveries) |
//! | `FLTS` | the installed [`FaultPlan`], if any |
//! | `TRCE` | `Option<TracerState>`: the tracer's recording state incl. the open-span stack |
//! | `METR` | metrics label + deterministic registry, if attached |
//!
//! Supervisors append their own sections (`NODE` per-node program state
//! via [`SnapshotState`], `RNGS`, `SUPR` progress) through the same
//! [`SnapshotWriter`]. The graph itself is *not* serialized — a snapshot
//! resumes against a caller-provided graph and the `TOPO` fingerprint
//! guards against resuming onto the wrong one.
//!
//! This module is the only byte codec under a checkpoint: the tracer hands
//! over plain data (`lcg_trace::TracerState`) and [`SnapshotState`] is
//! implemented for it here, next to the engine's own types. Wire
//! compatibility is pinned by a committed file an older build wrote
//! (`tests/golden/engine_v1.lcgsnap`, checked by `tests/snapshot_compat.rs`).
//!
//! Three invariants worth naming (DESIGN.md §14):
//!
//! * **A length prefix reserves no more bytes than the payload has left**
//!   — it is foreign input; see the one sequence decoder (`Vec<T>`).
//! * **RNG positions, never re-seeds.** A ChaCha stream is stored as its
//!   32-byte seed plus the absolute keystream word offset; resume calls
//!   `set_word_pos`, it never draws-and-discards and never re-keys.
//! * **Pooled grids are recycled, not serialized empty.** Only `pending`
//!   carries information between rounds; the spare inbox/outgoing pools
//!   are all-`None` by the pool invariant and are rebuilt fresh on
//!   resume instead of being shipped as dead bytes.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use lcg_trace::{FaultEvent, RoundSample, SpanState, Totals, TraceConfig, TracerState};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::executor::AuditMode;
use crate::faults::{FaultPlan, LinkFailure, NodeCrash};
use crate::model::Model;
use crate::msg::Msg;
use crate::stats::RoundStats;
use crate::ExecConfig;

/// File magic: "LCGSNAP" + format generation '1'.
pub const MAGIC: [u8; 8] = *b"LCGSNAP1";

/// Schema version this build writes and accepts.
pub const SCHEMA: u32 = 1;

/// Section tag for the terminator.
const END_TAG: &str = "END.";

// ---------------------------------------------------------------- errors

/// Why a snapshot could not be read. Every corruption mode maps to a
/// typed, named error — resume logic branches on these (e.g. to fall back
/// to an older snapshot) and tests assert them; nothing in this module
/// panics on foreign bytes.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's schema version is not [`SCHEMA`].
    VersionSkew {
        /// Schema found in the file header.
        found: u32,
        /// Schema this build understands.
        expected: u32,
    },
    /// A section header or payload ends before its declared length.
    TruncatedSection {
        /// Tag of the truncated section ("????" when the tag itself is cut).
        tag: String,
    },
    /// A section's checksum does not match its bytes.
    ChecksumMismatch {
        /// Tag of the damaged section.
        tag: String,
    },
    /// A section the resume path requires is absent.
    MissingSection {
        /// Tag of the absent section.
        tag: String,
    },
    /// The same tag appears twice.
    DuplicateSection {
        /// The repeated tag.
        tag: String,
    },
    /// The snapshot was taken on a different graph than the resume target.
    TopologyMismatch {
        /// Human-readable fingerprint difference.
        detail: String,
    },
    /// A section decoded to structurally invalid state.
    Corrupt {
        /// What failed to decode.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionSkew { found, expected } => {
                write!(f, "snapshot schema v{found} is not the supported v{expected}")
            }
            SnapshotError::TruncatedSection { tag } => {
                write!(f, "section `{tag}` is truncated")
            }
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "section `{tag}` fails its checksum")
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "required section `{tag}` is missing")
            }
            SnapshotError::DuplicateSection { tag } => {
                write!(f, "section `{tag}` appears more than once")
            }
            SnapshotError::TopologyMismatch { detail } => {
                write!(f, "snapshot topology does not match the resume graph: {detail}")
            }
            SnapshotError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

// -------------------------------------------------------------- checksum

/// FNV-1a 64-bit — dependency-free, byte-order-independent, and plenty to
/// catch torn writes and bit rot (this is an integrity check, not a MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ----------------------------------------------------------- enc/dec core

/// Append-only section payload encoder (little-endian).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload buffer.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an f64 by its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes, length-prefixed.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string, length-prefixed.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked sequential decoder over a section payload. Every
/// accessor returns a typed error on truncation; [`Dec::finish`] rejects
/// trailing garbage so a decoded value is exactly its bytes.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
    /// Section tag, for error messages.
    tag: &'a str,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, labeled `tag` for error messages.
    pub fn new(tag: &'a str, buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0, tag }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Corrupt {
            detail: format!("section `{}` payload ends at byte {} mid-value", self.tag, self.at),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.buf.get(self.at).ok_or_else(|| self.truncated())?;
        self.at += 1;
        Ok(b)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let end = self.at + 8;
        let bytes = self.buf.get(self.at..end).ok_or_else(|| self.truncated())?;
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes);
        self.at = end;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a u64 that must fit in usize.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt {
            detail: format!("section `{}`: value {v} does not fit usize", self.tag),
        })
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "section `{}`: {len}-byte field exceeds {} remaining bytes",
                    self.tag,
                    self.remaining()
                ),
            });
        }
        let end = self.at + len;
        let buf: &'a [u8] = self.buf;
        let out = &buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let tag = self.tag;
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|e| SnapshotError::Corrupt {
                detail: format!("section `{tag}`: non-utf8 string: {e}"),
            })
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "section `{}`: {} trailing bytes after decoded value",
                    self.tag,
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}

// --------------------------------------------------------- SnapshotState

/// State that can live inside a snapshot section: a self-delimiting
/// byte encoding with an exact decode. Implemented by the engine's own
/// state types and by every app's per-node program state, so supervisors
/// can checkpoint a run mid-protocol.
///
/// Contract: `decode(encode(x)) == x`, and decode of any byte prefix or
/// mutation fails with a typed error rather than panicking.
pub trait SnapshotState: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Enc);
    /// Decodes one value, consuming exactly the bytes `encode` wrote.
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError>;
}

impl SnapshotState for u64 {
    fn encode(&self, out: &mut Enc) {
        out.u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        d.u64()
    }
}

impl SnapshotState for usize {
    fn encode(&self, out: &mut Enc) {
        out.usize(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        d.usize()
    }
}

impl SnapshotState for bool {
    fn encode(&self, out: &mut Enc) {
        out.u8(u8::from(*self));
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapshotError::Corrupt { detail: format!("bad bool tag {t}") }),
        }
    }
}

impl SnapshotState for f64 {
    fn encode(&self, out: &mut Enc) {
        out.f64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        d.f64()
    }
}

impl SnapshotState for String {
    fn encode(&self, out: &mut Enc) {
        out.str(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        d.str()
    }
}

impl<T: SnapshotState> SnapshotState for Option<T> {
    fn encode(&self, out: &mut Enc) {
        match self {
            None => out.u8(0),
            Some(v) => {
                out.u8(1);
                v.encode(out);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            t => Err(SnapshotError::Corrupt { detail: format!("bad Option tag {t}") }),
        }
    }
}

impl<T: SnapshotState> SnapshotState for Vec<T> {
    fn encode(&self, out: &mut Enc) {
        out.usize(self.len());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let len = d.usize()?;
        // a length prefix is foreign input: it reserves at most as many
        // *bytes* as the payload has left (an element count bounded by the
        // remaining bytes would reserve `size_of::<T>()` times the input);
        // a genuinely longer vector grows as its elements decode
        let fits = d.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<A: SnapshotState, B: SnapshotState> SnapshotState for (A, B) {
    fn encode(&self, out: &mut Enc) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: SnapshotState, B: SnapshotState, C: SnapshotState> SnapshotState for (A, B, C) {
    fn encode(&self, out: &mut Enc) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

impl SnapshotState for Msg {
    fn encode(&self, out: &mut Enc) {
        out.usize(self.len());
        for &w in self.as_slice() {
            out.u64(w);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        // the wire shape of a `Vec<u64>`, bounded reservation included
        Ok(Msg::from_slice(&Vec::<u64>::decode(d)?))
    }
}

impl SnapshotState for ChaCha8Rng {
    /// Seed plus absolute keystream word position — the stream is
    /// repositioned on decode, never re-seeded and never replayed.
    fn encode(&self, out: &mut Enc) {
        out.bytes(&self.get_seed());
        out.u64(self.get_word_pos());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let bytes = d.bytes()?;
        let seed: [u8; 32] = bytes.try_into().map_err(|_| SnapshotError::Corrupt {
            detail: format!("ChaCha seed is {} bytes, expected 32", bytes.len()),
        })?;
        let pos = d.u64()?;
        let mut rng = ChaCha8Rng::from_seed(seed);
        rng.set_word_pos(pos);
        Ok(rng)
    }
}

impl SnapshotState for LinkFailure {
    fn encode(&self, out: &mut Enc) {
        out.usize(self.edge);
        out.u64(self.from_round);
        out.u64(self.until_round);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(LinkFailure {
            edge: d.usize()?,
            from_round: d.u64()?,
            until_round: d.u64()?,
        })
    }
}

impl SnapshotState for NodeCrash {
    fn encode(&self, out: &mut Enc) {
        out.usize(self.node);
        out.u64(self.at_round);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeCrash { node: d.usize()?, at_round: d.u64()? })
    }
}

impl SnapshotState for FaultPlan {
    /// The *plan* is the whole fault state: drop coins are keyed by
    /// `(round, edge)` and the compiled `FaultState` is a pure function of
    /// the plan, so "fault progress" costs exactly these fields plus the
    /// round counter already in `STAT`.
    fn encode(&self, out: &mut Enc) {
        out.u64(self.seed);
        out.f64(self.drop_prob);
        self.link_failures.encode(out);
        self.crashes.encode(out);
        self.truncate_words.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let seed = d.u64()?;
        let drop_prob = d.f64()?;
        if !(0.0..=1.0).contains(&drop_prob) {
            return Err(SnapshotError::Corrupt {
                detail: format!("fault drop probability {drop_prob} outside [0, 1]"),
            });
        }
        Ok(FaultPlan {
            seed,
            drop_prob,
            link_failures: Vec::decode(d)?,
            crashes: Vec::decode(d)?,
            truncate_words: Option::decode(d)?,
        })
    }
}

impl SnapshotState for Model {
    fn encode(&self, out: &mut Enc) {
        match *self {
            Model::Local => out.u8(0),
            Model::Congest { words_per_edge } => {
                out.u8(1);
                out.usize(words_per_edge);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match d.u8()? {
            0 => Ok(Model::Local),
            1 => Ok(Model::Congest { words_per_edge: d.usize()? }),
            t => Err(SnapshotError::Corrupt { detail: format!("bad Model tag {t}") }),
        }
    }
}

impl SnapshotState for ExecConfig {
    fn encode(&self, out: &mut Enc) {
        out.usize(self.threads());
        out.usize(self.work_threshold());
        out.u8(match self.audit() {
            AuditMode::Off => 0,
            AuditMode::Shuffle => 1,
        });
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let threads = d.usize()?;
        if threads == 0 {
            return Err(SnapshotError::Corrupt { detail: "0 executor threads".to_string() });
        }
        let threshold = d.usize()?;
        let audit = match d.u8()? {
            0 => AuditMode::Off,
            1 => AuditMode::Shuffle,
            t => return Err(SnapshotError::Corrupt { detail: format!("bad AuditMode tag {t}") }),
        };
        Ok(ExecConfig::with_threads(threads)
            .with_work_threshold(threshold)
            .with_audit(audit))
    }
}

impl SnapshotState for RoundStats {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.rounds);
        out.u64(self.messages);
        out.u64(self.words);
        out.usize(self.max_words_edge_round);
        out.u64(self.dropped_messages);
        out.u64(self.crashed_messages);
        out.u64(self.truncated_messages);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(RoundStats {
            rounds: d.u64()?,
            messages: d.u64()?,
            words: d.u64()?,
            max_words_edge_round: d.usize()?,
            dropped_messages: d.u64()?,
            crashed_messages: d.u64()?,
            truncated_messages: d.u64()?,
        })
    }
}

// The tracer's recording state. `lcg-trace` sits below this crate and owns
// no byte format; these impls are the `TRCE` wire layout, field order
// included. Each destructures exhaustively, so a field added to the tracer
// or to a span does not compile until it is persisted here.

impl SnapshotState for TraceConfig {
    fn encode(&self, out: &mut Enc) {
        let TraceConfig { label, series, edge_loads, top_k } = self;
        label.encode(out);
        series.encode(out);
        edge_loads.encode(out);
        top_k.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(TraceConfig {
            label: d.str()?,
            series: bool::decode(d)?,
            edge_loads: bool::decode(d)?,
            top_k: d.usize()?,
        })
    }
}

impl SnapshotState for SpanState {
    fn encode(&self, out: &mut Enc) {
        let SpanState {
            name, parent, depth, start_round, end_round, rounds, messages, words, max_words, notes,
        } = self;
        name.encode(out);
        parent.encode(out);
        depth.encode(out);
        start_round.encode(out);
        end_round.encode(out);
        rounds.encode(out);
        messages.encode(out);
        words.encode(out);
        max_words.encode(out);
        notes.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(SpanState {
            name: d.str()?,
            parent: Option::decode(d)?,
            depth: d.usize()?,
            start_round: d.u64()?,
            end_round: Option::decode(d)?,
            rounds: d.u64()?,
            messages: d.u64()?,
            words: d.u64()?,
            max_words: d.usize()?,
            notes: Vec::decode(d)?,
        })
    }
}

impl SnapshotState for RoundSample {
    fn encode(&self, out: &mut Enc) {
        let RoundSample { round, messages, words, max_edge_words } = self;
        round.encode(out);
        messages.encode(out);
        words.encode(out);
        max_edge_words.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(RoundSample {
            round: d.u64()?,
            messages: d.u64()?,
            words: d.u64()?,
            max_edge_words: d.usize()?,
        })
    }
}

impl SnapshotState for FaultEvent {
    fn encode(&self, out: &mut Enc) {
        let FaultEvent { round, kind, count } = self;
        round.encode(out);
        kind.encode(out);
        count.encode(out);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(FaultEvent { round: d.u64()?, kind: d.str()?, count: d.u64()? })
    }
}

impl SnapshotState for TracerState {
    /// One blob framed by its byte length — the shape `TRCE` has carried
    /// since schema v1, when the blob came from the trace crate's own
    /// encoder.
    fn encode(&self, out: &mut Enc) {
        let TracerState { cfg, n, m, ends, total, spans, open, series, edge_words, faults } = self;
        let Totals { rounds, messages, words, max_words_edge_round } = total;
        let mut blob = Enc::new();
        cfg.encode(&mut blob);
        n.encode(&mut blob);
        m.encode(&mut blob);
        ends.encode(&mut blob);
        rounds.encode(&mut blob);
        messages.encode(&mut blob);
        words.encode(&mut blob);
        max_words_edge_round.encode(&mut blob);
        spans.encode(&mut blob);
        open.encode(&mut blob);
        series.encode(&mut blob);
        edge_words.encode(&mut blob);
        faults.encode(&mut blob);
        out.bytes(&blob.into_bytes());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let mut blob = Dec::new(d.tag, d.bytes()?);
        let state = TracerState {
            cfg: TraceConfig::decode(&mut blob)?,
            n: blob.usize()?,
            m: blob.usize()?,
            ends: Vec::decode(&mut blob)?,
            total: Totals {
                rounds: blob.u64()?,
                messages: blob.u64()?,
                words: blob.u64()?,
                max_words_edge_round: blob.usize()?,
            },
            spans: Vec::decode(&mut blob)?,
            open: Vec::decode(&mut blob)?,
            series: Vec::decode(&mut blob)?,
            edge_words: Vec::decode(&mut blob)?,
            faults: Vec::decode(&mut blob)?,
        };
        blob.finish()?;
        Ok(state)
    }
}

// ------------------------------------------------------- writer / reader

/// Accumulates tagged sections, then writes the framed, checksummed file
/// in one pass. The engine writes its sections first; supervisors append
/// theirs (`NODE`, `RNGS`, `SUPR`, ...) before [`SnapshotWriter::write_to`].
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty snapshot.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Appends one section. Tags are exactly 4 ASCII bytes and unique
    /// within a snapshot.
    ///
    /// # Panics
    ///
    /// Panics on a malformed or duplicate tag — a writer bug, not a
    /// runtime condition.
    pub fn section(&mut self, tag: &str, payload: Vec<u8>) {
        assert!(
            tag.len() == 4 && tag.bytes().all(|b| b.is_ascii_graphic()),
            "section tag must be 4 printable ASCII bytes, got {tag:?}"
        );
        assert!(
            !self.sections.iter().any(|(t, _)| t == tag),
            "duplicate snapshot section {tag:?}"
        );
        self.sections.push((tag.to_string(), payload));
    }

    /// Convenience: encodes `state` as the payload of `tag`.
    pub fn state_section<S: SnapshotState>(&mut self, tag: &str, state: &S) {
        let mut enc = Enc::new();
        state.encode(&mut enc);
        self.section(tag, enc.into_bytes());
    }

    /// Writes magic, header, every section, and the terminator.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), SnapshotError> {
        w.write_all(&MAGIC)?;
        let version = env!("CARGO_PKG_VERSION").as_bytes();
        let vlen = u16::try_from(version.len()).unwrap_or(0);
        w.write_all(&vlen.to_le_bytes())?;
        w.write_all(&version[..usize::from(vlen)])?;
        w.write_all(&SCHEMA.to_le_bytes())?;
        for (tag, payload) in &self.sections {
            write_section(&mut w, tag, payload)?;
        }
        write_section(&mut w, END_TAG, &[])?;
        Ok(())
    }

    /// The whole snapshot as bytes (write_to into a Vec).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing a snapshot to memory cannot fail");
        out
    }
}

fn write_section<W: Write>(w: &mut W, tag: &str, payload: &[u8]) -> Result<(), SnapshotError> {
    let mut framed = Vec::with_capacity(12 + payload.len());
    framed.extend_from_slice(tag.as_bytes());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(payload);
    let sum = fnv1a64(&framed);
    w.write_all(&framed)?;
    w.write_all(&sum.to_le_bytes())?;
    Ok(())
}

/// A parsed, checksum-verified snapshot: sections by tag. Parsing is
/// all-or-nothing — any structural damage surfaces as a typed error
/// before a single section is handed out.
#[derive(Debug)]
pub struct SnapshotReader {
    /// Crate version recorded by the writer (diagnostic only; the schema
    /// number is the compatibility gate).
    pub version: String,
    sections: BTreeMap<String, Vec<u8>>,
}

impl SnapshotReader {
    /// Reads and validates a whole snapshot stream.
    pub fn read_from<R: Read>(mut r: R) -> Result<SnapshotReader, SnapshotError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        SnapshotReader::parse(&bytes)
    }

    /// Parses a snapshot from memory.
    pub fn parse(bytes: &[u8]) -> Result<SnapshotReader, SnapshotError> {
        let header_err = || SnapshotError::TruncatedSection { tag: "header".to_string() };
        if !bytes.starts_with(&MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let mut at = MAGIC.len();
        let vlen_bytes = bytes.get(at..at + 2).ok_or_else(header_err)?;
        let vlen = usize::from(u16::from_le_bytes([vlen_bytes[0], vlen_bytes[1]]));
        at += 2;
        let vbytes = bytes.get(at..at + vlen).ok_or_else(header_err)?;
        let version = String::from_utf8_lossy(vbytes).into_owned();
        at += vlen;
        let sbytes = bytes.get(at..at + 4).ok_or_else(header_err)?;
        let schema = u32::from_le_bytes([sbytes[0], sbytes[1], sbytes[2], sbytes[3]]);
        at += 4;
        if schema != SCHEMA {
            return Err(SnapshotError::VersionSkew { found: schema, expected: SCHEMA });
        }
        let mut sections = BTreeMap::new();
        loop {
            let tag_bytes = bytes.get(at..at + 4).ok_or_else(|| {
                SnapshotError::TruncatedSection { tag: "????".to_string() }
            })?;
            let tag = String::from_utf8_lossy(tag_bytes).into_owned();
            let trunc = || SnapshotError::TruncatedSection { tag: tag.clone() };
            let len_bytes = bytes.get(at + 4..at + 12).ok_or_else(trunc)?;
            let mut lb = [0u8; 8];
            lb.copy_from_slice(len_bytes);
            let len = usize::try_from(u64::from_le_bytes(lb)).map_err(|_| trunc())?;
            let payload_end = at
                .checked_add(12)
                .and_then(|s| s.checked_add(len))
                .ok_or_else(trunc)?;
            let payload = bytes.get(at + 12..payload_end).ok_or_else(trunc)?;
            let sum_bytes = bytes.get(payload_end..payload_end + 8).ok_or_else(trunc)?;
            let mut sb = [0u8; 8];
            sb.copy_from_slice(sum_bytes);
            if fnv1a64(&bytes[at..payload_end]) != u64::from_le_bytes(sb) {
                return Err(SnapshotError::ChecksumMismatch { tag });
            }
            at = payload_end + 8;
            if tag == END_TAG {
                break;
            }
            if sections.insert(tag.clone(), payload.to_vec()).is_some() {
                return Err(SnapshotError::DuplicateSection { tag });
            }
        }
        Ok(SnapshotReader { version, sections })
    }

    /// The payload of `tag`, or `MissingSection`.
    pub fn section(&self, tag: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .get(tag)
            .map(Vec::as_slice)
            .ok_or_else(|| SnapshotError::MissingSection { tag: tag.to_string() })
    }

    /// Decodes `tag`'s payload as one `S`, consuming it exactly.
    pub fn state_section<S: SnapshotState>(&self, tag: &str) -> Result<S, SnapshotError> {
        let mut d = Dec::new(tag, self.section(tag)?);
        let v = S::decode(&mut d)?;
        d.finish()?;
        Ok(v)
    }

    /// Tags present in this snapshot, in sorted order.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_trace::{SpanId, Tracer};

    fn sample_writer() -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.state_section("STAT", &RoundStats { rounds: 3, messages: 10, ..Default::default() });
        let mut enc = Enc::new();
        enc.str("payload two");
        w.section("TWO.", enc.into_bytes());
        w
    }

    #[test]
    fn round_trip_preserves_sections() {
        let bytes = sample_writer().to_bytes();
        let r = SnapshotReader::parse(&bytes).expect("well-formed snapshot parses");
        let stats: RoundStats = r.state_section("STAT").expect("STAT decodes");
        assert_eq!((stats.rounds, stats.messages), (3, 10));
        let mut d = Dec::new("TWO.", r.section("TWO.").expect("TWO. present"));
        assert_eq!(d.str().expect("string decodes"), "payload two");
        assert!(matches!(
            r.section("NOPE"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_skew_are_typed() {
        let mut bytes = sample_writer().to_bytes();
        assert!(matches!(SnapshotReader::parse(b"nope"), Err(SnapshotError::BadMagic)));
        bytes[0] ^= 0xFF;
        assert!(matches!(SnapshotReader::parse(&bytes), Err(SnapshotError::BadMagic)));

        let mut skew = sample_writer().to_bytes();
        // schema u32 sits right after magic + u16 version-length + version
        let vlen = usize::from(u16::from_le_bytes([skew[8], skew[9]]));
        let at = 8 + 2 + vlen;
        skew[at] = 99;
        assert!(matches!(
            SnapshotReader::parse(&skew),
            Err(SnapshotError::VersionSkew { found: 99, expected: SCHEMA })
        ));
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = sample_writer().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..cut]);
            assert!(err.is_err(), "truncation at byte {cut} must be rejected");
        }
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let clean = sample_writer().to_bytes();
        let vlen = usize::from(u16::from_le_bytes([clean[8], clean[9]]));
        let body_start = 8 + 2 + vlen + 4;
        for at in body_start..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            assert!(
                SnapshotReader::parse(&bytes).is_err(),
                "bit flip at byte {at} must be detected"
            );
        }
    }

    #[test]
    fn rng_state_round_trips_without_reseeding() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..23 {
            use rand::RngCore;
            rng.next_u32();
        }
        let mut enc = Enc::new();
        rng.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut d = Dec::new("RNGS", &bytes);
        let mut back = ChaCha8Rng::decode(&mut d).expect("rng decodes");
        d.finish().expect("no trailing bytes");
        use rand::RngCore;
        let a: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..32).map(|_| back.next_u64()).collect();
        assert_eq!(a, b, "restored stream must continue bit-identically");
    }

    /// A full tracer paused mid-recording with two spans open; returns it
    /// with the two open handles, outermost first.
    fn mid_recording_tracer() -> (Tracer, [SpanId; 2]) {
        let mut t = Tracer::new(TraceConfig::full("ckpt").with_top_k(3));
        t.bind_topology(3, 3, vec![(0, 1), (1, 2), (0, 2)]);
        let outer = t.open_span("outer");
        t.annotate(outer, "clusters", 4);
        t.record_round(2, 4, 1);
        t.add_edge_words(1, 7);
        let inner = t.open_span("inner");
        t.record_fault("drop", 2);
        (t, [outer, inner])
    }

    fn encoded<S: SnapshotState>(state: &S) -> Vec<u8> {
        let mut enc = Enc::new();
        state.encode(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn tracer_state_round_trips_mid_recording_with_open_spans() {
        // snapshot while two spans are open — the resumed twin must close
        // them exactly as the original would
        let (mut t, [outer, inner]) = mid_recording_tracer();
        let bytes = encoded(&t.snapshot_state());
        let mut d = Dec::new("TRCE", &bytes);
        let state = TracerState::decode(&mut d).expect("valid state decodes");
        d.finish().expect("consumed exactly");
        let mut back = Tracer::from_snapshot_state(state).expect("valid state restores");
        assert_eq!(encoded(&back.snapshot_state()), bytes, "re-encoding is byte-identical");
        // drive both forward identically and compare the sealed traces
        for tr in [&mut t, &mut back] {
            tr.record_round(1, 2, 1);
            tr.close_span(inner);
            tr.close_span(outer);
        }
        assert_eq!(t.finish(), back.finish());
    }

    #[test]
    fn truncated_tracer_state_errors_cleanly() {
        let bytes = encoded(&mid_recording_tracer().0.snapshot_state());
        for cut in 0..bytes.len() {
            assert!(
                TracerState::decode(&mut Dec::new("TRCE", &bytes[..cut])).is_err(),
                "truncation at byte {cut} must be rejected"
            );
        }
    }

    #[test]
    fn state_codecs_round_trip() {
        let plan = FaultPlan::drops(0xF, 0.25)
            .with_link_failure(3, 1, 9)
            .with_crash(2, 4);
        let model = Model::congest();
        let exec = ExecConfig::with_threads(3).with_work_threshold(1);
        let msg = Msg::from_slice(&[1, 2, 3]);
        let mut enc = Enc::new();
        plan.encode(&mut enc);
        model.encode(&mut enc);
        exec.encode(&mut enc);
        msg.encode(&mut enc);
        Some(42u64).encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut d = Dec::new("mix.", &bytes);
        assert_eq!(FaultPlan::decode(&mut d).expect("plan"), plan);
        assert_eq!(Model::decode(&mut d).expect("model"), model);
        assert_eq!(ExecConfig::decode(&mut d).expect("exec"), exec);
        assert_eq!(Msg::decode(&mut d).expect("msg"), msg);
        assert_eq!(Option::<u64>::decode(&mut d).expect("opt"), Some(42));
        d.finish().expect("consumed exactly");
    }
}
