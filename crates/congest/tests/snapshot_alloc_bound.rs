//! A hostile length prefix must not make the snapshot decoder reserve more
//! memory than the file that carries it (DESIGN.md §14.1).
//!
//! The section checksum is no defence — a hostile writer recomputes it — so
//! a length prefix inside a payload is foreign input. Each case below is a
//! 1 MiB section whose first sequence claims `u64::MAX / 2` elements; the
//! decoder must fail typed, and on the way reserve at most twice the payload
//! (it used to reserve `size_of::<T>()` bytes per remaining *byte*: 24× for
//! `LinkFailure` and `Vec<String>`, 16× for tracer spans).
//!
//! The workspace forbids `unsafe`, which rules out a counting global
//! allocator; the observable used instead is the process's address-space
//! high-water mark (`VmPeak` in `/proc/self/status`), which a reservation
//! raises whether or not its pages are ever touched. This file holds one
//! test so nothing else in the process allocates while it measures. The
//! instrument is probed with a reservation of known size first; where it
//! does not answer (no procfs, an allocator that recycles address space)
//! the test has nothing to measure with and passes.

use lcg_congest::snapshot::Enc;
use lcg_congest::{Model, Network, SnapshotReader, SnapshotWriter};
use lcg_graph::gen;

const PAYLOAD: usize = 1 << 20;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    kb.trim().trim_end_matches("kB").trim().parse::<usize>().ok().map(|kb| kb * 1024)
}

/// Address space the process gains while `run` runs. `VmPeak` moves only
/// once `VmSize` passes it, so the gap between the two is first filled
/// with a never-touched reservation held for the duration — a thread's
/// first allocation leaves glibc's 64 MiB arena-alignment transient behind
/// as headroom, and every freed reservation adds to it.
fn peak_growth(run: impl FnOnce()) -> Option<usize> {
    let gap = status_bytes("VmPeak")?.checked_sub(status_bytes("VmSize")?)?;
    let ballast = Vec::<u8>::with_capacity(gap);
    std::hint::black_box(&ballast);
    let before = status_bytes("VmPeak")?;
    run();
    Some(status_bytes("VmPeak")? - before)
}

/// `prefix`, then a sequence length of `u64::MAX / 2`, then `after`, then
/// `0xFF` filler up to [`PAYLOAD`] bytes: every later length prefix the
/// decoder meets in the filler is hostile too.
fn hostile(prefix: Enc, after: &[u64]) -> Vec<u8> {
    let mut enc = prefix;
    enc.u64(u64::MAX / 2);
    for &v in after {
        enc.u64(v);
    }
    let mut payload = enc.into_bytes();
    payload.resize(PAYLOAD, 0xFF);
    payload
}

/// `base` with the payload of `tag` replaced and every checksum recomputed.
fn with_section(base: &SnapshotReader, tag: &str, payload: Vec<u8>) -> SnapshotReader {
    let mut w = SnapshotWriter::new();
    for t in base.tags().filter(|&t| t != tag) {
        w.section(t, base.section(t).expect("listed tag").to_vec());
    }
    w.section(tag, payload);
    SnapshotReader::parse(&w.to_bytes()).expect("well-framed snapshot")
}

/// `decode` must fail typed, having reserved at most twice the payload.
fn check(what: &str, decode: impl FnOnce() -> bool) {
    let grew = peak_growth(|| assert!(decode(), "{what}: a hostile payload must fail typed"))
        .expect("procfs answered a moment ago");
    assert!(
        grew <= 2 * PAYLOAD,
        "{what}: decoding a {PAYLOAD}-byte hostile payload reserved {grew} bytes ({}x)",
        grew / PAYLOAD
    );
}

#[test]
fn hostile_length_prefix_reserves_at_most_twice_its_payload() {
    let known = peak_growth(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(8 * PAYLOAD))));
    if known.is_none_or(|grew| grew < 8 * PAYLOAD) {
        eprintln!("VmPeak does not answer to a known reservation here: nothing measured");
        return;
    }
    let g = gen::grid(4, 4);
    let mut w = SnapshotWriter::new();
    Network::new(&g, Model::congest()).write_snapshot_sections(&mut w);
    let engine = SnapshotReader::parse(&w.to_bytes()).expect("a fresh snapshot parses");

    // FLTS: Some(plan), seed, drop probability 0.0, then `link_failures`
    let mut flts = Enc::new();
    flts.u8(1);
    flts.u64(7);
    flts.f64(0.0);
    let flts = with_section(&engine, "FLTS", hostile(flts, &[]));

    // TRCE: Some(state) as one length-framed blob — config, n, m, no
    // endpoints, the four running totals, then `spans`
    let mut blob = Enc::new();
    blob.str("hostile");
    blob.u8(1);
    blob.u8(0);
    for v in [10, 16, 24, 0, 3, 22, 44, 2] {
        blob.u64(v);
    }
    let mut trce = Enc::new();
    trce.u8(1);
    trce.bytes(&hostile(blob, &[])[..PAYLOAD - 9]);
    let trce = with_section(&engine, "TRCE", trce.into_bytes());

    // NODE as `Vec<Vec<String>>`: hostile outer length over a 2-string
    // row, and a 1-row vector whose row length is hostile
    let mut node = SnapshotWriter::new();
    node.section("OUTR", hostile(Enc::new(), &[2]));
    let mut inner = Enc::new();
    inner.u64(1);
    node.section("INNR", hostile(inner, &[]));
    let node = SnapshotReader::parse(&node.to_bytes()).expect("well-framed snapshot");

    check("FaultPlan", || Network::restore_snapshot_sections(&g, &flts).is_err());
    check("tracer state", || Network::restore_snapshot_sections(&g, &trce).is_err());
    check("Vec<Vec<String>>, outer", || node.state_section::<Vec<Vec<String>>>("OUTR").is_err());
    check("Vec<Vec<String>>, inner", || node.state_section::<Vec<Vec<String>>>("INNR").is_err());
}
