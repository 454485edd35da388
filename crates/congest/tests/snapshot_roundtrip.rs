//! Property tests for the engine snapshot format (DESIGN.md §14).
//!
//! Two families:
//!
//! * **Round-trip** — over generated graphs, fault plans, tracer/metrics
//!   attachments, and mid-flight execution points: saving a network,
//!   resuming it, and saving again must produce *byte-equal* snapshots,
//!   and the resumed network must continue bit-identically to the
//!   original (stats and per-vertex results).
//! * **Corruption** — every truncation boundary and every post-header
//!   bit-flip of a snapshot must come back as a typed
//!   [`SnapshotError`], never a panic, never a silently wrong network;
//!   and byte edits *under a recomputed checksum* — what a hostile writer
//!   produces, and the only way foreign bytes reach the payload decoder —
//!   must resume or fail typed, never panic.

use lcg_congest::snapshot::{MAGIC, SCHEMA};
use lcg_congest::{FaultPlan, Model, Network, SnapshotError, SnapshotReader, SnapshotWriter};
use lcg_graph::{gen, Graph};
use lcg_metrics::Recorder;
use lcg_trace::{TraceConfig, Tracer};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

/// One generated scenario: a graph shape, an execution prefix, and the
/// optional attachments that make snapshot sections non-trivial.
#[derive(Debug, Clone)]
struct Case {
    shape: u8,
    size: usize,
    seed: u64,
    rounds_before: usize,
    drop_pct: u8,
    link_failures: Vec<(usize, u64, u64)>,
    crashes: Vec<(usize, u64)>,
    with_faults: bool,
    with_tracer: bool,
    with_metrics: bool,
    local_model: bool,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0u8..3, 6usize..24, 0u64..1000, 0usize..10),
        (0u8..61, proptest::collection::vec((0usize..64, 0u64..8, 0u64..24), 0..3)),
        (
            proptest::collection::vec((0usize..64, 0u64..12), 0..2),
            proptest::any::<bool>(),
            proptest::any::<bool>(),
            proptest::any::<bool>(),
            proptest::any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (shape, size, seed, rounds_before),
                (drop_pct, link_failures),
                (crashes, with_faults, with_tracer, with_metrics, local_model),
            )| Case {
                shape,
                size,
                seed,
                rounds_before,
                drop_pct,
                link_failures,
                crashes,
                with_faults,
                with_tracer,
                with_metrics,
                local_model,
            },
        )
}

fn build_graph(case: &Case) -> Graph {
    match case.shape {
        0 => gen::cycle(case.size.max(3)),
        1 => gen::grid(3, case.size.max(2)),
        _ => {
            let mut rng = gen::seeded_rng(case.seed);
            gen::random_planar(case.size.max(4), 0.5, &mut rng)
        }
    }
}

fn build_plan(case: &Case, g: &Graph) -> FaultPlan {
    let mut plan = FaultPlan::drops(case.seed ^ 0xFA17, f64::from(case.drop_pct) / 100.0);
    for &(e, from, until) in &case.link_failures {
        plan = plan.with_link_failure(e % g.m().max(1), from, from + until);
    }
    for &(v, at) in &case.crashes {
        plan = plan.with_crash(v % g.n(), at);
    }
    plan
}

/// Builds the network for `case`, runs its execution prefix, and returns
/// it mid-flight (messages pending, faults armed, attachments live).
fn build_net<'g>(case: &Case, g: &'g Graph) -> (Network<'g>, Vec<bool>) {
    let model = if case.local_model { Model::Local } else { Model::congest() };
    let mut net = Network::new(g, model);
    if case.with_faults && g.m() > 0 {
        net.set_fault_plan(Some(build_plan(case, g)));
    }
    if case.with_tracer {
        let mut t = Tracer::new(TraceConfig::full("prop"));
        let _open = t.open_span("outer"); // deliberately left open mid-run
        net.attach_tracer(t);
    }
    if case.with_metrics {
        let mut rec = Recorder::new("prop");
        rec.counter_add("prop.setup", case.seed & 0xFF);
        net.attach_metrics(rec);
    }
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    // always-send flood: every informed vertex talks every round, so the
    // pending grid is non-empty at nearly every snapshot point
    net.run_state(case.rounds_before, &mut informed, flood);
    (net, informed)
}

fn flood(me: &mut bool, _v: usize, inbox: &lcg_congest::Inbox, out: &mut lcg_congest::Outbox) {
    if inbox.iter().any(Option::is_some) {
        *me = true;
    }
    if *me {
        for p in 0..out.ports() {
            out.send(p, [1]);
        }
    }
}

fn snapshot_bytes(net: &Network<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    net.save_snapshot(&mut buf).expect("serializing to a Vec cannot fail");
    buf
}

/// Header length of a snapshot produced by this build: magic, u16
/// version-string length, the version string, u32 schema. Everything
/// *after* it lives inside a checksummed section frame.
fn header_len() -> usize {
    MAGIC.len() + 2 + env!("CARGO_PKG_VERSION").len() + 4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// snapshot → resume → snapshot is byte-equal, and the resumed
    /// engine continues bit-identically to the saved one.
    #[test]
    fn snapshot_resume_snapshot_is_byte_equal(case in arb_case()) {
        let g = build_graph(&case);
        let (mut net, informed) = build_net(&case, &g);
        let first = snapshot_bytes(&net);
        let mut resumed = Network::resume_snapshot(&g, first.as_slice())
            .expect("a fresh snapshot must resume");
        let second = snapshot_bytes(&resumed);
        prop_assert_eq!(&first, &second, "resume must reproduce the exact snapshot");

        // continuation equality: both engines run the same tail
        let mut informed_b = informed.clone();
        let mut informed_a = informed;
        net.run_state(5, &mut informed_a, flood);
        resumed.run_state(5, &mut informed_b, flood);
        prop_assert_eq!(informed_a, informed_b);
        prop_assert_eq!(net.stats(), resumed.stats());
        prop_assert_eq!(snapshot_bytes(&net), snapshot_bytes(&resumed));
    }

    /// Any single bit-flip after the header is a typed error — the
    /// checksummed frames leave no byte an attacker of entropy can
    /// silently own. (Header bytes are covered by the targeted tests
    /// below: magic and schema are typed, the version string is
    /// diagnostic-only by design.)
    #[test]
    fn post_header_bit_flips_never_resume(case in arb_case(), at in 0usize..4096, bit in 0u8..8) {
        let g = build_graph(&case);
        let (net, _) = build_net(&case, &g);
        let mut bytes = snapshot_bytes(&net);
        let lo = header_len();
        let idx = lo + (at % (bytes.len() - lo));
        bytes[idx] ^= 1 << bit;
        let outcome = SnapshotReader::parse(&bytes)
            .and_then(|r| Network::restore_snapshot_sections(&g, &r).map(|_| ()));
        prop_assert!(outcome.is_err(), "flip at byte {} must not resume", idx);
    }

    /// Byte edits inside section payloads with every checksum recomputed:
    /// FNV-1a is an integrity check, not a defence, so this is the input
    /// the one payload decoder must survive on every section — `TRCE`,
    /// `PEND` and `METR` included. Resuming may succeed (an edited counter
    /// is still a counter) or fail typed; it never panics.
    #[test]
    fn edited_payloads_under_valid_checksums_never_panic(
        case in arb_case(),
        edits in proptest::collection::vec((0usize..8, 0usize..4096, proptest::any::<u8>()), 1..6),
        cut in (0usize..8, 0usize..4096, proptest::any::<bool>()),
    ) {
        let g = build_graph(&case);
        let (net, _) = build_net(&case, &g);
        let clean = SnapshotReader::parse(&snapshot_bytes(&net)).expect("a fresh snapshot parses");
        let mut sections: Vec<(String, Vec<u8>)> = clean
            .tags()
            .map(|t| (t.to_string(), clean.section(t).expect("listed tag").to_vec()))
            .collect();
        let count = sections.len();
        for (sec, at, byte) in edits {
            let payload = &mut sections[sec % count].1;
            if !payload.is_empty() {
                let at = at % payload.len();
                payload[at] = byte;
            }
        }
        if let (sec, at, true) = cut {
            let payload = &mut sections[sec % count].1;
            payload.truncate(at % (payload.len() + 1));
        }
        let mut w = SnapshotWriter::new();
        for (tag, payload) in sections {
            w.section(&tag, payload);
        }
        // Ok or a typed error: reaching the end of this call is the assertion
        let _ = Network::resume_snapshot(&g, w.to_bytes().as_slice());
    }

    /// Every truncation point of a snapshot is rejected with a typed
    /// error (and without panicking) — a half-written file can never be
    /// mistaken for a checkpoint.
    #[test]
    fn every_truncation_point_is_rejected(case in arb_case()) {
        let g = build_graph(&case);
        let (net, _) = build_net(&case, &g);
        let bytes = snapshot_bytes(&net);
        for cut in 0..bytes.len() {
            let outcome = SnapshotReader::parse(&bytes[..cut])
                .and_then(|r| Network::restore_snapshot_sections(&g, &r).map(|_| ()));
            prop_assert!(outcome.is_err(), "truncation at {} of {} must fail", cut, bytes.len());
        }
    }
}

// ------------------------------------------------- targeted typed errors

fn reference_snapshot() -> (Graph, Vec<u8>) {
    let g = gen::grid(4, 4);
    let mut net = Network::new(&g, Model::congest());
    net.set_fault_plan(Some(FaultPlan::drops(7, 0.2).with_crash(3, 9)));
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    net.run_state(3, &mut informed, flood);
    let mut buf = Vec::new();
    net.save_snapshot(&mut buf).expect("serialize");
    (g, buf)
}

#[test]
fn magic_corruption_is_bad_magic() {
    let (_, mut bytes) = reference_snapshot();
    bytes[0] ^= 0x01;
    assert!(matches!(SnapshotReader::parse(&bytes), Err(SnapshotError::BadMagic)));
}

#[test]
fn schema_corruption_is_version_skew() {
    let (_, mut bytes) = reference_snapshot();
    let schema_at = header_len() - 4;
    bytes[schema_at..schema_at + 4].copy_from_slice(&(SCHEMA + 9).to_le_bytes());
    match SnapshotReader::parse(&bytes) {
        Err(SnapshotError::VersionSkew { found, expected }) => {
            assert_eq!(found, SCHEMA + 9);
            assert_eq!(expected, SCHEMA);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

#[test]
fn payload_corruption_is_checksum_mismatch() {
    let (_, mut bytes) = reference_snapshot();
    // first section frame starts right after the header: tag(4) len(8)
    let payload_at = header_len() + 12;
    bytes[payload_at] ^= 0x80;
    assert!(matches!(
        SnapshotReader::parse(&bytes),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn truncation_is_typed_not_a_panic() {
    let (_, bytes) = reference_snapshot();
    let cut = bytes.len() - 5; // inside the END terminator frame
    match SnapshotReader::parse(&bytes[..cut]) {
        Err(
            SnapshotError::TruncatedSection { .. }
            | SnapshotError::MissingSection { .. }
            | SnapshotError::Corrupt { .. },
        ) => {}
        other => panic!("expected a typed truncation error, got {other:?}"),
    }
}

#[test]
fn resuming_onto_the_wrong_graph_is_topology_mismatch() {
    let (_, bytes) = reference_snapshot();
    let other = gen::cycle(16); // same n, different edges
    match Network::resume_snapshot(&other, bytes.as_slice()) {
        Err(SnapshotError::TopologyMismatch { detail }) => {
            assert!(detail.contains("edges#"), "diagnostic must name fingerprints: {detail}");
        }
        Ok(_) => panic!("resume onto a different topology must fail"),
        Err(other) => panic!("expected TopologyMismatch, got {other:?}"),
    }
}

#[test]
fn csr_built_network_round_trips() {
    // A graph from the streaming huge-sparse family — built straight into
    // the flat CSR arrays and round-tripped through the edge-list text
    // format — must snapshot/resume exactly like the classic builders:
    // save → resume → save is byte-equal and the tail runs are identical.
    let mut rng = gen::seeded_rng(0xC5A);
    let generated = gen::power_law(512, 2, &mut rng);
    let mut text = Vec::new();
    lcg_graph::io::write_edge_list(&mut text, &generated).expect("serialize edge list");
    let g = lcg_graph::io::read_edge_list(text.as_slice(), generated.n())
        .expect("parse edge list");
    assert_eq!(g.m(), generated.m());

    let mut net = Network::new(&g, Model::congest());
    net.set_fault_plan(Some(FaultPlan::drops(0xC5A, 0.1).with_crash(7, 6)));
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    net.run_state(4, &mut informed, flood);

    let first = snapshot_bytes(&net);
    let mut resumed =
        Network::resume_snapshot(&g, first.as_slice()).expect("CSR-built snapshot must resume");
    assert_eq!(first, snapshot_bytes(&resumed), "resume must reproduce the exact snapshot");

    let mut informed_b = informed.clone();
    net.run_state(5, &mut informed, flood);
    resumed.run_state(5, &mut informed_b, flood);
    assert_eq!(informed, informed_b);
    assert_eq!(net.stats(), resumed.stats());
}

/// One active-set round: every third vertex (rotating with `round`) sends
/// on all its ports; returns what each reached vertex heard.
fn sparse_round(net: &mut Network<'_>, round: u64) -> Vec<(usize, Vec<u64>)> {
    let senders: Vec<usize> =
        (0..net.graph().n()).filter(|&v| v as u64 % 3 == round % 3).collect();
    let mut heard = Vec::new();
    net.exchange_active(
        &senders,
        |v, out| {
            for p in 0..out.ports() {
                out.send(p, [v as u64, round]);
            }
        },
        |v, inbox| heard.push((v, inbox.iter().flatten().map(|m| m[0]).collect())),
    );
    heard
}

#[test]
fn snapshot_between_sparse_rounds_round_trips() {
    // The receiver scratch of `exchange_active` is transient: a snapshot
    // taken between two sparse rounds resumes to a network whose next
    // sparse round — faults, trace and metrics included — is the original's.
    let g = gen::grid(5, 5);
    let mut net = Network::new(&g, Model::congest());
    net.set_fault_plan(Some(FaultPlan::drops(0x5A, 0.2).with_crash(7, 2)));
    net.attach_tracer(Tracer::new(TraceConfig::full("sparse")));
    net.attach_metrics(Recorder::new("sparse"));
    for round in 0..2 {
        sparse_round(&mut net, round);
    }
    let first = snapshot_bytes(&net);
    let mut resumed =
        Network::resume_snapshot(&g, first.as_slice()).expect("a fresh snapshot must resume");
    assert_eq!(first, snapshot_bytes(&resumed), "resume must reproduce the exact snapshot");
    for round in 2..5 {
        assert_eq!(sparse_round(&mut net, round), sparse_round(&mut resumed, round));
    }
    assert!(net.stats().crashed_messages > 0, "the crash schedule must have fired");
    assert_eq!(net.stats(), resumed.stats());
    assert_eq!(snapshot_bytes(&net), snapshot_bytes(&resumed));
}

#[test]
fn fault_progress_survives_the_round_trip() {
    // a plan with a crash at round 5: save at round 3, resume, and the
    // crash must still fire on schedule — plan + round counter is
    // complete fault progress
    let g = gen::grid(4, 4);
    let plan = FaultPlan::drops(11, 0.0).with_crash(5, 5);
    let run = |resume_at: Option<usize>| -> (u64, Vec<bool>) {
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(plan.clone()));
        let mut informed = vec![false; g.n()];
        informed[0] = true;
        match resume_at {
            None => net.run_state(9, &mut informed, flood),
            Some(k) => {
                net.run_state(k, &mut informed, flood);
                let mut buf = Vec::new();
                net.save_snapshot(&mut buf).expect("serialize");
                net = Network::resume_snapshot(&g, buf.as_slice()).expect("resume");
                net.run_state(9 - k, &mut informed, flood);
            }
        }
        (net.stats().crashed_messages, informed)
    };
    let (straight_crashed, straight_informed) = run(None);
    assert!(straight_crashed > 0, "the crash schedule must have fired");
    for k in [1, 3, 4, 6, 8] {
        let (crashed, informed) = run(Some(k));
        assert_eq!(crashed, straight_crashed, "resume at {k} diverged on crash accounting");
        assert_eq!(informed, straight_informed, "resume at {k} diverged on results");
    }
}
