// Known-bad fixture for O001: profiling-plane values leaking into
// RNG-seeding, protocol, reduction, and registry code. Never compiled —
// read as text by fixtures_test.rs.

use lcg_metrics::profile::{self, Stamp};

/// Seeding an RNG from the monotonic clock: replays become impossible.
fn reseed(started: Stamp) -> ChaCha8Rng {
    let stamp = Stamp::now().ns_since(started);
    ChaCha8Rng::seed_from_u64(stamp)
}

/// Wall-clock observation smuggled into a message payload inside a
/// protocol closure: vertices see the scheduler.
fn drive(net: &mut Net, states: &mut [S]) {
    net.step_state(states, |me, v, inbox, out| {
        let tick = Stamp::now().ns_since(started);
        out.send(0, [tick]);
    });
}

/// Executor sample folded into a deterministic reduction: the merged
/// result now depends on thread timing.
fn account(stats: &mut RoundStats, sample: WorkerSample) {
    stats.merge(&to_stats(sample.busy_ns));
}

/// Resource observation written into the deterministic registry: the
/// "bit-identical" plane silently stops being bit-identical.
fn record(rec: &mut Recorder) {
    rec.gauge_set("rss", profile::peak_rss_bytes());
}
