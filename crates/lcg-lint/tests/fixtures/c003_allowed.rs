// Allow-suppressed counterpart of c003_bad.rs: a diagnostic overlay that
// records the topology in per-vertex state for the run report only, with
// written justifications — what a vertex sends never reads it.

pub struct Reporting {
    best: u64,
    lanes: u64,
    pinned: bool,
}

pub fn reporting_flood(net: &mut Network, rounds: usize, states: &mut [Reporting]) {
    net.run_state(rounds, states, |me, _v, inbox, out| {
        // lcg-lint: allow(C003) -- report-only: worker count is output metadata, never read by round logic
        me.lanes = ExecConfig::from_env().threads() as u64;
        // lcg-lint: allow(C003) -- report-only: records whether the run pinned its thread count
        me.pinned = std::env::var("LCG_THREADS").is_ok();
        for m in inbox.iter().flatten() {
            me.best = me.best.max(m[0]);
        }
        out.send(0, vec![me.best]);
    });
}
