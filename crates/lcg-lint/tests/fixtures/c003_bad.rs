// Known-bad fixture for C003: a step closure peeking at execution topology.
// The protocol would still run, but its decisions vary with LCG_THREADS —
// results differ across thread counts by construction.

pub fn batching_flood(net: &mut Network, rounds: usize, states: &mut [u64]) {
    net.run_state(rounds, states, |me, _v, inbox, out| {
        // batch size derived from the worker count: vertex behaviour now
        // depends on the scheduler, not on (state, inbox, seed)
        let lanes = ExecConfig::from_env().threads();
        for m in inbox.iter().flatten() {
            *me = (*me).max(m[0]);
        }
        if std::env::var("LCG_THREADS").is_ok() {
            out.send(0, vec![*me + lanes as u64]);
        }
    });
}
