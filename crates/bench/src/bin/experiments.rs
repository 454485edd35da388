//! Experiment driver: regenerates any table in EXPERIMENTS.md.
//!
//! ```text
//! experiments all                # every experiment, full scale
//! experiments e4 e9 --quick      # selected experiments, CI scale
//! experiments all --json out/    # also dump JSON per table
//! experiments e18 --threads 8    # simulator on 8 worker threads
//! experiments --trace run.jsonl  # traced framework run -> JSONL + report
//! ```
//!
//! `--threads N` (equivalently the `LCG_THREADS` environment variable)
//! selects the round engine's worker-thread count. It only changes
//! wall-clock: every experiment's numbers are bit-identical for every
//! thread count, by the engine's determinism guarantee.
//!
//! `--trace PATH` runs the Theorem 2.6 framework with full tracing (phase
//! spans, per-round series, congestion hotspots), writes the JSONL trace to
//! PATH, and prints the rendered report to stderr. With no experiments
//! selected, only the traced run executes. `--trace-top-k N` sets how many
//! hotspot edges the trace keeps (default 10). The trace records logical
//! rounds only, so it too is bit-identical for every thread count.
//!
//! `--metrics PATH` runs the framework with the two-plane metrics recorder
//! attached, writes the versioned `metrics.json` report to PATH, and prints
//! the rendered report to stderr. The report's `deterministic` section is
//! bit-identical at any thread count; only its quarantined `profile`
//! section (wall time, executor utilization, peak RSS) varies.

use std::io::Write;

use lcg_bench::{experiments, Opts, Scale};

const USAGE: &str = "\
usage: experiments [IDS...] [OPTIONS]

  IDS                 experiment ids (e1, e2, ...) or `all`; default: all
  --quick             CI scale (smaller graphs, same tables)
  --json DIR          also dump each table as DIR/<id>.json
  --threads N         round-engine worker threads (same numbers at any N)
  --trace PATH        write a traced framework run's JSONL trace to PATH
                      and print the report to stderr; with no IDS, run
                      only the traced run
  --trace-top-k N     hotspot edges kept in the trace (default 10)
  --metrics PATH      write a metrics-recorded framework run's two-plane
                      report (metrics.json) to PATH and print the rendered
                      report to stderr; with no IDS, run only that run
  --faults P          inject seeded i.i.d. message drops with probability P
                      into the traced run (fault events land in the trace)
  --fault-seed S      fault-schedule seed for --faults, E20 and E24
                      (default 0xFA17)
  --retry-budget N    max retries of the self-healing harness in E20 and
                      the supervised run (default 3)
  --checkpoint-every K  engine-plane checkpoint cadence in rounds for E24
                      (default 8)
  --kill-at-round R   inject a deterministic crash at round R in E24's
                      engine plane (default: half the run)
  --resume-from DIR   run the framework under the kill-and-resume
                      supervisor, checkpointing into DIR and resuming any
                      snapshots already there (the cross-process resume
                      path); prints the checkpoint.* counters to stderr.
                      With no IDS, run only the supervised run
  --scale-n N         vertex count of E25 (default 10^5 quick, 10^6 full)
  --e25-metrics PATH  write E25's framework-row metrics.json to PATH
  -h, --help          print this help";

/// The value after `name` on the command line, parsed; `None` when the flag
/// is absent.
///
/// # Panics
///
/// Panics, naming the flag, when the value has the wrong shape.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, what: &str) -> Option<T> {
    let v = args.iter().position(|a| a == name).and_then(|i| args.get(i + 1))?;
    Some(v.parse().unwrap_or_else(|_| panic!("{name} expects {what}, got `{v}`")))
}

/// The experiment ids: every flag but `--quick` takes the argument after it
/// as its value, what is left over names experiments.
fn ids(args: &[String]) -> Vec<&str> {
    let mut ids = Vec::new();
    let mut is_value = false;
    for a in args {
        let is_flag = a.starts_with("--");
        if !is_flag && !is_value {
            ids.push(a.as_str());
        }
        is_value = is_flag && a != "--quick";
    }
    ids
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    // what experiments read
    let opts = Opts {
        scale: if args.iter().any(|a| a == "--quick") { Scale::Quick } else { Scale::Full },
        fault_seed: flag(&args, "--fault-seed", "a number").unwrap_or(0xFA17),
        retry_budget: flag(&args, "--retry-budget", "a number").unwrap_or(3),
        checkpoint_every: flag(&args, "--checkpoint-every", "a round count").unwrap_or(8),
        kill_at_round: flag(&args, "--kill-at-round", "a round number"),
        scale_n: flag(&args, "--scale-n", "a vertex count"),
        e25_metrics: flag(&args, "--e25-metrics", "a path"),
    };
    // what only this binary reads
    let json_dir: Option<String> = flag(&args, "--json", "a directory");
    let trace_path: Option<String> = flag(&args, "--trace", "a path");
    let trace_top_k = flag(&args, "--trace-top-k", "a number").unwrap_or(10);
    let metrics_path: Option<String> = flag(&args, "--metrics", "a path");
    let resume_from: Option<String> = flag(&args, "--resume-from", "a directory");
    let faults = flag(&args, "--faults", "a probability in [0,1]")
        .map(|p: f64| lcg_congest::FaultPlan::drops(opts.fault_seed, p));
    if let Some(t) = flag::<String>(&args, "--threads", "a thread count") {
        // the one flag that travels by environment: `ExecConfig::from_env`
        // reads it wherever a library entry point builds a Network
        std::env::set_var("LCG_THREADS", t);
    }
    let selected = ids(&args);
    let scale = opts.scale;

    if let Some(path) = &trace_path {
        run_traced(path, trace_top_k, scale, faults.clone());
        if selected.is_empty() && metrics_path.is_none() {
            return;
        }
    }

    if let Some(path) = &metrics_path {
        run_metrics(path, scale, faults.clone());
        if selected.is_empty() && resume_from.is_none() {
            return;
        }
    }

    if let Some(dir) = &resume_from {
        run_checkpointed(dir, &opts, faults);
        if selected.is_empty() {
            return;
        }
    }

    let run_all = selected.is_empty() || selected.contains(&"all");
    let mut ran = 0;
    for (id, f) in &experiments::all() {
        if !run_all && !selected.contains(id) {
            continue;
        }
        eprintln!(">>> running {id} ({scale:?})...");
        let started = std::time::Instant::now();
        let tables = f(&opts);
        for t in &tables {
            t.print();
            if let Some(dir) = &json_dir {
                std::fs::create_dir_all(dir).expect("create json dir");
                let path = format!("{dir}/{}.json", t.id.to_lowercase());
                let mut f = std::fs::File::create(&path).expect("create json file");
                write!(f, "{}", serde_json::to_string_pretty(t).unwrap()).unwrap();
            }
        }
        eprintln!("<<< {id} done in {:.1}s\n", started.elapsed().as_secs_f64());
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched; available: e1..e12, all");
        std::process::exit(2);
    }
}

/// The planar instance the three framework runs below share (with the one
/// fault plan `main` builds), so their reports describe the same execution.
fn planar_instance(scale: Scale) -> lcg_graph::Graph {
    let n = scale.pick(200, 2_000);
    lcg_graph::gen::random_planar(n, 0.5, &mut lcg_graph::gen::seeded_rng(42))
}

/// One fully traced framework run on a planar instance, sized by `scale`.
/// With `--faults P`, a seeded drop schedule is injected and its events
/// land in the trace (and the report's fault section).
fn run_traced(path: &str, top_k: usize, scale: Scale, faults: Option<lcg_congest::FaultPlan>) {
    use lcg_core::framework::{run_framework, FrameworkConfig};

    let g = planar_instance(scale);
    eprintln!(">>> running traced framework (n={}, top-k {top_k})...", g.n());
    let cfg = FrameworkConfig {
        trace: true,
        trace_top_k: top_k,
        faults,
        ..FrameworkConfig::planar(0.3, 42)
    };
    let out = run_framework(&g, &cfg);
    std::fs::write(path, out.trace.to_jsonl()).expect("write trace file");
    eprintln!("{}", lcg_trace::report::render(&out.trace));
    eprintln!("<<< trace written to {path}\n");
}

/// One supervised framework run on the standard planar instance (same
/// seed as the traced/metrics runs), checkpointing into `dir` at every
/// attempt boundary and resuming any compatible snapshots already there —
/// kill the process mid-run and invoke it again with the same `--resume-from`
/// to watch the cross-process resume path lose at most one attempt.
fn run_checkpointed(dir: &str, opts: &Opts, faults: Option<lcg_congest::FaultPlan>) {
    use lcg_core::framework::FrameworkConfig;
    use lcg_core::recovery::RecoveryPolicy;
    use lcg_core::supervisor::{run_framework_checkpointed, CheckpointConfig};

    let g = planar_instance(opts.scale);
    eprintln!(">>> running checkpointed framework (n={}, dir={dir})...", g.n());
    let cfg = FrameworkConfig { metrics: true, faults, ..FrameworkConfig::planar(0.3, 42) };
    let policy = RecoveryPolicy {
        max_retries: opts.retry_budget,
        initial_walk_steps: opts.scale.pick(20_000, 200_000),
    };
    let ckpt = CheckpointConfig::new(dir);
    let (outcome, recovery, sup) =
        run_framework_checkpointed(&g, &cfg, &policy, &ckpt).expect("supervised framework run");
    eprintln!(
        "<<< outcome: {} rounds, {} attempts, degraded={} | checkpoint.saved={} \
         checkpoint.resumed={} checkpoint.corrupt_skipped={} checkpoint.crashes={}\n",
        outcome.stats.rounds,
        recovery.attempts,
        recovery.degraded,
        sup.saved,
        sup.resumed,
        sup.corrupt_skipped,
        sup.crashes
    );
}

/// One metrics-recorded framework run on a planar instance, sized by
/// `scale`. The same instance and seed as the traced run, so the two
/// reports describe the same execution. Writes the full two-plane report
/// to `path` and renders it to stderr.
fn run_metrics(path: &str, scale: Scale, faults: Option<lcg_congest::FaultPlan>) {
    use lcg_core::framework::{run_framework, FrameworkConfig};

    let g = planar_instance(scale);
    eprintln!(">>> running metrics-recorded framework (n={})...", g.n());
    let cfg = FrameworkConfig { metrics: true, faults, ..FrameworkConfig::planar(0.3, 42) };
    let out = run_framework(&g, &cfg);
    let report = out.metrics.expect("metrics: true always yields a report");
    std::fs::write(path, report.to_json()).expect("write metrics file");
    eprintln!("{}", lcg_metrics::report::render(&report));
    eprintln!("<<< metrics written to {path}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split(' ').map(String::from).collect()
    }

    #[test]
    fn flags_take_the_next_argument_and_the_rest_are_ids() {
        let a = args("e20 --quick e24 --fault-seed 7 --json out all");
        assert_eq!(ids(&a), ["e20", "e24", "all"]);
        assert_eq!(flag::<u64>(&a, "--fault-seed", "a number"), Some(7));
        assert_eq!(flag::<String>(&a, "--json", "a directory").as_deref(), Some("out"));
        assert_eq!(flag::<u64>(&a, "--kill-at-round", "a round number"), None);
    }

    #[test]
    #[should_panic(expected = "--retry-budget expects a number, got `many`")]
    fn a_malformed_value_names_its_flag() {
        flag::<u32>(&args("e20 --retry-budget many"), "--retry-budget", "a number");
    }
}
