//! Experiment driver: regenerates any table in EXPERIMENTS.md.
//!
//! ```text
//! experiments all                # every experiment, full scale
//! experiments e4 e9 --quick      # selected experiments, CI scale
//! experiments all --json out/    # also dump JSON per table
//! experiments --trace run.jsonl  # traced framework run -> JSONL + report
//! ```
//!
//! `--trace PATH` runs the Theorem 2.6 framework with full tracing (phase
//! spans, per-round series, congestion hotspots), writes the JSONL trace to
//! PATH, and prints the rendered report to stderr. With no experiments
//! selected, only the traced run executes. `--trace-top-k N` sets how many
//! hotspot edges the trace keeps (default 10). The trace records logical
//! rounds only, so it is bit-identical from run to run.
//!
//! `--metrics PATH` runs the framework with the two-plane metrics recorder
//! attached, writes the versioned `metrics.json` report to PATH, and prints
//! the rendered report to stderr. The report's `deterministic` section is
//! bit-identical from run to run; only its quarantined `profile` section
//! (wall time, peak RSS) varies.
//!
//! `--threads N` is the thread count of the framework runs this binary
//! starts — E25's framework row and the `--trace`/`--metrics` runs — and
//! the one place it is set: the libraries read no environment variable.
//! Every result is the same at any count; only the seconds move.

use std::io::Write;

use lcg_bench::{experiments, Opts, Scale};

const USAGE: &str = "\
usage: experiments [IDS...] [OPTIONS]

  IDS                 experiment ids (e1, e2, ...) or `all`; default: all
  --quick             CI scale (smaller graphs, same tables)
  --json DIR          also dump each table as DIR/<id>.json
  --trace PATH        write a traced framework run's JSONL trace to PATH
                      and print the report to stderr; with no IDS, run
                      only the traced run
  --trace-top-k N     hotspot edges kept in the trace (default 10)
  --metrics PATH      write a metrics-recorded framework run's two-plane
                      report (metrics.json) to PATH and print the rendered
                      report to stderr; with no IDS, run only that run
  --faults P          inject seeded i.i.d. message drops with probability P
                      into the traced run (fault events land in the trace)
  --fault-seed S      fault-schedule seed for --faults and E20
                      (default 0xFA17)
  --retry-budget N    max retries of the self-healing harness in E20
                      (default 3)
  --scale-n N         vertex count of E25 (default 10^5 quick, 10^6 full)
  --e25-metrics PATH  write E25's framework-row metrics.json to PATH
  --threads N         threads of E25's framework row and of the --trace and
                      --metrics runs (default 1; results are the same at
                      any count)
  -h, --help          print this help

Any other argument starting with --, and a flag above that takes a value
with none after it, is an error (exit 2).";

/// Every flag this binary knows, with whether it takes the argument after
/// it as its value; `-h`/`--help` are answered before parsing.
const FLAGS: [(&str, bool); 11] = [
    ("--quick", false),
    ("--json", true),
    ("--trace", true),
    ("--trace-top-k", true),
    ("--metrics", true),
    ("--faults", true),
    ("--fault-seed", true),
    ("--retry-budget", true),
    ("--scale-n", true),
    ("--e25-metrics", true),
    ("--threads", true),
];

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

/// `--threads N` as an executor; `None` when absent.
///
/// # Panics
///
/// Panics, naming the flag, unless `N` is a whole number of at least 1.
fn threads(args: &[String]) -> Option<lcg_congest::ExecConfig> {
    let threads = flag(args, "--threads", "a thread count")?;
    assert!(threads >= 1, "--threads expects a thread count of at least 1, got `{threads}`");
    Some(lcg_congest::ExecConfig::with_threads(threads))
}

/// The experiment ids: what is left over once every flag of [`FLAGS`] and
/// the value of each that takes one are set aside.
///
/// # Errors
///
/// What is wrong with the first bad flag, naming it: a `--` argument that
/// is not in [`FLAGS`], or a flag that takes a value with none after it (it
/// is last, or the next argument starts with `--`). Ignoring either would be
/// worse than refusing it: a misspelled `--quik e1` would swallow `e1` as its
/// value, and a bare `--trace` would read as no flag at all; both select
/// nothing and so run every experiment at full scale.
fn ids(args: &[String]) -> Result<Vec<&str>, String> {
    let mut ids = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            ids.push(a.as_str());
            continue;
        }
        let &(_, takes_value) = FLAGS.iter().find(|(name, _)| name == a).ok_or(format!("unknown flag `{a}`"))?;
        if takes_value && rest.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("flag `{a}` expects a value"));
        }
    }
    Ok(ids)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let selected = ids(&args).unwrap_or_else(|error| {
        eprintln!("experiments: {error}\n\n{USAGE}");
        std::process::exit(2);
    });
    // what experiments read
    let defaults =
        Opts::new(if args.iter().any(|a| a == "--quick") { Scale::Quick } else { Scale::Full });
    let opts = Opts {
        fault_seed: flag(&args, "--fault-seed", "a number").unwrap_or(defaults.fault_seed),
        retry_budget: flag(&args, "--retry-budget", "a number").unwrap_or(defaults.retry_budget),
        scale_n: flag(&args, "--scale-n", "a vertex count"),
        e25_metrics: flag(&args, "--e25-metrics", "a path"),
        exec: threads(&args).unwrap_or(defaults.exec),
        ..defaults
    };
    // what only this binary reads
    let json_dir: Option<String> = flag(&args, "--json", "a directory");
    let trace_path: Option<String> = flag(&args, "--trace", "a path");
    let trace_top_k = flag(&args, "--trace-top-k", "a number").unwrap_or(10);
    let metrics_path: Option<String> = flag(&args, "--metrics", "a path");
    let faults = flag(&args, "--faults", "a probability in [0,1]")
        .map(|p: f64| lcg_congest::FaultPlan::drops(opts.fault_seed, p));
    let scale = opts.scale;

    if let Some(path) = &trace_path {
        run_traced(path, trace_top_k, &opts, faults.clone());
        if selected.is_empty() && metrics_path.is_none() {
            return;
        }
    }

    if let Some(path) = &metrics_path {
        run_metrics(path, &opts, faults);
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
        let ids: Vec<&str> = experiments::all().iter().map(|(id, _)| *id).collect();
        eprintln!("no experiment matched; available: {}, all", ids.join(" "));
        std::process::exit(2);
    }
}

/// The planar instance the two framework runs below share (with the one
/// fault plan `main` builds), so their reports describe the same execution.
fn planar_instance(scale: Scale) -> lcg_graph::Graph {
    let n = scale.pick(200, 2_000);
    lcg_graph::gen::random_planar(n, 0.5, &mut lcg_graph::gen::seeded_rng(42))
}

/// One fully traced framework run on a planar instance, sized by `--quick`,
/// on `--threads` threads. With `--faults P`, a seeded drop schedule is
/// injected and its events land in the trace (and the report's fault
/// section).
fn run_traced(path: &str, top_k: usize, opts: &Opts, faults: Option<lcg_congest::FaultPlan>) {
    use lcg_core::framework::{run_framework, FrameworkConfig};

    let g = planar_instance(opts.scale);
    eprintln!(">>> running traced framework (n={}, top-k {top_k})...", g.n());
    let cfg = FrameworkConfig {
        trace: true,
        trace_top_k: top_k,
        faults,
        exec: opts.exec,
        ..FrameworkConfig::planar(0.3, 42)
    };
    let out = run_framework(&g, &cfg);
    std::fs::write(path, out.trace.to_jsonl()).expect("write trace file");
    eprintln!("{}", lcg_trace::report::render(&out.trace));
    eprintln!("<<< trace written to {path}\n");
}

/// One metrics-recorded framework run on a planar instance, sized by
/// `--quick`, on `--threads` threads. The same instance and seed as the
/// traced run, so the two reports describe the same execution. Writes the
/// full two-plane report to `path` and renders it to stderr.
fn run_metrics(path: &str, opts: &Opts, faults: Option<lcg_congest::FaultPlan>) {
    use lcg_core::framework::{run_framework, FrameworkConfig};

    let g = planar_instance(opts.scale);
    eprintln!(">>> running metrics-recorded framework (n={})...", g.n());
    let cfg = FrameworkConfig { metrics: true, faults, exec: opts.exec, ..FrameworkConfig::planar(0.3, 42) };
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
        let a = args("e20 --quick e25 --fault-seed 7 --json out all");
        assert_eq!(ids(&a), Ok(vec!["e20", "e25", "all"]));
        assert_eq!(flag::<u64>(&a, "--fault-seed", "a number"), Some(7));
        assert_eq!(flag::<String>(&a, "--json", "a directory").as_deref(), Some("out"));
        assert_eq!(flag::<u64>(&a, "--scale-n", "a vertex count"), None);
    }

    #[test]
    fn quick_takes_no_value() {
        assert_eq!(ids(&args("--quick e1")), Ok(vec!["e1"]));
        assert_eq!(ids(&args("e1 --quick e4")), Ok(vec!["e1", "e4"]));
    }

    /// A flag the binary does not know is refused, not read as taking the
    /// next argument: `--quik e1` would otherwise select nothing and run
    /// every experiment at full scale.
    #[test]
    fn unknown_flags_are_refused_by_name() {
        assert_eq!(ids(&args("--quik e1")), Err("unknown flag `--quik`".to_string()));
        assert_eq!(ids(&args("e1 --resume-from ckpt")), Err("unknown flag `--resume-from`".to_string()));
    }

    /// A flag that takes a value is refused, naming it, when it is last or
    /// the next argument is another flag: a bare `--trace` would otherwise
    /// select nothing and run every experiment at full scale, and
    /// `e1 --json --quick` would take `--quick` for the directory.
    #[test]
    fn a_value_flag_without_its_value_is_refused_by_name() {
        for (line, flag) in [("--trace", "--trace"), ("e1 --json --quick", "--json"), ("e25 --threads", "--threads")] {
            let a = args(line);
            let refused = ids(&a).expect_err(line);
            assert!(refused.contains(flag) && refused.contains("expects a value"), "{line}: {refused}");
        }
        assert_eq!(ids(&args("e1 --json out --quick")), Ok(vec!["e1"]));
    }

    #[test]
    fn threads_default_to_one() {
        assert!(threads(&args("e25 --quick")).is_none());
        assert_eq!(Opts::new(Scale::Quick).exec.threads(), 1);
        assert_eq!(threads(&args("e25 --threads 2 --quick")).map(|e| e.threads()), Some(2));
        assert_eq!(ids(&args("e25 --threads 2 --quick")), Ok(vec!["e25"]));
    }

    #[test]
    #[should_panic(expected = "--threads expects a thread count of at least 1, got `0`")]
    fn zero_threads_name_the_flag() {
        threads(&args("e25 --threads 0"));
    }

    #[test]
    #[should_panic(expected = "--retry-budget expects a number, got `many`")]
    fn a_malformed_value_names_its_flag() {
        flag::<u32>(&args("e20 --retry-budget many"), "--retry-budget", "a number");
    }
}
