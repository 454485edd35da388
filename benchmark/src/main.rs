//! The repo benchmark: four pipeline workloads measured from outside.
//!
//! ```text
//! lcg-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! lcg-benchmark --quick [--workload <name>]     ~1/10 size, default + held-out seed
//! lcg-benchmark --selfcheck [--quick]           two sets of runs must agree
//! ```
//!
//! A run goes through the workload's five instances (fewer if `--seconds`
//! run out first). With `--trace 0` every instance is run at one
//! and at two threads with no spans recorded, and the end-to-end timings
//! are means over the instances. With `--trace 1` every instance is run
//! plainly, then as a staged replay with a span around each call into a
//! layer, and the per-layer metrics are printed and the spans written to
//! `benchmark/out/trace-<workload>.jsonl`. README.md defines every metric.

mod spans;
mod spec;
mod summary;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use spans::Spans;
use summary::Summary;
use workloads::{Checks, Instance, Layers, Rep, Workload};

/// Instances of a full run. Instance `i` is the same graph in every run, so
/// two runs compare like with like only when they cover the same instances:
/// the count is fixed, and `--seconds` only cuts a run short. At the
/// declared `run_seconds` a timed run covers all five with room to spare;
/// a traced run, which does each instance four or five times over, covers
/// two to four.
const INSTANCES: u32 = 5;

/// Inherited settings that would change what the program under test does.
const SCRUBBED_ENV: [&str; 5] = [
    "LCG_THREADS",
    "LCG_PAR_THRESHOLD",
    "LCG_AUDIT",
    "LCG_SCALE_N",
    "LCG_E25_METRICS",
];

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: spec::declaration().run_seconds as f64,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <u64> --seconds <s> --trace <0|1> | --quick | --selfcheck");
            return ExitCode::from(2);
        }
    };
    let ok = if args.selfcheck {
        selfcheck(&args)
    } else {
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None if args.quick => spec::WORKLOADS.to_vec(),
            None => {
                eprintln!("--workload is required (one of {:?})", spec::WORKLOADS);
                return ExitCode::from(2);
            }
        };
        // the quick sizes take one instance each: a smoke test of every
        // check, not a measurement; unless told otherwise it covers the
        // held-out seed too
        let seconds = if args.quick { 0.0 } else { args.seconds };
        let seeds = match args.seed {
            Some(seed) => vec![seed],
            None if args.quick => vec![spec::DEFAULT_SEED, spec::HELD_OUT_SEED],
            None => vec![spec::DEFAULT_SEED],
        };
        let mut ok = true;
        for name in names {
            let Some(workload) = Workload::by_name(name, args.quick) else {
                eprintln!("unknown workload {name} (one of {:?})", spec::WORKLOADS);
                return ExitCode::from(2);
            };
            for &seed in &seeds {
                if args.quick {
                    println!("# {name} --quick, seed {seed}: reduced size, not comparable with a full run");
                }
                let run = Run {
                    workload,
                    seed,
                    seconds,
                    out: out_dir(),
                };
                match if args.trace {
                    run.traced()
                } else {
                    run.timed()
                } {
                    Ok(r) => {
                        println!("{}", r.to_json());
                        ok &= r.checks.failed == 0;
                    }
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        ok = false;
                    }
                }
            }
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `benchmark/out/`, next to this crate's manifest: inside the checkout
/// wherever the command is started from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a run prints as its last line.
struct RunResult {
    checks: Checks,
    /// `(name, value, unit)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

impl Run {
    /// Calls `body` on instance 0, 1, ... `INSTANCES - 1`, stopping early
    /// (but never before one instance) when the next one would probably not
    /// finish within `--seconds`, judged by the mean so far.
    fn for_each_instance(&self, mut body: impl FnMut(u32, PathBuf)) -> Result<(), String> {
        std::fs::create_dir_all(&self.out).map_err(|e| format!("{}: {e}", self.out.display()))?;
        let start = Instant::now();
        for index in 0..INSTANCES {
            // the seed and the process id keep concurrent runs apart
            let path = self.out.join(format!(
                "{}-{}-{}-{index}.edges",
                self.workload.name(),
                self.seed,
                std::process::id()
            ));
            body(index, path.clone());
            let _ = std::fs::remove_file(&path);
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / f64::from(index + 1) > self.seconds {
                break;
            }
        }
        Ok(())
    }

    /// `--trace 0`: the end-to-end metrics.
    fn timed(&self) -> Result<RunResult, String> {
        let w = self.workload;
        let mut checks = Checks::default();
        let (mut setup_s, mut wall, mut edges) = (Vec::new(), [Vec::new(), Vec::new()], Vec::new());
        self.for_each_instance(|index, path| {
            let mut inst = None;
            for _ in 0..w.setup_repetitions() {
                let t0 = Instant::now();
                inst = Some(w.setup(self.seed, index, path.clone(), &mut Spans::disabled()));
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            let inst = inst.expect("at least one set-up repetition");
            // alternate which thread count goes first, so drift and cache
            // state hit both equally
            let order = if index % 2 == 0 { [1, 2] } else { [2, 1] };
            let mut reps: [Option<Rep>; 2] = [None, None];
            for threads in order {
                let t0 = Instant::now();
                let rep = repetition(w, &inst, threads, &mut checks);
                let dt = t0.elapsed().as_secs_f64();
                if rep.is_some() {
                    wall[threads - 1].push(dt);
                    if threads == 1 {
                        edges.push(inst.m as f64);
                    }
                }
                reps[threads - 1] = rep;
            }
            checks.check(
                "one and two threads compute the same",
                reps[0].is_some() && reps[0] == reps[1],
            );
        })?;
        if wall.iter().any(Vec::is_empty) {
            return Err(format!("no repetition completed: {:?}", checks.failures));
        }
        for failure in &checks.failures {
            eprintln!("FAILED check: {failure}");
        }
        let peak_rss_mb = lcg_metrics::profile::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
        let ops_ok_frac = (checks.attempted - checks.failed) as f64 / checks.attempted as f64;
        // Timings are means over the instances. The instances are fixed and
        // cost up to 40 % more or less than one another, so the median would
        // be whichever of two or three unlike graphs lands in the middle
        // this time; set-up is the same few hundred microseconds a hundred
        // times over, with the odd slow file creation, so it takes the median.
        let edges: f64 = edges.iter().sum();
        let mut values = std::collections::BTreeMap::from([
            ("peak_rss_mb", peak_rss_mb),
            ("ops_ok_frac", ops_ok_frac),
            ("edges_per_s", edges / wall[0].iter().sum::<f64>()),
        ]);
        for (samples, name, use_median) in [
            (&wall[0], "wall_s", false),
            (&wall[1], "wall_t2_s", false),
            (&setup_s, "setup_s", true),
        ] {
            let s = Summary::of(samples);
            println!(
                "# {name}: mean {} median {} min {} max {} n {}",
                s.mean, s.median, s.min, s.max, s.n
            );
            values.insert(name, if use_median { s.median } else { s.mean });
        }
        println!("# wall_s samples in instance order: {:?}", wall[0]);
        println!("# wall_t2_s samples in instance order: {:?}", wall[1]);
        println!("# ops {} ops_failed {}", checks.attempted, checks.failed);
        let metrics = spec::END_TO_END
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect();
        Ok(RunResult { checks, metrics })
    }

    /// `--trace 1`: the per-layer metrics and the span file. A panic here
    /// is not caught: a traced run that cannot finish has nothing to print.
    fn traced(&self) -> Result<RunResult, String> {
        let w = self.workload;
        let mut checks = Checks::default();
        let mut spans = Spans::enabled();
        let mut per_instance: Vec<Layers> = Vec::new();
        self.for_each_instance(|index, path| {
            spans.set_request(index);
            let inst = spans.scope("setup", |s| w.setup(self.seed, index, path, s));
            let direct = spans.scope("direct", |s| w.run(&inst, 1, false, s, &mut checks));
            let staged = spans.scope("pipeline", |s| w.run(&inst, 1, true, s, &mut checks));
            let staged_t2 = spans.scope("pipeline_t2", |s| w.run(&inst, 2, true, s, &mut checks));
            checks.check(
                "the staged replay reproduces the run",
                direct == staged && staged == staged_t2,
            );
            let mut layers = spans.scope("attribution", |s| w.layers(&inst, s, &mut checks));
            common_layers(&spans, &direct, &inst, &mut layers);
            per_instance.push(layers);
        })?;
        for failure in &checks.failures {
            eprintln!("FAILED check: {failure}");
        }
        let trace_path = self.out.join(format!("trace-{}.jsonl", w.name()));
        spans
            .write_jsonl(&trace_path, w.name())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let metrics: Vec<(&str, f64, &str)> = spec::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let samples: Vec<f64> = per_instance.iter().map(|l| l.get(name)).collect();
                (name, Summary::of(&samples).mean, unit)
            })
            .collect();
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).expect("declared").1;
        println!(
            "# {} instance(s); spans in {}",
            per_instance.len(),
            trace_path.display()
        );
        for (name, bar, ok) in [
            (
                "bench.coverage_frac",
                ">= 0.95",
                value("bench.coverage_frac") >= 0.95,
            ),
            (
                "bench.replay_overhead_frac",
                "within +-0.05",
                value("bench.replay_overhead_frac").abs() <= 0.05,
            ),
        ] {
            if !ok {
                eprintln!(
                    "WARNING: {name} = {} is not {bar}: the replay does not represent the run",
                    value(name)
                );
            }
        }
        Ok(RunResult { checks, metrics })
    }
}

/// One timed repetition. A panic inside the program under test fails all
/// of the repetition's checks instead of ending the run.
fn repetition(w: Workload, inst: &Instance, threads: usize, checks: &mut Checks) -> Option<Rep> {
    let mut local = Checks::default();
    let rep = catch_unwind(AssertUnwindSafe(|| {
        w.run(inst, threads, false, &mut Spans::disabled(), &mut local)
    }));
    match rep {
        Ok(rep) => {
            assert_eq!(
                local.attempted,
                w.checks_per_repetition(),
                "checks_per_repetition is out of date"
            );
            checks.absorb(local);
            Some(rep)
        }
        Err(_) => {
            checks.fail_all(
                w.checks_per_repetition(),
                &format!("repetition at {threads} thread(s) panicked"),
            );
            None
        }
    }
}

/// The per-layer metrics every workload has: the simulator's own cost
/// measure, set-up and load, and how well the replay stands for the run.
fn common_layers(spans: &Spans, rep: &Rep, inst: &Instance, layers: &mut Layers) {
    let (setup, direct, pipeline) = (
        spans.root("setup"),
        spans.root("direct"),
        spans.root("pipeline"),
    );
    layers.set("sim_rounds", rep.rounds as f64);
    layers.set("sim_msgs", rep.msgs as f64);
    layers.set("sim_words", rep.words as f64);
    layers.set("graph.gen_ms", spans.ms_in(setup, "graph.gen"));
    layers.set("graph.save_ms", spans.ms_in(setup, "graph.save"));
    let load_ms = spans.ms_in(pipeline, "graph.load_edge_list");
    layers.set("graph.load_ms", load_ms);
    layers.set(
        "graph.load_edges_per_s",
        workloads::ratio(inst.m as f64, load_ms / 1e3),
    );
    layers.set("bench.coverage_frac", spans.coverage(pipeline));
    layers.set(
        "bench.replay_overhead_frac",
        spans.duration_ms(pipeline) / spans.duration_ms(direct) - 1.0,
    );
}

/// Runs of each workload per set in `--selfcheck`. One run against one run
/// compares this machine's drift (±20 % within minutes on the memory-bound
/// workload), not the code; the driver compares medians of ten.
const SELFCHECK_RUNS: usize = 3;

/// Runs the whole benchmark as two sets of child processes (each workload
/// its own process, as the driver runs them), A and B alternating so drift
/// hits both, and requires by the driver's own rule that no metric's median
/// over set B is worse than its median over set A by more than its declared
/// bound.
fn selfcheck(args: &Args) -> bool {
    let decl = spec::declaration();
    let exe = std::env::current_exe().expect("own path");
    let seed = args.seed.unwrap_or(spec::DEFAULT_SEED);
    // one run: the value of every end-to-end metric, in declaration order
    let run = |w: &str| -> Option<Vec<f64>> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &seed.to_string(), "--trace", "0"]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().ok()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let v = serde_json::parse_value(text.lines().last()?).ok()?;
        if !out.status.success() || v.get("failed")?.as_u64()? != 0 {
            eprintln!("selfcheck: {w} failed:\n{text}");
            return None;
        }
        decl.end_to_end
            .iter()
            .map(|m| v.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
            .collect()
    };
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    let mut ok = true;
    for w in spec::WORKLOADS {
        let mut sets = [Vec::new(), Vec::new()];
        for i in 0..SELFCHECK_RUNS {
            for (set, label) in sets.iter_mut().zip(["A", "B"]) {
                eprintln!("selfcheck: {w}, set {label}, run {}", i + 1);
                let Some(values) = run(w) else {
                    return false;
                };
                set.push(values);
            }
        }
        for (k, m) in decl.end_to_end.iter().enumerate() {
            let [a, b] = [0, 1].map(|s| {
                let samples: Vec<f64> = sets[s].iter().map(|run| run[k]).collect();
                Summary::of(&samples).median
            });
            let worse = if m.lower_is_better {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let within = worse <= bound;
            ok &= within;
            println!(
                "{w:<22} {:<12} {a:>14.4} {b:>14.4} {worse:>+9.4} {bound:>7}{}",
                m.name,
                if within { "" } else { "  OUTSIDE" }
            );
        }
    }
    println!(
        "selfcheck: {}",
        if ok {
            "no metric of set B is worse than set A's by more than its bound"
        } else {
            "FAILED"
        }
    );
    ok
}
