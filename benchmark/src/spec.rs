//! The benchmark's fixed definition: names the binary emits, and the
//! declaration in `../BENCHMARK.json` they must match.

use std::collections::BTreeSet;

use serde::Value;

/// Seed used when `--seed` is omitted.
pub const DEFAULT_SEED: u64 = 20220725;
/// Seed held out from all sizing and tuning; run once to record that every
/// check passes on it (see README.md).
pub const HELD_OUT_SEED: u64 = 7046029254386353131;

/// Generator seed of every workload's instance graphs: a constant of the
/// benchmark, not of the run (see `workloads::Seeds`).
pub const STRUCTURE_SEED: u64 = 0x5EED_0F7A_B1E5;

/// The ε of every theorem invoked, on every workload.
pub const EPSILON: f64 = 0.3;

pub const WORKLOADS: [&str; 4] = [
    "apps-trigrid",
    "framework-gridnoise",
    "framework-faithful",
    "engine-dense",
];

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("wall_t2_s", "s"),
    ("setup_s", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`. A
/// layer a workload does not enter reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("sim_rounds", "rounds"),
    ("sim_msgs", "count"),
    ("sim_words", "count"),
    ("graph.gen_ms", "ms"),
    ("graph.save_ms", "ms"),
    ("graph.load_ms", "ms"),
    ("graph.load_edges_per_s", "edges/s"),
    ("graph.induced_ms", "ms"),
    ("graph.diameter_ms", "ms"),
    ("expander.decomp_ms", "ms"),
    ("expander.decomp_ns_per_edge", "ns"),
    ("expander.decomp_clusters", "count"),
    ("expander.decomp_cut_frac", "frac"),
    ("expander.decomp_min_phi", "frac"),
    ("expander.routing_ms", "ms"),
    ("expander.routing_steps", "count"),
    ("expander.routing_rounds", "rounds"),
    ("expander.routing_ns_per_step", "ns"),
    ("expander.routing_delivered_frac", "frac"),
    ("expander.net_routing_ms", "ms"),
    ("congest.build_ms", "ms"),
    ("congest.build_ns_per_slot", "ns"),
    ("congest.election_ms", "ms"),
    ("congest.orientation_ms", "ms"),
    ("congest.max_flood_ms", "ms"),
    ("congest.tokens_ms", "ms"),
    ("congest.engine_rounds", "rounds"),
    ("congest.msgs", "count"),
    ("congest.words", "count"),
    ("congest.ns_per_round", "ns"),
    ("congest.ns_per_msg", "ns"),
    ("congest.ns_per_slot", "ns"),
    ("congest.slot_occupancy", "frac"),
    ("congest.dropped_msgs", "count"),
    ("congest.exec_t2_speedup", "x"),
    ("solvers.mis_ms", "ms"),
    ("solvers.mis_optimal_frac", "frac"),
    ("solvers.matching_ms", "ms"),
    ("solvers.mwm_ms", "ms"),
    ("solvers.corrclust_ms", "ms"),
    ("solvers.ldd_ms", "ms"),
    ("core.framework_ms", "ms"),
    ("core.framework_self_ms", "ms"),
    ("core.apps.maxis_ms", "ms"),
    ("core.apps.mcm_ms", "ms"),
    ("core.apps.mwm_ms", "ms"),
    ("core.apps.corrclust_ms", "ms"),
    ("core.apps.ldd_ms", "ms"),
    ("core.apps.property_ms", "ms"),
    ("core.apps.mcm_ratio", "frac"),
    ("core.star_elim_ms", "ms"),
    ("core.apps_self_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("trace.full_overhead_frac", "frac"),
    ("trace.export_ms", "ms"),
    ("trace.jsonl_bytes", "bytes"),
    ("metrics.overhead_frac", "frac"),
    ("metrics.report_bytes", "bytes"),
    ("metrics.phase_sum_frac", "frac"),
    ("bench.coverage_frac", "frac"),
    ("bench.replay_overhead_frac", "frac"),
];

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declaration {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// Parses the `BENCHMARK.json` compiled into the binary, so `--selfcheck`
/// applies exactly the bounds the driver does.
///
/// # Panics
///
/// Panics when the file is malformed or declares other names than the
/// binary emits: a run under a wrong declaration measures nothing.
pub fn declaration() -> Declaration {
    let d = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed");
    let mismatches = d.mismatches();
    assert!(
        mismatches.is_empty(),
        "BENCHMARK.json and the binary disagree: {mismatches:?}"
    );
    d
}

impl Declaration {
    /// Every name or unit that is declared but not emitted, or emitted but
    /// not declared.
    fn mismatches(&self) -> Vec<String> {
        fn diff<T: Ord + std::fmt::Debug>(
            what: &str,
            emitted: Vec<T>,
            declared: Vec<T>,
        ) -> Vec<String> {
            let (e, d): (BTreeSet<&T>, BTreeSet<&T>) =
                (emitted.iter().collect(), declared.iter().collect());
            let mut out: Vec<String> = e
                .difference(&d)
                .map(|x| format!("{what} {x:?} is emitted, not declared"))
                .collect();
            out.extend(
                d.difference(&e)
                    .map(|x| format!("{what} {x:?} is declared, not emitted")),
            );
            if declared.len() != d.len() {
                out.push(format!("a {what} is declared twice"));
            }
            out
        }
        let pairs = |ms: &[Declared]| {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let owned = |ms: &[(&str, &str)]| {
            ms.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let mut out = diff(
            "workload",
            WORKLOADS.map(str::to_string).to_vec(),
            self.workloads.clone(),
        );
        out.extend(diff(
            "end-to-end metric",
            owned(&END_TO_END),
            pairs(&self.end_to_end),
        ));
        out.extend(diff(
            "per-layer metric",
            owned(&PER_LAYER),
            pairs(&self.per_layer),
        ));
        out
    }
}

fn parse(text: &str) -> Result<Declaration, String> {
    let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let list = |key: &str| match v.get(key) {
        Some(Value::Array(a)) => Ok(a.as_slice()),
        _ => Err(format!("`{key}` must be an array")),
    };
    let text_of = |e: &Value, key: &str| match e.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` must be a string")),
    };
    let metric = |e: &Value| -> Result<Declared, String> {
        Ok(Declared {
            name: text_of(e, "name")?,
            unit: text_of(e, "unit")?,
            lower_is_better: match text_of(e, "better")?.as_str() {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("`better` must be lower or higher, got {other}")),
            },
            bound: e.get("bound").and_then(Value::as_f64),
        })
    };
    Ok(Declaration {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("`run_seconds` must be a whole number")?,
        workloads: list("workloads")?
            .iter()
            .map(|e| text_of(e, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names the binary emits and the names `BENCHMARK.json` declares
    /// are the same sets, both directions, and so are the units.
    #[test]
    fn emitted_names_equal_declared_names() {
        let mut d = declaration();
        assert_eq!(d.mismatches(), Vec::<String>::new());

        let dropped = d.per_layer.pop().expect("per-layer metrics are declared");
        assert_eq!(
            d.mismatches().len(),
            1,
            "an emitted but undeclared metric must show"
        );
        d.per_layer.push(Declared {
            name: "graph.nope_ms".into(),
            ..dropped.clone()
        });
        assert_eq!(
            d.mismatches().len(),
            2,
            "a declared but unemitted metric must show too"
        );
        d.per_layer.pop();
        d.per_layer.push(Declared {
            unit: "furlongs".into(),
            ..dropped
        });
        assert_eq!(d.mismatches().len(), 2, "units are part of the name check");
        d.workloads.push(d.workloads[0].clone());
        assert!(d.mismatches().iter().any(|m| m.contains("twice")));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_layers_have_none() {
        let d = declaration();
        for m in &d.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(
                (0.0..=0.25).contains(&b),
                "{}: bound {b} outside the contract",
                m.name
            );
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert!(setup.lower_is_better && setup.unit == "s");
    }

    #[test]
    fn malformed_declarations_are_errors() {
        assert!(parse("{").is_err());
        assert!(parse("{\"run_seconds\": 1}").is_err());
        assert!(parse(
            "{\"run_seconds\":1,\"workloads\":[],\"per_layer\":[],\"end_to_end\":[{\"name\":\"a\",\"unit\":\"s\",\"better\":\"faster\"}]}"
        )
        .is_err());
    }
}
