//! Rule definitions and the per-file checking pass.
//!
//! Every rule has an ID, a severity, and an inline escape hatch:
//!
//! ```text
//! // lcg-lint: allow(D001) -- justification for why this is safe
//! ```
//!
//! The allow comment suppresses matching findings on the same line (trailing
//! comment) or on the next code line (standalone comment). An allow without
//! a `-- reason` is ignored and reported as a finding itself (A000), so
//! suppressions are always justified in-tree.

use crate::scanner::Line;

/// Finding severity. Both fail the build; the split exists so reports can
/// rank output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation (or suppressed violation) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the matched token.
    pub col: usize,
    pub message: String,
    /// `Some(reason)` when an `lcg-lint: allow` suppressed this finding.
    pub allowed: Option<String>,
}

/// Static description of a rule: the one-line summary for `--list-rules`
/// and the docs table, plus the long-form fields `--explain` renders.
pub struct RuleInfo {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    /// Why the rule exists — what it defends in this codebase.
    pub rationale: &'static str,
    /// A minimal violating snippet.
    pub example: &'static str,
    /// The sanctioned fix (including the escape hatch when one applies).
    pub fix: &'static str,
}

/// The rule table. Keep in sync with DESIGN.md §"Invariants & static analysis".
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        severity: Severity::Error,
        summary: "no nondeterministic hash-order iteration (HashMap/HashSet iter/keys/values/drain/retain/for) in deterministic crates",
        rationale: "HashMap/HashSet iteration order depends on the ambient hasher seed, so any \
                    protocol or decomposition logic that observes it produces different runs from \
                    identical (input, seed) pairs — the exact failure the golden-stats layer exists \
                    to catch, but only after the fact.",
        example: "for (k, v) in counts.iter() { route(k, v); }  // counts: HashMap<u32, u32>",
        fix: "use BTreeMap/BTreeSet, or collect-and-sort before iterating; membership-only use is \
              fine and can be waived with `// lcg-lint: allow(D001) -- <why order is never observed>`",
    },
    RuleInfo {
        id: "D002",
        severity: Severity::Error,
        summary: "no ambient randomness (thread_rng, from_entropy, OsRng, rand::random) outside the bench crate",
        rationale: "every random draw must derive from the run's seed so executions replay \
                    bit-identically; an ambient RNG makes results unreproducible and breaks the \
                    determinism tests in a data-dependent, intermittent way.",
        example: "let mut rng = rand::thread_rng();",
        fix: "seed a ChaCha8Rng from the run seed (gen::seeded_rng / ChaCha8Rng::seed_from_u64), \
              deriving per-phase seeds instead of sharing one stream",
    },
    RuleInfo {
        id: "D003",
        severity: Severity::Error,
        summary: "no wall-clock reads (Instant, SystemTime) outside the bench crate and tests",
        rationale: "wall-clock values leak real time into deterministic state: anything branching \
                    on them runs differently per machine and per run. Cost is measured in rounds \
                    and messages (RoundStats), which replay exactly.",
        example: "let t0 = std::time::Instant::now();",
        fix: "count rounds/messages via RoundStats, or move the timing into crates/bench; \
              genuinely observational timing can be waived with `// lcg-lint: allow(D003) -- <reason>`",
    },
    RuleInfo {
        id: "P001",
        severity: Severity::Warning,
        summary: "no unwrap()/panic!/todo!/unimplemented! in library crates outside tests; use expect(\"<invariant>\") or Result",
        rationale: "a bare unwrap encodes an invariant nobody wrote down; when it fires mid-run \
                    the panic message says nothing. Documented invariants make million-node runs \
                    debuggable from the panic text alone.",
        example: "let leader = candidates.first().unwrap();",
        fix: "state the invariant: `.expect(\"decomposition yields >= 1 cluster\")`, or return a \
              Result; documented fail-fast panics can be waived with \
              `// lcg-lint: allow(P001) -- <why panicking is the contract>`",
    },
    RuleInfo {
        id: "U001",
        severity: Severity::Error,
        summary: "unsafe code is forbidden workspace-wide",
        rationale: "the workspace compiles with `unsafe_code = \"forbid\"`; this rule catches the \
                    token at the source level (including in build scripts and fixtures the \
                    compiler gate might not cover) so the invariant is visible in lint reports.",
        example: "unsafe { ptr.read() }",
        fix: "restructure with safe primitives (split_at_mut, scoped threads, channels); there is \
              no sanctioned unsafe in this workspace",
    },
    RuleInfo {
        id: "C001",
        severity: Severity::Error,
        summary: "no shared-mutable-state primitives (Mutex/RwLock/Atomic*/static mut) in deterministic crates, and no `static` holding interior mutability (OnceLock/LazyLock/Cell/RefCell/Mutex/RwLock/Atomic*) in any library crate",
        rationale: "in the deterministic crates, state is owned by the thread that runs it: \
                    a parallel section (`ExecConfig::map`) hands each thread its own items \
                    and joins the results in item order, and bit-identity at every thread \
                    count rests on that. A lock or atomic exists only to share state \
                    across threads, and that communication has a timing no golden can see — \
                    results may still *look* right on one run and drift on another. A \
                    `static` with interior mutability is the run-to-run form of the same leak: \
                    two runs in one process (every `cargo test` binary) share it, so one run's \
                    samples, flags or first-call epoch show up in the other — which is how \
                    tier-1 flaked until the profiler's statics were removed. That half of the \
                    rule has no whitelist: it applies to every library crate, the profiling \
                    quarantine included.",
        example: "static EPOCH: OnceLock<Instant> = OnceLock::new();  // anywhere under crates/*/src",
        fix: "keep state owned by the one thread that runs it, and hang per-run state on a \
              per-run value (the Recorder, the Network) instead of a `static`; anything else \
              needs `// lcg-lint: allow(C001) -- <why this cannot affect results>`",
    },
    RuleInfo {
        id: "C003",
        severity: Severity::Error,
        summary: "no thread-topology reads (ExecConfig, LCG_THREADS, available_parallelism) from protocol code (step closures)",
        rationale: "protocol logic must be a pure function of (vertex state, inbox, seed). \
                    Reading the thread count or scheduler environment gives vertices \
                    information that varies with the machine and the invocation — the engine \
                    would still run, but results would differ from run to run by construction.",
        example: "net.run_state(k, &mut st, |s, v, inbox, out| { if std::env::var(\"LCG_THREADS\").is_ok() { .. } });",
        fix: "pass whatever the protocol needs as explicit per-vertex inputs at construction; \
              execution topology is the engine's business and must stay invisible to vertices",
    },
    RuleInfo {
        id: "O001",
        severity: Severity::Error,
        summary: "profiling-plane values (clocks, RSS) must never flow into protocol, merge/registry, or RNG-seeding code",
        rationale: "the metrics profiler observes wall time, memory, and scheduler behavior — \
                    nondeterministic by nature and different on every machine. The two-plane \
                    design stays sound only while those observations are observer-only: one \
                    profiling value reaching a message payload, a reduction, a deterministic \
                    counter, or an RNG seed ties results to the run's timing, breaking \
                    bit-identical replay in a way no golden test can localize.",
        example: "let t = Stamp::now().ns_since(started);\nlet mut rng = ChaCha8Rng::seed_from_u64(t);",
        fix: "keep profiling values inside the profile plane (time things, report them, never \
              feed them back): derive seeds from the run seed, account logical quantities only; \
              a diagnostics-only flow can be waived with \
              `// lcg-lint: allow(O001) -- <why results cannot depend on it>`",
    },
    RuleInfo {
        id: "S001",
        severity: Severity::Error,
        summary: "snapshot-reachable struct fields must be serialized (named in the snapshot codec region) or declared `// lcg-lint: transient -- reason`",
        rationale: "a checkpoint that silently drops a field resumes into a subtly different \
                    engine: the run keeps going and diverges from the straight-through \
                    execution only where the forgotten state mattered — the worst possible \
                    bug to localize, because every corruption check passes. Forcing each \
                    field of a snapshot-reachable type to be either mentioned by the codec \
                    or declared transient (with the reconstruction argument inline) turns \
                    that silent drift into a lint error the moment the field is added.",
        example: "// lcg-lint: snapshot-root\nstruct Engine {\n    cache: Vec<u64>,  // never touched by any *snapshot* fn\n}",
        fix: "serialize the field (mention it in the `impl SnapshotState` block or a \
              `*snapshot*` fn of the same file), or justify the omission with \
              `// lcg-lint: transient -- <how resume reconstructs it>`; a field that truly \
              cannot be either is state the checkpoint design has to account for",
    },
    RuleInfo {
        id: "A000",
        severity: Severity::Error,
        summary: "lcg-lint allow comment without a `-- reason` justification",
        rationale: "an unexplained suppression is indistinguishable from a stale one; requiring \
                    the reason inline keeps every escape hatch reviewable where it is used.",
        example: "// lcg-lint: allow(D001)",
        fix: "append the justification: `// lcg-lint: allow(D001) -- membership-only set, \
              iteration never observed`",
    },
];

/// Long-form explanation of one rule, for `lcg-lint --explain <RULE>`.
pub fn explain(id: &str) -> Option<String> {
    let rule = RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))?;
    Some(format!(
        "{} ({})\n\n  {}\n\nWhy:\n  {}\n\nExample violation:\n  {}\n\nSanctioned fix:\n  {}\n",
        rule.id,
        rule.severity.as_str(),
        rule.summary,
        rule.rationale,
        rule.example,
        rule.fix
    ))
}

pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error)
}

/// Crates whose results must be a pure function of (input, seed): the
/// simulator, the decomposition/routing layer, the graph substrate, the
/// sequential solvers, the framework, the trace layer, the metrics layer
/// (its profiling plane lives in the quarantine file), and the umbrella
/// crate.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["congest", "expander", "graph", "solvers", "core", "trace", "metrics", "locongest"];

/// Per-file facts the rules dispatch on.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// `crates/<name>` component, or `locongest` for root `src/`/`tests/`.
    pub crate_name: String,
    /// Integration-test / example / bench *target* (not library code).
    pub non_library_target: bool,
}

impl FileCtx {
    pub fn from_rel_path(rel: &str) -> FileCtx {
        let rel = rel.replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("locongest")
            .to_string();
        let non_library_target = {
            let within = rel
                .strip_prefix(&format!("crates/{crate_name}/"))
                .unwrap_or(rel.as_str());
            within.starts_with("tests/")
                || within.starts_with("benches/")
                || within.starts_with("examples/")
        };
        FileCtx { rel, crate_name, non_library_target }
    }

    /// Crate is under the deterministic regime (see [`DETERMINISTIC_CRATES`]).
    pub fn deterministic(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
    }

    fn bench_crate(&self) -> bool {
        self.crate_name == "bench"
    }
}

/// An `lcg-lint: allow(...)` parsed from a comment.
#[derive(Debug, Clone, Default)]
struct Allow {
    rules: Vec<String>,
    reason: Option<String>,
}

fn parse_allow(comment: &str) -> Option<Allow> {
    let marker = "lcg-lint: allow(";
    let start = comment.find(marker)?;
    // Only a comment that *starts* with the marker is an escape hatch;
    // prose that merely mentions the syntax mid-sentence is not.
    if comment[..start]
        .chars()
        .any(|c| !(c.is_whitespace() || c == '/' || c == '!' || c == '*'))
    {
        return None;
    }
    let rest = &comment[start + marker.len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let tail = &rest[close + 1..];
    let reason = tail
        .find("--")
        .map(|i| tail[i + 2..].trim().to_string())
        .filter(|r| !r.is_empty());
    Some(Allow { rules, reason })
}

/// Lints one scanned file; `lines` comes from [`crate::scanner::scan`].
/// Every rule is file-local.
pub fn check_file(ctx: &FileCtx, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Pass 0: allow comments. allows[i] = allow applying to line i (0-based).
    let mut allows: Vec<Option<Allow>> = vec![None; lines.len()];
    for (i, line) in lines.iter().enumerate() {
        if let Some(allow) = parse_allow(&line.comment) {
            if allow.reason.is_none() {
                findings.push(Finding {
                    rule: "A000",
                    severity: severity_of("A000"),
                    file: ctx.rel.clone(),
                    line: i + 1,
                    col: 1,
                    message: "allow comment is missing a `-- reason` justification and is ignored"
                        .to_string(),
                    allowed: None,
                });
                continue;
            }
            if line.code.trim().is_empty() {
                // standalone comment: applies to the next line
                if i + 1 < lines.len() {
                    allows[i + 1] = Some(allow);
                }
            } else {
                // trailing comment: applies to its own line
                allows[i] = Some(allow);
            }
        }
    }

    // Pass 1: hash-typed bindings (for D001 receiver tracking),
    // profiling-tainted bindings (for O001 flow tracking), and the
    // step-closure regions (for C003 and O001).
    let (hash_bindings, profiling_bindings) = if ctx.deterministic() {
        (collect_hash_bindings(lines), collect_profiling_bindings(lines))
    } else {
        (Vec::new(), Vec::new())
    };
    let protocol_closure = step_closure_lines(lines);

    // The profiling plane's own file is exempt from the clock/sync/flow
    // rules — the quarantine is the point of the file.
    let quarantined = PROFILE_QUARANTINE.iter().any(|w| ctx.rel.ends_with(w));

    let mut emit = |findings: &mut Vec<Finding>,
                    rule: &'static str,
                    idx: usize,
                    col: usize,
                    message: String| {
        let allowed = allows[idx].as_ref().and_then(|a| {
            if a.rules.iter().any(|r| r == rule) {
                a.reason.clone()
            } else {
                None
            }
        });
        findings.push(Finding {
            rule,
            severity: severity_of(rule),
            file: ctx.rel.clone(),
            line: idx + 1,
            col: col + 1,
            message,
            allowed,
        });
    };

    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }

        // U001: workspace-wide, including tests.
        if let Some(col) = find_word(code, "unsafe") {
            emit(&mut findings, "U001", i, col, "`unsafe` is forbidden workspace-wide (see [workspace.lints] unsafe_code = \"forbid\")".to_string());
        }

        // D002: ambient randomness. Applies everywhere (tests included —
        // seeded RNGs are the repo convention) except the bench crate.
        if !ctx.bench_crate() {
            for token in ["thread_rng", "from_entropy", "OsRng"] {
                if let Some(col) = find_word(code, token) {
                    emit(&mut findings, "D002", i, col, format!("ambient randomness `{token}` breaks seed-reproducibility; use a seeded ChaCha8Rng (gen::seeded_rng)"));
                }
            }
            if let Some(col) = code.find("rand::random") {
                emit(&mut findings, "D002", i, col, "ambient randomness `rand::random` breaks seed-reproducibility; use a seeded ChaCha8Rng".to_string());
            }
        }

        // D003: wall clock. Benches and tests may time things; library and
        // example code must stay clock-free so runs are replayable. The
        // metrics profiling plane is the one whitelisted clock reader.
        if !ctx.bench_crate() && !line.in_test && !ctx.non_library_target && !quarantined {
            for token in ["Instant", "SystemTime"] {
                if let Some(col) = find_word(code, token) {
                    emit(&mut findings, "D003", i, col, format!("wall-clock `{token}` in deterministic code; measure cost in rounds/messages (RoundStats) instead"));
                }
            }
        }

        // P001: panic-free library code. `expect("<invariant>")` is the
        // sanctioned form for documented invariants; bare unwrap/panic is not.
        if ctx.deterministic() && !line.in_test && !ctx.non_library_target {
            if let Some(col) = code.find(".unwrap()") {
                emit(&mut findings, "P001", i, col, "bare `.unwrap()` in library code; state the invariant with `.expect(\"...\")` or return a Result".to_string());
            }
            for token in ["panic!(", "todo!(", "unimplemented!("] {
                if let Some(col) = code.find(token) {
                    let bang = token.trim_end_matches('(');
                    emit(&mut findings, "P001", i, col, format!("`{bang}` in library code; document the invariant (assert!/expect with message) or return a Result"));
                }
            }
        }

        // D001: hash-order iteration in deterministic crates.
        if ctx.deterministic() && !line.in_test {
            check_d001(&mut findings, &mut emit, &hash_bindings, i, code);
        }

        // C001, run-to-run half: a `static` holding interior mutability is
        // process-global state, banned in the library code of every crate
        // with no whitelist. It stands in for the token findings below on
        // its line (one finding per sin).
        let global = if line.in_test || ctx.non_library_target { None } else { static_interior(code) };
        if let Some((col, token)) = global {
            emit(&mut findings, "C001", i, col, format!("`static` holding `{token}`: process-global interior mutability is shared by every run in the process, so runs leak samples, flags and first-call state into each other; hang it on a per-run value (Recorder, Network) instead"));
        }

        // C001: shared-mutable-state primitives in deterministic crates:
        // state is owned by the one thread that runs it.
        if ctx.deterministic() && global.is_none() && !line.in_test {
            for token in ["Mutex", "RwLock"] {
                if let Some(col) = find_word(code, token) {
                    emit(&mut findings, "C001", i, col, format!("`{token}` in a deterministic crate: bit-identity rests on state owned by the thread that runs it, with results joined in item order, never on cross-thread synchronization"));
                }
            }
            if let Some(col) = code.find("static mut ") {
                emit(&mut findings, "C001", i, col, "`static mut` in a deterministic crate: global mutable state is shared by every run in the process and breaks determinism".to_string());
            }
            if let Some(col) = find_atomic(code) {
                emit(&mut findings, "C001", i, col, "`Atomic*` in a deterministic crate: lock-free shared state still makes results depend on cross-thread timing; keep state owned by the thread that runs it".to_string());
            }
        }

        // C003: thread-topology leakage into protocol logic — the closure
        // arguments of a step API. Closure bodies are per-vertex logic
        // wherever they appear.
        let protocol_line = !line.in_test && protocol_closure[i];
        if ctx.deterministic() && protocol_line {
            for token in ["ExecConfig", "LCG_THREADS", "available_parallelism"] {
                if let Some(col) = find_word(code, token) {
                    emit(&mut findings, "C003", i, col, format!("`{token}` read from protocol code: per-vertex logic must be a pure function of (state, inbox, seed) — execution topology must stay invisible to vertices"));
                }
            }
            for token in ["env::var(", ".threads()"] {
                if let Some(col) = code.find(token) {
                    emit(&mut findings, "C003", i, col, format!("`{token}` in protocol code leaks the execution environment into vertex state; pass anything the protocol needs as explicit per-vertex input"));
                }
            }
        }

        // O001: profiling-plane values flowing into deterministic
        // machinery. The quarantine file itself is exempt; everywhere
        // else a tainted value meeting a seed/send/merge/registry sink
        // (or appearing inside a protocol closure) is a violation.
        if ctx.deterministic() && !line.in_test && !ctx.non_library_target && !quarantined {
            check_o001(&mut findings, &mut emit, &profiling_bindings, protocol_line, i, code);
        }
    }

    // S001: snapshot-reachable structs must not carry silently-dropped
    // fields — each field is either named by the snapshot codec region or
    // explicitly declared transient with its reconstruction argument.
    if ctx.deterministic() && !ctx.non_library_target {
        check_s001(&mut findings, &mut emit, lines);
    }

    findings
}

/// Step APIs whose closure arguments are per-vertex protocol logic (C003).
const STEP_APIS: &[&str] = &[".step_state(", ".run_state(", ".exchange_rounds("];

/// Per line: does it sit inside the argument region (paren-balanced,
/// possibly multi-line) of a step-API call? A line inside a closure
/// belongs to it wherever the closure appears.
fn step_closure_lines(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    for (li, line) in lines.iter().enumerate() {
        for api in STEP_APIS {
            let mut from = 0;
            while let Some(p) = line.code[from..].find(api).map(|x| x + from) {
                mark_paren_region(lines, &mut flags, li, p + api.len() - 1);
                from = p + api.len();
            }
        }
    }
    flags
}

/// Marks lines from the `(` at (`li`, byte `col`) to its matching `)`.
fn mark_paren_region(lines: &[Line], flags: &mut [bool], li: usize, col: usize) {
    let mut depth = 0i32;
    let mut start = col;
    for (l, line) in lines.iter().enumerate().skip(li) {
        flags[l] = true;
        for &b in line.code.as_bytes().iter().skip(start) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
        start = 0;
    }
}

/// The profiling plane's quarantine file: the one sanctioned reader of
/// the wall clock (D003) in deterministic crates, and the only file
/// O001 does not police — everything it produces is profiling-tainted
/// by definition, and nothing deterministic lives there.
const PROFILE_QUARANTINE: &[&str] = &["metrics/src/profile.rs"];

/// Profiling-plane origin tokens (O001): a line touching one of these
/// carries a wall-clock / scheduler / memory observation.
const O001_ORIGINS: &[&str] = &[
    "Stamp",
    "ns_since",
    "peak_rss_bytes",
    "elapsed",
    "wall_ns",
];

/// Profiling-plane types (O001): a binding annotated with one is
/// tainted wherever it is used in the file.
const O001_TYPES: &[&str] = &["Stamp", "Profile", "ProfileReport", "PhaseTiming"];

/// RNG-seeding sinks (O001), matched at word boundaries.
const O001_SEED_SINKS: &[&str] = &["seed_from_u64", "from_seed", "SeedableRng"];

/// Call sinks (O001): message sends, reductions, round accounting, and
/// deterministic-registry writes must never receive a tainted value.
const O001_CALL_SINKS: &[&str] = &[
    ".send(",
    ".merge(",
    "charge_stats(",
    "charge_rounds(",
    "counter_add(",
    "gauge_set(",
    "gauge_max(",
    "histogram_record(",
];

/// Interior-mutability types a `static` must not hold (C001), besides
/// `Atomic*`.
const STATIC_INTERIOR: &[&str] = &["OnceLock", "LazyLock", "Cell", "RefCell", "Mutex", "RwLock"];

/// `(column, type token)` when `code` declares a `static` item whose type
/// holds interior mutability: `[pub[(..)]] static NAME: <type> = ...` with
/// a [`STATIC_INTERIOR`] or `Atomic*` token in `<type>`.
fn static_interior(code: &str) -> Option<(usize, &'static str)> {
    let pos = find_word(code, "static")?;
    let before = code[..pos].trim();
    if !(before.is_empty() || before.starts_with("pub")) {
        return None; // `&'static str`, `T: 'static`, ...
    }
    let decl = &code[pos + "static".len()..];
    let ty = &decl[decl.find(':')? + 1..];
    let ty = &ty[..ty.find('=').unwrap_or(ty.len())];
    let token = STATIC_INTERIOR
        .iter()
        .copied()
        .find(|t| find_word(ty, t).is_some())
        .or_else(|| find_atomic(ty).map(|_| "Atomic*"))?;
    Some((pos, token))
}

/// Column of an `Atomic<Uppercase>` token (AtomicU64, AtomicBool, ...).
fn find_atomic(code: &str) -> Option<usize> {
    let mut search = 0;
    while let Some(pos) = code[search..].find("Atomic").map(|p| p + search) {
        search = pos + "Atomic".len();
        let before_ok = pos == 0 || {
            let c = code.as_bytes()[pos - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && code[search..].starts_with(|c: char| c.is_ascii_uppercase()) {
            return Some(pos);
        }
    }
    None
}

/// O001 flow check on one line: a profiling origin or tainted binding
/// meeting a sink. One finding per line, anchored at the tainted token.
fn check_o001(
    findings: &mut Vec<Finding>,
    emit: &mut impl FnMut(&mut Vec<Finding>, &'static str, usize, usize, String),
    profiling_bindings: &[String],
    protocol_line: bool,
    i: usize,
    code: &str,
) {
    let mut tainted: Option<(usize, String)> = None;
    for token in O001_ORIGINS {
        if let Some(col) = find_word(code, token) {
            if tainted.as_ref().is_none_or(|&(c, _)| col < c) {
                tainted = Some((col, format!("profiling origin `{token}`")));
            }
        }
    }
    for name in profiling_bindings {
        if let Some(col) = find_word(code, name) {
            if tainted.as_ref().is_none_or(|&(c, _)| col < c) {
                tainted = Some((col, format!("profiling-tainted binding `{name}`")));
            }
        }
    }
    let Some((col, what)) = tainted else { return };
    for token in O001_SEED_SINKS {
        if find_word(code, token).is_some() {
            emit(findings, "O001", i, col, format!("{what} reaches RNG seeding (`{token}`): seeds must derive from the run seed, never from wall-clock or scheduler observations"));
            return;
        }
    }
    for token in O001_CALL_SINKS {
        if code.contains(token) {
            let sink = token.trim_start_matches('.').trim_end_matches('(');
            emit(findings, "O001", i, col, format!("{what} flows into `{sink}`: profiling values are observer-only and must never enter sends, reductions, round accounting, or the deterministic registry"));
            return;
        }
    }
    if protocol_line {
        emit(findings, "O001", i, col, format!("{what} inside protocol code: per-vertex logic must be a pure function of (state, inbox, seed) — wall-clock and scheduler observations must stay invisible to vertices"));
    }
}

/// The S001 transient-field escape hatch. Reason after `--` is
/// mandatory, the same contract as `allow`.
pub const TRANSIENT_MARKER: &str = "lcg-lint: transient";

/// Marks a struct as a snapshot root for S001. Its codec coverage region
/// is every same-file `fn` with `snapshot` in its name — the save/resume
/// family — rather than an `impl SnapshotState` block.
pub const SNAPSHOT_ROOT_MARKER: &str = "lcg-lint: snapshot-root";

/// The serialization trait S001 anchors on: `impl SnapshotState for T`
/// makes the same-file struct `T` snapshot-reachable, and the impl block
/// is its codec coverage region.
const SNAPSHOT_TRAIT_FOR: &str = "SnapshotState for ";

/// S001 whole-file pass: finds snapshot-reachable structs (same-file
/// `impl SnapshotState` targets, and `snapshot-root`-marked structs),
/// then demands every field be word-mentioned inside the struct's codec
/// coverage region or carry a justified transient annotation.
///
/// Deliberately file-local, like every binding collector in this module:
/// a struct whose codec lives in another file must either move next to
/// it or mark its fields — the rule is a ratchet on *new* snapshot
/// state, not a cross-crate reachability analysis.
fn check_s001(
    findings: &mut Vec<Finding>,
    emit: &mut impl FnMut(&mut Vec<Finding>, &'static str, usize, usize, String),
    lines: &[Line],
) {
    // Codec coverage regions, keyed by struct name. An `impl
    // SnapshotState for T` block covers `T`; snapshot-root structs are
    // covered by every fn with `snapshot` in its name.
    let mut coverage: Vec<(String, Vec<(usize, usize)>)> = Vec::new();
    let push_region = |coverage: &mut Vec<(String, Vec<(usize, usize)>)>,
                           name: String,
                           region: (usize, usize)| {
        match coverage.iter_mut().find(|(n, _)| *n == name) {
            Some((_, regions)) => regions.push(region),
            None => coverage.push((name, vec![region])),
        }
    };

    let mut snapshot_fns: Vec<(usize, usize)> = Vec::new();
    let mut root_structs: Vec<(usize, String)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        // `impl SnapshotState for T` → coverage region for struct T
        if find_word(code, "impl").is_some() {
            if let Some(pos) = code.find(SNAPSHOT_TRAIT_FOR) {
                let target = code[pos + SNAPSHOT_TRAIT_FOR.len()..].trim_start();
                if let Some(name) = leading_ident(target) {
                    push_region(&mut coverage, name, (i, brace_block_end(lines, i)));
                }
            }
        }
        // `fn *snapshot*` → part of every snapshot root's coverage
        if let Some(fn_pos) = find_word(code, "fn") {
            let after = code[fn_pos + 2..].trim_start();
            if let Some(name) = leading_ident(after) {
                if name.contains("snapshot") {
                    snapshot_fns.push((i, brace_block_end(lines, i)));
                }
            }
        }
        // struct definitions, and which of them are snapshot roots
        if let Some(st_pos) = find_word(code, "struct") {
            let after = code[st_pos + "struct".len()..].trim_start();
            if let Some(name) = leading_ident(after) {
                if annotation_above(lines, i, SNAPSHOT_ROOT_MARKER, false) {
                    root_structs.push((i, name));
                }
            }
        }
    }
    for (_, name) in &root_structs {
        for &region in &snapshot_fns {
            push_region(&mut coverage, name.clone(), region);
        }
    }

    // Walk the reachable struct definitions and check their fields.
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let Some(st_pos) = find_word(code, "struct") else { continue };
        let after = code[st_pos + "struct".len()..].trim_start();
        let Some(name) = leading_ident(after) else { continue };
        let Some((_, regions)) = coverage.iter().find(|(n, _)| *n == name) else { continue };
        let covered: String = regions
            .iter()
            .flat_map(|&(a, b)| lines[a..=b.min(lines.len() - 1)].iter())
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for (fline, field) in struct_fields(lines, i) {
            if annotation_above(lines, fline, TRANSIENT_MARKER, true) {
                continue;
            }
            if find_word(&covered, &field).is_some() {
                continue;
            }
            emit(findings, "S001", fline, 0, format!("field `{field}` of snapshot-reachable `{name}` is neither named in the snapshot codec region nor declared `// lcg-lint: transient -- <how resume reconstructs it>`; a resumed engine would silently diverge wherever this state mattered"));
        }
    }
}

/// 0-based line of the `}` closing the first `{` at or after line
/// `start` (file end when unbalanced — conservative for coverage). A `;`
/// before any `{` means a bodyless item: the region is its own line.
fn brace_block_end(lines: &[Line], start: usize) -> usize {
    let mut depth = 0i64;
    let mut opened = false;
    for (l, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                ';' if !opened => return l,
                '{' => {
                    opened = true;
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth <= 0 {
                        return l;
                    }
                }
                _ => {}
            }
        }
    }
    lines.len().saturating_sub(1)
}

/// Fields of the struct whose `struct` keyword sits on `sig_line`, as
/// (0-based line, name) pairs. Line-based like the rest of the linter:
/// one field per line at brace depth 1, the declaration style of every
/// snapshot-reachable struct in this workspace.
fn struct_fields(lines: &[Line], sig_line: usize) -> Vec<(usize, String)> {
    let end = brace_block_end(lines, sig_line);
    let mut fields = Vec::new();
    let mut depth = 0i64;
    for (l, line) in lines.iter().enumerate().take(end + 1).skip(sig_line) {
        let code = line.code.as_str();
        if depth == 1 {
            let decl = strip_visibility(code.trim_start());
            if let Some(name) = leading_ident(decl) {
                let after = decl[name.len()..].trim_start();
                if after.starts_with(':') && !after.starts_with("::") {
                    fields.push((l, name));
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    fields
}

/// Strips a leading `pub` / `pub(crate)` / `pub(super)` visibility
/// qualifier from a field declaration.
fn strip_visibility(s: &str) -> &str {
    let Some(rest) = s.strip_prefix("pub") else { return s };
    let trimmed = rest.trim_start();
    if let Some(in_parens) = trimmed.strip_prefix('(') {
        if let Some(close) = in_parens.find(')') {
            return in_parens[close + 1..].trim_start();
        }
        return s;
    }
    if rest.starts_with(char::is_whitespace) { trimmed } else { s }
}

/// `true` when the comment run at/above `sig_line` (the line itself,
/// then contiguous comment-only and attribute lines walking up) contains
/// `marker`; `with_reason` additionally demands a non-empty `-- reason`
/// tail, the same contract as `allow`.
fn annotation_above(lines: &[Line], sig_line: usize, marker: &str, with_reason: bool) -> bool {
    let mut l = sig_line;
    loop {
        let line = &lines[l];
        if let Some(pos) = line.comment.find(marker) {
            if !with_reason {
                return true;
            }
            let tail = &line.comment[pos + marker.len()..];
            if tail
                .find("--")
                .map(|i| !tail[i + 2..].trim().is_empty())
                .unwrap_or(false)
            {
                return true;
            }
        }
        if l == 0 {
            return false;
        }
        l -= 1;
        let code = lines[l].code.trim();
        if !(code.is_empty() || code.starts_with("#[")) {
            return false;
        }
    }
}

/// Collects identifiers bound to profiling-plane values — by a `let`
/// initializer mentioning an O001 origin, or a type annotation (let,
/// param, field) naming a profiling type. Per-file, like the hash
/// collector: taint never leaks across files.
fn collect_profiling_bindings(lines: &[Line]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let tainted_expr = |s: &str| O001_ORIGINS.iter().any(|t| find_word(s, t).is_some());
    let tainted_ty = |ty: &str| O001_TYPES.iter().any(|t| find_word(ty, t).is_some());
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if !tainted_expr(code) && !tainted_ty(code) {
            continue;
        }
        // `let [mut] name` with a tainted type annotation or initializer
        if let Some(let_pos) = find_word(code, "let") {
            let after = code[let_pos + 3..].trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            if let Some(name) = leading_ident(after) {
                let rest = after[name.len()..].trim_start();
                let mut tainted = false;
                if let Some(ann) = rest.strip_prefix(':') {
                    let chars: Vec<char> = ann.chars().collect();
                    let ty: String = chars[..type_extent(&chars, 0)].iter().collect();
                    tainted = tainted_ty(&ty);
                }
                if !tainted {
                    if let Some(eq) = rest.find('=') {
                        tainted = tainted_expr(&rest[eq + 1..]);
                    }
                }
                if tainted {
                    push_unique(&mut names, name);
                }
            }
        }
        // `name: PhaseTiming` annotations (params, struct fields)
        let chars: Vec<char> = code.chars().collect();
        let mut j = 0;
        while j < chars.len() {
            if chars[j] == ':' && (j + 1 >= chars.len() || chars[j + 1] != ':') && (j == 0 || chars[j - 1] != ':') {
                if let Some(name) = trailing_ident(&code[..j]) {
                    let ty: String = chars[j + 1..type_extent(&chars, j + 1)].iter().collect();
                    if tainted_ty(&ty) {
                        push_unique(&mut names, name);
                    }
                }
            }
            j += 1;
        }
    }
    names
}

const D001_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

#[allow(clippy::ptr_arg)]
fn check_d001(
    findings: &mut Vec<Finding>,
    emit: &mut impl FnMut(&mut Vec<Finding>, &'static str, usize, usize, String),
    hash_bindings: &[String],
    i: usize,
    code: &str,
) {
    for name in hash_bindings {
        // method-call iteration: `name.iter()`, `name.keys()`, ...
        let mut search = 0;
        while let Some(pos) = code[search..].find(name.as_str()).map(|p| p + search) {
            search = pos + name.len();
            if !word_boundary(code, pos, name.len()) {
                continue;
            }
            let rest = &code[pos + name.len()..];
            if let Some(m) = D001_ITER_METHODS.iter().find(|m| rest.starts_with(**m)) {
                let method = m.trim_start_matches('.').trim_end_matches('(').trim_end_matches(')');
                emit(findings, "D001", i, pos, format!("iteration over hash collection `{name}` (`.{method}`) has nondeterministic order; use BTreeMap/BTreeSet or collect-and-sort"));
            }
        }
        // `for x in name` / `for x in &name` / `for x in &mut name`
        if let Some(expr_start) = for_in_expr(code) {
            let expr = code[expr_start..].trim_start();
            let expr = expr
                .strip_prefix("&mut ")
                .or_else(|| expr.strip_prefix('&'))
                .unwrap_or(expr);
            if expr.starts_with(name.as_str())
                && !expr[name.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
                && !expr[name.len()..].starts_with('.')
            {
                emit(findings, "D001", i, expr_start, format!("`for` loop over hash collection `{name}` has nondeterministic order; use BTreeMap/BTreeSet or collect-and-sort"));
            }
        }
    }
}

/// Start index of the expression after ` in ` in a `for ... in expr` line.
fn for_in_expr(code: &str) -> Option<usize> {
    let for_pos = find_word(code, "for")?;
    let in_pos = code[for_pos..].find(" in ")? + for_pos;
    Some(in_pos + 4)
}

/// Collects identifiers bound (let, param, field) to a type mentioning
/// `HashMap`/`HashSet` anywhere in its text — including `Vec<HashMap<..>>`,
/// whose outer iteration yields hash maps that then iterate downstream.
fn collect_hash_bindings(lines: &[Line]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        // `let [mut] name` bindings on the same line as the hash type
        if let Some(let_pos) = find_word(code, "let") {
            let after = code[let_pos + 3..].trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            if let Some(name) = leading_ident(after) {
                push_unique(&mut names, name);
            }
        }
        // `name: ...HashMap...` bindings (params, struct fields): the type
        // text runs to the next `,` or `)` at angle-bracket depth 0.
        let chars: Vec<char> = code.chars().collect();
        let mut j = 0;
        while j < chars.len() {
            if chars[j] == ':' && (j + 1 >= chars.len() || chars[j + 1] != ':') && (j == 0 || chars[j - 1] != ':') {
                if let Some(name) = trailing_ident(&code[..j]) {
                    let ty_end = type_extent(&chars, j + 1);
                    let ty: String = chars[j + 1..ty_end].iter().collect();
                    if ty.contains("HashMap") || ty.contains("HashSet") {
                        push_unique(&mut names, name);
                    }
                }
            }
            j += 1;
        }
    }
    names
}

/// Extent of a type annotation starting at `start`: up to the first `,`, `)`,
/// `;`, `=` (not `=>`... close enough) or `{` at angle depth 0.
fn type_extent(chars: &[char], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < chars.len() {
        match chars[j] {
            '<' => depth += 1,
            '>' => depth -= 1,
            ',' | ')' | ';' | '{' if depth <= 0 => return j,
            '=' if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

fn leading_ident(s: &str) -> Option<String> {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 || s.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(s[..end].to_string())
}

fn trailing_ident(s: &str) -> Option<String> {
    let trimmed = s.trim_end();
    let start = trimmed
        .char_indices()
        .rev()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_'))
        .map(|(i, c)| i + c.len_utf8())
        .unwrap_or(0);
    let ident = &trimmed[start..];
    if ident.is_empty() || ident.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(ident.to_string())
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !names.contains(&name) {
        names.push(name);
    }
}

/// Finds `word` in `code` at identifier boundaries.
pub fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut search = 0;
    while let Some(pos) = code[search..].find(word).map(|p| p + search) {
        if word_boundary(code, pos, word.len()) {
            return Some(pos);
        }
        search = pos + word.len();
    }
    None
}

fn word_boundary(code: &str, pos: usize, len: usize) -> bool {
    let bytes = code.as_bytes();
    let before_ok = pos == 0 || {
        let c = bytes[pos - 1] as char;
        !(c.is_alphanumeric() || c == '_')
    };
    let after_ok = pos + len >= bytes.len() || {
        let c = bytes[pos + len] as char;
        !(c.is_alphanumeric() || c == '_')
    };
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn ctx(rel: &str) -> FileCtx {
        FileCtx::from_rel_path(rel)
    }

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        check_file(&ctx(rel), &scan(src))
    }

    fn active<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        fs.iter().filter(|f| f.rule == rule && f.allowed.is_none()).collect()
    }

    #[test]
    fn d001_flags_map_iteration() {
        let src = "fn f() {\n    let mut m: std::collections::HashMap<u32, u32> = Default::default();\n    for (k, v) in m.iter() { body(k, v); }\n}\n";
        let fs = lint("crates/solvers/src/x.rs", src);
        assert_eq!(active(&fs, "D001").len(), 1);
        assert_eq!(active(&fs, "D001")[0].line, 3);
    }

    #[test]
    fn d001_flags_for_loop_over_map() {
        let src = "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n    for kv in &m { body(kv); }\n}\n";
        let fs = lint("crates/core/src/x.rs", src);
        assert_eq!(active(&fs, "D001").len(), 1);
    }

    #[test]
    fn d001_membership_only_is_clean() {
        let src = "fn f() {\n    let mut s: std::collections::HashSet<u32> = Default::default();\n    s.insert(3);\n    if s.contains(&3) { body(); }\n}\n";
        let fs = lint("crates/graph/src/x.rs", src);
        assert!(active(&fs, "D001").is_empty());
    }

    #[test]
    fn d001_btree_is_clean() {
        let src = "fn f() {\n    let mut m: std::collections::BTreeMap<u32, u32> = Default::default();\n    for (k, v) in m.iter() { body(k, v); }\n}\n";
        let fs = lint("crates/solvers/src/x.rs", src);
        assert!(active(&fs, "D001").is_empty());
    }

    #[test]
    fn d001_skips_nondeterministic_crates_and_tests() {
        let src = "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n    for kv in m.iter() { body(kv); }\n}\n";
        assert!(active(&lint("crates/bench/src/x.rs", src), "D001").is_empty());
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(active(&lint("crates/solvers/src/x.rs", &test_src), "D001").is_empty());
    }

    #[test]
    fn d002_flags_thread_rng_and_allows_in_bench() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(active(&lint("crates/core/src/x.rs", src), "D002").len(), 1);
        assert!(active(&lint("crates/bench/src/x.rs", src), "D002").is_empty());
    }

    #[test]
    fn d003_flags_instant_outside_tests() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(active(&lint("crates/congest/src/x.rs", src), "D003").len(), 1);
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(active(&lint("crates/congest/src/x.rs", &test_src), "D003").is_empty());
    }

    #[test]
    fn p001_flags_unwrap_not_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        let fs = lint("crates/graph/src/x.rs", src);
        assert_eq!(active(&fs, "P001").len(), 1);
        assert_eq!(active(&fs, "P001")[0].line, 1);
    }

    #[test]
    fn p001_expect_is_sanctioned() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"graph is connected\") }\n";
        assert!(active(&lint("crates/graph/src/x.rs", src), "P001").is_empty());
    }

    #[test]
    fn u001_flags_unsafe_everywhere() {
        let src = "fn f() { unsafe { body(); } }\n";
        assert_eq!(active(&lint("crates/bench/src/x.rs", src), "U001").len(), 1);
    }

    #[test]
    fn allow_with_reason_suppresses_same_line() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lcg-lint: allow(P001) -- demo\n";
        let fs = lint("crates/graph/src/x.rs", src);
        assert!(active(&fs, "P001").is_empty());
        assert_eq!(fs.iter().filter(|f| f.allowed.is_some()).count(), 1);
    }

    #[test]
    fn allow_standalone_suppresses_next_line() {
        let src = "// lcg-lint: allow(D003) -- example timing\nfn f() { let t = std::time::Instant::now(); }\n";
        assert!(active(&lint("crates/core/src/x.rs", src), "D003").is_empty());
    }

    #[test]
    fn allow_without_reason_is_a000_and_ignored() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lcg-lint: allow(P001)\n";
        let fs = lint("crates/graph/src/x.rs", src);
        assert_eq!(active(&fs, "P001").len(), 1);
        assert_eq!(active(&fs, "A000").len(), 1);
    }

    #[test]
    fn tokens_inside_strings_do_not_fire() {
        let src = "fn f() { log(\"thread_rng Instant unsafe HashMap.iter()\"); }\n";
        let fs = lint("crates/core/src/x.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn c001_flags_sync_primitives_in_deterministic_crates() {
        let src = "use std::sync::Mutex;\nfn f() { let c = std::sync::atomic::AtomicU64::new(0); }\n";
        let fs = lint("crates/expander/src/x.rs", src);
        assert_eq!(active(&fs, "C001").len(), 2, "Mutex + AtomicU64: {fs:?}");
        // the executor is a deterministic file like any other
        assert_eq!(active(&lint("crates/congest/src/executor.rs", src), "C001").len(), 2);
        // non-deterministic crates are out of scope
        assert!(active(&lint("crates/bench/src/x.rs", src), "C001").is_empty());
    }

    #[test]
    fn c001_bans_interior_mutable_statics_in_every_library_crate() {
        let src = "static EPOCH: OnceLock<Instant> = OnceLock::new();\n";
        // no crate is out of scope: bench, the linter, the profiling
        // quarantine, the executor
        for path in [
            "crates/bench/src/x.rs",
            "crates/lcg-lint/src/x.rs",
            "crates/metrics/src/profile.rs",
            "crates/congest/src/executor.rs",
        ] {
            assert_eq!(active(&lint(path, src), "C001").len(), 1, "{path}");
        }
        // test targets and test regions may keep process state
        assert!(active(&lint("crates/congest/tests/x.rs", src), "C001").is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
        assert!(active(&lint("crates/congest/src/x.rs", &in_test), "C001").is_empty());
        // one finding per line, also where the token rule matches too
        let both = "pub(crate) static HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(active(&lint("crates/congest/src/x.rs", both), "C001").len(), 1);
        for held in ["LazyLock<Vec<u8>>", "Cell<u32>", "RefCell<u32>", "Mutex<()>", "RwLock<()>"] {
            let src = format!("static G: {held} = make();\n");
            assert_eq!(active(&lint("crates/bench/src/x.rs", &src), "C001").len(), 1, "{held}");
        }
        // immutable statics, `'static` lifetimes and non-static cells are
        // not process-global mutable state
        let fine = "static TABLE: [u32; 4] = [1, 2, 3, 4];\nfn f(s: &'static str, c: Cell<u32>) {}\nstatic NAMES: &[&str] = &[];\n";
        assert!(active(&lint("crates/bench/src/x.rs", fine), "C001").is_empty());
    }

    #[test]
    fn c003_flags_topology_reads_in_step_closures() {
        let src = "fn drive(net: &mut Net, cfg: ExecConfig, st: &mut [S]) {\n    net.run_state(4, st, |me, v, inbox, out| { me.t = cfg.threads(); });\n}\n";
        assert_eq!(active(&lint("crates/congest/src/proto.rs", src), "C003").len(), 1);
        let closure = "\
fn drive(net: &mut Net, states: &mut [S]) {
    net.step_state(states, |me, v, inbox, out| {
        let k = std::env::var(\"LCG_THREADS\");
    });
}
";
        let fs = lint("crates/core/src/x.rs", closure);
        assert_eq!(active(&fs, "C003").len(), 1, "env read inside a step closure: {fs:?}");
        // the same read outside a protocol context is C003-clean
        let plumbing = "fn launch() { let cfg = ExecConfig::with_threads(2); run(cfg); }\n";
        assert!(active(&lint("crates/core/src/x.rs", plumbing), "C003").is_empty());
    }

    #[test]
    fn step_closure_regions_span_lines() {
        let src = "\
fn drive(net: &mut Net) {
    net.step_state(&mut states, |me, v, inbox, out| {
        out.send(0, [1]);
    });
    after();
}
";
        let flags = step_closure_lines(&scan(src));
        assert!(flags[1] && flags[2] && flags[3]);
        assert!(!flags[0] && !flags[4], "region ends at the closing paren");
    }

    #[test]
    fn o001_flags_profiling_values_reaching_seeds_merges_and_sends() {
        let seeded = "fn f(started: Stamp) {\n    let t = Stamp::now().ns_since(started);\n    let mut rng = ChaCha8Rng::seed_from_u64(t);\n}\n";
        let fs = lint("crates/core/src/x.rs", seeded);
        assert_eq!(active(&fs, "O001").len(), 1, "{fs:?}");
        assert_eq!(active(&fs, "O001")[0].line, 3);

        let merged = "fn f(stats: &mut RoundStats, t: PhaseTiming) {\n    stats.merge(&to_stats(t.wall_ns));\n}\n";
        assert_eq!(active(&lint("crates/congest/src/x.rs", merged), "O001").len(), 1);

        let registry = "fn f(rec: &mut Recorder) {\n    rec.gauge_set(\"rss\", profile::peak_rss_bytes());\n}\n";
        assert_eq!(active(&lint("crates/core/src/x.rs", registry), "O001").len(), 1);
    }

    #[test]
    fn o001_flags_profiling_values_inside_protocol_closures() {
        let src = "\
fn drive(net: &mut Net, states: &mut [S]) {
    net.step_state(states, |me, v, inbox, out| {
        let stamp = Stamp::now().ns_since(started);
        out.send(0, [stamp]);
    });
}
";
        let fs = lint("crates/core/src/x.rs", src);
        assert_eq!(active(&fs, "O001").len(), 2, "origin in closure + tainted send: {fs:?}");
    }

    #[test]
    fn o001_observer_only_use_is_clean_and_the_quarantine_is_exempt() {
        // observing without a sink — timing a phase, reporting a sample —
        // is the sanctioned shape
        let observe = "fn f(rec: &mut Recorder) {\n    rec.phase_start(\"gathering\");\n    let rss = profile::peak_rss_bytes();\n    render(rss);\n}\n";
        assert!(active(&lint("crates/core/src/x.rs", observe), "O001").is_empty());
        // deterministic counters fed by logical quantities stay legal
        let logical = "fn f(rec: &mut Recorder, stats: &RoundStats) {\n    rec.counter_add(\"net.rounds\", stats.rounds);\n}\n";
        assert!(active(&lint("crates/core/src/x.rs", logical), "O001").is_empty());
        // the quarantine file works with origins freely
        let quarantine = "pub fn ns_since(self, earlier: Stamp) -> u64 {\n    let e = self.0.duration_since(earlier.0);\n    sink().merge(&sample(e));\n}\n";
        assert!(active(&lint("crates/metrics/src/profile.rs", quarantine), "O001").is_empty());
    }

    #[test]
    fn metrics_crate_is_deterministic_with_profile_rs_whitelisted() {
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(active(&lint("crates/metrics/src/registry.rs", clock), "D003").len(), 1);
        assert!(active(&lint("crates/metrics/src/profile.rs", clock), "D003").is_empty());
        let sync = "fn f() { let b = std::sync::atomic::AtomicBool::new(false); }\n";
        // the executor sample sink is per run, so the quarantine file gets
        // no pass on shared mutable state either
        assert_eq!(active(&lint("crates/metrics/src/lib.rs", sync), "C001").len(), 1);
        assert_eq!(active(&lint("crates/metrics/src/profile.rs", sync), "C001").len(), 1);
    }

    #[test]
    fn s001_flags_uncovered_fields_of_impl_targets() {
        let src = "\
pub struct Ckpt {
    pub rounds: u64,
    cache: Vec<u64>,
}
impl SnapshotState for Ckpt {
    fn enc(&self, out: &mut Vec<u8>) { self.rounds.enc(out); }
}
";
        let fs = lint("crates/core/src/x.rs", src);
        let hits = active(&fs, "S001");
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert_eq!(hits[0].line, 3, "`cache` is the dropped field");
    }

    #[test]
    fn s001_snapshot_root_structs_are_covered_by_snapshot_fns() {
        let src = "\
// lcg-lint: snapshot-root
pub struct Engine {
    stats: u64,
    scratch: Vec<u64>,
}
fn save_snapshot(e: &Engine, out: &mut Vec<u8>) { write(out, e.stats); }
";
        let fs = lint("crates/congest/src/x.rs", src);
        let hits = active(&fs, "S001");
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert_eq!(hits[0].line, 4, "`scratch` never reaches a snapshot fn");
    }

    #[test]
    fn s001_transient_annotation_needs_a_reason() {
        let justified = "\
pub struct Ckpt {
    pub rounds: u64,
    // lcg-lint: transient -- rebuilt from the graph on resume
    cache: Vec<u64>,
}
impl SnapshotState for Ckpt {
    fn enc(&self, out: &mut Vec<u8>) { self.rounds.enc(out); }
}
";
        assert!(active(&lint("crates/core/src/x.rs", justified), "S001").is_empty());
        let bare = justified.replace(" -- rebuilt from the graph on resume", "");
        assert_eq!(active(&lint("crates/core/src/x.rs", &bare), "S001").len(), 1);
    }

    #[test]
    fn s001_ignores_unreachable_structs_and_test_code() {
        let plain = "pub struct Config {\n    cache: Vec<u64>,\n}\n";
        assert!(active(&lint("crates/core/src/x.rs", plain), "S001").is_empty());
        let in_test = "\
#[cfg(test)]
mod tests {
    // lcg-lint: snapshot-root
    struct Probe {
        scratch: u64,
    }
}
";
        assert!(active(&lint("crates/congest/src/x.rs", in_test), "S001").is_empty());
    }

    #[test]
    fn s001_allow_suppresses_on_the_field_line() {
        let src = "\
// lcg-lint: snapshot-root
pub struct Engine {
    scratch: Vec<u64>, // lcg-lint: allow(S001) -- demo
}
fn save_snapshot(e: &Engine, out: &mut Vec<u8>) { body(out); }
";
        let fs = lint("crates/congest/src/x.rs", src);
        assert!(active(&fs, "S001").is_empty(), "{fs:?}");
        assert_eq!(fs.iter().filter(|f| f.allowed.is_some()).count(), 1);
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in RULES {
            let text = explain(rule.id).expect("every rule explains itself");
            assert!(text.contains(rule.id) && text.contains("Sanctioned fix"), "{text}");
        }
        assert!(explain("c003").is_some(), "case-insensitive lookup");
        assert!(explain("Z999").is_none());
        assert!(explain("M001").is_none(), "retired with the object model it guarded");
    }
}
