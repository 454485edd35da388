//! CLI for the workspace linter. See `lcg-lint --help`.

use std::path::PathBuf;
use std::process::ExitCode;

use lcg_lint::{explain, find_workspace_root, lint_workspace, Report, RULES};

const USAGE: &str = "\
lcg-lint — determinism and CONGEST-model invariants, enforced at the source level

USAGE:
    lcg-lint [OPTIONS] [PATH_PREFIX...]

ARGS:
    [PATH_PREFIX...]   workspace-relative prefixes to lint (default: everything),
                       e.g. `crates/congest crates/expander`

OPTIONS:
    --root <DIR>             workspace root (default: walk up from cwd)
    --format <human|json>    report format (default: human)
    --list-rules             print the rule table and exit
    --explain <RULE>         print a rule's rationale, an example violation,
                             and the sanctioned fix, then exit
    -h, --help               print this help

EXIT STATUS:
    0  every finding carries an inline allow (or there are none)
    1  findings
    2  usage or I/O error

Suppress a finding inline, with a mandatory justification (the only way):
    // lcg-lint: allow(D001) -- membership-only set, iteration never observed
";

struct Opts {
    root: Option<PathBuf>,
    format: String,
    list_rules: bool,
    explain: Option<String>,
    prefixes: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        format: "human".to_string(),
        list_rules: false,
        explain: None,
        prefixes: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => opts.root = Some(PathBuf::from(take(&mut it, "--root")?)),
            "--format" => opts.format = take(&mut it, "--format")?,
            "--list-rules" => opts.list_rules = true,
            "--explain" => opts.explain = Some(take(&mut it, "--explain")?),
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => opts.prefixes.push(other.to_string()),
        }
    }
    if opts.format != "human" && opts.format != "json" {
        return Err(format!("unknown format {:?} (use human or json)", opts.format));
    }
    Ok(opts)
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("lcg-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in RULES {
            println!("{}  {:<7}  {}", rule.id, rule.severity.as_str(), rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(id) = &opts.explain {
        match explain(id) {
            Some(text) => {
                print!("{text}");
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("lcg-lint: unknown rule {id:?} (see --list-rules)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("lcg-lint: could not find a workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    let (findings, files_scanned) = match lint_workspace(&root, &opts.prefixes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lcg-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let report = Report { findings: &findings, files_scanned };
    match opts.format.as_str() {
        "json" => print!("{}", report.render_json()),
        _ => print!("{}", report.render_human()),
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
