//! Human-readable and machine-readable (`--format json`) reports.

use crate::rules::Finding;

/// Everything a run produces, ready for rendering.
pub struct Report<'a> {
    /// Every finding, suppressed ones included.
    pub findings: &'a [Finding],
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report<'_> {
    /// The findings no inline allow covers: these fail the run.
    fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    fn suppressed(&self) -> usize {
        self.findings.len() - self.active().count()
    }

    /// Exit status: nonzero when any finding lacks an inline allow.
    pub fn failed(&self) -> bool {
        self.active().next().is_some()
    }

    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in self.active() {
            out.push_str(&format!(
                "{}: [{}] {}:{}:{}: {}\n",
                f.severity.as_str(),
                f.rule,
                f.file,
                f.line,
                f.col,
                f.message
            ));
        }
        out.push_str(&format!(
            "lcg-lint: {} file(s) scanned, {} finding(s), {} suppressed by allow\n",
            self.files_scanned,
            self.active().count(),
            self.suppressed()
        ));
        out
    }

    pub fn render_json(&self) -> String {
        let findings: Vec<String> = self
            .active()
            .map(|f| {
                format!(
                    "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                    f.rule,
                    f.severity.as_str(),
                    escape(&f.file),
                    f.line,
                    f.col,
                    escape(&f.message)
                )
            })
            .collect();
        let mut rows = findings.join(",\n");
        if !rows.is_empty() {
            rows.push('\n');
        }
        format!(
            "{{\n  \"findings\": [\n{}  ],\n  \"files_scanned\": {},\n  \"total_findings\": {},\n  \"suppressed\": {},\n  \"ok\": {}\n}}\n",
            rows,
            self.files_scanned,
            findings.len(),
            self.suppressed(),
            !self.failed()
        )
    }
}

/// Escapes `s` for the inside of a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
