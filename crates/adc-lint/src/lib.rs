//! Workspace-local static analysis for the ADC reproduction.
//!
//! `adc-lint` is a zero-dependency, tidy-style token analyzer for the
//! one invariant no compiler checks: atomic-ordering pairing in the
//! sharded executor's barrier protocol (see [`rules::RULES`]).
//! Everything rustc, clippy or the test suite already enforce is theirs:
//! determinism sinks, shard-unsafe state and thread creation are clippy
//! lint levels in the crates' `lib.rs` and the root `clippy.toml`,
//! exhaustive event dispatch is `clippy::wildcard_enum_match_arm` and
//! `clippy::match_wildcard_for_single_variants` plus an event-coverage
//! test, and metric family names are the closed
//! `adc_metrics::Family` type. See DESIGN.md "Static analysis &
//! invariants" for both catalogs.
//!
//! There are no comment suppressions: a finding is fixed, not excused.

pub mod lex;
pub mod rules;
pub mod scan;

use scan::SourceFile;
use std::path::Path;
use std::time::Instant;

/// One rule violation at a specific source line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed, for display.
    pub snippet: String,
    pub message: String,
}

/// The result of a full lint run.
#[derive(Debug)]
pub struct Report {
    /// Findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Number of rules in the catalog.
    pub rules: usize,
    /// Wall time for the whole run (scan excluded, rules included).
    pub total_nanos: u128,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans the workspace under `root` and runs every rule.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = scan::scan_workspace(root)?;
    Ok(run_files(&files))
}

/// Runs every rule over an already-scanned file set. Public so the
/// fixture tests can lint in-memory and on-disk snippets directly.
pub fn run_files(files: &[SourceFile]) -> Report {
    let started = Instant::now();
    let mut findings = Vec::new();
    rules::atomic_ordering(files, &mut findings);
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Report {
        findings,
        files_scanned: files.len(),
        rules: rules::RULES.len(),
        total_nanos: started.elapsed().as_nanos(),
    }
}

/// Human-readable, diff-style report.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "error[{}]: {}\n  --> {}:{}\n   |  {}\n\n",
            f.rule, f.message, f.file, f.line, f.snippet
        ));
    }
    out.push_str(&format!(
        "adc-lint: {} findings in {} files; rules: {}; {:.1} ms\n",
        report.findings.len(),
        report.files_scanned,
        report.rules,
        report.total_nanos as f64 / 1e6
    ));
    out
}

/// Machine-readable report (stable key order, one finding per array
/// element).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"adc-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"rules\": {},\n", report.rules));
    out.push_str(&format!(
        "  \"elapsed_ms\": {:.3},\n",
        report.total_nanos as f64 / 1e6
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {} }}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string literal with the escapes the report can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan::parse_source;

    fn report_for(text: &str) -> Report {
        let file = parse_source("crates/adc-sim/src/pool.rs", "adc-sim", true, text);
        run_files(std::slice::from_ref(&file))
    }

    const UNORDERED: &str = "fn bump(c: &Ctl) { c.hits.fetch_add(1); }";

    #[test]
    fn json_output_is_well_formed_for_empty_and_nonempty() {
        let clean = report_for("fn t() {}\n");
        let j = render_json(&clean);
        assert!(j.contains("\"findings\": []"));
        let dirty = report_for(UNORDERED);
        let j = render_json(&dirty);
        assert!(j.contains("\"rule\": \"atomic-ordering\""));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn human_output_mentions_rule_and_location() {
        let dirty = report_for(UNORDERED);
        let h = render_human(&dirty);
        assert!(h.contains("error[atomic-ordering]"));
        assert!(h.contains("crates/adc-sim/src/pool.rs:1"));
    }
}
