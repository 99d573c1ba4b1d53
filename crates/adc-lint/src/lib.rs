//! Workspace-local static analysis for the ADC reproduction.
//!
//! `adc-lint` is a zero-dependency, tidy-style line/token analyzer for
//! the invariants no compiler checks: shard safety on the hot path,
//! wall-clock and environment reads reachable from the simulator in
//! adc-obs and adc-metrics, atomic-ordering pairing in the barrier protocol,
//! exhaustive event dispatch, and metric and segment names that agree.
//! Everything rustc or clippy already enforces (determinism sinks in the
//! four deterministic crates, panics, float equality, lossy casts,
//! indexing, prints, missing docs) is a lint level in the crates'
//! `lib.rs` and the root `clippy.toml`. See DESIGN.md "Static analysis
//! & invariants" for both catalogs and the suppression policy.
//!
//! Suppressions are spelled in comments:
//!
//! - same line or the line above a finding: `adc-lint: allow(rule-id)`
//!   (a comma-separated list is accepted);
//! - anywhere in a file: `adc-lint: allow-file(rule-id)` to suppress a
//!   rule for the whole file.
//!
//! Every suppression must match at least one finding, and must name a
//! known rule — otherwise the engine reports `unused-allow`. That keeps
//! stale escapes from accumulating as the code under them changes.

pub mod callgraph;
pub mod index;
pub mod lex;
pub mod rules;
pub mod scan;

use scan::SourceFile;
use std::path::Path;
use std::time::Instant;

/// Finding severity. Both levels fail `--check`; the distinction tells
/// a reader whether the rule guards correctness (error) or hygiene
/// (warning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed, for display.
    pub snippet: String,
    pub message: String,
}

/// Per-rule execution statistics for one run.
#[derive(Debug)]
pub struct RuleStat {
    pub id: &'static str,
    /// Findings that survived suppression.
    pub findings: usize,
    /// Suppression directives naming this rule (used or not).
    pub suppressions: usize,
    /// Wall time spent running the rule.
    pub nanos: u128,
}

/// The result of a full lint run.
#[derive(Debug)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Number of rules in the catalog.
    pub rules: usize,
    /// Line-scoped suppressions seen across the tree.
    pub suppressions_line: usize,
    /// File-scoped suppressions seen across the tree.
    pub suppressions_file: usize,
    /// One entry per catalog rule, in catalog order.
    pub rule_stats: Vec<RuleStat>,
    /// Wall time spent lexing and indexing (shared by semantic rules).
    pub engine_nanos: u128,
    /// Wall time for the whole run (scan excluded, rules included).
    pub total_nanos: u128,
}

impl Report {
    /// Total suppressions of both scopes.
    pub fn suppressions_total(&self) -> usize {
        self.suppressions_line + self.suppressions_file
    }

    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn counts(&self) -> (usize, usize) {
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        (errors, self.findings.len() - errors)
    }
}

/// A parsed suppression directive awaiting a matching finding.
struct Suppression {
    file: String,
    /// 1-based line the directive appears on (for unused-allow reports).
    decl_line: usize,
    /// 1-based line findings must sit on to match; `None` = whole file.
    target_line: Option<usize>,
    rule: String,
    used: bool,
}

/// Scans the workspace under `root` and runs every rule.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = scan::scan_workspace(root)?;
    // The lint does not lint itself: its sources quote suppression
    // syntax in docs and fixtures, and no rule scopes it anyway.
    let files: Vec<SourceFile> = files
        .into_iter()
        .filter(|f| f.krate != "adc-lint")
        .collect();
    Ok(run_files(&files))
}

/// Runs every rule over an already-scanned file set. Public so the
/// fixture tests can lint in-memory and on-disk snippets directly.
pub fn run_files(files: &[SourceFile]) -> Report {
    let t_total = Instant::now();
    let mut suppressions = Vec::new();
    let mut parse_errors = Vec::new();
    for file in files {
        collect_suppressions(file, &mut suppressions, &mut parse_errors);
    }

    // Token/symbol layer, built once and shared by the semantic rules.
    let t_engine = Instant::now();
    let lexed = rules::SemanticCtx::lex_files(files);
    let index = rules::SemanticCtx::build_index(files, &lexed);
    let engine_nanos = t_engine.elapsed().as_nanos();
    let ctx = rules::SemanticCtx {
        files,
        lexed: &lexed,
        index: &index,
    };

    let mut raw = Vec::new();
    let mut rule_nanos: Vec<(&'static str, u128)> = Vec::new();
    for (id, rule) in rules::LINE_RULES {
        let t = Instant::now();
        for file in files {
            rule(file, &mut raw);
        }
        rule_nanos.push((id, t.elapsed().as_nanos()));
    }
    for (id, rule) in rules::SEMANTIC_RULES {
        let t = Instant::now();
        rule(&ctx, &mut raw);
        rule_nanos.push((id, t.elapsed().as_nanos()));
    }

    let t_resolve = Instant::now();
    let mut findings = Vec::new();
    'finding: for f in raw {
        // Line-scoped matches take priority, then file-scoped.
        for s in suppressions.iter_mut() {
            if s.rule == f.rule
                && s.file == f.file
                && (s.target_line == Some(f.line) || s.target_line.is_none())
            {
                s.used = true;
                continue 'finding;
            }
        }
        findings.push(f);
    }

    let suppressions_line = suppressions
        .iter()
        .filter(|s| s.target_line.is_some())
        .count();
    let suppressions_file = suppressions.len() - suppressions_line;

    for s in &suppressions {
        if !s.used {
            findings.push(Finding {
                rule: "unused-allow",
                severity: Severity::Error,
                file: s.file.clone(),
                line: s.decl_line,
                snippet: format!("adc-lint: allow({})", s.rule),
                message: format!("suppression for `{}` matched no finding; remove it", s.rule),
            });
        }
    }
    findings.extend(parse_errors);
    rule_nanos.push(("unused-allow", t_resolve.elapsed().as_nanos()));

    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });

    let rule_stats = rules::RULES
        .iter()
        .map(|info| RuleStat {
            id: info.id,
            findings: findings.iter().filter(|f| f.rule == info.id).count(),
            suppressions: suppressions.iter().filter(|s| s.rule == info.id).count(),
            nanos: rule_nanos
                .iter()
                .find(|(id, _)| *id == info.id)
                .map(|(_, n)| *n)
                .unwrap_or(0),
        })
        .collect();

    Report {
        findings,
        files_scanned: files.len(),
        rules: rules::RULES.len(),
        suppressions_line,
        suppressions_file,
        rule_stats,
        engine_nanos,
        total_nanos: t_total.elapsed().as_nanos(),
    }
}

/// Parses `adc-lint: allow(...)` / `allow-file(...)` directives out of
/// one file's comments.
fn collect_suppressions(file: &SourceFile, out: &mut Vec<Suppression>, errors: &mut Vec<Finding>) {
    for (i, line) in file.lines.iter().enumerate() {
        for (marker, file_scope) in [("adc-lint: allow-file(", true), ("adc-lint: allow(", false)] {
            let Some(p) = line.comment.find(marker) else {
                continue;
            };
            let rest = &line.comment[p + marker.len()..];
            let Some(close) = rest.find(')') else {
                errors.push(Finding {
                    rule: "unused-allow",
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: i + 1,
                    snippet: line.raw.trim().to_string(),
                    message: "malformed suppression: missing `)`".to_string(),
                });
                continue;
            };
            let target_line = if file_scope {
                None
            } else if line.has_code() {
                Some(i + 1)
            } else {
                // Own-line comment: applies to the next line that has
                // code (stacked comments are skipped).
                Some(next_code_line(file, i))
            };
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if rule.is_empty() {
                    continue;
                }
                if !rules::is_known_rule(rule) {
                    errors.push(Finding {
                        rule: "unused-allow",
                        severity: Severity::Error,
                        file: file.rel.clone(),
                        line: i + 1,
                        snippet: line.raw.trim().to_string(),
                        message: format!("suppression names unknown rule `{rule}`"),
                    });
                    continue;
                }
                out.push(Suppression {
                    file: file.rel.clone(),
                    decl_line: i + 1,
                    target_line,
                    rule: rule.to_string(),
                    used: false,
                });
            }
        }
    }
}

/// 1-based number of the first line after `i` that carries code (falls
/// back to the line after `i` when none exists, which then reports the
/// suppression as unused).
fn next_code_line(file: &SourceFile, i: usize) -> usize {
    file.lines
        .iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, l)| l.has_code())
        .map(|(j, _)| j + 1)
        .unwrap_or(i + 2)
}

/// Human-readable, diff-style report.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}\n   |  {}\n\n",
            f.severity.label(),
            f.rule,
            f.message,
            f.file,
            f.line,
            f.snippet
        ));
    }
    let (errors, warnings) = report.counts();
    if report.is_clean() {
        out.push_str(&format!(
            "adc-lint: clean — 0 findings in {} files; {} suppressions ({} line, {} file)\n",
            report.files_scanned,
            report.suppressions_total(),
            report.suppressions_line,
            report.suppressions_file
        ));
    } else {
        out.push_str(&format!(
            "adc-lint: {} findings ({} errors, {} warnings) in {} files; {} suppressions\n",
            report.findings.len(),
            errors,
            warnings,
            report.files_scanned,
            report.suppressions_total()
        ));
    }
    out.push_str(&format!(
        "{} rules in {:.1} ms\n",
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
        "  \"suppressions\": {{ \"total\": {}, \"line\": {}, \"file\": {} }},\n",
        report.suppressions_total(),
        report.suppressions_line,
        report.suppressions_file
    ));
    out.push_str(&format!(
        "  \"elapsed_ms\": {:.3},\n  \"engine_ms\": {:.3},\n",
        report.total_nanos as f64 / 1e6,
        report.engine_nanos as f64 / 1e6
    ));
    out.push_str("  \"by_rule\": {");
    for (i, s) in report.rule_stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {}: {{ \"findings\": {}, \"suppressions\": {}, \"wall_ms\": {:.3} }}",
            json_str(s.id),
            s.findings,
            s.suppressions,
            s.nanos as f64 / 1e6
        ));
    }
    out.push_str("\n  },\n");
    let (errors, warnings) = report.counts();
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {warnings},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {} }}",
            json_str(f.rule),
            json_str(f.severity.label()),
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
        let file = parse_source("crates/adc-core/src/x.rs", "adc-core", true, text);
        run_files(std::slice::from_ref(&file))
    }

    #[test]
    fn same_line_allow_suppresses() {
        let r = report_for(
            "struct S { c: RefCell<u64> } // invariant: one owner; adc-lint: allow(shard-safety)",
        );
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.suppressions_line, 1);
    }

    #[test]
    fn own_line_allow_applies_to_next_code_line() {
        let r = report_for(
            "// invariant: one owner\n// adc-lint: allow(shard-safety)\nstruct S { c: RefCell<u64> }",
        );
        assert!(r.is_clean(), "findings: {:?}", r.findings);
    }

    #[test]
    fn file_scope_allow_covers_all_lines() {
        let r = report_for(
            "// adc-lint: allow-file(shard-safety)\nstruct A { c: RefCell<u64> }\nstruct B { c: Cell<u64> }",
        );
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.suppressions_file, 1);
    }

    #[test]
    fn unused_allow_is_reported() {
        let r = report_for("// adc-lint: allow(shard-safety)\nfn t() {}\n");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let r = report_for("struct S { c: RefCell<u64> } // adc-lint: allow(shard-safty)");
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "unused-allow" && f.message.contains("unknown rule")));
    }

    #[test]
    fn allow_list_suppresses_multiple_rules() {
        let r = report_for(
            "pub enum SimEvent { A { x: u8 }, B { x: u8 }, C { x: u8 } }\n\
             fn all() -> [SimEvent; 3] { [SimEvent::A { x: 0 }, SimEvent::B { x: 0 }, SimEvent::C { x: 0 }] }\n\
             struct S { c: RefCell<u64> } // one owner; adc-lint: allow(shard-safety)\n\
             fn t(s: &mut S, e: SimEvent) { s.c = RefCell::new(0); match e { SimEvent::A { .. } => {} SimEvent::B { .. } => {} _ => {} } } // adc-lint: allow(shard-safety, probe-exhaustiveness)",
        );
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.suppressions_line, 3);
    }

    #[test]
    fn json_output_is_well_formed_for_empty_and_nonempty() {
        let clean = report_for("fn t() {}\n");
        let j = render_json(&clean);
        assert!(j.contains("\"findings\": []"));
        let dirty = report_for("struct S { c: RefCell<u64> }");
        let j = render_json(&dirty);
        assert!(j.contains("\"rule\": \"shard-safety\""));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn human_output_mentions_rule_and_location() {
        let dirty = report_for("struct S { c: RefCell<u64> }");
        let h = render_human(&dirty);
        assert!(h.contains("error[shard-safety]"));
        assert!(h.contains("crates/adc-core/src/x.rs:1"));
    }
}
