//! The rule set: one rule, `atomic-ordering`, which no compiler has.
//!
//! Wall clocks, environment reads, default-hasher maps, thread-local and
//! interior-mutable state, thread creation, wildcard event dispatch,
//! panics, float equality, lossy casts, indexing, prints and missing
//! docs are rustc and clippy lint levels (the crates' `lib.rs` headers
//! and the root `clippy.toml`; DESIGN.md §8).

use crate::lex::{lex, Tok, TokKind};
use crate::scan::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;

/// Static metadata for one rule.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
}

/// The full rule catalog.
pub const RULES: &[RuleInfo] = &[RuleInfo {
    id: "atomic-ordering",
    summary: "atomic op without an explicit Ordering, Relaxed without an `// ordering:` justification, or a Release publication with no matching Acquire load",
    scope: "adc-sim/src/pool.rs and adc-sim/src/sharded.rs (the barrier protocol)",
}];

/// Files on the simulator's per-event and per-window path. Each opens
/// with a `#![cfg_attr(not(test), deny(...))]` header for clippy's
/// lossy-cast and indexing lints, so every cast and index there states
/// its bound in an `#[expect]`; adc-lint's self-check asserts the
/// header.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/adc-sim/src/queue.rs",
    "crates/adc-sim/src/flows.rs",
    "crates/adc-sim/src/model.rs",
    "crates/adc-sim/src/runner.rs",
    "crates/adc-sim/src/sharded.rs",
    "crates/adc-core/src/tables/store.rs",
];

const ATOMIC_FILES: &[&str] = &[
    "crates/adc-sim/src/pool.rs",
    "crates/adc-sim/src/sharded.rs",
];
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic operation site.
struct AtomicSite<'f> {
    file: &'f SourceFile,
    line: usize,
    field: Option<String>,
    method: String,
    orderings: Vec<String>,
}

/// Whether a 1-based line of `file` is test-only: inside a
/// `#[cfg(test)]` region, or anywhere in an integration-test file.
fn is_test_line(file: &SourceFile, line: usize) -> bool {
    file.rel.contains("/tests/")
        || file
            .lines
            .get(line.saturating_sub(1))
            .is_some_and(|l| l.in_test)
}

/// Comment-stripped view of a token slice.
fn code_view(toks: &[Tok]) -> Vec<&Tok> {
    toks.iter().filter(|t| t.kind != TokKind::Comment).collect()
}

fn push(out: &mut Vec<Finding>, file: &SourceFile, line: usize, message: String) {
    out.push(Finding {
        rule: "atomic-ordering",
        file: file.rel.clone(),
        line,
        snippet: file.lines[line - 1].raw.trim().to_string(),
        message,
    });
}

/// atomic-ordering: every atomic op in the barrier-protocol files must
/// spell its Ordering; Relaxed needs an `// ordering:` justification
/// comment; every Release-or-stronger publication must have an
/// Acquire-or-stronger observer on the same field somewhere in the
/// audited files.
pub fn atomic_ordering(files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut sites: Vec<AtomicSite> = Vec::new();
    for file in files {
        if !ATOMIC_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        // Lexed from the per-line raw text the scanner kept, so
        // in-memory fixtures work identically to disk files.
        let text: Vec<&str> = file.lines.iter().map(|l| l.raw.as_str()).collect();
        let toks = lex(&text.join("\n"));
        let view = code_view(&toks);
        for k in 0..view.len() {
            let t = view[k];
            if t.kind != TokKind::Ident || !ATOMIC_METHODS.contains(&t.text.as_str()) {
                continue;
            }
            let dotted = k > 0 && view[k - 1].kind == TokKind::Punct && view[k - 1].text == ".";
            let called =
                matches!(view.get(k + 1), Some(n) if n.kind == TokKind::Punct && n.text == "(");
            if !dotted || !called || is_test_line(file, t.line) {
                continue;
            }
            let field = k
                .checked_sub(2)
                .map(|p| view[p])
                .filter(|p| p.kind == TokKind::Ident)
                .map(|p| p.text.clone());
            // Collect Ordering idents inside the balanced argument list.
            let mut nest = 0i32;
            let mut orderings = Vec::new();
            let mut j = k + 1;
            while let Some(a) = view.get(j) {
                if a.kind == TokKind::Punct {
                    match a.text.as_str() {
                        "(" | "[" | "{" => nest += 1,
                        ")" | "]" | "}" => {
                            nest -= 1;
                            if nest == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if a.kind == TokKind::Ident && ORDERINGS.contains(&a.text.as_str()) {
                    orderings.push(a.text.clone());
                }
                j += 1;
            }
            sites.push(AtomicSite {
                file,
                line: t.line,
                field,
                method: t.text.clone(),
                orderings,
            });
        }
    }

    // Field-level pairing, across both audited files together.
    let release_like = |o: &str| o == "Release" || o == "AcqRel" || o == "SeqCst";
    let acquire_like = |o: &str| o == "Acquire" || o == "AcqRel" || o == "SeqCst";
    let mut acquire_fields: BTreeSet<&str> = BTreeSet::new();
    for s in &sites {
        let observes = s.method != "store";
        if observes && s.orderings.iter().any(|o| acquire_like(o)) {
            if let Some(f) = &s.field {
                acquire_fields.insert(f);
            }
        }
    }

    for s in &sites {
        let name = s
            .field
            .as_deref()
            .map(|f| format!("{f}.{}", s.method))
            .unwrap_or_else(|| format!("<expr>.{}", s.method));
        if s.orderings.is_empty() {
            push(
                out,
                s.file,
                s.line,
                format!("atomic `{name}` without an explicit Ordering argument"),
            );
            continue;
        }
        if s.orderings.iter().any(|o| o == "Relaxed") && !has_ordering_comment(s.file, s.line) {
            push(
                out,
                s.file,
                s.line,
                format!(
                    "`{name}` uses Relaxed without an `// ordering:` justification comment \
                     on the line or within two lines above"
                ),
            );
        }
        let publishes = s.method != "load";
        if publishes && s.orderings.iter().any(|o| release_like(o)) {
            if let Some(f) = &s.field {
                if !acquire_fields.contains(f.as_str()) {
                    push(
                        out,
                        s.file,
                        s.line,
                        format!(
                            "Release publication on `{f}` has no Acquire-or-stronger load \
                             of the same field in the audited files"
                        ),
                    );
                }
            }
        }
    }
}

/// An `// ordering: ...` comment on the same line or within two lines
/// above justifies a Relaxed operation.
fn has_ordering_comment(file: &SourceFile, line: usize) -> bool {
    let i = line - 1;
    let lo = i.saturating_sub(2);
    file.lines[lo..=i.min(file.lines.len() - 1)]
        .iter()
        .any(|l| l.comment.contains("ordering:"))
}
