//! The rule set: each rule pushes raw findings (suppression filtering
//! happens in the engine). Line rules run over one scanned file;
//! semantic rules run once over the whole set.
//!
//! Only rules no compiler has live here. Wall clocks, environment
//! reads, default-hasher maps, panics, float equality, lossy casts,
//! indexing, prints and missing docs are rustc and clippy lint levels
//! (the crates' `lib.rs` headers and the root `clippy.toml`; DESIGN.md
//! §8). Each rule's scope is in `RULES`.

use crate::callgraph::CallGraph;
use crate::index::WorkspaceIndex;
use crate::lex::{lex, Tok, TokKind};
use crate::scan::SourceFile;
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Static metadata for one rule.
pub struct RuleInfo {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    pub scope: &'static str,
}

/// The full rule catalog. `unused-allow` is engine-level (it fires on
/// suppressions, not source lines) but is listed here so `--list-rules`
/// and the JSON rule count describe the whole contract.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "shard-safety",
        severity: Severity::Error,
        summary: "static mut, thread locals, unsynchronized interior mutability, or (hot path only) per-window thread spawns in shard-parallel code",
        scope: "adc-core plus adc-sim hot path (code sharded workers may run concurrently)",
    },
    RuleInfo {
        id: "determinism-purity",
        severity: Severity::Error,
        summary: "fn transitively reachable from the simulation hot path reads wall clocks, env, or builds default-hasher maps",
        scope: "call chains from CacheAgent::on_*, Simulation::run*, and sharded.rs drains, across the deterministic crates plus adc-obs/adc-metrics; reports sinks in adc-obs/adc-metrics (clippy denies them in the deterministic crates)",
    },
    RuleInfo {
        id: "atomic-ordering",
        severity: Severity::Error,
        summary: "atomic op without an explicit Ordering, Relaxed without an `// ordering:` justification, or a Release publication with no matching Acquire load",
        scope: "adc-sim/src/pool.rs and adc-sim/src/sharded.rs (the barrier protocol)",
    },
    RuleInfo {
        id: "probe-exhaustiveness",
        severity: Severity::Error,
        summary: "SimEvent/EventKind match that hides variants behind a catch-all, or a SimEvent variant never constructed outside tests",
        scope: "library code in all scanned crates (matches); the event taxonomy declaration (constructions)",
    },
    RuleInfo {
        id: "metric-name-drift",
        severity: Severity::Error,
        summary: "adc_* metric family literal that matches no const-defined family name, or a near-miss of a SEG_*-defined span segment name",
        scope: "adc-obs, adc-net, adc-metrics — library, bin, and test code (tests must agree too)",
    },
    RuleInfo {
        id: "unused-allow",
        severity: Severity::Error,
        summary: "adc-lint suppression that matched no finding, or names an unknown rule",
        scope: "everywhere suppressions appear",
    },
];

/// Looks up a rule's metadata by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `id` names a known rule.
pub fn is_known_rule(id: &str) -> bool {
    rule_info(id).is_some()
}

/// The crates whose `lib.rs` denies clippy's `disallowed_methods` and
/// `disallowed_types` (the sinks listed in the root `clippy.toml`).
const DETERMINISTIC_CRATES: &[&str] = &["adc-core", "adc-sim", "adc-workload", "adc-baselines"];

/// Per-window hot-path files for the shard-safety rule. pool.rs is
/// deliberately absent: it is the one legitimate thread-creation site
/// (its workers persist for the whole run), while code listed here runs
/// once per barrier window and must never create OS threads. The table
/// store runs on every agent call. Each file also opens with a
/// `#![cfg_attr(not(test), deny(...))]` header for clippy's lossy-cast
/// and indexing lints; adc-lint's self-check asserts it.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/adc-sim/src/queue.rs",
    "crates/adc-sim/src/flows.rs",
    "crates/adc-sim/src/model.rs",
    "crates/adc-sim/src/runner.rs",
    "crates/adc-sim/src/sharded.rs",
    "crates/adc-core/src/tables/store.rs",
];

/// A line-oriented rule: a predicate over one file's line model.
pub type LineRule = fn(&SourceFile, &mut Vec<Finding>);

/// A token/symbol-level rule: runs once over the whole scanned set.
pub type SemanticRule = fn(&SemanticCtx, &mut Vec<Finding>);

/// The line-oriented rules, in catalog order, keyed by id so the
/// engine can time and count them individually.
pub const LINE_RULES: &[(&str, LineRule)] = &[("shard-safety", shard_safety)];

/// The token/symbol-level rules: each runs once over the whole scanned
/// set (they need cross-file context — a call graph, an enum universe,
/// a canonical name set).
pub const SEMANTIC_RULES: &[(&str, SemanticRule)] = &[
    ("determinism-purity", determinism_purity),
    ("atomic-ordering", atomic_ordering),
    ("probe-exhaustiveness", probe_exhaustiveness),
    ("metric-name-drift", metric_name_drift),
];

/// Runs every line rule against one file (the semantic rules need a
/// [`SemanticCtx`] and run once per file *set*, not per file).
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    for (_, rule) in LINE_RULES {
        rule(file, out);
    }
}

/// Cross-file context the semantic rules share: the scanned files, the
/// token stream of each, and the symbol index over them.
pub struct SemanticCtx<'a> {
    pub files: &'a [SourceFile],
    pub lexed: &'a [Vec<Tok>],
    pub index: &'a WorkspaceIndex,
}

impl<'a> SemanticCtx<'a> {
    /// Lexes every scanned file (from the per-line raw text the scanner
    /// kept, so in-memory fixtures work identically to disk files).
    pub fn lex_files(files: &[SourceFile]) -> Vec<Vec<Tok>> {
        files
            .iter()
            .map(|f| {
                let text: Vec<&str> = f.lines.iter().map(|l| l.raw.as_str()).collect();
                lex(&text.join("\n"))
            })
            .collect()
    }

    /// Builds the symbol index for the lexed set.
    pub fn build_index(files: &[SourceFile], lexed: &[Vec<Tok>]) -> WorkspaceIndex {
        WorkspaceIndex::build(lexed, &|fi, line| is_test_line(&files[fi], line))
    }

    fn in_test(&self, fi: usize, line: usize) -> bool {
        is_test_line(&self.files[fi], line)
    }
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

fn push(
    out: &mut Vec<Finding>,
    rule: &'static str,
    file: &SourceFile,
    idx: usize,
    message: String,
) {
    let info = rule_info(rule).unwrap_or(&RULES[0]);
    out.push(Finding {
        rule,
        severity: info.severity,
        file: file.rel.clone(),
        line: idx + 1,
        snippet: file.lines[idx].raw.trim().to_string(),
        message,
    });
}

/// Token search with identifier boundaries on both sides (`::` is not a
/// boundary on the left, so fully-qualified paths still match).
fn contains_token(code: &str, tok: &str) -> bool {
    let mut start = 0;
    while let Some(p) = code[start..].find(tok) {
        let at = start + p;
        let before_ok = code[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = code[at + tok.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + tok.len();
    }
    false
}

fn is_hot_path(file: &SourceFile) -> bool {
    HOT_PATH_FILES.contains(&file.rel.as_str())
}

/// Shared-state constructs the sharded executor's `Send` contract cannot
/// see: `static mut` and thread locals are process-global state that
/// aliases across worker shards, and unsynchronized interior mutability
/// (`Cell`/`RefCell`/`UnsafeCell`) silently defeats the `&mut`-per-shard
/// ownership discipline the barrier protocol relies on. `Mutex`/atomics
/// are fine — they synchronize — so they are not listed.
///
/// Hot-path files additionally may not create OS threads: the code there
/// runs once per barrier window, so a `spawn`/`thread::scope` is a
/// per-window spawn storm — exactly the overhead the persistent worker
/// pool removed. `adc-sim/src/pool.rs` is deliberately *not* a hot-path
/// file: it is the one legitimate spawn site (threads live for the whole
/// run there, amortized across every window).
fn shard_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    let core_scope = file.is_lib && file.krate == "adc-core";
    if !(core_scope || is_hot_path(file)) {
        return;
    }
    const TOKENS: &[(&str, &str)] = &[
        ("static mut", "mutable process-global state"),
        (
            "thread_local!",
            "per-OS-thread state (shard-count dependent)",
        ),
        ("RefCell", "unsynchronized interior mutability"),
        ("Cell", "unsynchronized interior mutability"),
        ("UnsafeCell", "unsynchronized interior mutability"),
    ];
    const SPAWN_TOKENS: &[(&str, &str)] = &[
        ("spawn", "per-window OS-thread creation"),
        ("thread::scope", "per-window scoped-thread creation"),
    ];
    let spawn_tokens: &[(&str, &str)] = if is_hot_path(file) { SPAWN_TOKENS } else { &[] };
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (tok, what) in TOKENS.iter().chain(spawn_tokens) {
            if contains_token(&line.code, tok) {
                let advice = if spawn_tokens.iter().any(|(t, _)| t == tok) {
                    "dispatch windows through the persistent worker pool \
                     (adc-sim's pool module) instead of creating threads per window"
                } else {
                    "keep state per-shard or synchronize it (Mutex/atomics)"
                };
                push(
                    out,
                    "shard-safety",
                    file,
                    i,
                    format!(
                        "{what} (`{tok}`) in code sharded workers may run concurrently; {advice}"
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Semantic rules (token/symbol level, cross-file).
// ---------------------------------------------------------------------

/// Crates whose code the simulation hot path can actually reach (the
/// dependency direction makes adc-bench/adc-net/bins unreachable from
/// sim code, so resolving into them would only add false chains).
const PURITY_CRATES: &[&str] = &[
    "adc-core",
    "adc-sim",
    "adc-workload",
    "adc-baselines",
    "adc-obs",
    "adc-metrics",
];

/// A sink pattern: consecutive non-comment tokens, where `::` matches
/// the path separator and everything else an exact identifier.
const PURITY_SINKS: &[(&[&str], &str)] = &[
    (
        &["Instant", "::", "now"],
        "wall-clock read (`Instant::now`)",
    ),
    (&["SystemTime"], "wall-clock read (`SystemTime`)"),
    (&["clock_gettime"], "OS clock read (`clock_gettime`)"),
    (&["RandomState"], "randomized hasher state (`RandomState`)"),
    (&["env", "::", "var"], "environment read (`env::var`)"),
    (&["env", "::", "var_os"], "environment read (`env::var_os`)"),
    (&["env", "::", "args"], "environment read (`env::args`)"),
    (
        &["HashMap", "::", "new"],
        "default-hasher map (`HashMap::new`)",
    ),
    (
        &["HashMap", "::", "with_capacity"],
        "default-hasher map (`HashMap::with_capacity`)",
    ),
    (
        &["HashMap", "::", "default"],
        "default-hasher map (`HashMap::default`)",
    ),
    (
        &["HashSet", "::", "new"],
        "default-hasher set (`HashSet::new`)",
    ),
    (
        &["HashSet", "::", "with_capacity"],
        "default-hasher set (`HashSet::with_capacity`)",
    ),
    (
        &["HashSet", "::", "default"],
        "default-hasher set (`HashSet::default`)",
    ),
];

/// Matches one sink pattern at position `k` of a code view.
fn sink_at<'v>(view: &[&'v Tok], k: usize) -> Option<(&'v Tok, &'static str)> {
    'pattern: for (pat, what) in PURITY_SINKS {
        for (off, want) in pat.iter().enumerate() {
            let Some(t) = view.get(k + off) else {
                continue 'pattern;
            };
            let ok = if *want == "::" {
                t.kind == TokKind::Punct && t.text == "::"
            } else {
                t.kind == TokKind::Ident && t.text == *want
            };
            if !ok {
                continue 'pattern;
            }
        }
        return Some((view[k], what));
    }
    None
}

/// Display label for a fn: `Type::name` when it sits in an impl.
fn fn_label(f: &crate::index::FnItem) -> String {
    match &f.qual {
        Some(q) => format!("{q}::{}", f.name),
        None => f.name.clone(),
    }
}

/// determinism-purity: BFS over the call graph from the hot-path roots;
/// any reachable fn containing a purity sink is flagged at the sink
/// line, with one concrete call chain in the message. Chains run through
/// every purity crate, but sinks inside the deterministic crates are left
/// to clippy, which denies them there whether reachable or not.
fn determinism_purity(ctx: &SemanticCtx, out: &mut Vec<Finding>) {
    let files = ctx.files;
    let crate_of = |fi: usize| files[fi].krate.clone();
    let graph = CallGraph::build(ctx.index, ctx.lexed, &crate_of, PURITY_CRATES);

    let mut roots = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || !PURITY_CRATES.contains(&files[f.file].krate.as_str()) {
            continue;
        }
        let sharded_drain = files[f.file].rel == "crates/adc-sim/src/sharded.rs"
            && (f.name.starts_with("drain")
                || f.name == "run_window"
                || f.name.starts_with("run_sharded"));
        let agent_hook = f.trait_name.as_deref() == Some("CacheAgent") && f.name.starts_with("on_");
        let sim_run = f.qual.as_deref() == Some("Simulation") && f.name.starts_with("run");
        if sharded_drain || agent_hook || sim_run {
            roots.push(i);
        }
    }
    let reached = graph.reach(&roots);

    // One finding per sink line; the first discovered chain wins.
    let mut flagged: BTreeMap<(usize, usize), (String, &'static str)> = BTreeMap::new();
    for &i in reached.keys() {
        let f = graph.fns[i];
        if f.is_test || DETERMINISTIC_CRATES.contains(&files[f.file].krate.as_str()) {
            continue;
        }
        let Some((from, to)) = f.body else {
            continue;
        };
        let toks = &ctx.lexed[f.file];
        let view = code_view(&toks[from.min(toks.len())..to.min(toks.len())]);
        for k in 0..view.len() {
            let Some((tok, what)) = sink_at(&view, k) else {
                continue;
            };
            if ctx.in_test(f.file, tok.line) {
                continue;
            }
            flagged.entry((f.file, tok.line)).or_insert_with(|| {
                // Walk parent pointers back to a root.
                let mut chain = vec![fn_label(f)];
                let mut at = i;
                while let Some(Some((p, _))) = reached.get(&at) {
                    chain.push(fn_label(graph.fns[*p]));
                    at = *p;
                }
                chain.reverse();
                (chain.join(" -> "), what)
            });
        }
    }
    for ((fi, line), (chain, what)) in flagged {
        push(
            out,
            "determinism-purity",
            &files[fi],
            line - 1,
            format!(
                "{what} is reachable from the simulation hot path (chain: {chain}); \
                 keep the chain pure or justify with an allow"
            ),
        );
    }
}

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
struct AtomicSite {
    file: usize,
    line: usize,
    field: Option<String>,
    method: String,
    orderings: Vec<String>,
}

/// atomic-ordering: every atomic op in the barrier-protocol files must
/// spell its Ordering; Relaxed needs an `// ordering:` justification
/// comment; every Release-or-stronger publication must have an
/// Acquire-or-stronger observer on the same field somewhere in the
/// audited files.
fn atomic_ordering(ctx: &SemanticCtx, out: &mut Vec<Finding>) {
    let mut sites: Vec<AtomicSite> = Vec::new();
    for (fi, file) in ctx.files.iter().enumerate() {
        if !ATOMIC_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        let view = code_view(&ctx.lexed[fi]);
        for k in 0..view.len() {
            let t = view[k];
            if t.kind != TokKind::Ident || !ATOMIC_METHODS.contains(&t.text.as_str()) {
                continue;
            }
            let dotted = k > 0 && view[k - 1].kind == TokKind::Punct && view[k - 1].text == ".";
            let called =
                matches!(view.get(k + 1), Some(n) if n.kind == TokKind::Punct && n.text == "(");
            if !dotted || !called || ctx.in_test(fi, t.line) {
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
                file: fi,
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
        let file = &ctx.files[s.file];
        let name = s
            .field
            .as_deref()
            .map(|f| format!("{f}.{}", s.method))
            .unwrap_or_else(|| format!("<expr>.{}", s.method));
        if s.orderings.is_empty() {
            push(
                out,
                "atomic-ordering",
                file,
                s.line - 1,
                format!("atomic `{name}` without an explicit Ordering argument"),
            );
            continue;
        }
        if s.orderings.iter().any(|o| o == "Relaxed") && !has_ordering_comment(file, s.line) {
            push(
                out,
                "atomic-ordering",
                file,
                s.line - 1,
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
                        "atomic-ordering",
                        file,
                        s.line - 1,
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

/// probe-exhaustiveness: (a) a `match` that names two or more
/// `SimEvent::`/`EventKind::` variants is an event dispatch and must
/// cover the whole taxonomy — anything hidden behind `_` or a binding
/// arm is how new events get silently dropped; (b) every `SimEvent`
/// variant must be constructed at least once outside test code, so the
/// taxonomy can't drift ahead of the simulator that feeds it.
fn probe_exhaustiveness(ctx: &SemanticCtx, out: &mut Vec<Finding>) {
    for enum_name in ["SimEvent", "EventKind"] {
        let Some((decl_fi, decl)) = find_enum(ctx, enum_name) else {
            continue;
        };
        let universe: BTreeSet<&str> = decl.variants.iter().map(|(v, _)| v.as_str()).collect();
        if universe.len() < 2 {
            continue;
        }
        let mut constructed: BTreeSet<&str> = BTreeSet::new();
        for (fi, file) in ctx.files.iter().enumerate() {
            if !file.is_lib {
                continue;
            }
            let view = code_view(&ctx.lexed[fi]);
            check_event_matches(ctx, fi, &view, enum_name, &universe, out);
            if enum_name == "SimEvent" {
                collect_constructions(ctx, fi, &view, enum_name, &mut constructed);
            }
        }
        if enum_name == "SimEvent" {
            for (v, line) in &decl.variants {
                if !constructed.contains(v.as_str()) {
                    push(
                        out,
                        "probe-exhaustiveness",
                        &ctx.files[decl_fi],
                        line - 1,
                        format!(
                            "`{enum_name}::{v}` is never constructed outside #[cfg(test)]; \
                             emit it from the simulator or retire the variant"
                        ),
                    );
                }
            }
        }
    }
}

/// First `enum <name>` declared in library code.
fn find_enum<'a>(ctx: &'a SemanticCtx, name: &str) -> Option<(usize, &'a crate::index::EnumItem)> {
    for (fi, file) in ctx.index.files.iter().enumerate() {
        if !ctx.files[fi].is_lib {
            continue;
        }
        if let Some(e) = file.enums.iter().find(|e| e.name == name) {
            return Some((fi, e));
        }
    }
    None
}

/// Flags non-exhaustive `match`es over `enum_name` in one file.
fn check_event_matches(
    ctx: &SemanticCtx,
    fi: usize,
    view: &[&Tok],
    enum_name: &str,
    universe: &BTreeSet<&str>,
    out: &mut Vec<Finding>,
) {
    let mut k = 0;
    while k < view.len() {
        let t = view[k];
        if t.kind != TokKind::Ident || t.text != "match" || ctx.in_test(fi, t.line) {
            k += 1;
            continue;
        }
        // Find the match-body `{`: first brace outside any bracket nest
        // in the scrutinee.
        let mut nest = 0i32;
        let mut open = None;
        let mut j = k + 1;
        while let Some(a) = view.get(j) {
            if a.kind == TokKind::Punct {
                match a.text.as_str() {
                    "(" | "[" => nest += 1,
                    ")" | "]" => nest -= 1,
                    "{" if nest == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if nest == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            k += 1;
            continue;
        };
        // Walk the balanced body, collecting variant mentions that sit
        // in *pattern position*: between an arm boundary and that arm's
        // `=>` at arm depth. Constructions inside arm bodies must not
        // count — a `match self.parent { .. }` whose arms *emit* events
        // is not a dispatch on the event enum.
        let mut depth = 1i32;
        let mut in_pattern = true;
        let mut mentioned: BTreeSet<String> = BTreeSet::new();
        let mut j = open + 1;
        while let Some(a) = view.get(j) {
            if a.kind == TokKind::Punct {
                match a.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                        // A block-bodied arm just closed: back to patterns.
                        if depth == 1 && !in_pattern && a.text == "}" {
                            in_pattern = true;
                        }
                    }
                    "=>" if depth == 1 => in_pattern = false,
                    "," if depth == 1 && !in_pattern => in_pattern = true,
                    _ => {}
                }
            }
            if in_pattern
                && a.kind == TokKind::Ident
                && a.text == enum_name
                && matches!(view.get(j + 1), Some(p) if p.kind == TokKind::Punct && p.text == "::")
            {
                if let Some(v) = view.get(j + 2) {
                    if v.kind == TokKind::Ident && universe.contains(v.text.as_str()) {
                        mentioned.insert(v.text.clone());
                    }
                }
            }
            j += 1;
        }
        if mentioned.len() >= 2 && mentioned.len() < universe.len() {
            let missing: Vec<&str> = universe
                .iter()
                .copied()
                .filter(|v| !mentioned.contains(*v))
                .collect();
            push(
                out,
                "probe-exhaustiveness",
                &ctx.files[fi],
                t.line - 1,
                format!(
                    "match dispatches on {enum_name} but covers only {} of {} variants \
                     (missing: {}); handle every variant so new events cannot be \
                     silently dropped",
                    mentioned.len(),
                    universe.len(),
                    missing.join(", ")
                ),
            );
        }
        k = j + 1;
    }
}

/// Records which variants of `enum_name` are *constructed* (expression
/// position) in one file, outside test code. `Enum::V { ... }` followed
/// by `=>` or `=` is a pattern, and a brace group containing `..` is a
/// pattern; everything else counts as a construction.
fn collect_constructions<'a>(
    ctx: &SemanticCtx<'a>,
    fi: usize,
    view: &[&'a Tok],
    enum_name: &str,
    constructed: &mut BTreeSet<&'a str>,
) {
    for k in 0..view.len() {
        let t = view[k];
        if t.kind != TokKind::Ident || t.text != enum_name || ctx.in_test(fi, t.line) {
            continue;
        }
        if !matches!(view.get(k + 1), Some(p) if p.kind == TokKind::Punct && p.text == "::") {
            continue;
        }
        let Some(v) = view.get(k + 2) else { continue };
        if v.kind != TokKind::Ident {
            continue;
        }
        let Some(b) = view.get(k + 3) else { continue };
        if b.kind != TokKind::Punct || b.text != "{" {
            continue;
        }
        // Walk the brace group; `..` inside makes it a rest pattern.
        let mut nest = 0i32;
        let mut j = k + 3;
        let mut has_rest = false;
        while let Some(a) = view.get(j) {
            if a.kind == TokKind::Punct {
                match a.text.as_str() {
                    "{" | "(" | "[" => nest += 1,
                    "}" | ")" | "]" => {
                        nest -= 1;
                        if nest == 0 {
                            break;
                        }
                    }
                    "." if nest == 1
                        && matches!(view.get(j + 1), Some(n) if n.kind == TokKind::Punct && n.text == ".") =>
                    {
                        has_rest = true;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let after = view.get(j + 1);
        let is_pattern = has_rest
            || matches!(after, Some(a) if a.kind == TokKind::Punct && (a.text == "=>" || a.text == "=" || a.text == "|"));
        if !is_pattern {
            constructed.insert(v.text.as_str());
        }
    }
}

/// Crates whose metric family names must agree (the simulator-side
/// registry, the network node renderer, and the tests that pin both).
const METRIC_CRATES: &[&str] = &["adc-obs", "adc-net", "adc-metrics"];

/// metric-name-drift: every `adc_*` string literal in the metric crates
/// must (after stripping Prometheus histogram suffixes and label text)
/// match a family name defined in a `const`/`static` initializer.
/// Test code is deliberately *in* scope: the tests pinning rendered
/// output are exactly where drift hides.
fn metric_name_drift(ctx: &SemanticCtx, out: &mut Vec<Finding>) {
    let mut canonical: BTreeSet<String> = BTreeSet::new();
    for (fi, file) in ctx.files.iter().enumerate() {
        if !METRIC_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        for c in &ctx.index.files[fi].consts {
            let (from, to) = c.value;
            for t in &ctx.lexed[fi][from.min(ctx.lexed[fi].len())..to.min(ctx.lexed[fi].len())] {
                if t.kind == TokKind::Str && t.text.starts_with("adc_") {
                    canonical.insert(t.text.clone());
                }
            }
        }
    }
    for (fi, file) in ctx.files.iter().enumerate() {
        if !METRIC_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        let const_ranges = &ctx.index.files[fi].consts;
        for (ti, t) in ctx.lexed[fi].iter().enumerate() {
            if t.kind != TokKind::Str || !t.text.starts_with("adc_") {
                continue;
            }
            if const_ranges
                .iter()
                .any(|c| ti >= c.value.0 && ti < c.value.1)
            {
                continue;
            }
            let family = normalize_family(&t.text);
            if family.len() < "adc_x".len() || canonical.contains(family) {
                continue;
            }
            push(
                out,
                "metric-name-drift",
                file,
                t.line - 1,
                format!(
                    "metric family `{family}` matches no const-defined family name; \
                     define it as a const next to the other families (or fix the typo)"
                ),
            );
        }
    }

    // Span segment names ride the same contract: the `SEG_*` consts
    // (adc-obs `segment_names`) are the canonical vocabulary shared by
    // the span recorder, the network tracer, and every test pinning a
    // latency table. Unlike metric families they carry no `adc_`
    // prefix, so exact-match scanning would drown in ordinary strings;
    // instead only *near-misses* are flagged — a snake_case literal
    // within edit distance 2 of a canonical segment name that isn't
    // one. That is precisely the typo shape ("forward_hops",
    // "orign_fetch") that silently empties a report column.
    let mut segments: BTreeSet<String> = BTreeSet::new();
    for (fi, file) in ctx.files.iter().enumerate() {
        if !SEGMENT_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        for c in &ctx.index.files[fi].consts {
            if !c.name.starts_with("SEG_") {
                continue;
            }
            let (from, to) = c.value;
            for t in &ctx.lexed[fi][from.min(ctx.lexed[fi].len())..to.min(ctx.lexed[fi].len())] {
                if t.kind == TokKind::Str && !t.text.is_empty() {
                    segments.insert(t.text.clone());
                }
            }
        }
    }
    if segments.is_empty() {
        return;
    }
    for (fi, file) in ctx.files.iter().enumerate() {
        if !SEGMENT_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        let const_ranges = &ctx.index.files[fi].consts;
        for (ti, t) in ctx.lexed[fi].iter().enumerate() {
            if t.kind != TokKind::Str {
                continue;
            }
            if const_ranges
                .iter()
                .any(|c| ti >= c.value.0 && ti < c.value.1)
            {
                continue;
            }
            let head = snake_head(&t.text);
            if head.len() < 5 || segments.contains(head) {
                continue;
            }
            if let Some(canon) = segments.iter().find(|c| edit_distance_within(head, c, 2)) {
                push(
                    out,
                    "metric-name-drift",
                    file,
                    t.line - 1,
                    format!(
                        "segment name `{head}` is a near-miss of the canonical `{canon}`; \
                         use the `SEG_*` const (or fix the typo)"
                    ),
                );
            }
        }
    }
}

/// Crates that render or pin span segment names (the `SEG_*` consts
/// live in adc-obs; adc-net stamps them onto wire spans).
const SEGMENT_CRATES: &[&str] = &["adc-obs", "adc-net"];

/// The leading `[a-z_]` run of a literal: segment names embedded in
/// format strings ("forward_hop {v}") normalize to the bare name, and
/// literals that don't *start* snake_case (JSON fragments, label text)
/// normalize to something short enough to be skipped.
fn snake_head(lit: &str) -> &str {
    let cut = lit
        .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
        .unwrap_or(lit.len());
    &lit[..cut]
}

/// Whether the Levenshtein distance between `a` and `b` is at most
/// `max`. Plain DP — the inputs are segment-name sized.
fn edit_distance_within(a: &str, b: &str, max: usize) -> bool {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max {
        return false;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()] <= max
}

/// Truncates a literal to its family name: cut at the first label
/// brace, space, or escape, then strip Prometheus histogram suffixes.
fn normalize_family(lit: &str) -> &str {
    let cut = lit.find(['{', ' ', '\\', '\n', '"']).unwrap_or(lit.len());
    let head = &lit[..cut];
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = head.strip_suffix(suffix) {
            if stripped.starts_with("adc_") {
                return stripped;
            }
        }
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_source;

    fn findings(krate: &str, rel: &str, text: &str) -> Vec<Finding> {
        let file = parse_source(rel, krate, true, text);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        out
    }

    fn lib(krate: &str, text: &str) -> Vec<Finding> {
        findings(krate, &format!("crates/{krate}/src/lib.rs"), text)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn edit_distance_bound_is_exact() {
        assert!(edit_distance_within("forward_hops", "forward_hop", 2));
        assert!(edit_distance_within("orign_fetch", "origin_fetch", 2));
        assert!(edit_distance_within("same", "same", 0));
        assert!(!edit_distance_within("attributed_us", "origin_fetch", 2));
        assert!(!edit_distance_within("client_wait", "forward_hop", 2));
    }

    #[test]
    fn snake_head_strips_format_tails() {
        assert_eq!(snake_head("forward_hop {v}\n"), "forward_hop");
        assert_eq!(snake_head("client_wait"), "client_wait");
        assert_eq!(snake_head("{\"trace_id\":1}"), "");
        assert_eq!(snake_head("Total"), "");
    }

    #[test]
    fn shard_safety_catches_unsynchronized_shared_state() {
        for bad in [
            "static mut COUNTER: u64 = 0;",
            "thread_local! { static S: u64 = 0; }",
            "struct S { c: std::cell::Cell<u64> }",
            "struct S { c: RefCell<Vec<u64>> }",
            "struct S { c: UnsafeCell<u64> }",
        ] {
            let f = lib("adc-core", bad);
            assert!(rules_of(&f).contains(&"shard-safety"), "should flag: {bad}");
        }
    }

    #[test]
    fn shard_safety_allows_synchronized_and_owned_state() {
        for ok in [
            "struct S { c: std::sync::Mutex<u64> }",
            "struct S { c: AtomicU64 }",
            "struct MyCellar { c: u64 }",
            "struct S { c: OnceCell<u64> }",
            "fn cellmate() {}",
        ] {
            let f = lib("adc-core", ok);
            assert!(
                !rules_of(&f).contains(&"shard-safety"),
                "should not flag: {ok}"
            );
        }
    }

    #[test]
    fn shard_safety_flags_per_window_spawns_on_the_hot_path_only() {
        for bad in [
            "fn run() { std::thread::spawn(|| work()); }",
            "fn run(s: &Scope) { s.spawn(|| work()); }",
            "fn run() { thread::scope(|s| drain(s)); }",
        ] {
            let f = findings("adc-sim", "crates/adc-sim/src/sharded.rs", bad);
            assert!(rules_of(&f).contains(&"shard-safety"), "should flag: {bad}");
        }
        // pool.rs is the one legitimate spawn site, and identifiers that
        // merely contain the token (the pool_spawns telemetry counter)
        // never match.
        let pool = findings(
            "adc-sim",
            "crates/adc-sim/src/pool.rs",
            "fn run(s: &Scope) { s.spawn(|| worker_loop()); }",
        );
        assert!(!rules_of(&pool).contains(&"shard-safety"));
        let counter = findings(
            "adc-sim",
            "crates/adc-sim/src/sharded.rs",
            "fn f(e: &mut Stats) { e.pool_spawns += 1; }",
        );
        assert!(!rules_of(&counter).contains(&"shard-safety"));
        // Spawn tokens are hot-path-only: adc-core has no executor and
        // may use threads however it likes (it doesn't).
        let core = lib("adc-core", "fn run() { std::thread::spawn(|| work()); }");
        assert!(!rules_of(&core).contains(&"shard-safety"));
    }

    #[test]
    fn shard_safety_scope_is_core_plus_hot_path() {
        let hot = findings(
            "adc-sim",
            "crates/adc-sim/src/sharded.rs",
            "static mut COUNTER: u64 = 0;",
        );
        assert!(rules_of(&hot).contains(&"shard-safety"));
        // Coordinator-only and post-processing code may use whatever the
        // borrow checker allows.
        let cold = findings(
            "adc-sim",
            "crates/adc-sim/src/config.rs",
            "struct S { c: RefCell<u64> }",
        );
        assert!(!rules_of(&cold).contains(&"shard-safety"));
        let obs = lib("adc-obs", "struct S { c: RefCell<u64> }");
        assert!(!rules_of(&obs).contains(&"shard-safety"));
    }

    #[test]
    fn bin_files_are_out_of_scope() {
        // Both line rules would flag this in adc-core library code.
        let file = parse_source(
            "crates/adc-core/src/bin/tool.rs",
            "adc-core",
            false,
            "struct S { c: RefCell<u64> }\nfn main() { s.stats.hits += 1; }",
        );
        let mut out = Vec::new();
        check_file(&file, &mut out);
        assert!(out.is_empty());
    }
}
