//! Per-rule fixture tests: every rule has a negative fixture that must
//! trigger it and a positive fixture that must stay clean, plus
//! suppression-handling cases and an end-to-end workspace self-check
//! through the actual binary, which also ratchets the workspace's
//! `#[expect(...)]` lint suppressions.

use adc_lint::lex::{lex, TokKind};
use adc_lint::rules::HOT_PATH_FILES;
use adc_lint::scan::{parse_source, scan_workspace};
use adc_lint::{run_files, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses a fixture as if it lived at `rel` inside crate `krate` and
/// runs the full engine (rules + suppression resolution) over it.
fn lint_fixture(name: &str, krate: &str, rel: &str) -> Report {
    let text = fixture(name);
    run_files(&[parse_source(rel, krate, true, &text)])
}

fn rules_hit(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

/// (rule, negative fixture, positive fixture, crate, rel path). The rel
/// path matters for path-scoped rules (atomic-ordering only audits the
/// barrier-protocol files).
const CASES: &[(&str, &str, &str, &str, &str)] = &[
    (
        "shard-safety",
        "shard_safety_bad.rs",
        "shard_safety_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/sharded.rs",
    ),
    (
        "determinism-purity",
        "determinism_purity_bad.rs",
        "determinism_purity_ok.rs",
        "adc-obs",
        "crates/adc-obs/src/fixture.rs",
    ),
    (
        "atomic-ordering",
        "atomic_ordering_bad.rs",
        "atomic_ordering_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/pool.rs",
    ),
    (
        "probe-exhaustiveness",
        "probe_exhaustiveness_bad.rs",
        "probe_exhaustiveness_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    (
        "metric-name-drift",
        "metric_drift_bad.rs",
        "metric_drift_ok.rs",
        "adc-obs",
        "crates/adc-obs/src/fixture.rs",
    ),
    // The same rule also guards the span segment-name vocabulary
    // (`SEG_*` consts), flagging near-miss literals.
    (
        "metric-name-drift",
        "seg_drift_bad.rs",
        "seg_drift_ok.rs",
        "adc-obs",
        "crates/adc-obs/src/fixture.rs",
    ),
    (
        "unused-allow",
        "unused_allow_bad.rs",
        "suppression_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
];

#[test]
fn every_negative_fixture_triggers_its_rule() {
    for (rule, bad, _, krate, rel) in CASES {
        let report = lint_fixture(bad, krate, rel);
        assert!(
            rules_hit(&report).contains(rule),
            "{bad} should trigger `{rule}`, got {:?}",
            rules_hit(&report)
        );
        assert!(!report.is_clean(), "{bad} must fail --check");
    }
}

#[test]
fn every_positive_fixture_passes_its_rule() {
    for (rule, _, ok, krate, rel) in CASES {
        let report = lint_fixture(ok, krate, rel);
        assert!(
            !rules_hit(&report).contains(rule),
            "{ok} should not trigger `{rule}`, got findings {:?}",
            report.findings
        );
    }
}

#[test]
fn used_suppression_silences_and_counts() {
    let report = lint_fixture("suppression_ok.rs", "adc-core", "crates/adc-core/src/x.rs");
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressions_line, 1);
    assert_eq!(report.suppressions_file, 0);
}

#[test]
fn unused_suppression_is_itself_a_finding() {
    let report = lint_fixture(
        "unused_allow_bad.rs",
        "adc-core",
        "crates/adc-core/src/x.rs",
    );
    assert_eq!(rules_hit(&report), vec!["unused-allow"]);
}

#[test]
fn file_level_allow_covers_whole_file() {
    let text = "// adc-lint: allow-file(shard-safety)\n\
                pub struct A { c: std::cell::RefCell<u32> }\n\
                pub struct B { c: std::cell::Cell<u32> }\n";
    let report = run_files(&[parse_source(
        "crates/adc-core/src/x.rs",
        "adc-core",
        true,
        text,
    )]);
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "shard-safety")
        .collect();
    assert!(hits.is_empty(), "allow-file must cover both cells");
    assert_eq!(report.suppressions_file, 1);
}

#[test]
fn unknown_rule_in_allow_is_reported() {
    let text = "// adc-lint: allow(no-such-rule)\nfn f() {}\n";
    let report = run_files(&[parse_source(
        "crates/adc-core/src/x.rs",
        "adc-core",
        true,
        text,
    )]);
    assert_eq!(rules_hit(&report), vec!["unused-allow"]);
}

#[test]
fn test_code_is_exempt_from_line_rules() {
    let text = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let c = std::cell::RefCell::new(1); let _ = c.borrow(); }\n}\n";
    let report = run_files(&[parse_source(
        "crates/adc-core/src/x.rs",
        "adc-core",
        true,
        text,
    )]);
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Per-rule suppression ceilings for this workspace; rules not listed
/// allow none. Counts may fall, never rise: lower a ceiling when a
/// suppression goes away, and raise one only with the same review the
/// new suppression itself needs.
const SUPPRESSION_CEILINGS: &[(&str, usize)] = &[("probe-exhaustiveness", 2)];

/// Ceiling on the suppression total, line and file scope together.
const SUPPRESSION_TOTAL_CEILING: usize = 2;

/// Per-lint ceilings on `#[expect(...)]` and `#![expect(...)]` sites in
/// library code, one count per lint an attribute names; lints not listed
/// allow none. Same rule as the comment ceilings: counts may fall, never
/// rise without review.
const EXPECT_CEILINGS: &[(&str, usize)] = &[
    ("clippy::cast_possible_truncation", 14),
    ("clippy::cast_precision_loss", 3),
    ("clippy::disallowed_methods", 5),
    ("clippy::disallowed_types", 21),
    ("clippy::expect_used", 16),
    ("clippy::indexing_slicing", 32),
    ("unsafe_code", 1),
];

/// Counts, per lint, the `#[expect(...)]` and `#![expect(...)]`
/// attributes in `text`: the lint paths listed before `reason` (or the
/// closing parenthesis). Comments and string contents never match.
fn count_expects(text: &str, counts: &mut BTreeMap<String, usize>) {
    let toks: Vec<_> = lex(text)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let is = |i: usize, kind: TokKind, text: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == kind && t.text == text)
    };
    for i in 0..toks.len() {
        if !is(i, TokKind::Punct, "#") {
            continue;
        }
        let open = i + 1 + usize::from(is(i + 1, TokKind::Punct, "!"));
        if !(is(open, TokKind::Punct, "[")
            && is(open + 1, TokKind::Ident, "expect")
            && is(open + 2, TokKind::Punct, "("))
        {
            continue;
        }
        let mut lint = String::new();
        for t in &toks[open + 3..] {
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "reason") | (TokKind::Punct, ")") => break,
                (TokKind::Punct, ",") => {
                    *counts.entry(std::mem::take(&mut lint)).or_default() += 1;
                }
                (_, part) => lint.push_str(part),
            }
        }
        if !lint.is_empty() {
            *counts.entry(lint).or_default() += 1;
        }
    }
}

/// The CI gate: the binary itself, run over this workspace in `--check`
/// mode, must exit 0, and no rule may carry more suppressions than its
/// ceiling. The same holds for `#[expect]` lint suppressions, and every
/// hot-path file keeps the clippy header that holds its casts and
/// indexes to a stated bound.
#[test]
fn workspace_self_check_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_adc-lint"))
        .args(["--check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run adc-lint");
    assert!(
        out.status.success(),
        "workspace lint failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let report = adc_lint::run(&workspace_root()).expect("lint the workspace");
    assert!(
        report.suppressions_total() <= SUPPRESSION_TOTAL_CEILING,
        "{} suppressions exceed the ceiling of {SUPPRESSION_TOTAL_CEILING}",
        report.suppressions_total()
    );
    for stat in &report.rule_stats {
        let ceiling = SUPPRESSION_CEILINGS
            .iter()
            .find(|(id, _)| *id == stat.id)
            .map_or(0, |&(_, ceiling)| ceiling);
        assert!(
            stat.suppressions <= ceiling,
            "rule {} carries {} suppressions, over its ceiling of {ceiling}",
            stat.id,
            stat.suppressions
        );
    }

    let mut expects = BTreeMap::new();
    for file in scan_workspace(&workspace_root()).expect("scan the workspace") {
        if file.is_lib && file.krate != "adc-lint" {
            let text: Vec<&str> = file.lines.iter().map(|l| l.raw.as_str()).collect();
            count_expects(&text.join("\n"), &mut expects);
        }
    }
    for (lint, &count) in &expects {
        let ceiling = EXPECT_CEILINGS
            .iter()
            .find(|(id, _)| id == lint)
            .map_or(0, |&(_, ceiling)| ceiling);
        assert!(
            count <= ceiling,
            "{count} #[expect({lint})] sites in library code, over the ceiling of {ceiling}"
        );
    }

    for rel in HOT_PATH_FILES {
        let text = std::fs::read_to_string(workspace_root().join(rel)).expect("read hot-path file");
        let header = text.split("\nuse ").next().unwrap_or_default();
        for lint in [
            "clippy::cast_possible_truncation",
            "clippy::cast_precision_loss",
            "clippy::cast_sign_loss",
            "clippy::cast_possible_wrap",
            "clippy::indexing_slicing",
        ] {
            assert!(
                header.contains("#![cfg_attr(") && header.contains(lint),
                "hot-path file {rel} lost its `#![cfg_attr(not(test), deny({lint}, ...))]` header"
            );
        }
    }
}

#[test]
fn expect_counter_reads_lint_lists() {
    let mut counts = BTreeMap::new();
    count_expects(
        "#![expect(clippy::indexing_slicing, reason = \"x\")]\n\
         #[expect(clippy::disallowed_methods, clippy::disallowed_types, reason = \"y\")]\n\
         #[expect(unsafe_code)]\n\
         // #[expect(clippy::expect_used, reason = \"a comment\")]\n\
         #[allow(clippy::expect_used, reason = \"not an expectation\")]\n\
         const S: &str = \"#[expect(clippy::expect_used)]\";",
        &mut counts,
    );
    let got: Vec<(&str, usize)> = counts.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    assert_eq!(
        got,
        [
            ("clippy::disallowed_methods", 1),
            ("clippy::disallowed_types", 1),
            ("clippy::indexing_slicing", 1),
            ("unsafe_code", 1),
        ]
    );
}

/// A violating tree makes the binary exit non-zero in `--check` mode and
/// report the finding in `--json` output.
#[test]
fn check_mode_fails_on_violating_tree() {
    let dir = std::env::temp_dir().join(format!("adc-lint-fixture-{}", std::process::id()));
    let src = dir.join("crates/adc-core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(
        src.join("lib.rs"),
        "pub struct S { c: std::cell::RefCell<u32> }\n",
    )
    .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_adc-lint"))
        .args(["--check", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run adc-lint");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "expected check failure");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"rule\": \"shard-safety\""),
        "json: {stdout}"
    );
}

/// The atomic fixture exercises all three failure modes of the rule:
/// missing Ordering, unjustified Relaxed, unpaired Release.
#[test]
fn atomic_fixture_hits_all_three_failure_modes() {
    let report = lint_fixture(
        "atomic_ordering_bad.rs",
        "adc-sim",
        "crates/adc-sim/src/pool.rs",
    );
    let msgs: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "atomic-ordering")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(msgs.len(), 3, "findings: {msgs:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("without an explicit Ordering")));
    assert!(msgs.iter().any(|m| m.contains("Relaxed without")));
    assert!(msgs.iter().any(|m| m.contains("no Acquire-or-stronger")));
}

/// Inside the four deterministic crates clippy denies every purity sink
/// outright, so determinism-purity reports the same reachable clock only
/// where clippy does not: adc-obs and adc-metrics.
#[test]
fn purity_leaves_the_deterministic_crates_to_clippy() {
    for krate in ["adc-core", "adc-sim", "adc-workload", "adc-baselines"] {
        let report = lint_fixture(
            "determinism_purity_bad.rs",
            krate,
            &format!("crates/{krate}/src/fixture.rs"),
        );
        assert!(
            !rules_hit(&report).contains(&"determinism-purity"),
            "{krate}: {:?}",
            report.findings
        );
    }
    let report = lint_fixture(
        "determinism_purity_bad.rs",
        "adc-metrics",
        "crates/adc-metrics/src/fixture.rs",
    );
    assert!(rules_hit(&report).contains(&"determinism-purity"));
}
