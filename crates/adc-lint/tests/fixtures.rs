//! Fixture tests for the one rule: a negative fixture that must trigger
//! each of its failure modes and a positive fixture that must stay
//! clean, plus an end-to-end
//! workspace self-check through the actual binary, which also ratchets
//! the workspace's `#[expect(...)]` lint suppressions.

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
/// runs the rule over it.
fn lint_fixture(name: &str, krate: &str, rel: &str) -> Report {
    let text = fixture(name);
    run_files(&[parse_source(rel, krate, true, &text)])
}

#[test]
fn positive_fixture_is_clean() {
    let report = lint_fixture(
        "atomic_ordering_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/pool.rs",
    );
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

/// Outside the two barrier-protocol files, and in test code inside
/// them, atomics are not audited.
#[test]
fn rule_is_scoped_to_library_code_of_the_audited_files() {
    let report = lint_fixture(
        "atomic_ordering_bad.rs",
        "adc-sim",
        "crates/adc-sim/src/config.rs",
    );
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    let text = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { HITS.fetch_add(1); }\n}\n";
    let report = run_files(&[parse_source(
        "crates/adc-sim/src/pool.rs",
        "adc-sim",
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

/// Per-lint ceilings on `#[expect(...)]` and `#![expect(...)]` sites in
/// library code, one count per lint an attribute names; lints not listed
/// allow none. Counts may fall, never rise: lower a ceiling when an
/// expectation goes away, and raise one only with the same review the
/// new expectation itself needs.
const EXPECT_CEILINGS: &[(&str, usize)] = &[
    ("clippy::cast_possible_truncation", 10),
    ("clippy::cast_precision_loss", 3),
    ("clippy::disallowed_methods", 8),
    ("clippy::disallowed_types", 21),
    ("clippy::expect_used", 14),
    ("clippy::indexing_slicing", 27),
    ("clippy::wildcard_enum_match_arm", 2),
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
/// mode, must exit 0, no lint may carry more `#[expect]` suppressions
/// than its ceiling, and every hot-path file keeps the clippy header
/// that holds its casts and indexes to a stated bound.
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
    let src = dir.join("crates/adc-sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(
        src.join("pool.rs"),
        "pub fn bump(c: &Ctl) { c.hits.fetch_add(1); }\n",
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
        stdout.contains("\"rule\": \"atomic-ordering\""),
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
