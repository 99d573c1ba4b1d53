//! Per-rule fixture tests: every rule has a negative fixture that must
//! trigger it and a positive fixture that must stay clean, plus
//! suppression-handling cases and an end-to-end workspace self-check
//! through the actual binary.

use adc_lint::scan::parse_source;
use adc_lint::{run_files, Report};
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
/// path matters for path-scoped rules (lossy-cast only fires on the
/// simulator hot-path files).
const CASES: &[(&str, &str, &str, &str, &str)] = &[
    (
        "determinism",
        "determinism_bad.rs",
        "determinism_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/fixture.rs",
    ),
    (
        "default-hasher",
        "default_hasher_bad.rs",
        "default_hasher_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    (
        "panic",
        "panic_bad.rs",
        "panic_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    (
        "index-comment",
        "index_comment_bad.rs",
        "index_comment_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    (
        "float-eq",
        "float_eq_bad.rs",
        "float_eq_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/fixture.rs",
    ),
    (
        "lossy-cast",
        "lossy_cast_bad.rs",
        "lossy_cast_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/queue.rs",
    ),
    (
        "obs-coverage",
        "obs_coverage_bad.rs",
        "obs_coverage_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    // The same rule also guards the profiler/span counter surface in
    // adc-sim and adc-obs, with its own fixtures.
    (
        "obs-coverage",
        "obs_coverage_profile_bad.rs",
        "obs_coverage_profile_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/fixture.rs",
    ),
    (
        "api-docs",
        "api_docs_bad.rs",
        "api_docs_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    (
        "shard-safety",
        "shard_safety_bad.rs",
        "shard_safety_ok.rs",
        "adc-sim",
        "crates/adc-sim/src/sharded.rs",
    ),
    (
        "no-println",
        "no_println_bad.rs",
        "no_println_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
    ),
    (
        "determinism-purity",
        "determinism_purity_bad.rs",
        "determinism_purity_ok.rs",
        "adc-core",
        "crates/adc-core/src/fixture.rs",
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
    let text = "// adc-lint: allow-file(panic)\n\
                pub fn a(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n\
                pub fn b(xs: &[u32]) -> u32 { *xs.last().unwrap() }\n";
    let report = run_files(&[parse_source(
        "crates/adc-core/src/x.rs",
        "adc-core",
        true,
        text,
    )]);
    let panics: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic")
        .collect();
    assert!(panics.is_empty(), "allow-file must cover both unwraps");
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
    let text = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = vec![1]; let _ = v.first().unwrap(); }\n}\n";
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
const SUPPRESSION_CEILINGS: &[(&str, usize)] = &[
    ("determinism", 11),
    ("default-hasher", 10),
    ("panic", 22),
    ("index-comment", 2),
    ("float-eq", 1),
    ("obs-coverage", 9),
    ("determinism-purity", 11),
    ("probe-exhaustiveness", 2),
];

/// Ceiling on the suppression total, line and file scope together.
const SUPPRESSION_TOTAL_CEILING: usize = 68;

/// The CI gate: the binary itself, run over this workspace in `--check`
/// mode, must exit 0, and no rule may carry more suppressions than its
/// ceiling.
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
        "pub fn f(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n",
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
    assert!(stdout.contains("\"rule\": \"panic\""), "json: {stdout}");
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

/// `--fix` removes stale allows, and a second run is the identity: the
/// doctored tree converges after one pass.
#[test]
fn fix_is_idempotent_on_a_doctored_tree() {
    let dir = std::env::temp_dir().join(format!("adc-lint-fix-{}", std::process::id()));
    let src = dir.join("crates/adc-core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    let lib = src.join("lib.rs");
    std::fs::write(
        &lib,
        "//! Doctored crate for the --fix test.\n\
         // adc-lint: allow-file(float-eq)\n\
         \n\
         /// Keeps its used allow, loses the stale one.\n\
         pub fn f(xs: &[u32]) -> u32 {\n\
         \x20   *xs.first().unwrap() // adc-lint: allow(panic, determinism)\n\
         }\n\
         \n\
         /// A comment-only stale directive above a clean line.\n\
         // adc-lint: allow(no-println)\n\
         pub fn g() -> u32 { 7 }\n",
    )
    .expect("write");
    let run_fix = || {
        Command::new(env!("CARGO_BIN_EXE_adc-lint"))
            .args(["--fix", "--root"])
            .arg(&dir)
            .output()
            .expect("run adc-lint --fix")
    };
    run_fix();
    let once = std::fs::read_to_string(&lib).expect("read after first fix");
    // Stale `determinism` is gone from the list, `panic` survives; the
    // stale file-scope and comment-only directives are gone entirely.
    assert!(once.contains("// adc-lint: allow(panic)"), "{once}");
    assert!(!once.contains("determinism"), "{once}");
    assert!(!once.contains("allow-file"), "{once}");
    assert!(!once.contains("no-println"), "{once}");
    let out = run_fix();
    let twice = std::fs::read_to_string(&lib).expect("read after second fix");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(once, twice, "--fix twice must equal --fix once");
    // The second run had nothing to remove.
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("removed"),
        "second --fix should be a no-op: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
