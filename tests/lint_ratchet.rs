//! Two source checks that no rustc or clippy lint makes, over the
//! library code of every workspace crate (`crates/*/src`, minus
//! `src/bin/` and `main.rs` files):
//!
//! * a ratchet on lint suppressions: per-lint ceilings on the
//!   `#[expect(...)]` and `#![expect(...)]` attributes;
//! * the hot-path header: each file on the simulator's per-event and
//!   per-window path denies clippy's lossy-cast and indexing lints
//!   outside tests, so every cast and index there states its bound in an
//!   `#[expect]` reason.
//!
//! Both read the source line by line; attributes are short and regular
//! enough that no lexer is needed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Per-lint ceilings on `#[expect(...)]` and `#![expect(...)]` sites in
/// library code, one count per lint an attribute names; lints not listed
/// allow none. Each ceiling equals today's count. Counts may fall, never
/// rise: lower a ceiling in the change that removes an expectation, and
/// raise one only with the same review the new expectation itself needs.
const EXPECT_CEILINGS: &[(&str, usize)] = &[
    ("clippy::cast_possible_truncation", 8),
    ("clippy::cast_precision_loss", 3),
    ("clippy::disallowed_methods", 8),
    ("clippy::disallowed_types", 16),
    ("clippy::expect_used", 10),
    ("clippy::indexing_slicing", 25),
    ("clippy::wildcard_enum_match_arm", 2),
    ("unsafe_code", 1),
];

/// Files on the simulator's per-event and per-window path. Each opens
/// with a `#![cfg_attr(not(test), deny(...))]` header naming
/// [`HOT_PATH_LINTS`].
const HOT_PATH_FILES: &[&str] = &[
    "crates/adc-sim/src/queue.rs",
    "crates/adc-sim/src/flows.rs",
    "crates/adc-sim/src/model.rs",
    "crates/adc-sim/src/runner.rs",
    "crates/adc-sim/src/sharded.rs",
    "crates/adc-core/src/tables/store.rs",
];

const HOT_PATH_LINTS: [&str; 5] = [
    "clippy::cast_possible_truncation",
    "clippy::cast_precision_loss",
    "clippy::cast_sign_loss",
    "clippy::cast_possible_wrap",
    "clippy::indexing_slicing",
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The library source files of every crate under `crates/`.
fn library_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in fs::read_dir(workspace_root().join("crates")).expect("read crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.retain(|f| {
        let rel = f
            .strip_prefix(workspace_root())
            .expect("under the workspace root");
        !rel.ends_with("main.rs") && !rel.components().any(|c| c.as_os_str() == "bin")
    });
    files.sort();
    files
}

/// Counts, per lint, the `#[expect(...)]` and `#![expect(...)]`
/// attributes in `text`: the lint paths listed before `reason` (or the
/// closing parenthesis), on the attribute's first line or the lines
/// after it. An attribute starts a line, so comments and string
/// literals never match.
fn count_expects(text: &str, counts: &mut BTreeMap<String, usize>) {
    let mut inside = false;
    for line in text.lines() {
        let line = line.trim();
        let rest = if inside {
            line
        } else if let Some(rest) = line
            .strip_prefix("#[expect(")
            .or_else(|| line.strip_prefix("#![expect("))
        {
            rest
        } else {
            continue;
        };
        let end = [rest.find("reason"), rest.find(')')]
            .into_iter()
            .flatten()
            .min();
        let lints = &rest[..end.unwrap_or(rest.len())];
        for lint in lints.split(',').map(str::trim).filter(|l| !l.is_empty()) {
            *counts.entry(lint.to_string()).or_default() += 1;
        }
        inside = end.is_none();
    }
}

#[test]
fn expect_suppressions_hold_their_ceilings() {
    let mut counts = BTreeMap::new();
    for file in library_files() {
        let text = fs::read_to_string(&file).unwrap_or_else(|e| panic!("read {file:?}: {e}"));
        count_expects(&text, &mut counts);
    }
    for (lint, &count) in &counts {
        let ceiling = EXPECT_CEILINGS
            .iter()
            .find(|(id, _)| id == lint)
            .map_or(0, |&(_, ceiling)| ceiling);
        assert!(
            count <= ceiling,
            "{count} #[expect({lint})] sites in library code, over the ceiling of {ceiling}"
        );
    }
    for &(lint, ceiling) in EXPECT_CEILINGS {
        let count = counts.get(lint).copied().unwrap_or(0);
        assert!(
            count >= ceiling,
            "{count} #[expect({lint})] sites in library code: lower its ceiling from \
             {ceiling} to {count}"
        );
    }
}

#[test]
fn hot_path_files_deny_lossy_casts_and_indexing() {
    for rel in HOT_PATH_FILES {
        let text = fs::read_to_string(workspace_root().join(rel))
            .unwrap_or_else(|e| panic!("read {rel}: {e}"));
        let header = text.split("\nuse ").next().unwrap_or_default();
        for lint in HOT_PATH_LINTS {
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
         const S: &str = \"#[expect(clippy::expect_used)]\";\n\
         #[expect(\n    clippy::cast_possible_truncation,\n    clippy::indexing_slicing,\n    \
         reason = \"a (parenthesized) reason, with commas\"\n)]\n\
         fn f() {}",
        &mut counts,
    );
    let got: Vec<(&str, usize)> = counts.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    assert_eq!(
        got,
        [
            ("clippy::cast_possible_truncation", 1),
            ("clippy::disallowed_methods", 1),
            ("clippy::disallowed_types", 1),
            ("clippy::indexing_slicing", 2),
            ("unsafe_code", 1),
        ]
    );
}
