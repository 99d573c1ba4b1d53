//! Differential and property tests for the token lexer.
//!
//! The v1 line scanner (`scan::parse_source`) and the v2 lexer
//! (`lex::lex`) classify the same byte stream independently — the
//! scanner into per-line code/comment views, the lexer into spanned
//! tokens. The differential test pins them to each other over both
//! rule fixtures and every workspace file the lint scans; the property
//! test drives the lexer over generated
//! Rust-ish snippets with a deterministic PRNG (no proptest dependency)
//! and checks the structural invariants that every downstream pass
//! relies on.

use adc_lint::lex::{lex, Tok, TokKind};
use adc_lint::scan::{parse_source, scan_workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Projection for comparing text across the two implementations:
/// whitespace never matters (block comments split across lines in the
/// scanner but not the lexer), and quote characters are classification
/// markers rather than content (the scanner keeps literal quotes in its
/// code view, the lexer folds them into the literal token).
fn scrub(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_whitespace() && *c != '"' && *c != '\'')
        .collect()
}

/// Comment text the lexer saw, from raw spans so markers are included.
fn lexer_comments(text: &str, toks: &[Tok]) -> String {
    toks.iter()
        .filter(|t| t.kind == TokKind::Comment)
        .map(|t| &text[t.start..t.end])
        .collect()
}

/// Code text the lexer saw: every non-comment, non-literal token, plus
/// the `b` prefix of a byte literal, which the scanner keeps as code.
fn lexer_code(text: &str, toks: &[Tok]) -> String {
    toks.iter()
        .filter_map(|t| match t.kind {
            TokKind::Comment => None,
            TokKind::Str | TokKind::Char => text[t.start..].starts_with('b').then_some("b"),
            _ => Some(&text[t.start..t.end]),
        })
        .collect()
}

fn assert_agreement(text: &str, label: &str) {
    let toks = lex(text);
    let file = parse_source("crates/x/src/lib.rs", "x", true, text);
    let scan_comments: String = file.lines.iter().map(|l| l.comment.as_str()).collect();
    let scan_code: String = file.lines.iter().map(|l| l.code.as_str()).collect();
    assert_eq!(
        scrub(&lexer_comments(text, &toks)),
        scrub(&scan_comments),
        "comment views disagree on {label}:\n{text}"
    );
    assert_eq!(
        scrub(&lexer_code(text, &toks)),
        scrub(&scan_code),
        "code views disagree on {label}:\n{text}"
    );
}

/// Every fixture — the corpus the rule is pinned to — and every
/// workspace file `adc-lint` scans must classify identically under both
/// implementations.
#[test]
fn lexer_agrees_with_line_scanner_on_every_fixture() {
    let mut entries: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    let fixtures = entries.len();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in scan_workspace(&root).expect("scan the workspace") {
        if file.krate != "adc-lint" {
            entries.push(root.join(&file.rel));
        }
    }
    for path in &entries {
        let text = fs::read_to_string(path).expect("read source");
        assert_agreement(&text, &path.display().to_string());
    }
    assert!(fixtures >= 2, "fixture corpus shrank to {fixtures} files");
    assert!(
        entries.len() - fixtures >= 100,
        "workspace corpus shrank to {} files",
        entries.len() - fixtures
    );
}

/// Minimal multiplicative-congruential PRNG (Lehmer / MINSTD values),
/// deterministic across platforms so failures reproduce from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[(self.next() as usize) % xs.len()]
    }
}

/// Well-formed fragments: every literal and comment is terminated, so
/// scanner and lexer must agree exactly.
const WELL_FORMED: &[&str] = &[
    "fn f() { g(); }",
    "let x = 1;",
    "let y = 1.5e3 + 0x_ff;",
    "let s = \"text with spaces\";",
    "let e = \"esc \\\" quote\";",
    "let r = r\"raw body\";",
    "let rh = r#\"raw \"q\" body\"#;",
    "let c = 'x';",
    "let nl = '\\n';",
    "fn g<'a>(v: &'a str) -> &'a str { v }",
    "// line comment with fn and \" quote\n",
    "/// doc comment\n",
    "/* block */",
    "/* multi\nline\nblock */",
    "/* nested /* inner */ outer */",
    "a.b.c(0..5);",
    "m::n::p(x => y);",
    "#[cfg(test)]\n",
    "\n",
    "    ",
    "let t = (1, [2, 3], {4});",
];

/// Hostile fragments for the no-panic half only: unterminated
/// constructs whose classification at EOF is allowed to differ.
const HOSTILE: &[&str] = &[
    "\"unterminated",
    "r#\"unterminated raw",
    "/* unterminated block",
    "'",
    "'\\",
    "r#",
    "b",
    "\\",
    "\u{1F980} unicode 🦀",
    "'lt",
];

/// Property: on generated well-formed snippets the two implementations
/// agree, and on any snippet (hostile tails included) the lexer does
/// not panic and returns tokens with sorted, in-bounds, non-overlapping
/// spans and non-decreasing line numbers.
#[test]
fn generated_snippets_hold_lexer_invariants() {
    for seed in 0..300u64 {
        let mut rng = Rng(seed.wrapping_mul(2654435761).wrapping_add(seed) | 1);
        let n = 1 + (rng.next() as usize) % 40;
        let mut text = String::new();
        for _ in 0..n {
            text.push_str(rng.pick(WELL_FORMED));
            text.push('\n');
        }
        // Well-formed body: full differential agreement.
        assert_agreement(&text, &format!("seed {seed}"));

        // Hostile tail: invariants only (EOF classification may differ).
        let mut hostile = text;
        hostile.push_str(rng.pick(HOSTILE));
        let toks = lex(&hostile);
        let mut prev_end = 0;
        let mut prev_line = 1;
        for t in &toks {
            assert!(t.start >= prev_end, "overlapping spans in seed {seed}");
            assert!(t.end >= t.start, "inverted span in seed {seed}");
            assert!(t.end <= hostile.len(), "span out of bounds in seed {seed}");
            assert!(
                hostile.is_char_boundary(t.start) && hostile.is_char_boundary(t.end),
                "span splits a char in seed {seed}"
            );
            assert!(t.line >= prev_line, "line went backwards in seed {seed}");
            prev_end = t.end;
            prev_line = t.line;
        }
        // Determinism: lexing is a pure function of the input.
        assert_eq!(toks.len(), lex(&hostile).len(), "non-deterministic lex");
    }
}
