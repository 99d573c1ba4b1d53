//! Source discovery and the per-line source model the rules run over.
//!
//! The scanner is deliberately *not* a Rust parser: it is a line/token
//! model (in the spirit of rust-lang's `tidy`) that strips string-literal
//! and comment *contents* out of the "code" view of each line, tracks
//! which lines belong to `#[cfg(test)]` items, and records every comment
//! so the rule can check for justification comments. That is enough
//! precision for the workspace's rule while keeping the crate
//! dependency-free and fast.

use std::fs;
use std::path::{Path, PathBuf};

/// One physical source line, split into views the rules consume.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// The line exactly as it appears in the file.
    pub raw: String,
    /// The line with comments removed and string/char literal contents
    /// blanked (quotes remain, contents do not), so token searches never
    /// match inside literals or comments.
    pub code: String,
    /// The comment text on this line, including its leading `//`, `///`,
    /// `//!` or `/*` marker; empty when the line has no comment.
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// One scanned `.rs` file plus the workspace context rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// The owning crate (`adc-core`, `adc-sim`, ...), from the
    /// `crates/<name>/src/...` path shape.
    pub krate: String,
    /// Whether this is library code: under `src/`, not under `src/bin/`
    /// and not a `main.rs`.
    pub is_lib: bool,
    pub lines: Vec<SourceLine>,
}

/// Walks `root/crates/*/src` and `root/crates/*/tests` and returns
/// every `.rs` file, sorted by relative path so output and JSON are
/// stable across platforms. Integration-test files and binaries scan as
/// non-library (`is_lib == false`).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let krate = match crate_dir.file_name().and_then(|n| n.to_str()) {
            Some(name) => name.to_string(),
            None => continue,
        };
        let mut rs_files = Vec::new();
        for sub in ["src", "tests"] {
            let dir = crate_dir.join(sub);
            if dir.is_dir() {
                collect_rs_files(&dir, &mut rs_files)?;
            }
        }
        rs_files.sort();
        for path in rs_files {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let is_lib =
                rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("/main.rs");
            files.push(parse_source(&rel, &krate, is_lib, &text));
        }
    }
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses raw source text into the per-line model. Public so tests and
/// fixtures can run rules over in-memory snippets.
pub fn parse_source(rel: &str, krate: &str, is_lib: bool, text: &str) -> SourceFile {
    let mut lines = split_code_and_comments(text);
    mark_test_regions(&mut lines);
    SourceFile {
        rel: rel.to_string(),
        krate: krate.to_string(),
        is_lib,
        lines,
    }
}

/// Lexer state carried across lines.
enum Mode {
    Normal,
    /// Inside a `/* */` comment, with nesting depth.
    Block(u32),
    /// Inside a normal string literal.
    Str,
    /// Inside a raw string literal closed by `"` plus this many `#`s.
    RawStr(u32),
}

/// Splits every line into its code and comment views.
fn split_code_and_comments(text: &str) -> Vec<SourceLine> {
    let mut out = Vec::new();
    let mut mode = Mode::Normal;
    for raw in text.lines() {
        let bytes: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            match mode {
                Mode::Block(depth) => {
                    comment.push(c);
                    if c == '*' && bytes.get(i + 1) == Some(&'/') {
                        comment.push('/');
                        i += 1;
                        mode = if depth > 1 {
                            Mode::Block(depth - 1)
                        } else {
                            Mode::Normal
                        };
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        comment.push('*');
                        i += 1;
                        mode = Mode::Block(depth + 1);
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        i += 1; // skip the escaped character
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Normal;
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let mut n = 0;
                        while n < hashes && bytes.get(i + 1 + n as usize) == Some(&'#') {
                            n += 1;
                        }
                        if n == hashes {
                            i += hashes as usize;
                            code.push('"');
                            mode = Mode::Normal;
                        }
                    }
                }
                Mode::Normal => {
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        comment.push_str(&raw[char_offset(raw, i)..]);
                        break;
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        comment.push_str("/*");
                        i += 1;
                        mode = Mode::Block(1);
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                    } else if c == 'r'
                        && !prev_is_ident(&code)
                        && matches!(bytes.get(i + 1), Some('"') | Some('#'))
                    {
                        // Possible raw string: r"..." or r#"..."#.
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            code.push('"');
                            i = j;
                            mode = Mode::RawStr(hashes);
                        } else {
                            code.push(c);
                        }
                    } else if c == '\'' {
                        // Distinguish char literals from lifetimes.
                        if bytes.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to closing quote.
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            code.push_str("' '");
                            i = j;
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            code.push_str("' '");
                            i += 2;
                        } else {
                            code.push(c); // lifetime marker
                        }
                    } else {
                        code.push(c);
                    }
                }
            }
            i += 1;
        }
        out.push(SourceLine {
            raw: raw.to_string(),
            code,
            comment,
            in_test: false,
        });
    }
    out
}

/// Byte offset of the `i`-th char of `s` (lines are short; O(n) is fine).
fn char_offset(s: &str, i: usize) -> usize {
    s.char_indices().nth(i).map(|(o, _)| o).unwrap_or(s.len())
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Marks every line belonging to a `#[cfg(test)]` item by brace matching
/// from the item that follows the attribute.
fn mark_test_regions(lines: &mut [SourceLine]) {
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") || lines[i].code.contains("#[cfg(all(test") {
            // Find the end of the annotated item: the matching close of
            // the first `{` at or after the attribute (or the first `;`
            // before any `{`, for `#[cfg(test)] use ...;`).
            let mut depth: i32 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 && j > i => {}
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                if !opened && lines[j].code.contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        parse_source("crates/x/src/lib.rs", "x", true, text)
    }

    #[test]
    fn strings_and_comments_are_stripped_from_code() {
        let f = parse("let x = \"HashMap in a string\"; // HashMap in a comment\nlet y = 1;");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
        assert!(f.lines[0].code.contains("let x ="));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let f = parse("let x = r#\"unwrap() . \"#; let z = 2;");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let z = 2;"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let f = parse("let q = '\"'; let h = \"HashMap\";");
        assert!(!f.lines[0].code.contains("HashMap"));
    }

    #[test]
    fn lifetimes_are_kept_as_code() {
        let f = parse("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = parse("/* HashMap\n still HashMap */ let x = 1;");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("let x = 1;"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let f = parse("/// docs with unwrap()\npub fn g() {}");
        assert!(f.lines[0].code.trim().is_empty());
        assert!(f.lines[0].comment.starts_with("///"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text =
            "pub fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\npub fn c() {}";
        let f = parse(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn nested_braces_inside_test_mod_are_tracked() {
        let text = "#[cfg(test)]\nmod t {\n fn a() { if x { y(); } }\n}\nfn real() {}";
        let f = parse(text);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[4].in_test);
    }
}
