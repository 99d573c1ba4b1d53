//! A hand-rolled Rust lexer producing a flat token stream with byte
//! spans and line numbers.
//!
//! This is the token layer the `atomic-ordering` rule and the
//! workspace's `#[expect]` counter read. It understands exactly as much
//! Rust as they need: nested block comments, normal/byte/raw string
//! literals, char literals vs lifetimes (`'a'` vs `'a`), numeric
//! literals, identifiers and keywords (not distinguished here), and
//! punctuation — with `::`, `=>` and `->` kept as single tokens. It is
//! *not* a conformant Rust lexer: float forms like `1e9`
//! lex as one `Num` token only by accident of the alphanumeric run, and
//! exotic literals (C strings, raw identifiers) are out of scope. Every
//! token carries its exact byte span in the input, so the differential
//! tests can check the classification against the v1 line scanner.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including a lone `_`).
    Ident,
    /// Lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// String literal of any flavor (`"…"`, `b"…"`, `r#"…"#`); text is
    /// the literal *content*, without quotes, prefix, or hashes.
    Str,
    /// Char literal (`'x'`, `'\n'`); text is the content between quotes.
    Char,
    /// Numeric literal (integer or float, with suffix if glued on).
    Num,
    /// Punctuation; multi-char for `::`, `=>` and `->`, else one char.
    Punct,
    /// Line or block comment, text includes the markers.
    Comment,
}

/// One token: classification, source text (see [`TokKind`] for which
/// part), 1-based start line, and byte span in the input.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
    pub start: usize,
    pub end: usize,
}

/// Lexes `text` into tokens. Whitespace is dropped; everything else is
/// covered by exactly one token. Never panics: unterminated literals
/// and comments extend to end of input.
pub fn lex(text: &str) -> Vec<Tok> {
    Lexer {
        text,
        chars: text.char_indices().peekable(),
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    text: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    line: usize,
    toks: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while let Some(&(at, c)) = self.chars.peek() {
            if c == '\n' {
                self.line += 1;
                self.chars.next();
            } else if c.is_whitespace() {
                self.chars.next();
            } else if c == '/' && self.peek2() == Some('/') {
                self.line_comment(at);
            } else if c == '/' && self.peek2() == Some('*') {
                self.block_comment(at);
            } else if c == '"' {
                self.chars.next();
                self.string(at, at + 1, 0);
            } else if (c == 'r' || c == 'b') && self.raw_or_byte_string(at, c) {
                // consumed inside the helper
            } else if c == '\'' {
                self.quote(at);
            } else if c.is_ascii_digit() {
                self.number(at);
            } else if c.is_alphanumeric() || c == '_' {
                self.ident(at);
            } else {
                self.punct(at, c);
            }
        }
        self.toks
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.chars.clone();
        it.next();
        it.next().map(|(_, c)| c)
    }

    fn push(&mut self, kind: TokKind, line: usize, start: usize, end: usize, text: String) {
        self.toks.push(Tok {
            kind,
            text,
            line,
            start,
            end,
        });
    }

    /// Byte offset just past the last consumed char.
    fn pos(&mut self) -> usize {
        self.chars
            .peek()
            .map(|&(i, _)| i)
            .unwrap_or(self.text.len())
    }

    fn line_comment(&mut self, start: usize) {
        let line = self.line;
        while let Some(&(_, c)) = self.chars.peek() {
            if c == '\n' {
                break;
            }
            self.chars.next();
        }
        let end = self.pos();
        self.push(
            TokKind::Comment,
            line,
            start,
            end,
            self.text[start..end].to_string(),
        );
    }

    fn block_comment(&mut self, start: usize) {
        let line = self.line;
        self.chars.next(); // '/'
        self.chars.next(); // '*'
        let mut depth = 1u32;
        while let Some((_, c)) = self.chars.next() {
            if c == '\n' {
                self.line += 1;
            } else if c == '*' && self.chars.peek().map(|&(_, c)| c) == Some('/') {
                self.chars.next();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if c == '/' && self.chars.peek().map(|&(_, c)| c) == Some('*') {
                self.chars.next();
                depth += 1;
            }
        }
        let end = self.pos();
        self.push(
            TokKind::Comment,
            line,
            start,
            end,
            self.text[start..end].to_string(),
        );
    }

    /// Normal or byte string body: opening quote already consumed;
    /// `content_from` is the byte offset of the first content char.
    fn string(&mut self, start: usize, content_from: usize, _hashes: u32) {
        let line = self.line;
        let mut content_to = content_from;
        while let Some((i, c)) = self.chars.next() {
            if c == '\n' {
                self.line += 1;
            }
            if c == '\\' {
                if let Some((_, e)) = self.chars.next() {
                    if e == '\n' {
                        self.line += 1;
                    }
                }
            } else if c == '"' {
                content_to = i;
                break;
            }
            content_to = self.pos();
        }
        let end = self.pos();
        self.push(
            TokKind::Str,
            line,
            start,
            end,
            self.text[content_from..content_to].to_string(),
        );
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`. Returns false (and
    /// consumes nothing) when the lookahead is not a string, so the
    /// caller falls through to identifier lexing.
    fn raw_or_byte_string(&mut self, start: usize, first: char) -> bool {
        let rest = &self.text[start..];
        let prefix_len = if rest.starts_with("br") || rest.starts_with("rb") {
            2
        } else {
            1
        };
        let raw = first == 'r' || rest[1..].starts_with('r');
        let after = &rest[prefix_len..];
        let hashes = after.chars().take_while(|&c| c == '#').count();
        if !after[hashes..].starts_with('"') || (!raw && hashes > 0) {
            self.ident(start);
            return true;
        }
        if !raw {
            // b"…": plain string body with escapes.
            for _ in 0..=prefix_len {
                self.chars.next(); // prefix chars + opening quote
            }
            self.string(start, start + prefix_len + 1, 0);
            return true;
        }
        // Raw string: no escapes, closed by `"` + hashes `#`s.
        let line = self.line;
        for _ in 0..(prefix_len + hashes + 1) {
            if let Some((_, c)) = self.chars.next() {
                if c == '\n' {
                    self.line += 1;
                }
            }
        }
        let content_from = start + prefix_len + hashes + 1;
        let closer: String = std::iter::once('"')
            .chain("#".repeat(hashes).chars())
            .collect();
        let mut content_to = self.text.len();
        loop {
            let here = self.pos();
            if here >= self.text.len() {
                break;
            }
            if self.text[here..].starts_with(&closer) {
                content_to = here;
                for _ in 0..closer.len() {
                    self.chars.next();
                }
                break;
            }
            if let Some((_, c)) = self.chars.next() {
                if c == '\n' {
                    self.line += 1;
                }
            }
        }
        let end = self.pos();
        self.push(
            TokKind::Str,
            line,
            start,
            end,
            self.text[content_from..content_to.max(content_from)].to_string(),
        );
        true
    }

    /// `'` starts either a char literal or a lifetime.
    fn quote(&mut self, start: usize) {
        let line = self.line;
        self.chars.next(); // the quote
        let Some(&(_, c1)) = self.chars.peek() else {
            self.push(TokKind::Punct, line, start, start + 1, "'".to_string());
            return;
        };
        if c1 == '\\' {
            // Escaped char literal: consume to the closing quote.
            self.chars.next();
            self.chars.next(); // escaped char
            for (_, c) in self.chars.by_ref() {
                if c == '\'' {
                    break;
                }
            }
            let end = self.pos();
            let content = self.text[start + 1..end]
                .strip_suffix('\'')
                .unwrap_or(&self.text[start + 1..end]);
            self.push(TokKind::Char, line, start, end, content.to_string());
            return;
        }
        // Unescaped: `'x'` is a char, `'ident` (no closing quote) a
        // lifetime.
        let mut it = self.chars.clone();
        it.next();
        if it.next().map(|(_, c)| c) == Some('\'') && c1 != '\'' {
            self.chars.next(); // content
            self.chars.next(); // closing quote
            let end = self.pos();
            self.push(
                TokKind::Char,
                line,
                start,
                end,
                self.text[start + 1..end - 1].to_string(),
            );
            return;
        }
        // Lifetime: consume the identifier run.
        let name_from = self.pos();
        while let Some(&(_, c)) = self.chars.peek() {
            if c.is_alphanumeric() || c == '_' {
                self.chars.next();
            } else {
                break;
            }
        }
        let end = self.pos();
        self.push(
            TokKind::Lifetime,
            line,
            start,
            end,
            self.text[name_from..end].to_string(),
        );
    }

    fn number(&mut self, start: usize) {
        let line = self.line;
        self.alnum_run();
        // Float continuation: `.` followed by a digit.
        if self.chars.peek().map(|&(_, c)| c) == Some('.')
            && self.peek2().is_some_and(|c| c.is_ascii_digit())
        {
            self.chars.next();
            self.alnum_run();
        }
        let end = self.pos();
        self.push(
            TokKind::Num,
            line,
            start,
            end,
            self.text[start..end].to_string(),
        );
    }

    fn alnum_run(&mut self) {
        while let Some(&(_, c)) = self.chars.peek() {
            if c.is_alphanumeric() || c == '_' {
                self.chars.next();
            } else {
                break;
            }
        }
    }

    fn ident(&mut self, start: usize) {
        let line = self.line;
        self.alnum_run();
        let end = self.pos();
        self.push(
            TokKind::Ident,
            line,
            start,
            end,
            self.text[start..end].to_string(),
        );
    }

    fn punct(&mut self, start: usize, c: char) {
        let line = self.line;
        self.chars.next();
        let two = matches!(
            (c, self.chars.peek().map(|&(_, c)| c)),
            (':', Some(':')) | ('=', Some('>')) | ('-', Some('>'))
        );
        if two {
            self.chars.next();
        }
        let end = self.pos();
        self.push(
            TokKind::Punct,
            line,
            start,
            end,
            self.text[start..end].to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(TokKind, String)> {
        lex(text).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_paths() {
        let t = kinds("foo::bar(x) => y");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "foo".into()),
                (TokKind::Punct, "::".into()),
                (TokKind::Ident, "bar".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, ")".into()),
                (TokKind::Punct, "=>".into()),
                (TokKind::Ident, "y".into()),
            ]
        );
    }

    #[test]
    fn strings_carry_content_only() {
        let text = "let s = \"adc_hops\"; let b = b\"adc_up\"; let r = r##\"raw \"q\" body\"##;";
        let t = kinds(text);
        let strs: Vec<_> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(strs, vec!["adc_hops", "adc_up", "raw \"q\" body"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let t = kinds("fn f<'a>(c: char) { let x = 'x'; let n = '\\n'; let q = '\\''; }");
        let lifetimes: Vec<_> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a"]);
        let chars = t.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("a /* one /* two */ still */ b");
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].0, TokKind::Comment);
        assert_eq!(t[2], (TokKind::Ident, "b".into()));
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        let t = kinds("0..10 1.5 0xff 1_000u64");
        let nums: Vec<_> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5", "0xff", "1_000u64"]);
    }

    #[test]
    fn spans_are_ascending_and_in_bounds() {
        let text = "fn f() { let s = \"x\"; /* c */ 'a': }";
        let toks = lex(text);
        let mut prev_end = 0;
        for t in &toks {
            assert!(t.start >= prev_end, "overlap at {t:?}");
            assert!(t.end <= text.len());
            assert!(t.start < t.end || t.text.is_empty());
            prev_end = t.end;
        }
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for bad in [
            "\"never closed",
            "/* never closed",
            "r#\"never",
            "'",
            "b\"x",
        ] {
            let _ = lex(bad);
        }
    }

    #[test]
    fn line_numbers_advance_across_multiline_tokens() {
        let toks = lex("a\n/* x\n y */\nb");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }
}
