//! Minimal JSON helpers.
//!
//! The workspace has no serialization framework, so all JSON in this
//! repo is hand-rolled. This module keeps the escaping in one place and
//! provides a small validating parser used by tests and CI to assert
//! that exported files are well-formed.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (including the quotes),
/// escaping the characters JSON requires.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Checks that `input` is one syntactically valid JSON value (object,
/// array, string, number, `true`, `false` or `null`) with nothing but
/// whitespace after it. Returns a position-annotated error otherwise.
///
/// This is a validator, not a deserializer: it builds no tree and
/// allocates nothing, which is all the exporter tests and the CI JSONL
/// check need.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(b'-') | Some(b'0'..=b'9') => number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at {}", b as char, *pos)),
        None => Err(format!("unexpected end of input at {}", *pos)),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, expected: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(expected) {
        *pos += expected.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening '"'
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("invalid \\u escape at byte {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // The integer part is `0` or starts with a nonzero digit: RFC 8259
    // forbids leading zeros.
    match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            if let Some(b'0'..=b'9') = bytes.get(*pos) {
                return Err(format!("leading zero at byte {}", *pos - 1));
            }
        }
        Some(b'1'..=b'9') => {
            while let Some(b'0'..=b'9') = bytes.get(*pos) {
                *pos += 1;
            }
        }
        _ => return Err(format!("expected digit at byte {}", *pos)),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = false;
        while let Some(b'0'..=b'9') = bytes.get(*pos) {
            frac = true;
            *pos += 1;
        }
        if !frac {
            return Err(format!("expected fraction digit at byte {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = false;
        while let Some(b'0'..=b'9') = bytes.get(*pos) {
            exp = true;
            *pos += 1;
        }
        if !exp {
            return Err(format!("expected exponent digit at byte {}", *pos));
        }
    }
    debug_assert!(*pos > start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert!(validate_json(&out).is_ok());
    }

    #[test]
    fn accepts_valid_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "0",
            "-0",
            "0.5",
            "0e1",
            r#"{"t":1,"event":"local_hit","proxy":0,"object":42}"#,
            r#"{"traceEvents":[{"ph":"i","ts":0.5,"args":{}}]} "#,
            r#"  [1, "two", {"three": [null, false]}]  "#,
        ] {
            assert!(validate_json(ok).is_ok(), "rejected valid: {ok}");
        }
    }

    #[test]
    fn rejects_invalid_values() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "{} {}",
            "{\"a\":1,}",
            "[1] trailing",
            "01",
            "-007",
            "[00]",
            r#"{"a":01}"#,
        ] {
            assert!(validate_json(bad).is_err(), "accepted invalid: {bad}");
        }
    }
}
