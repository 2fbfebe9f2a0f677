//! Minimal JSON emission + validation + DOM for the quality evidence
//! table ([`crate::quality`]).
//!
//! The workspace is dependency-free (no serde), so documents are
//! written with [`emit_pretty`] and checked with [`validate`]. One
//! strict RFC 8259 parser does both jobs: [`parse`] builds a small
//! [`Value`] DOM and [`validate`] is `parse` with the result dropped.
//! Every writer validates its own output before it lands on disk, so a
//! malformed artifact fails the run that wrote it rather than the
//! tooling that reads it.

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Checks that `s` is one well-formed JSON value (with nothing but
/// whitespace after it) — [`parse`] with the DOM dropped. Returns a byte
/// offset + message on failure.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// A parsed JSON value. Objects keep insertion order (the documents
/// are small; no hashing needed), and numbers are `f64` — plenty for
/// evidence statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Emits `value` as human-readable JSON: 2-space indentation, one
/// array element / object field per line. The inverse of [`parse`]:
/// `parse(&emit_pretty(v)) == Ok(v)` for every finite DOM.
///
/// Numbers whose value is an integer with magnitude below 2⁵³ print
/// without a fractional part (so counters survive a parse→emit→parse
/// round trip textually); every other finite number uses Rust's shortest
/// round-tripping `f64` display. Non-finite numbers have no JSON
/// spelling and emit as `null` — callers that care validate finiteness
/// before emitting.
pub fn emit_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out
}

/// Emission core, at nesting `depth`.
fn write_value(out: &mut String, value: &Value, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&format_number(*n)),
        Value::String(s) => {
            out.push('"');
            out.push_str(&escape_string(s));
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_value(out, item, depth + 1);
            }
            if !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, field)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                out.push('"');
                out.push_str(&escape_string(key));
                out.push_str("\": ");
                write_value(out, field, depth + 1);
            }
            if !fields.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

/// JSON spelling of an `f64` (see [`emit_pretty`] for the rules).
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_owned();
    }
    // LINT-ALLOW(float-eq): fract() of an integral double is exactly
    // +0.0 by IEEE-754 — this is the standard integrality test, not an
    // approximate comparison.
    if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Parses `s` into a [`Value`] DOM under strict RFC 8259 rules (plus:
/// `\u` escapes must decode, so lone surrogates are rejected). Returns a
/// byte offset + message on failure.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value_dom()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after the top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected literal '{word}'")))
        }
    }

    fn value_dom(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object_dom(),
            Some(b'[') => self.array_dom(),
            Some(b'"') => self.string_dom().map(Value::String),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number_dom(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object_dom(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string_dom()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value_dom()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array_dom(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value_dom()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    /// A string literal, escapes decoded (surrogate pairs combined; lone
    /// surrogates rejected).
    fn string_dom(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // whole: all three are ASCII, so the run ends on a char
            // boundary of the (valid UTF-8) source text.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.error("bad escape")),
                    });
                }
                Some(_) => return Err(self.error("raw control char in string")),
            }
        }
    }

    /// The four hex digits after `\u`.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| (b as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.error("bad \\u escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }

    /// The code point of a `\u` escape whose `\u` is already consumed;
    /// a high surrogate must be followed by a low-surrogate escape.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid surrogate pair"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn number_dom(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.number()?;
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number grammar is ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("byte {start}: unparseable number: {e}"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            if !p.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(p.error("expected digit"));
            }
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            Ok(())
        };
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            digits(self)?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": []}}"#,
            "  { \"k\" : 0 }  ",
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
            assert!(validate(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "01",
            "1.",
            "nul",
            "{'single': 1}",
            r#""bad \x escape""#,
            r#""\u12g4""#,
            "\"raw\ttab\"",
            "\"dangling \\",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(validate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_builds_the_dom() {
        let v = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3], Value::Bool(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_f64),
            Some(-300.0)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_decodes_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse(r#""tab\t quote\" uA""#).unwrap(),
            Value::String("tab\t quote\" uA".into())
        );
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".into()));
        assert!(parse(r#""\ud83d oops""#).is_err(), "lone surrogate");
    }

    #[test]
    fn parse_round_trips_an_escaped_emission() {
        let original = "wall\tns \"quoted\" line\nend";
        let doc = format!("{{\"k\": \"{}\"}}", escape_string(original));
        assert_eq!(
            parse(&doc).unwrap().get("k").and_then(Value::as_str),
            Some(original)
        );
    }

    #[test]
    fn huge_exponents_parse_to_infinity_not_errors() {
        // Readers decide what a non-finite value means; the parser's job
        // is only to surface it.
        let v = parse("1e999").unwrap();
        assert_eq!(v.as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn emit_round_trips_through_parse() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("pack \"v1\"\n".into())),
            ("seed".into(), Value::Number(123456789012345.0)),
            ("tau".into(), Value::Number(0.6)),
            ("flag".into(), Value::Bool(false)),
            ("none".into(), Value::Null),
            (
                "arr".into(),
                Value::Array(vec![
                    Value::Number(-2.5),
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                ]),
            ),
        ]);
        let text = emit_pretty(&v);
        assert!(validate(&text).is_ok(), "{text}");
        assert_eq!(parse(&text).unwrap(), v, "{text}");
        // Integral numbers print without a fraction, so emitted counters
        // are textually stable across round trips.
        assert_eq!(emit_pretty(&Value::Number(42.0)), "42");
        assert_eq!(emit_pretty(&Value::Number(-0.0)), "0");
        assert_eq!(emit_pretty(&Value::Number(0.125)), "0.125");
        // Non-finite values degrade to null rather than corrupt the file.
        assert_eq!(emit_pretty(&Value::Number(f64::NAN)), "null");
        assert_eq!(emit_pretty(&Value::Number(f64::INFINITY)), "null");
    }

    #[test]
    fn pretty_emission_is_stable_and_indented() {
        let v = Value::Object(vec![(
            "families".into(),
            Value::Array(vec![Value::Object(vec![(
                "name".into(),
                Value::String("head".into()),
            )])]),
        )]);
        let text = emit_pretty(&v);
        assert_eq!(
            text,
            "{\n  \"families\": [\n    {\n      \"name\": \"head\"\n    }\n  ]\n}"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(escape_string("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert!(validate(&format!("\"{}\"", escape_string("tab\tquote\""))).is_ok());
    }
}
