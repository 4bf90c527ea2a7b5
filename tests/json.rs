//! A minimal recursive-descent JSON parser for exporter-validity tests.
//!
//! The workspace uses no external crates (no `serde_json`), so the
//! Chrome trace exporter hand-emits JSON and this module hand-parses it
//! back. It supports the full JSON grammar the exporter can produce:
//! objects, arrays, strings with `\"`/`\\`/`\uXXXX` escapes, numbers,
//! booleans and null. It is a test utility, not a general-purpose parser:
//! errors abort with a descriptive panic rather than a recoverable error.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object, panicking otherwise.
    pub fn obj(&self) -> &BTreeMap<String, Value> {
        match self {
            Value::Obj(m) => m,
            other => panic!("expected object, got {other:?}"),
        }
    }

    /// The value as an array, panicking otherwise.
    pub fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    /// The value as a string, panicking otherwise.
    pub fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    /// The value as a number, panicking otherwise.
    pub fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    /// Object field lookup, panicking when missing.
    pub fn get(&self, key: &str) -> &Value {
        self.obj()
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key:?}"))
    }
}

/// Parses `text` as a single JSON document.
///
/// # Panics
///
/// Panics on any syntax error or trailing garbage.
pub fn parse(text: &str) -> Value {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value();
    p.skip_ws();
    assert!(p.pos == p.bytes.len(), "trailing garbage at byte {}", p.pos);
    v
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> u8 {
        *self
            .bytes
            .get(self.pos)
            .unwrap_or_else(|| panic!("unexpected end of input at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) {
        let got = self.peek();
        assert!(
            got == b,
            "expected {:?} at byte {}, got {:?}",
            b as char,
            self.pos,
            got as char
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Value {
        self.skip_ws();
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Value::Str(self.string()),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Value {
        let end = self.pos + word.len();
        assert!(
            self.bytes.get(self.pos..end) == Some(word.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos = end;
        v
    }

    fn object(&mut self) -> Value {
        self.expect(b'{');
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == b'}' {
            self.pos += 1;
            return Value::Obj(map);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.skip_ws();
            self.expect(b':');
            let val = self.value();
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Value::Obj(map);
                }
                other => panic!("expected ',' or '}}', got {:?}", other as char),
            }
        }
    }

    fn array(&mut self) -> Value {
        self.expect(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == b']' {
            self.pos += 1;
            return Value::Arr(items);
        }
        loop {
            items.push(self.value());
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Value::Arr(items);
                }
                other => panic!("expected ',' or ']', got {:?}", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            let b = self.peek();
            self.pos += 1;
            match b {
                b'"' => return out,
                b'\\' => {
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .expect("bad \\u escape");
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            self.pos += 4;
                            out.push(char::from_u32(code).expect("non-BMP \\u escape"));
                        }
                        other => panic!("bad escape \\{:?}", other as char),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar through.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("invalid UTF-8 in string"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Value {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Value::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?} at byte {start}")),
        )
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":true,"e":null}}"#);
        assert_eq!(v.get("a").arr()[1].num(), 2.5);
        assert_eq!(v.get("a").arr()[2].num(), -300.0);
        assert_eq!(v.get("b").get("c").str(), "x\ny");
        assert_eq!(v.get("b").get("d"), &Value::Bool(true));
        assert_eq!(v.get("b").get("e"), &Value::Null);
    }

    #[test]
    fn parses_unicode_escapes_and_raw_utf8() {
        let v = parse(r#"["µs","\u00b5s"]"#);
        assert_eq!(v.arr()[0].str(), "µs");
        assert_eq!(v.arr()[1].str(), "µs");
    }

    #[test]
    #[should_panic(expected = "trailing garbage")]
    fn rejects_trailing_garbage() {
        parse("{} x");
    }
}
