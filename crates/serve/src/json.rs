//! A minimal hand-rolled JSON layer for the wire protocol.
//!
//! The workspace builds offline with no serialization dependency, so the
//! daemon parses its newline-delimited requests with this small
//! recursive-descent parser and emits replies through the escaper the
//! core report uses ([`jaaru::json_string`]). It accepts exactly standard JSON
//! (RFC 8259) minus one deliberate restriction: numbers are parsed as
//! `f64` (every protocol field fits losslessly — ids, key counts, byte
//! budgets, millisecond deadlines).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects use a [`BTreeMap`] so re-serialization
/// is deterministic (sorted keys) no matter the input order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure, with a byte offset into the input line.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Job specs are
/// at most three levels deep; the cap keeps a hostile line from
/// overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or(ParseError {
                offset: start,
                message: "invalid number",
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .and_then(|s| u32::from_str_radix(s, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let code = if (0xd800..0xdc00).contains(&hex) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|b| std::str::from_utf8(b).ok())
                                    .and_then(|s| u32::from_str_radix(s, 16).ok())
                                    .filter(|l| (0xdc00..0xe000).contains(l))
                                    .ok_or_else(|| self.err("unpaired surrogate"))?;
                                self.pos += 4;
                                0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                hex
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // escape or control byte. Those are ASCII, so the run
                    // ends on a character boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"kind":"check","keys":6,"opts":{"deep":[1,2,{}]},"x":null}"#).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("check"));
        assert_eq!(v.get("keys").and_then(Value::as_u64), Some(6));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert!(
            matches!(v.get("opts").unwrap().get("deep"), Some(Value::Array(a)) if a.len() == 3)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err(), "trailing characters");
        assert!(parse("\"\x01\"").is_err(), "raw control char");
        assert!(parse("1e999").is_err(), "non-finite number");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        // `parse` is the inverse of the shared escaper: multi-line
        // artifacts ride inside single-line reply envelopes unchanged.
        let nasty = "line1\nline2\t\"quoted\" \\backslash\\ \u{1}\u{1f980} end";
        let escaped = jaaru::json_string(nasty);
        assert!(!escaped[1..escaped.len() - 1].contains('\n'), "single line");
        assert_eq!(parse(&escaped).unwrap(), Value::String(nasty.into()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse(r#""A🦀""#).unwrap(),
            Value::String("A\u{1f980}".into())
        );
        assert!(parse(r#""\ud83e""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.offset, err.message), (MAX_DEPTH, "nesting too deep"));
        assert!(parse(&r#"{"a":"#.repeat(50_000)).is_err());
        // A socket connection's thread has a small stack.
        let line = "[".repeat(50_000);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&line).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(err.message, "nesting too deep");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Mostly plain characters, with escapes and a multi-byte one.
        let piece = r#"0123456789 abcdef 🦀 \u00e9 \" "#;
        let line = format!(r#"{{"id":"{}"}}"#, piece.repeat(1 << 17));
        let start = std::time::Instant::now();
        let value = parse(&line).unwrap();
        let elapsed = start.elapsed();
        let id = value.get("id").and_then(Value::as_str).unwrap();
        let decoded = "0123456789 abcdef 🦀 é \" ";
        assert_eq!(id.len(), decoded.len() << 17);
        assert!(id.starts_with(&decoded.repeat(2)));
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "a {} MiB line took {elapsed:?}",
            line.len() >> 20
        );
    }

    #[test]
    fn u64_extraction_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
    }
}
