//! The one JSON codec behind every wire and disk format of the scanner:
//! the scan journal, cache segments, isolate frames, serve requests and
//! the [`ScanMetrics`](crate::ScanMetrics) snapshot.
//!
//! Writers stay fixed-shape `format!` calls next to the format they
//! write, with [`json_str`] for string escaping. This module owns the
//! reading side: one recursive-descent parser into a [`Json`] value.
//! Two rules make it safe on hostile input:
//!
//! - **Exact integers.** An integer literal that fits in a `u64` parses
//!   to [`Json::Int`], so counters, ids and limits survive past 2^53.
//!   [`Json::as_u64`] answers only for those; [`Json::as_f64`] accepts
//!   integers and floats alike.
//! - **Bounded nesting.** Past [`MAX_DEPTH`] levels of arrays and objects
//!   parsing stops with [`JsonError::TooDeep`] instead of recursing, so a
//!   line of a few hundred kilobytes of brackets cannot overflow the
//!   stack.
//!
//! It also holds the hex pair ([`hex`], [`unhex`]) the formats use for
//! digests and inline documents.

use std::fmt;

/// Deepest nesting of arrays and objects the parser accepts. The deepest
/// shipped shape, a serve `metrics` reply (reply → snapshot → histograms
/// → histogram → buckets), nests 5 levels; the stored formats nest at
/// most 4.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value. Objects keep insertion order in a vector because
/// the formats' objects are small.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer literal that fits in a `u64`, kept exact.
    Int(u64),
    /// Any other number: negative, fractional, with an exponent, or past
    /// `u64::MAX`.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(key, value)` pairs in input order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this was an integer literal that fits in a `u64`.
    /// Floats never answer, even integral ones like `1.0` or `1e3`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, integer or float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Why a text is not a JSON value the parser accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; carries the byte
    /// offset of the bracket that crossed the cap.
    TooDeep(usize),
    /// Any other malformation, described with its byte offset.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep(offset) => {
                write!(f, "nesting deeper than {MAX_DEPTH} at offset {offset}")
            }
            JsonError::Syntax(what) => f.write_str(what),
        }
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Parses one complete JSON value; surrounding whitespace is allowed,
/// anything else after the value is an error.
///
/// # Errors
///
/// [`JsonError::TooDeep`] past [`MAX_DEPTH`], [`JsonError::Syntax`] for
/// everything else.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.syntax("trailing bytes"));
    }
    Ok(value)
}

/// Quotes and escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Lowercase hex of `bytes`, two digits per byte.
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Decodes hex digits (either case) back into bytes.
///
/// # Errors
///
/// An odd number of digits, or any byte that is not a hex digit.
pub fn unhex(text: &str) -> Result<Vec<u8>, String> {
    let digits = text.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err("odd number of hex digits".to_string());
    }
    let nibble = |b: u8| -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            other => Err(format!("non-hex byte {:?}", other as char)),
        }
    };
    digits
        .chunks_exact(2)
        .map(|pair| Ok((nibble(pair[0])? << 4) | nibble(pair[1])?))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn syntax(&self, what: &str) -> JsonError {
        JsonError::Syntax(format!("{what} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.syntax("bad literal"))
        }
    }

    /// One value whose enclosing arrays and objects number `depth`.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.syntax("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(JsonError::TooDeep(self.pos)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.syntax(&format!("unexpected byte {:?}", other as char))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.syntax("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let high = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.syntax("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.syntax("bad low surrogate"));
                                }
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                high
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.syntax("bad unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.syntax(&format!("bad escape {:?}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go; the input came from &str and both stop
                    // bytes are ASCII, so the run is valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.syntax("invalid utf-8"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.syntax("truncated unicode escape"))?;
        let code = std::str::from_utf8(digits)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.syntax("bad unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::Syntax(format!("bad number {text:?} at offset {start}")))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.syntax("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.syntax("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let j = parse(
            "{\"a\": [1, -2.5, true, null], \"b\": {\"c\": \"x\\n\\\"y\\\" \\u00e9 \\ud83d\\ude00\"}}",
        )
        .unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\n\"y\" é 😀")
        );
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\":1 \"b\":2}").is_err(), "missing comma");
    }

    #[test]
    fn integers_are_exact_and_floats_never_pass_as_integers() {
        for (text, want) in [
            ("0", Some(0)),
            ("9007199254740993", Some(9_007_199_254_740_993)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("-1", None),
            ("1.0", None),
            ("1.5", None),
            ("1e3", None),
            ("1e30", None),
        ] {
            let j = parse(text).unwrap();
            assert_eq!(j.as_u64(), want, "{text}");
            assert!(j.as_f64().is_some(), "{text} is still a number");
        }
        assert_eq!(parse("-2.5").unwrap().as_f64(), Some(-2.5));
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        assert!(parse("1-2").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep(MAX_DEPTH))
        );
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(matches!(parse(&objects), Err(JsonError::TooDeep(_))));
        // A bracket bomb far past the cap fails without recursing into it,
        // on a thread whose stack could never hold the recursion.
        let bomb = format!("{{\"op\":\"scan\",\"x\":{}}}", nest(200_000));
        let result = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || parse(&bomb))
            .unwrap()
            .join()
            .unwrap();
        let err = result.unwrap_err();
        assert!(matches!(err, JsonError::TooDeep(_)));
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn strings_round_trip_through_json_str() {
        for s in [
            "",
            "plain",
            "q\"b\\s",
            "tab\tnl\nret\r",
            "\u{1}\u{1f}",
            "é–😀",
        ] {
            let quoted = json_str(s);
            assert_eq!(parse(&quoted).unwrap().as_str(), Some(s), "{quoted}");
        }
        assert_eq!(json_str("a\nb\u{1}"), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn hex_round_trips_and_decoding_is_strict() {
        assert_eq!(hex(&[0x00, 0x0f, 0xab, 0xff]), "000fabff");
        assert_eq!(unhex("000fABff").unwrap(), vec![0x00, 0x0f, 0xab, 0xff]);
        assert!(unhex("").unwrap().is_empty());
        assert!(unhex("abc").is_err(), "odd length");
        assert!(unhex("zz").is_err(), "non-hex digit");
        assert!(unhex("+f").is_err(), "sign is not a digit");
        assert!(unhex("€€").is_err(), "multi-byte characters");
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(unhex(&hex(&all)).unwrap(), all);
    }
}
