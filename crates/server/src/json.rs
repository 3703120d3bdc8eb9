//! Minimal hand-rolled JSON: the workspace is vendored-only and
//! `vendor/serde` is a no-op derive stand-in, so the wire format is
//! parsed and written by hand here.
//!
//! The parser is a straightforward recursive-descent over bytes with a
//! nesting-depth limit; numbers are `f64` (every integer the protocol
//! carries — vertex ids, labels, limits — fits exactly). Errors carry a
//! byte offset so malformed request bodies get a pointable diagnostic.
//!
//! Counts, however, are `u64` and a count-only query over a huge data
//! hypergraph can exceed 2^53 — past which `f64` transport silently
//! corrupts low bits. The wire contract is therefore *split encoding*:
//! writers emit a `u64` as a bare JSON number while it is exactly
//! representable ([`MAX_SAFE_INT`]) and as a decimal *string* beyond;
//! readers accept both via [`Json::as_u64_lossless`].

/// Maximum nesting depth accepted by [`parse`]. Request bodies are flat
/// (an object of arrays), so this only guards against hostile inputs.
const MAX_DEPTH: usize = 32;

/// Largest integer exactly representable in an `f64` *and* unambiguous on
/// the wire: 2^53 − 1 (JavaScript's `MAX_SAFE_INTEGER`). At 2^53 itself
/// the neighbouring integer 2^53 + 1 parses to the same float, so 2^53 is
/// already past the lossless range.
pub const MAX_SAFE_INT: u64 = (1 << 53) - 1;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys: first wins via
    /// [`Json::get`]).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly and
    /// unambiguously (≤ [`MAX_SAFE_INT`]; larger numbers collide with a
    /// neighbouring integer after the `f64` round-trip, so they are
    /// rejected rather than silently truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a non-negative integer under the split encoding: a
    /// plain number within the safe range, or a decimal string beyond it
    /// (the form [`write_u64`] emits).
    pub fn as_u64_lossless(&self) -> Option<u64> {
        match self {
            Json::Num(_) => self.as_u64(),
            Json::Str(s) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => {
                s.parse::<u64>().ok()
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &[u8]) -> Result<Json, String> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("JSON nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, String> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid surrogate pair"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte, validated once: validating the rest of the body
                    // per character made one long string quadratic. No
                    // UTF-8 sequence contains those ASCII bytes, so the run
                    // ends on a character boundary.
                    let input = self.input;
                    let run = &input[self.pos..];
                    let len = run
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(run.len());
                    let text = std::str::from_utf8(&run[..len]).map_err(|e| {
                        self.pos += e.valid_up_to();
                        self.err("invalid UTF-8 in string")
                    })?;
                    out.push_str(text);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.input.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let text = std::str::from_utf8(&self.input[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Appends `v` to `out` under the split encoding: a bare number while
/// exactly representable in an `f64` (≤ [`MAX_SAFE_INT`]), a quoted
/// decimal string beyond — so a count near 2^64 survives any
/// float-based JSON reader untouched and ours losslessly
/// ([`Json::as_u64_lossless`]).
pub fn write_u64(out: &mut String, v: u64) {
    if v <= MAX_SAFE_INT {
        out.push_str(&v.to_string());
    } else {
        out.push('"');
        out.push_str(&v.to_string());
        out.push('"');
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shape() {
        let doc = br#"{"tenant":"acme","labels":[0,0,1],"edges":[[0,1,2],[2,1]],"collect":true,"max_results":10}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("tenant").and_then(Json::as_str), Some("acme"));
        let labels: Vec<u64> = v
            .get("labels")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|l| l.as_u64().unwrap())
            .collect();
        assert_eq!(labels, vec![0, 0, 1]);
        assert_eq!(v.get("edges").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(v.get("collect").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("max_results").and_then(Json::as_u64), Some(10));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\nA😀""#.as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(b"{").is_err());
        assert!(parse(b"[1,]").is_err());
        assert!(parse(b"01a").is_err());
        assert!(parse(b"\"unterminated").is_err());
        assert!(parse(b"{\"a\":1} extra").is_err());
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(deep.as_bytes()).is_err());
    }

    #[test]
    fn numbers_round_trip_integers() {
        assert_eq!(parse(b"42").unwrap().as_u64(), Some(42));
        assert_eq!(parse(b"-1").unwrap().as_u64(), None);
        assert_eq!(parse(b"1.5").unwrap().as_u64(), None);
        assert_eq!(parse(b"1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn u64_is_lossless_around_the_f64_boundary() {
        // 2^53 - 1 is the last unambiguous plain number.
        assert_eq!(MAX_SAFE_INT, 9007199254740991);
        assert_eq!(
            parse(b"9007199254740991").unwrap().as_u64(),
            Some(MAX_SAFE_INT)
        );
        // 2^53 and 2^53 + 1 parse to the *same* f64 — a plain number
        // there is ambiguous, so both are rejected, not truncated.
        assert_eq!(
            parse(b"9007199254740992").unwrap(),
            parse(b"9007199254740993").unwrap()
        );
        assert_eq!(parse(b"9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse(b"9007199254740993").unwrap().as_u64_lossless(), None);

        // The split encoding round-trips every u64 exactly.
        for v in [
            0,
            MAX_SAFE_INT,
            MAX_SAFE_INT + 1,
            MAX_SAFE_INT + 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut doc = String::from("{\"count\":");
            write_u64(&mut doc, v);
            doc.push('}');
            let parsed = parse(doc.as_bytes()).unwrap();
            assert_eq!(
                parsed.get("count").and_then(Json::as_u64_lossless),
                Some(v),
                "round-trip failed for {v} via {doc}"
            );
            // Within the safe range the encoding stays a plain number
            // (no behaviour change for existing float-based readers).
            assert_eq!(
                parsed.get("count").and_then(Json::as_u64).is_some(),
                v <= MAX_SAFE_INT
            );
        }

        // Non-canonical strings are not numbers.
        assert_eq!(parse(b"\"\"").unwrap().as_u64_lossless(), None);
        assert_eq!(parse(b"\"12x\"").unwrap().as_u64_lossless(), None);
        assert_eq!(
            parse(b"\"99999999999999999999999\"")
                .unwrap()
                .as_u64_lossless(),
            None,
            "overflowing decimal strings are rejected"
        );
    }

    #[test]
    fn rejects_invalid_utf8_in_strings_only() {
        let err = parse(b"\"ab\xffc\"").unwrap_err();
        assert_eq!(err, "invalid UTF-8 in string at byte 3");
        // A valid string ahead of a stray byte parses; the byte is the error.
        let err = parse(b"[\"ab\", \xff]").unwrap_err();
        assert!(err.starts_with("unexpected character"), "{err}");
        assert_eq!(
            parse("\"é\\n😀x\"".as_bytes()).unwrap().as_str(),
            Some("é\n😀x")
        );
    }

    /// One long string decodes in linear time: validating the rest of the
    /// body once per character took 40 s for 1 MiB in a release build.
    #[test]
    fn a_mebibyte_string_decodes_in_linear_time() {
        let body = format!("{{\"tenant\":\"{}\"}}", "é".repeat(1 << 19));
        let start = std::time::Instant::now();
        let doc = parse(body.as_bytes()).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            doc.get("tenant").and_then(Json::as_str).map(str::len),
            Some(1 << 20)
        );
        assert!(elapsed.as_secs_f64() < 2.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn escape_emits_valid_literals() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
