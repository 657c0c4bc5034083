//! The workspace's one JSON codec: a [`Json`] value, a strict parser
//! ([`parse`]) and the string escaper ([`quote`]).
//!
//! The workspace has no serde. Every JSON document it writes — sweep
//! records, store lines, flight-recorder logs, Chrome traces, lint
//! reports, metrics — is rendered by hand with [`quote`] for its
//! strings, and every document it reads back goes through [`parse`].
//! Numbers stay as their source text ([`Json::Num`]) until the caller
//! parses them at the width it needs ([`Json::number`]), so `u128`
//! counters and `f64` bit patterns round-trip exactly.

use std::fmt::Write as _;

/// Nesting depth beyond which [`parse`] gives up: deep enough for every
/// document the workspace writes, shallow enough that a hostile input
/// cannot exhaust the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array, in source order.
    Arr(Vec<Json>),
    /// An object's members, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first member named `key`, if this is an object holding one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed at width `T`, if this is a number that fits.
    #[must_use]
    pub fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Quotes `s` as a JSON string literal. `"` and `\` are escaped, `\n`,
/// `\r` and `\t` take their short forms, the other C0 controls become
/// `\u00xx`, and everything else (DEL and non-ASCII included) passes
/// through unchanged.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document (RFC 8259: no trailing commas, no raw
/// control characters in strings, no leading zeros).
///
/// # Errors
///
/// Returns a short message naming the first byte offset that does not
/// parse.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, bytes: src.as_bytes(), pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at offset {}", self.pos))
        }
    }

    /// Consumes one or more ASCII digits; false when there are none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("malformed number at offset {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if !self.digits() {
            return Err(bad());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(bad());
            }
        }
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }

    /// Decodes a string literal in one pass: unescaped runs are copied
    /// as whole slices (they end at an ASCII byte, so at a char
    /// boundary), escapes are decoded in place.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("malformed escape at offset {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!(
                        "raw control byte {c:#04x} in string at offset {}",
                        self.pos
                    ))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape (the cursor sits on the
    /// `u`), joining a surrogate pair when one follows. Leaves the cursor
    /// on the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let bad = || format!("malformed \\u escape at offset {at}");
        let hi = self.hex4(self.pos + 1).ok_or_else(bad)?;
        self.pos += 4;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                return Err(bad());
            }
            let lo = self.hex4(self.pos + 3).ok_or_else(bad)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(bad());
            }
            self.pos += 6;
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(bad)
    }

    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.src.get(at..at + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u32::from_str_radix(digits, 16).ok()
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected an object key at offset {}", self.pos));
            }
            let key = self.string()?;
            self.eat(b':')?;
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_arrays() {
        let v = parse("{\"a\": [1, 2, [\"x\"], {\"b\": true}], \"e\": []}").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], Json::Num("1".into()));
        assert_eq!(a[2].as_array().unwrap()[0].as_str(), Some("x"));
        assert_eq!(a[3].get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("e").unwrap().as_array().unwrap().is_empty());
        assert!(parse("[1, 2").is_err());
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, {"b": "x\n\"y\" é"}], "c": null}"#).unwrap();
        let b = v.get("a").and_then(Json::as_array).unwrap()[1].get("b").unwrap();
        assert_eq!(b.as_str(), Some("x\n\"y\" é"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("tab\there"), "\"tab\\there\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("cr\r/\u{7f}é"), "\"cr\\r/\u{7f}é\"");
    }

    #[test]
    fn every_short_escape_decodes_to_its_control() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé😀"));
        for bad in [r#""\x""#, r#""\u12""#, r#""\ud83d""#, r#""\ud83d\u0041""#, "\"a\u{1}b\""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_keep_their_text_and_follow_the_grammar() {
        let v =
            parse("[0, -12, 3.25, 1e-6, 2E+3, 340282366920938463463374607431768211455]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].number::<u64>(), Some(0));
        assert_eq!(items[1].number::<i64>(), Some(-12));
        assert_eq!(items[2].number::<f64>(), Some(3.25));
        assert_eq!(items[3].number::<f64>(), Some(1e-6));
        assert_eq!(items[4], Json::Num("2E+3".into()));
        assert_eq!(items[5].number::<u128>(), Some(u128::MAX));
        assert_eq!(items[2].number::<u64>(), None, "a fraction is not a u64");
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "1.e3"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    /// Seeded property: every string survives `quote` then `parse`,
    /// over an alphabet of every C0 control, the escape-significant
    /// ASCII, DEL, and 2-, 3- and 4-byte UTF-8.
    #[test]
    fn quote_then_parse_round_trips_random_strings() {
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', '\u{7f}', 'a', ' ', 'é', 'ß', '€', '中', '😀', '𝄞']);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let len = (next() % 24) as usize;
            let s: String =
                (0..len).map(|_| alphabet[(next() % alphabet.len() as u64) as usize]).collect();
            let quoted = quote(&s);
            assert_eq!(parse(&quoted), Ok(Json::Str(s.clone())), "round trip of {quoted}");
        }
    }
}
