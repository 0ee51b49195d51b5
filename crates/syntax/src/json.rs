//! The workspace's one JSON reader/writer.
//!
//! It serves the daemon protocol, the castore daemon and its remote
//! client, fleet worker frames, `rlclint --json` and the bench harness's
//! result files. Every producer needs deterministic output (object keys
//! are emitted in insertion order) and every consumer reads one
//! machine-written value at a time, so a small parser suffices. Numbers are
//! kept as `f64`: the formats carry small integers, timings and ratios.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the protocol never needs more than `f64` precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps lookups simple; emission order for
    /// responses is controlled by [`Writer`], not by this map.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if representable.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }
}

/// Parses one JSON value from `text`, requiring that nothing but
/// whitespace follows it.
///
/// # Errors
///
/// Returns a human-readable message on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{s}`"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low one
                            // is one non-BMP character (`json.dumps` writes
                            // them so by default); a lone surrogate degrades
                            // to the replacement character.
                            let low = match cp {
                                0xd800..=0xdbff
                                    if self.bytes[self.pos + 1..].starts_with(b"\\u") =>
                                {
                                    self.hex4(self.pos + 3)
                                        .ok()
                                        .filter(|c| (0xdc00..=0xdfff).contains(c))
                                }
                                _ => None,
                            };
                            let c = match low {
                                Some(low) => {
                                    self.pos += 6;
                                    0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00)
                                }
                                None => cp,
                            };
                            out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err("bad escape".to_owned()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next structural byte.
                    // `"` and `\` are ASCII, so they can never split a
                    // multi-byte sequence, and the input is a &str, so the
                    // run is always well-formed UTF-8.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

/// An insertion-ordered JSON object writer: responses always emit keys in
/// the order the handler added them, so byte-level comparisons between
/// runs are meaningful. Nested objects and arrays of objects are written
/// into the same buffer ([`Writer::object`], [`Writer::objects`]), so a
/// whole response is one allocation.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
    items: usize,
}

impl Writer {
    /// Starts an empty object.
    pub fn obj() -> Self {
        Writer::open(String::new())
    }

    /// Starts an object at the end of `buf`.
    fn open(mut buf: String) -> Self {
        buf.push('{');
        Writer { buf, items: 0 }
    }

    fn key(&mut self, k: &str) {
        if self.items > 0 {
            self.buf.push(',');
        }
        self.items += 1;
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(mut self, additional: usize) -> Self {
        self.buf.reserve(additional);
        self
    }

    /// Adds a string member.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        write_escaped(&mut self.buf, v);
        self
    }

    /// Adds a string member holding `v`'s `Display` text, escaped as it is
    /// formatted: the text itself is never built.
    pub fn display(mut self, k: &str, v: impl fmt::Display) -> Self {
        self.key(k);
        self.buf.push('"');
        let _ = write!(Escaping(&mut self.buf), "{v}");
        self.buf.push('"');
        self
    }

    /// Adds an integer member.
    pub fn num(mut self, k: &str, v: usize) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float member with millisecond precision (3 decimals).
    pub fn ms(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v:.3}");
        self
    }

    /// Adds a float member at full precision (`null` when not finite).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean member.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (e.g. a nested object).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Adds a nested object member whose members `f` writes into this
    /// writer's buffer.
    pub fn object(mut self, k: &str, f: impl FnOnce(Writer) -> Writer) -> Self {
        self.key(k);
        self.buf = f(Writer::open(std::mem::take(&mut self.buf))).done();
        self
    }

    /// Adds an array member of one object per item, whose members `f`
    /// writes into this writer's buffer.
    pub fn objects<T>(
        mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
        f: impl FnMut(Writer, T) -> Writer,
    ) -> Self {
        self.key(k);
        self.buf = objects_into(std::mem::take(&mut self.buf), items, f);
        self
    }

    /// Adds an array of strings.
    pub fn str_arr(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            write_escaped(&mut self.buf, v);
        }
        self.buf.push(']');
        self
    }

    /// Finishes the object and returns its text.
    pub fn done(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Joins pre-rendered JSON values into an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// A top-level array of one object per item, whose members `f` writes.
pub fn objects<T>(
    items: impl IntoIterator<Item = T>,
    f: impl FnMut(Writer, T) -> Writer,
) -> String {
    objects_into(String::new(), items, f)
}

fn objects_into<T>(
    mut buf: String,
    items: impl IntoIterator<Item = T>,
    mut f: impl FnMut(Writer, T) -> Writer,
) -> String {
    buf.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf = f(Writer::open(buf), item).done();
    }
    buf.push(']');
    buf
}

/// `s` as a JSON string literal (quotes included).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// Appends `s` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` escaped, without quotes. Runs of bytes that need no escape
/// are copied whole; only `"`, `\` and bytes below 0x20 are escaped. Each
/// of those is ASCII, so a run never ends inside a multi-byte character.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// A `fmt::Write` sink that escapes what is written into a JSON string.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let v =
            parse(r#"{"id": 3, "method": "check", "params": {"file": "a.c", "text": "int x;\n"}}"#)
                .unwrap();
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("method").and_then(Json::as_str), Some("check"));
        let params = v.get("params").unwrap();
        assert_eq!(params.get("text").and_then(Json::as_str), Some("int x;\n"));
    }

    #[test]
    fn round_trips_escapes() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        let back = parse(&s).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn writer_preserves_insertion_order() {
        let s = Writer::obj().num("z", 1).str("a", "b").bool("m", true).done();
        assert_eq!(s, r#"{"z":1,"a":"b","m":true}"#);
    }

    #[test]
    fn floats_and_arrays_round_trip() {
        let s = array([
            Writer::obj().f64("x", 0.25).f64("inf", f64::INFINITY).done(),
            Writer::obj().done(),
        ]);
        assert_eq!(s, r#"[{"x":0.25,"inf":null},{}]"#);
        let v = parse(&s).unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![parse(r#"{"x":0.25,"inf":null}"#).unwrap(), parse("{}").unwrap()])
        );
    }

    #[test]
    fn nested_members_write_into_one_buffer() {
        let s = Writer::obj()
            .num("id", 7)
            .object("result", |w| {
                w.objects("a", ["b\"c"], |w, n| w.str("n", n))
                    .object("empty", |w| w)
                    .objects("none", [(); 0], |w, ()| w)
                    .display("shown", format_args!("{}\t{}", 1, "\"x\""))
            })
            .done();
        assert_eq!(
            s,
            r#"{"id":7,"result":{"a":[{"n":"b\"c"}],"empty":{},"none":[],"shown":"1\t\"x\""}}"#
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let s = |text: &str| parse(text).unwrap().as_str().unwrap().to_owned();
        assert_eq!(s(r#""ab\ud83d\ude00c""#), "ab\u{1f600}c");
        assert_eq!(s(r#""\uD83D\uDE00""#), "\u{1f600}");
        assert_eq!(s(r#""\udbff\udfff""#), "\u{10ffff}");
        // Lone surrogates still degrade to U+FFFD, one per escape.
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\n""#), "\u{fffd}\n");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert!(parse(r#""\ud83d\ude0""#).is_err());
    }

    /// The reference the run-based escaper must equal byte for byte: one
    /// char at a time.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    #[test]
    fn run_escaping_matches_the_char_by_char_escaper() {
        // Every byte below 0x20, DEL, the two escaped printables, plain
        // ASCII, and 2-, 3- and 4-byte UTF-8.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['\u{7f}', '"', '\\', '/', 'a', ' ', '\u{e9}', '\u{20ac}', '\u{1f600}']);
        let mut rng = crate::rng::SplitMix64::seeded(20);
        for _ in 0..2000 {
            let len = rng.below(24) as usize;
            let text: String = (0..len).map(|_| *rng.pick(&alphabet)).collect();
            let mut escaped = String::from("x");
            write_escaped(&mut escaped, &text);
            assert_eq!(&escaped[1..], escape_by_char(&text), "{text:?}");
            assert_eq!(parse(&escaped[1..]).unwrap().as_str(), Some(text.as_str()));
            let shown = Writer::obj().display("k", &text).done();
            assert_eq!(shown, format!("{{\"k\":{}}}", escape_by_char(&text)));
        }
    }
}
