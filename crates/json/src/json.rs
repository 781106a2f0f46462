//! The parser and escaper behind the crate root.
//!
//! The subset implemented is full JSON minus niceties nobody sends to this
//! repository: numbers are kept as `f64` (every size/count carried fits in
//! the 53-bit mantissa), and `\uXXXX` escapes outside the basic
//! multilingual plane must arrive as surrogate pairs.  Number syntax is
//! RFC 8259's, checked before conversion; non-finite values are rejected.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number inside as a `u64`, if it is one (integral, in range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= (1u64 << 53) as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The elements inside, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member `key` as a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Member `key` as a `u64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Member `key` as a list of strings.  `Err` names the key when the
    /// member exists but is not an array of strings; `Ok(None)` when absent.
    pub fn get_str_list(&self, key: &str) -> Result<Option<Vec<String>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| format!("`{key}` must be an array of strings"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("`{key}` must be an array of strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }

    /// Member `key` as a list of `u64`s.  Same contract as
    /// [`Value::get_str_list`].
    pub fn get_u64_list(&self, key: &str) -> Result<Option<Vec<u64>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| format!("`{key}` must be an array of non-negative integers"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_u64().ok_or_else(|| {
                            format!("`{key}` must be an array of non-negative integers")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
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

/// Parse one JSON document.  Trailing non-whitespace is an error (the
/// service protocol is one document per line).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let span = &self.bytes[start..self.pos];
        let text = std::str::from_utf8(span).map_err(|_| "bad number".to_string())?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() && is_json_number(span) => Ok(Value::Num(n)),
            _ => Err(format!("bad number `{text}` at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((unit - 0xd800) << 10)
                                        + low.checked_sub(0xdc00).ok_or("bad surrogate pair")?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or("bad unicode escape")?);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".to_string());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos = end;
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

/// RFC 8259 number syntax: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
/// Rust's `f64::from_str` also takes `01`, `1.` and `1.e5`, so the span is
/// checked here before it is converted.
fn is_json_number(span: &[u8]) -> bool {
    fn digits(s: &[u8]) -> usize {
        s.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let s = span.strip_prefix(b"-").unwrap_or(span);
    let int = digits(s);
    if int == 0 || (int > 1 && s[0] == b'0') {
        return false;
    }
    let mut rest = &s[int..];
    if let Some(frac) = rest.strip_prefix(b".") {
        let n = digits(frac);
        if n == 0 {
            return false;
        }
        rest = &frac[n..];
    }
    if let Some(exp) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exp = exp
            .strip_prefix(b"+")
            .or_else(|| exp.strip_prefix(b"-"))
            .unwrap_or(exp);
        let n = digits(exp);
        if n == 0 {
            return false;
        }
        rest = &exp[n..];
    }
    rest.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(
            r#"{"kind":"sweep","id":"r1","nodes":[2,4],"threads":3,"deep":{"x":true,"y":null},"f":-1.5e2}"#,
        )
        .unwrap();
        assert_eq!(v.get_str("kind"), Some("sweep"));
        assert_eq!(v.get_str("id"), Some("r1"));
        assert_eq!(v.get_u64_list("nodes").unwrap(), Some(vec![2, 4]));
        assert_eq!(v.get_u64("threads"), Some(3));
        assert_eq!(v.get("deep").unwrap().get("x"), Some(&Value::Bool(true)));
        assert_eq!(v.get("deep").unwrap().get("y"), Some(&Value::Null));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("f").unwrap().as_u64(), None, "negative is not u64");
        assert_eq!(v.get("missing"), None);
        // Every number form RFC 8259 allows, up to `f64::MAX`.
        for good in [
            "0",
            "-0",
            "0.5",
            "-0.5e-3",
            "1E+2",
            "10",
            "1.7976931348623157e308",
        ] {
            assert!(parse(good).is_ok(), "`{good}` should parse");
        }
    }

    #[test]
    fn parses_the_baseline_shape() {
        let v = parse(
            r#"{"version":1,"entries":[{"rule":"lock-unwrap","file":"a.rs","count":2,"reason":"why"}]}"#,
        )
        .unwrap();
        assert_eq!(v.get_u64("version"), Some(1));
        let entries = v.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries[0].get_str("rule"), Some("lock-unwrap"));
        assert_eq!(entries[0].get_u64("count"), Some(2));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1f600}√";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get_str("s"), Some(original));
        // Surrogate-pair escapes decode too.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\":1}trailing",
            "\"\\u12\"",
            "\"\\q\"",
            "01a",
            "nul",
            "{\"a\" 1}",
            "\"\\ud800x\"",
            // Numbers outside RFC 8259 that `f64::from_str` would take.
            "01",
            "00",
            "1.",
            "1.e5",
            "-01.50",
            "-",
            "1e",
            "1e+",
            "+1",
            ".5",
            "[1.5.2]",
            "1e400",
            "-1e400",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
        let err = parse("[1, 01]").unwrap_err();
        assert!(err.contains("at byte 4"), "{err}");
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn typed_list_helpers_reject_mixed_arrays() {
        let v = parse(r#"{"a":[1,"x"],"b":"not a list","c":["x","y"]}"#).unwrap();
        assert!(v.get_u64_list("a").is_err());
        assert!(v.get_str_list("a").is_err());
        assert!(v.get_str_list("b").is_err());
        assert_eq!(
            v.get_str_list("c").unwrap(),
            Some(vec!["x".to_string(), "y".to_string()])
        );
        assert_eq!(v.get_str_list("missing").unwrap(), None);
        // Duplicate keys keep the first binding.
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get_u64("k"), Some(1));
    }
}
