//! The workspace's one JSON reader and writer. [`JsonValue`] is the tree
//! both directions share: [`parse`] reads a document into it (the tests
//! that read a dump back go through it) and [`pretty`] writes one out (the
//! bench harnesses' result files). The escape-aware `push` writers under
//! [`pretty`] also serve the snapshots and flight records that stream
//! their JSON without building a tree.

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite f64 in shortest-round-trip form; non-finite values
/// become `null` (JSON has no NaN/∞).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value; objects keep their fields in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object holding `fields` in the given order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> Self {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_owned())
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Num(n as f64)
            }
        }
    )*};
}
from_number!(f32, f64, u64, usize);

impl<T: Clone + Into<JsonValue>> From<&[T]> for JsonValue {
    fn from(items: &[T]) -> Self {
        JsonValue::Array(items.iter().cloned().map(Into::into).collect())
    }
}

/// Pretty-prints `value`: 2-space indent, `"key": value`, and `[]` / `{}`
/// for empty containers. Numbers go through [`push_f64`], so a non-finite
/// one prints as `null`.
pub fn pretty(value: &JsonValue) -> String {
    let mut out = String::new();
    push_pretty(&mut out, value, 0);
    out
}

fn push_pretty(out: &mut String, value: &JsonValue, depth: usize) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => push_f64(out, *n),
        JsonValue::Str(s) => push_string(out, s),
        JsonValue::Array(items) if items.is_empty() => out.push_str("[]"),
        JsonValue::Object(fields) if fields.is_empty() => out.push_str("{}"),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                push_item_break(out, i, depth + 1);
                push_pretty(out, item, depth + 1);
            }
            push_item_break(out, 0, depth);
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                push_item_break(out, i, depth + 1);
                push_string(out, key);
                out.push_str(": ");
                push_pretty(out, item, depth + 1);
            }
            push_item_break(out, 0, depth);
            out.push('}');
        }
    }
}

/// The comma after item `i - 1` (none before the first), then a newline
/// indented to `depth`.
fn push_item_break(out: &mut String, i: usize, depth: usize) {
    out.push_str(if i > 0 { ",\n" } else { "\n" });
    out.push_str(&"  ".repeat(depth));
}

/// Strict recursive-descent parse of one complete JSON document; the error
/// describes the first violation (trailing bytes included).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let doc = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(doc)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "non-utf8 escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogates only appear for astral chars the
                            // exporter writes raw; lone ones are an error.
                            out.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte at offset {}", self.pos));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string content".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected , or ] at offset {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected , or }} at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render_str(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(render_str("plain"), "\"plain\"");
        assert_eq!(render_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(render_str("line\nbreak\t"), "\"line\\nbreak\\t\"");
        assert_eq!(render_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parse_reads_back_what_the_writers_emit_and_rejects_corruption() {
        let mut doc = String::from("{\"kind\":");
        push_string(&mut doc, "a}\"\n\u{1}");
        doc.push_str(",\"v\":[");
        push_f64(&mut doc, -0.25);
        doc.push_str(",null,true]}");
        let JsonValue::Object(fields) = parse(&doc).unwrap() else {
            panic!("not an object: {doc}");
        };
        assert_eq!(fields[0].1, JsonValue::Str("a}\"\n\u{1}".into()));
        assert_eq!(
            fields[1].1,
            JsonValue::Array(vec![
                JsonValue::Num(-0.25),
                JsonValue::Null,
                JsonValue::Bool(true)
            ])
        );
        for bad in [
            "{\"kind\":\"}",
            "{\"n\":1.2.3}",
            "{\"n\":1} x",
            "{\"n\":01e}",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    /// [`golden_doc`] as the vendored `serde_json` printer, which wrote the
    /// bench result files before [`pretty`], laid it out: byte for byte but
    /// for one chosen difference, `-0.0` prints `-0`, not `0`. That printer
    /// sent integral numbers through `i64`, dropping the sign of zero;
    /// [`push_f64`]'s shortest round-trip form keeps it and stays the one
    /// number formatter. Every other number prints the same either way.
    const GOLDEN_PRETTY: &str = r#"{
  "text": "quote \" backslash \\ newline \n ctrl \u0001 café 图",
  "ints": [
    0,
    7,
    -3
  ],
  "fractions": [
    0.25,
    -1.5
  ],
  "big": 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,
  "neg_zero": -0,
  "nan": null,
  "flags": [
    true,
    false,
    null
  ],
  "empty_array": [],
  "empty_object": {},
  "nested": {
    "level": {
      "deeper": [
        [
          1,
          2
        ],
        {
          "k": "v"
        }
      ]
    }
  }
}"#;

    fn golden_doc() -> JsonValue {
        JsonValue::object([
            (
                "text",
                "quote \" backslash \\ newline \n ctrl \u{1} café 图".into(),
            ),
            ("ints", [0.0, 7.0, -3.0].as_slice().into()),
            ("fractions", [0.25, -1.5].as_slice().into()),
            ("big", 1e300.into()),
            ("neg_zero", (-0.0).into()),
            ("nan", f64::NAN.into()),
            (
                "flags",
                JsonValue::Array(vec![true.into(), false.into(), JsonValue::Null]),
            ),
            ("empty_array", JsonValue::Array(Vec::new())),
            ("empty_object", JsonValue::object([])),
            (
                "nested",
                JsonValue::object([(
                    "level",
                    JsonValue::object([(
                        "deeper",
                        JsonValue::Array(vec![
                            [1usize, 2].as_slice().into(),
                            JsonValue::object([("k", "v".into())]),
                        ]),
                    )]),
                )]),
            ),
        ])
    }

    #[test]
    fn pretty_reproduces_the_golden_layout() {
        assert_eq!(pretty(&golden_doc()), GOLDEN_PRETTY);
        // It reads back as the same tree, but for NaN, written as `null`.
        let JsonValue::Object(mut fields) = golden_doc() else {
            unreachable!()
        };
        fields[5].1 = JsonValue::Null;
        assert_eq!(parse(GOLDEN_PRETTY), Ok(JsonValue::Object(fields)));
    }

    /// A finite document drawn from `state`: containers of at most four
    /// items nested `depth` deep, strings over quotes, escapes, controls
    /// and non-ASCII (astral included), numbers over every finite bit
    /// pattern.
    fn arbitrary_doc(state: &mut u64, depth: usize) -> JsonValue {
        const CHARS: [char; 10] = ['a', 'Z', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}', 'é', '𝄞'];
        let mut next = || {
            // SplitMix64.
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let kinds = if depth == 0 { 4 } else { 6 };
        let kind = next() % kinds;
        let len = next() % 5;
        match kind {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(len % 2 == 0),
            2 => {
                let bits = next();
                let n = f64::from_bits(bits);
                JsonValue::Num(if n.is_finite() {
                    n
                } else {
                    (bits >> 11) as f64
                })
            }
            3 => JsonValue::Str(
                (0..len)
                    .map(|_| CHARS[(next() % CHARS.len() as u64) as usize])
                    .collect(),
            ),
            4 => JsonValue::Array((0..len).map(|_| arbitrary_doc(state, depth - 1)).collect()),
            _ => JsonValue::Object(
                (0..len)
                    .map(|i| (format!("k{i}"), arbitrary_doc(state, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest::proptest! {
        #[test]
        fn parse_reads_back_what_pretty_writes(seed in proptest::arbitrary::any::<u64>()) {
            let mut state = seed;
            let doc = arbitrary_doc(&mut state, 4);
            proptest::prop_assert_eq!(parse(&pretty(&doc)), Ok(doc));
        }
    }

    #[test]
    fn floats_render_shortest_and_null_non_finite() {
        let mut out = String::new();
        push_f64(&mut out, 1.0);
        out.push(',');
        push_f64(&mut out, 0.25);
        out.push(',');
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "1,0.25,null,null");
    }
}
