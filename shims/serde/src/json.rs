//! JSON text: printing a [`Value`], and the [`Reader`] every
//! [`Deserialize`](crate::Deserialize) impl decodes from.

use std::borrow::Cow;

use crate::{Deserialize, Error, Map, Number, Value};

/// Renders `v` as compact JSON (no whitespace).
pub fn format_compact(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Renders `v` as pretty JSON (2-space indent, like serde_json).
pub fn format_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, value)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, value, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: &Number) {
    match n {
        Number::Int(v) => out.push_str(&v.to_string()),
        Number::UInt(v) => out.push_str(&v.to_string()),
        Number::Float(v) => {
            if v.is_finite() {
                // `{:?}` is the shortest round-tripping form and keeps a
                // trailing `.0` on integral floats, matching serde_json.
                out.push_str(&format!("{v:?}"));
            } else {
                // serde_json refuses non-finite floats; emitting null matches
                // its lossy Value-level behaviour and keeps output parseable.
                out.push_str("null");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting a [`Reader`] accepts (serde_json's limit).
/// Containers are read recursively, so unbounded input nesting would
/// overflow the stack — an abort no caller can catch.
const MAX_DEPTH: usize = 128;

/// A cursor over JSON text that typed decoders read from directly.
///
/// Strings without escapes come back borrowed from the text, so decoding
/// builds no intermediate tree and copies each string at most once, into the
/// field that owns it. Every method skips leading whitespace. A decoder
/// that succeeds has read well-formed JSON: the same rules hold whether the
/// text is read as a type or as a [`Value`].
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The next byte after whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.byte()
    }

    /// Checks that only whitespace follows the value read.
    pub fn finish(&mut self) -> Result<(), Error> {
        if self.peek().is_some() {
            return Err(Error::custom(format!(
                "trailing characters at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Decodes one `T`. On a decode error the same text is read again as a
    /// [`Value`], returned beside the error so the caller can still look
    /// into it; the outer `Err` is malformed JSON, which takes precedence
    /// over any decode error inside it, as it would for a parse-then-decode.
    pub fn try_read<T: Deserialize>(&mut self) -> Result<Result<T, (Error, Value)>, Error> {
        let (pos, depth) = (self.pos, self.depth);
        match T::deserialize(self) {
            Ok(decoded) => Ok(Ok(decoded)),
            Err(e) => {
                (self.pos, self.depth) = (pos, depth);
                Ok(Err((e, self.value()?)))
            }
        }
    }

    /// The error for a value of the wrong type: `expected {what}, got …`,
    /// with the offending value read (and so consumed) to render it.
    pub fn unexpected(&mut self, what: &str) -> Error {
        match self.value() {
            Ok(v) => Error::custom(format!("expected {what}, got {v}")),
            Err(e) => e,
        }
    }

    /// Consumes a `null`, returning whether there was one.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.expect_literal("null")?;
        Ok(true)
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.expect_literal("true").map(|()| true),
            Some(b'f') => self.expect_literal("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    /// Reads a number: an integer when the literal has no fraction or
    /// exponent and fits 64 bits, a float otherwise.
    pub fn number(&mut self) -> Result<Number, Error> {
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.unexpected("number")),
        }
    }

    /// Reads a string, borrowed from the text unless it has escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        match self.peek() {
            Some(b'"') => self.parse_string(),
            _ => Err(self.unexpected("string")),
        }
    }

    /// Reads any value into a tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => Ok(Value::String(self.parse_string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut map = Map::new();
                self.object(|r, key| {
                    let value = r.value()?;
                    map.insert(key.into_owned(), value);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number().map(Value::Number),
            Some(b) => Err(Error::custom(format!(
                "unexpected character '{}' at offset {}",
                b as char, self.pos
            ))),
            None => Err(Error::custom("unexpected end of input")),
        }
    }

    /// Reads an array, calling `item` to read each element in turn. The
    /// caller has peeked its `[`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.enter()?;
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_whitespace();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => break,
                    _ => return Err(Error::custom("expected ',' or ']' in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an object, calling `entry` with each key to read its value.
    /// The caller has peeked its `{`.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.enter()?;
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_whitespace();
                let key = self.parse_string()?;
                self.skip_whitespace();
                self.expect(b':')?;
                entry(self, key)?;
                self.skip_whitespace();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(Error::custom("expected ',' or '}' in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Opens one container a level deeper, refusing to pass [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.byte()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        match self.bump() {
            Some(found) if found == b => Ok(()),
            Some(found) => Err(Error::custom(format!(
                "expected '{}' at offset {}, found '{}'",
                b as char,
                self.pos - 1,
                found as char
            ))),
            None => Err(Error::custom("unexpected end of input")),
        }
    }

    fn expect_literal(&mut self, literal: &str) -> Result<(), Error> {
        for &b in literal.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // Quotes and backslashes are ASCII, so every run between them
            // is whole UTF-8 and can be sliced out of the text as it is.
            let run = self.pos;
            while !matches!(self.byte(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            let text = &self.text[run..self.pos];
            match self.bump() {
                Some(b'"') => {
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    })
                }
                Some(_) => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(text);
                    let c = self.parse_escape()?;
                    out.push(c);
                }
                None => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// The character an escape stands for; the `\` is consumed.
    fn parse_escape(&mut self) -> Result<char, Error> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self.parse_hex4()?;
                // Surrogate pairs for astral-plane characters.
                let c = if (0xD800..0xDC00).contains(&code) {
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(Error::custom("expected low surrogate after high surrogate"));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined)
                } else {
                    char::from_u32(code)
                };
                c.ok_or_else(|| Error::custom("invalid \\u escape"))?
            }
            _ => return Err(Error::custom("invalid escape sequence")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::custom("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            while matches!(r.byte(), Some(b) if b.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::custom(format!("invalid number literal: {text}")))
    }
}
