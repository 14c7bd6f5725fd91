//! A minimal integer-only JSON reader shared by the documents this
//! workspace writes and parses again: the `gr-cache/v2` report cache, the
//! `greduce/stats/v4` ledger and the `BENCH_detection.json` bench ledger
//! that `all_figures --baseline` gates (see `docs/formats.md`).
//!
//! The workspace has no serde on purpose (no external dependencies), and
//! its formats never need floats: every number written is an `i64`.
//! This module is the one parser those formats round-trip through —
//! writers stay hand-rendered (each format documents its own
//! byte-deterministic layout), readers share [`JsonVal::parse`].
//! Malformed input parses to `None`, never panics: persistent artifacts
//! are untrusted (a corrupted cache file must degrade, not crash a
//! server).

/// Minimal integer-only JSON value: objects, arrays, strings, `i64`
/// numbers. No floats, no booleans, no `null` — the formats this
/// workspace writes use none of them.
pub enum JsonVal {
    /// A number (always an integer in our formats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonVal>),
    /// An object, in source order (our renders are deterministic, so
    /// order is meaningful and preserved).
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    /// Parses a complete JSON document; `None` on any malformation or
    /// trailing garbage.
    #[must_use]
    pub fn parse(input: &str) -> Option<JsonVal> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// The integer value, if this is a number.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonVal::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonVal]> {
        match self {
            JsonVal::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, JsonVal)]> {
        match self {
            JsonVal::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// First value under `key` in an object's entry list.
#[must_use]
pub fn lookup<'a>(obj: &'a [(String, JsonVal)], key: &str) -> Option<&'a JsonVal> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<JsonVal> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(JsonVal::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                entries.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(JsonVal::Obj(entries));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(JsonVal::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(JsonVal::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => parse_string(bytes, pos).map(JsonVal::Str),
        _ => {
            let start = *pos;
            if bytes.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if *pos == start || (*pos == start + 1 && bytes[start] == b'-') {
                return None;
            }
            std::str::from_utf8(&bytes[start..*pos]).ok()?.parse().ok().map(JsonVal::Int)
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        let c = char::from_u32(code)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            b => {
                out.push(*b);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_our_formats_use() {
        let v = JsonVal::parse(r#"{"schema":"x/v1","n":-3,"a":[1,2,["s"]],"o":{}}"#).unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(lookup(o, "schema").unwrap().as_str(), Some("x/v1"));
        assert_eq!(lookup(o, "n").unwrap().as_int(), Some(-3));
        let a = lookup(o, "a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].as_arr().unwrap()[0].as_str(), Some("s"));
        assert!(lookup(o, "o").unwrap().as_obj().unwrap().is_empty());
        assert!(lookup(o, "missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let v = JsonVal::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}"));
    }

    #[test]
    fn malformed_input_is_rejected_not_panicked() {
        for bad in
            ["", "{", "{\"a\"}", "[1,", "1.5", "true", "null", "{\"a\":1} extra", "\"unterminated"]
        {
            assert!(JsonVal::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }
}
