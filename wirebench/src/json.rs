//! The little JSON the benchmark needs without going through the
//! serializer under test: number/string writers for the corpus, and a
//! top-level field splitter that hands back the raw bytes of one field of
//! a reply line (so replies are compared on bytes, not on a re-parse).

/// A number as the corpus writes it: Rust's shortest round-trip form
/// (`3` for `3.0`, `0.25`, `0.000001`). Callers keep values to a few
/// decimals so the text never needs an exponent.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "corpus numbers are finite");
    format!("{x}")
}

/// A JSON string literal. Corpus strings are plain ASCII; anything else
/// is escaped conservatively.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `[a,b,c]` of numbers.
pub fn num_array(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|&x| num(x)).collect();
    format!("[{}]", parts.join(","))
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Index just past the string literal starting at `b[i] == '"'`.
fn string_end(b: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Index just past the JSON value starting at `i`.
fn value_end(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'"' => string_end(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => {
                        j = string_end(b, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}' | b']') && !b[j].is_ascii_whitespace()
            {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// The raw text of top-level field `key` of the JSON object `obj`, or
/// `None` when `obj` is not an object or has no such field.
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let b = obj.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    loop {
        i = skip_ws(b, i);
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = string_end(b, i)?;
        let name = &obj[i + 1..key_end - 1];
        i = skip_ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let end = value_end(b, i)?;
        if name == key {
            return Some(&obj[i..end]);
        }
        i = skip_ws(b, end);
        match b.get(i) {
            Some(b',') => i += 1,
            _ => return None,
        }
    }
}

/// Every `"name"` value inside the JSON array text `array` whose elements
/// are objects (used to read the metric lists of `BENCHMARK.json`).
#[cfg(test)]
pub fn names_in(array: &str) -> Vec<String> {
    let b = array.as_bytes();
    let mut out = Vec::new();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'[') {
        return out;
    }
    i += 1;
    loop {
        i = skip_ws(b, i);
        let Some(end) = value_end(b, i) else {
            return out;
        };
        if let Some(name) = field(&array[i..end], "name") {
            out.push(name.trim_matches('"').to_string());
        }
        i = skip_ws(b, end);
        match b.get(i) {
            Some(b',') => i += 1,
            _ => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip_without_exponents() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(1e-6), "0.000001");
        assert_eq!(num(2.137), "2.137");
    }

    #[test]
    fn field_returns_raw_value_bytes() {
        let line = r#"{"a":1,"id":"x-3","outcome":{"Done":{"result":{"s":"}\"{,"}}},"seq":7}"#;
        assert_eq!(field(line, "a"), Some("1"));
        assert_eq!(field(line, "id"), Some("\"x-3\""));
        assert_eq!(
            field(line, "outcome"),
            Some(r#"{"Done":{"result":{"s":"}\"{,"}}}"#)
        );
        assert_eq!(field(line, "seq"), Some("7"));
        assert_eq!(field(line, "missing"), None);
        assert_eq!(field("[1,2]", "a"), None);
        assert_eq!(
            field("{\"this line is\": deliberately broken,,,", "id"),
            None
        );
    }

    #[test]
    fn names_in_reads_pretty_arrays() {
        let text =
            "[\n  {\"name\": \"a\", \"unit\": \"s\"},\n  {\"unit\": \"x\", \"name\": \"b.c\"}\n]";
        assert_eq!(names_in(text), vec!["a".to_string(), "b.c".to_string()]);
    }
}
