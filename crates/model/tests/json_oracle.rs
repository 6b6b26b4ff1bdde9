//! The JSON layer against a retained oracle: the parser and renderer of
//! `cpo_model::io::json_value` as they were before the run-wise string
//! scan and the single-buffer writer, copied verbatim below (only the
//! renderer's method names are prefixed, so the library's own inherent
//! methods cannot shadow them). Every property compares the library with
//! the oracle on the same input: compact and pretty bytes over random
//! values, and `parse` results, error texts included, over random,
//! truncated and hostile lines.
//!
//! The one difference on purpose is `\u` escapes, which now follow
//! RFC 8259 §7: a surrogate pair decodes to one character, and exactly
//! four hex digits are required (the oracle also took `\u+041`). Inputs
//! that contain either form are excluded by [`differs_by_design`] and
//! pinned by their own tests at the end.

use cpo_model::generator::section2_example;
use cpo_model::io::json_value::{self, Value};
use cpo_model::io::serde_json_error::Error;
use cpo_model::spec::Strategy;
use cpo_model::{CommModel, Objective, Platform, ProblemSpec, SolveRequest};
use oracle::OldRender;
use proptest::{prop_assert, proptest, ProptestConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Verbatim pre-change oracle
// ---------------------------------------------------------------------------

mod oracle {
    use cpo_model::io::json_value::Value;
    use cpo_model::io::serde_json_error::Error;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    pub trait OldRender {
        fn old_pretty(&self, indent: usize) -> String;
        fn old_compact(&self) -> String;
        fn old_render(&self, indent: Option<usize>) -> String;
    }

    impl OldRender for Value {
        /// Render with 2-space indentation.
        fn old_pretty(&self, indent: usize) -> String {
            self.old_render(Some(indent))
        }

        /// Render on one line with no whitespace (JSONL-friendly).
        fn old_compact(&self) -> String {
            self.old_render(None)
        }

        /// The single renderer behind both styles: `Some(level)` pretty
        /// prints at that indentation depth, `None` packs one line.
        fn old_render(&self, indent: Option<usize>) -> String {
            let inner = |v: &Value| v.old_render(indent.map(|i| i + 1));
            // (open, item prefix, item separator, close) per style.
            let seams = |open: char, close: char| match indent {
                Some(i) => (
                    format!("{open}\n"),
                    "  ".repeat(i + 1),
                    ",\n".to_string(),
                    format!("\n{}{close}", "  ".repeat(i)),
                ),
                None => (open.to_string(), String::new(), ",".to_string(), close.to_string()),
            };
            match self {
                Value::Null => "null".into(),
                Value::Bool(b) => b.to_string(),
                Value::Num(x) => format_number(*x),
                Value::Str(s) => escape(s),
                Value::Arr(items) => {
                    if items.is_empty() {
                        return "[]".into();
                    }
                    let (open, pad, sep, close) = seams('[', ']');
                    let body: Vec<String> =
                        items.iter().map(|v| format!("{pad}{}", inner(v))).collect();
                    format!("{open}{}{close}", body.join(&sep))
                }
                Value::Obj(map) => {
                    if map.is_empty() {
                        return "{}".into();
                    }
                    let (open, pad, sep, close) = seams('{', '}');
                    let colon = if indent.is_some() { ": " } else { ":" };
                    let body: Vec<String> = map
                        .iter()
                        .map(|(k, v)| format!("{pad}{}{colon}{}", escape(k), inner(v)))
                        .collect();
                    format!("{open}{}{close}", body.join(&sep))
                }
            }
        }
    }

    fn format_number(x: f64) -> String {
        if x.fract() == 0.0 && x.abs() < 9e15 {
            format!("{}", x as i64)
        } else {
            let mut s = String::new();
            write!(s, "{x:?}").expect("write to string");
            s
        }
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }

    /// Parse JSON text into a [`Value`].
    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Deepest array/object nesting [`parse`] accepts. Real requests nest
    /// about six levels; the cap only turns pathological input into a
    /// typed error.
    pub const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Containers currently open around `pos`.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }
        fn expect(&mut self, c: u8) -> Result<(), Error> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error(format!("expected `{}` at byte {}", c as char, self.pos)))
            }
        }
        fn literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }
        fn value(&mut self) -> Result<Value, Error> {
            self.skip_ws();
            match self.peek() {
                Some(b'n') if self.literal("null") => Ok(Value::Null),
                Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'[') => self.nested(Self::array),
                Some(b'{') => self.nested(Self::object),
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| Error(e.to_string()))?;
                    text.parse::<f64>().map(Value::Num).map_err(|e| Error(e.to_string()))
                }
                _ => Err(Error(format!("unexpected character at byte {}", self.pos))),
            }
        }
        /// Parse one container a level deeper, refusing past [`MAX_DEPTH`]:
        /// the parser recurses once per level, so an unbounded depth would
        /// overflow the stack instead of rejecting the line.
        fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
            if self.depth == MAX_DEPTH {
                return Err(Error(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            let v = f(self);
            self.depth -= 1;
            v
        }
        fn array(&mut self) -> Result<Value, Error> {
            self.pos += 1;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error(format!("expected , or ] at byte {}", self.pos))),
                }
            }
            Ok(Value::Arr(items))
        }
        fn object(&mut self) -> Result<Value, Error> {
            self.pos += 1;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error(format!("expected , or }} at byte {}", self.pos))),
                }
            }
            Ok(Value::Obj(map))
        }
        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error("unterminated string".into())),
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
                            Some(b'u') => {
                                if self.pos + 4 >= self.bytes.len() {
                                    return Err(Error("truncated \\u escape".into()));
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .map_err(|e| Error(e.to_string()))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|e| Error(e.to_string()))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error("invalid \\u escape".into()))?,
                                );
                                self.pos += 4;
                            }
                            other => {
                                return Err(Error(format!("invalid escape {other:?}")));
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| Error(e.to_string()))?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// String pieces covering every escape class: quotes, backslashes, the
/// named control escapes, other control characters, multi-byte UTF-8
/// (two, three and four bytes) and JSON punctuation.
const STRING_PIECES: &[&str] = &[
    "a", "Z", "0", " ", "period", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{c}",
    "\u{1f}", "\u{7f}", "é", "∆", "😀", "\u{2028}", "\u{feff}", "{", "}", "[", "]", ",", ":",
    "\\u", "\\u00e9",
];

fn random_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12usize))
        .map(|_| STRING_PIECES[rng.gen_range(0..STRING_PIECES.len())])
        .collect()
}

/// Numbers on both sides of the renderer's integer cutoff (`9e15`), signed
/// zeros, huge and subnormal magnitudes, and arbitrary finite bit patterns.
fn random_number(rng: &mut StdRng) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    sign * match rng.gen_range(0..12u32) {
        0 => 0.0,
        1 => 9e15 + rng.gen_range(-4i64..=4) as f64,
        2 => 9e15 * 2f64.powi(rng.gen_range(-3i32..=3)),
        3 => 1e300,
        4 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
        5 => f64::MIN_POSITIVE,
        6 => f64::MAX,
        7 => rng.gen_range(0.0..1e6),
        8 => rng.gen_range(0i64..1 << 40) as f64,
        9 => 0.1 * rng.gen_range(0i64..100) as f64,
        10 => 2f64.powi(rng.gen_range(-1074i32..1024)),
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x.abs();
            }
        },
    }
}

fn random_value(rng: &mut StdRng, depth: u32) -> Value {
    let kind = if depth == 0 || rng.gen_bool(0.4) {
        rng.gen_range(0..4u32)
    } else {
        4 + rng.gen_range(0..2u32)
    };
    match kind {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Num(random_number(rng)),
        3 => Value::Str(random_string(rng)),
        4 => Value::Arr(
            (0..rng.gen_range(0..5usize)).map(|_| random_value(rng, depth - 1)).collect(),
        ),
        _ => Value::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// Tokens for hostile lines: JSON punctuation, literals and their
/// truncations, number fragments, escapes good and bad, multi-byte text
/// and a 200-deep nesting run.
const SOUP: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\"a\"", "\"key\":", "\\", "\\\"", "\\n", "\\/", "\\u00e9",
    "\\u00", "\\uZZZZ", "\\u-041", "\\uD83D", "\\uDE00", "\\uD83Dx", "\\u00é", "\\x", "1", "-",
    "2.5", "e", "E+", ".", "1e999", "-0", "null", "nul", "true", "tru", "false", " ", "\n", "\t",
    "é", "😀", "\u{0}", "[[[[", "]]]]",
];

/// The forms whose meaning changed on purpose: rare in the soup, so that
/// almost every generated line is compared.
const SOUP_BY_DESIGN: &[&str] = &["\\u+041", "\\uD83D\\uDE00", "\\udbff\\udfff"];

fn soup_line(rng: &mut StdRng) -> String {
    let mut line = String::new();
    for _ in 0..rng.gen_range(1..24usize) {
        if rng.gen_bool(0.003) {
            line.push_str(&"[".repeat(200));
        } else if rng.gen_bool(0.004) {
            line.push_str(SOUP_BY_DESIGN[rng.gen_range(0..SOUP_BY_DESIGN.len())]);
        } else {
            line.push_str(SOUP[rng.gen_range(0..SOUP.len())]);
        }
    }
    line
}

/// A char boundary of `s` drawn uniformly from `0..=len`.
fn cut(rng: &mut StdRng, s: &str) -> usize {
    let mut at = rng.gen_range(0..=s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One random line: valid JSON, valid JSON cut short, valid JSON with a
/// soup token spliced in, or pure soup.
fn random_line(rng: &mut StdRng) -> String {
    let v = random_value(rng, 4);
    let text = if rng.gen_bool(0.5) { v.compact() } else { v.pretty(rng.gen_range(0..3usize)) };
    match rng.gen_range(0..4u32) {
        0 => text,
        1 => text[..cut(rng, &text)].to_string(),
        2 => {
            let at = cut(rng, &text);
            format!("{}{}{}", &text[..at], soup_line(rng), &text[at..])
        }
        _ => soup_line(rng),
    }
}

/// A real request line whose description carries every escape class.
fn request_line(pretty: bool) -> String {
    let (apps, _) = section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let problem = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![2.0, 1.5]);
    let req = SolveRequest::new("ünïcode \"quoted\" \\ tab\t ∆ 😀 \u{1}", apps, platform, problem)
        .with_id("oracle-1");
    if pretty { req.to_json() } else { req.to_json_compact() }.unwrap()
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Whether `line` holds a `\u` escape whose meaning changed on purpose:
/// a leading `+` in its four digits, or a high surrogate followed by an
/// escaped low one. Conservative: an escaped backslash before `u` counts.
fn differs_by_design(line: &str) -> bool {
    let b = line.as_bytes();
    let hex_in = |at: usize, lo: u32, hi: u32| {
        b.get(at..at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .is_some_and(|u| (lo..hi).contains(&u))
    };
    (0..b.len()).any(|i| {
        b[i..].starts_with(b"\\u")
            && (b.get(i + 2) == Some(&b'+')
                || (hex_in(i + 2, 0xD800, 0xDC00)
                    && b[i + 6..].starts_with(b"\\u")
                    && hex_in(i + 8, 0xDC00, 0xE000)))
    })
}

/// A parse result as comparable text: the `Debug` tree (which tells
/// `-0.0` from `0.0`) or the error text.
fn shown(result: Result<Value, Error>) -> String {
    match result {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({})", e.0),
    }
}

/// Assert the library parses `line` exactly as the oracle does; `false`
/// when the line is excluded by [`differs_by_design`].
fn parse_agrees(line: &str) -> bool {
    if differs_by_design(line) {
        return false;
    }
    assert_eq!(shown(json_value::parse(line)), shown(oracle::parse(line)), "line: {line:?}");
    true
}

fn render_agrees(v: &Value) {
    assert_eq!(v.compact(), v.old_compact(), "compact bytes of {v:?}");
    for indent in 0..3 {
        assert_eq!(v.pretty(indent), v.old_pretty(indent), "pretty({indent}) bytes of {v:?}");
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_matches_the_oracle_byte_for_byte(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        render_agrees(&random_value(&mut rng, 5));
        render_agrees(&Value::Num(random_number(&mut rng)));
        render_agrees(&Value::Str(random_string(&mut rng)));
    }

    #[test]
    fn parse_matches_the_oracle_on_random_lines(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            parse_agrees(&random_line(&mut rng));
        }
    }

    #[test]
    fn parse_matches_the_oracle_on_cut_request_lines(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for pretty in [false, true] {
            let line = request_line(pretty);
            for _ in 0..8 {
                let at = cut(&mut rng, &line);
                prop_assert!(parse_agrees(&line[..at]));
            }
        }
    }
}

#[test]
fn whole_requests_and_the_wirebench_garbage_line_agree() {
    for pretty in [false, true] {
        let line = request_line(pretty);
        assert!(parse_agrees(&line));
        let tree = json_value::parse(&line).unwrap();
        render_agrees(&tree);
        let back: SolveRequest = json_value::from_value(tree).unwrap();
        assert_eq!(back.description, "ünïcode \"quoted\" \\ tab\t ∆ 😀 \u{1}");
    }
    // The deliberately unparseable line of wirebench's `mixed` corpus.
    assert!(parse_agrees("{\"this line is\": deliberately broken,,,"));
    let deep = format!("{{\"a\":{}1{}}}", "[".repeat(200), "]".repeat(200));
    assert!(parse_agrees(&deep));
    assert!(parse_agrees(&"[".repeat(200)));
}

#[test]
fn by_design_differences_are_rare_in_the_generated_lines() {
    let mut rng = StdRng::seed_from_u64(7);
    let excluded = (0..2000).filter(|_| differs_by_design(&random_line(&mut rng))).count();
    assert!(excluded > 0, "the generator must reach the changed forms");
    assert!(excluded < 200, "{excluded} of 2000 generated lines excluded");
}

#[test]
fn the_only_differences_are_the_u_escape_rules() {
    // A leading `+` passed `from_str_radix`; four hex digits are required now.
    let plus = "\"\\u+041\"";
    assert!(differs_by_design(plus));
    assert_eq!(shown(oracle::parse(plus)), "Ok(Str(\"A\"))");
    assert_eq!(shown(json_value::parse(plus)), "Err(invalid digit found in string)");
    // A surrogate pair was refused; it is one non-BMP character now.
    let pair = "\"emoji \\uD83D\\uDE00\"";
    assert!(differs_by_design(pair));
    assert_eq!(shown(oracle::parse(pair)), "Err(invalid \\u escape)");
    assert_eq!(shown(json_value::parse(pair)), "Ok(Str(\"emoji 😀\"))");
    // Lone halves keep the oracle's typed error.
    for lone in ["\"\\uD83D\"", "\"\\uDE00\"", "\"\\uD83D\\u0041\"", "\"\\uD83Dx\""] {
        assert!(!differs_by_design(lone));
        assert!(parse_agrees(lone));
        assert_eq!(shown(json_value::parse(lone)), "Err(invalid \\u escape)");
    }
}
