//! Property suite for `kg_serve::json::parse`, the parser every request
//! body goes through.
//!
//! 1. **Hostile bytes never panic** — arbitrary byte strings, raw and
//!    built from JSON-shaped fragments, parse or fail with a typed
//!    `JsonError` whose offset lies inside the input.
//! 2. **Bounded time and depth** — nesting past the depth limit, long
//!    strings and escape runs, and numbers with thousands of digits are
//!    answered in time linear in their size, without a stack overflow.
//! 3. **Round trips** — any generated document, written compactly or
//!    with whitespace between tokens, parses back to the same value.

use kg_serve::json::{parse, Json, JsonError};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Parse, and check that a failure points inside the input.
fn parse_checked(bytes: &[u8]) -> Result<Json, JsonError> {
    let out = parse(bytes);
    if let Err(e) = &out {
        assert!(
            e.at <= bytes.len(),
            "{e} past the end of {} bytes",
            bytes.len()
        );
        assert!(!e.what.is_empty());
    }
    out
}

const FRAGMENTS: &[&[u8]] = &[
    b"{",
    b"}",
    b"[",
    b"]",
    b":",
    b",",
    b" ",
    b"\n\t",
    b"\"",
    b"\"k\"",
    b"\\",
    b"\\\"",
    b"\\n",
    b"\\u",
    b"\\u00e9",
    b"\\uD83D",
    b"\\u12",
    b"\\x",
    b"true",
    b"fals",
    b"null",
    b"0",
    b"-",
    b"7",
    b"12345678901234567890",
    b".",
    b"e",
    b"E+",
    b"1e400",
    b"\xc3\xa9",
    b"\xe2\x82\xac",
    b"\xf0\x9f\x98\x80",
    b"\xc3",
    b"\xff",
    b"\x00",
    b"\x1f",
];

/// Build a document from instruction words: each value consumes words
/// for its kind and contents, and containers recurse until `depth` runs
/// out or the words do.
fn build(words: &mut std::slice::Iter<'_, u64>, chars: &[char], depth: usize) -> Json {
    let Some(&w) = words.next() else {
        return Json::Null;
    };
    let kind = if depth == 0 { w % 5 } else { w % 7 };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(w & 8 != 0),
        2 => {
            let bits = words.next().copied().unwrap_or(w);
            let n = match w >> 3 & 3 {
                // Exact integers, small and near 2^53.
                0 => ((bits % (1 << 53)) as f64) * if bits & 1 == 0 { 1.0 } else { -1.0 },
                1 => (bits % 1000) as f64 / 8.0,
                // Any finite double, subnormals and extremes included.
                _ => Some(f64::from_bits(bits))
                    .filter(|f| f.is_finite())
                    .unwrap_or(0.5),
            };
            Json::Num(n)
        }
        3 | 4 => {
            let start = (w >> 8) as usize % chars.len().max(1);
            let len = (w >> 3) as usize % 12;
            Json::Str(
                chars
                    .iter()
                    .cycle()
                    .skip(start)
                    .take(len.min(chars.len()))
                    .collect(),
            )
        }
        5 => {
            let len = (w >> 3) % 4;
            Json::Arr((0..len).map(|_| build(words, chars, depth - 1)).collect())
        }
        _ => {
            let len = (w >> 3) % 4;
            Json::Obj(
                (0..len)
                    .map(|k| {
                        let key: String = chars.iter().skip(k as usize).take(3).collect();
                        (key, build(words, chars, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

/// Re-emit a compact document with whitespace after every structural
/// byte outside strings.
fn spaced(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let (mut in_string, mut escaped) = (false, false);
    for c in compact.chars() {
        out.push(c);
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if matches!(c, '{' | '}' | '[' | ']' | ':' | ',') {
            out.push_str(" \n\t");
        }
    }
    out
}

fn nested(depth: usize) -> Vec<u8> {
    let mut doc = Vec::with_capacity(depth * 6);
    for i in 0..depth {
        doc.extend_from_slice(if i % 2 == 0 { b"[" } else { b"{\"k\":" });
    }
    doc.extend_from_slice(b"0");
    for i in (0..depth).rev() {
        doc.push(if i % 2 == 0 { b']' } else { b'}' });
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse_checked(&bytes);
    }

    #[test]
    fn json_shaped_bytes_parse_or_fail_typed_and_round_trip(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48),
    ) {
        let bytes: Vec<u8> = picks.iter().flat_map(|&i| FRAGMENTS[i].iter().copied()).collect();
        if let Ok(value) = parse_checked(&bytes) {
            prop_assert_eq!(parse(value.to_string().as_bytes()), Ok(value));
        }
    }

    #[test]
    fn generated_documents_round_trip(
        words in proptest::collection::vec(any::<u64>(), 1..64),
        chars in proptest::collection::vec(any::<char>(), 0..16),
        depth in 0usize..6,
    ) {
        let value = build(&mut words.iter(), &chars, depth);
        let compact = value.to_string();
        prop_assert_eq!(parse(compact.as_bytes()), Ok(value.clone()));
        prop_assert_eq!(parse(spaced(&compact).as_bytes()), Ok(value));
    }

    #[test]
    fn nesting_is_depth_limited(depth in 0usize..200) {
        let out = parse_checked(&nested(depth));
        // The innermost scalar sits at `depth`; the limit is 64.
        if depth <= 64 {
            prop_assert!(out.is_ok(), "depth {} rejected: {:?}", depth, out);
        } else {
            prop_assert_eq!(out.map_err(|e| e.what), Err("shallower nesting"));
        }
    }
}

#[test]
fn large_hostile_documents_parse_in_linear_time() {
    const N: usize = 1 << 18;
    let mut string = Vec::with_capacity(N + 2);
    string.push(b'"');
    string.extend("é€x".repeat(N / 6).bytes());
    string.push(b'"');
    let escapes = [b"\"".as_slice(), &b"\\u00e9\\n\\\\".repeat(N / 10), b"\""].concat();
    let cases: Vec<(&str, Vec<u8>, bool)> = vec![
        ("long string", string.clone(), true),
        (
            "long string, torn at the end",
            string[..string.len() - 2].to_vec(),
            false,
        ),
        ("long escape run", escapes, true),
        (
            "digits past f64",
            [b"1".as_slice(), &b"0".repeat(N)].concat(),
            false,
        ),
        (
            "long fraction",
            [b"0.".as_slice(), &b"0".repeat(N), b"1"].concat(),
            true,
        ),
        ("unclosed arrays", b"[".repeat(N), false),
        ("deep, then closed", nested(N / 8), false),
        (
            "wide array",
            [b"[".as_slice(), &b"0,".repeat(N / 2), b"0]"].concat(),
            true,
        ),
        (
            "invalid UTF-8 after a long run",
            [&string[..N / 2], b"\xff\"".as_slice()].concat(),
            false,
        ),
    ];
    for (name, doc, ok) in cases {
        let start = Instant::now();
        let out = parse_checked(&doc);
        let took = start.elapsed();
        assert_eq!(out.is_ok(), ok, "{name}: {:?}", out.err());
        assert!(
            took < Duration::from_secs(2),
            "{name}: {} bytes took {took:?}",
            doc.len()
        );
    }
}
