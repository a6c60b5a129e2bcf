//! The JSON reader against hostile input, and reader/writer round trips,
//! on the seeded case runner: malformed documents are an `Err` — never a
//! panic, never work proportional to a length the input merely claims —
//! and `parse(write(v)) == v` for every tree the writer can emit.

use coop_alloc::cases::{check, Gen};
use coop_telemetry::json::{parse, parse_bytes, Value, MAX_DEPTH};

/// A random document tree: finite floats, integers across the `i64`/`u64`
/// ranges, strings with escapes and non-ASCII, unique keys.
fn arb_value(g: &mut Gen, depth: usize) -> Value {
    let leaf = depth == 0 || g.bool(0.4);
    match g.range(0..if leaf { 5usize } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(g.bool(0.5)),
        2 => Value::Int(match g.range(0..3usize) {
            0 => i128::from(g.range(0..=u64::MAX)),
            1 => -i128::from(g.range(0..=i64::MAX as u64)) - 1,
            _ => i128::from(g.range(0..100u64)),
        }),
        3 => {
            let magnitude = 10f64.powi(g.range(0..40u32) as i32 - 20);
            Value::Float((g.range(-1.0..1.0)) * magnitude)
        }
        4 => Value::Str(arb_string(g)),
        5 => Value::Array(g.vec(0..5, |g| arb_value(g, depth - 1))),
        _ => {
            let members = g.vec(0..5, |g| arb_value(g, depth - 1));
            Value::Object(
                members
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (format!("{}{i}", arb_string(g)), v))
                    .collect(),
            )
        }
    }
}

fn arb_string(g: &mut Gen) -> String {
    const ALPHABET: [&str; 12] = [
        "a", "Z", " ", "\"", "\\", "\n", "\t", "\u{1}", "/", "é", "😀", "\u{7f}",
    ];
    g.vec(0..8, |g| *g.pick(&ALPHABET)).concat()
}

#[test]
fn written_documents_parse_back_to_the_same_tree() {
    check(1, 400, |g| {
        let v = arb_value(g, 4);
        assert_eq!(parse(&v.write()).as_ref(), Ok(&v), "{}", v.write());
        assert_eq!(parse(&v.write_pretty()).as_ref(), Ok(&v));
    });
}

#[test]
fn pretty_output_is_compact_output_plus_whitespace() {
    /// Drops whitespace outside string literals.
    fn strip(doc: &str) -> String {
        let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
        for c in doc.chars() {
            if in_string {
                in_string = escaped || c != '"';
                escaped = !escaped && c == '\\';
            } else if c == '"' {
                in_string = true;
            } else if c.is_whitespace() {
                continue;
            }
            out.push(c);
        }
        out
    }
    check(2, 400, |g| {
        let v = arb_value(g, 4);
        assert_eq!(strip(&v.write_pretty()), v.write());
    });
}

#[test]
fn every_truncation_and_corruption_of_a_document_is_ok_or_err_never_a_panic() {
    check(3, 200, |g| {
        let doc = arb_value(g, 3).write();
        let cut = g.range(0..=doc.len());
        // Cutting mid-character yields invalid UTF-8: also just an `Err`.
        let truncated = parse_bytes(&doc.as_bytes()[..cut]);
        if cut < doc.len() && !doc.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
            assert!(truncated.is_err(), "{:?}", &doc.as_bytes()[..cut]);
        }
        let mut bytes = doc.into_bytes();
        if !bytes.is_empty() {
            let at = g.range(0..bytes.len());
            bytes[at] = g.range(0..=255u8);
            let _ = parse_bytes(&bytes);
        }
    });
}

/// Truncated and mis-punctuated documents, bad `\u` escapes and lone
/// surrogates, a duplicate key, numbers JSON does not have, trailing garbage.
#[rustfmt::skip]
const MALFORMED: &[&str] = &[
    "", " ", "{", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "{a:1}", "{\"a\":1,}", "[1,]",
    "\"unterminated", "\"bad \\q escape\"", "\"raw \n newline\"",
    "\"\\u12\"", "\"\\u12g4\"", "\"\\ud800\"", "\"\\ud800\\u0041\"", "\"\\udc00\"", "\"\\ud800\\ud800\"",
    "{\"a\":1,\"a\":2}",
    "1e999", "-1e999", "NaN", "Infinity", "-Infinity", "nan", "+1", "01", "1.", ".5", "1e", "0x10", "--1",
    "{} x", "[] []", "1 2", "nullnull", "truefalse",
];

#[test]
fn malformed_documents_are_errors() {
    for doc in MALFORMED {
        assert!(parse(doc).is_err(), "accepted {doc:?}");
    }
    assert!(parse_bytes(b"\"\xff\"").is_err());
}

#[test]
fn nesting_is_limited_not_recursed_into() {
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(10_000);
        let err = parse(&deep).unwrap_err().to_string();
        assert!(err.contains("nesting"), "{err}");
    }
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&at_limit).is_ok());
    let over = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
    assert!(parse(&over).is_err());
}

#[test]
fn a_claimed_length_allocates_nothing() {
    // JSON has no length prefixes, so a claim is just a number; a document
    // that *says* its string is 1 GiB and then ends is a short error.
    assert!(parse("{\"len\":1073741824,\"data\":\"abc").is_err());
    let v = parse("{\"len\":1073741824,\"data\":\"abc\"}").unwrap();
    assert_eq!(v["len"], 1u64 << 30);
    assert_eq!(v["data"], "abc");
}
