//! The streaming JSON writer (`serde::JsonWriter`, behind every
//! `Serialize` and `serde_json::{to_string, to_string_pretty}`) against
//! the writer it replaced: a frozen copy of the old `Value`-tree printer
//! (`write_value`, `write_escaped`, `newline_indent`), kept here as the
//! reference. Floats, integers, strings and arbitrary `Value` trees must
//! print byte for byte as the old writer printed them, compact and
//! pretty, and parse back equal.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Value;

// ---- The frozen reference: the old writer, verbatim but for its error
// type. ----

fn write_escaped(out: &mut String, s: &str) {
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

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    level: usize,
) -> Result<(), String> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(format!("non-finite float {x} is not valid JSON"));
            }
            // {:?} is Rust's shortest round-trip formatting.
            out.push_str(&format!("{x:?}"));
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1)?;
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1)?;
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
    Ok(())
}

/// The old writer's compact or pretty text of `v`.
fn old_text(v: &Value, pretty: bool) -> Result<String, String> {
    let mut out = String::new();
    write_value(&mut out, v, pretty.then_some(2), 0)?;
    Ok(out)
}

// ---- Generators. ----

/// Characters a string draws from: every control character JSON must
/// escape, the two escaped printables, and ASCII and non-ASCII text.
fn text_char(rng: &mut TestRng) -> char {
    const OTHERS: [char; 10] = [
        'a', 'Z', '0', ' ', '/', '\u{7f}', 'é', '\u{2028}', '😀', '\u{ffff}',
    ];
    match rng.next_u64() % 4 {
        0 => char::from_u32((rng.next_u64() % 0x20) as u32).expect("a control character"),
        1 => ['"', '\\'][(rng.next_u64() % 2) as usize],
        _ => OTHERS[(rng.next_u64() % OTHERS.len() as u64) as usize],
    }
}

/// Strings of up to 16 [`text_char`]s.
struct Text;

impl Strategy for Text {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        (0..rng.next_u64() % 17).map(|_| text_char(rng)).collect()
    }
}

/// A finite float that exercises the writer's two paths: integral values
/// of every magnitude (around 2⁵³ and 10¹⁶ too), fractions, subnormals,
/// the extremes, and arbitrary bit patterns.
fn finite_f64(rng: &mut TestRng) -> f64 {
    let near = |rng: &mut TestRng, base: f64| base + (rng.next_u64() % 9) as f64 * 2.0 - 8.0;
    let x = match rng.next_u64() % 10 {
        0 => f64::from_bits(rng.next_u64()),
        1 => f64::from_bits(rng.next_u64() % (1 << 52)),
        2 => (rng.next_u64() >> (rng.next_u64() % 64)) as f64,
        3 => near(rng, (1u64 << 53) as f64),
        4 => near(rng, 1e16),
        5 => [
            f64::MAX,
            f64::MIN_POSITIVE,
            0.0,
            1e15,
            1e16,
            9_999_999_999_999_998.0,
        ][(rng.next_u64() % 6) as usize],
        6 => (rng.next_u64() % 20_001) as f64 / 8.0,
        7 => rng.next_unit_f64() * 1e-5,
        _ => rng.next_unit_f64() * 1e20,
    };
    let x = if x.is_finite() { x } else { 1.5 };
    if rng.next_u64().is_multiple_of(2) {
        -x
    } else {
        x
    }
}

/// Arbitrary `Value` trees up to `depth` levels of nesting, whose every
/// leaf parses back as itself (a non-negative integer is `U64`, the
/// parser's reading of it).
struct Tree {
    depth: u32,
}

impl Tree {
    fn value(&self, rng: &mut TestRng, depth: u32) -> Value {
        let leaf = depth == 0 || rng.next_u64().is_multiple_of(3);
        match rng.next_u64() % if leaf { 6 } else { 8 } {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64().is_multiple_of(2)),
            2 => Value::U64(rng.next_u64() >> (rng.next_u64() % 64)),
            3 => Value::I64(-((rng.next_u64() >> 1) as i64) - 1),
            4 => Value::F64(finite_f64(rng)),
            5 => Value::Str(Text.sample(rng)),
            6 => Value::Seq(
                (0..rng.next_u64() % 4)
                    .map(|_| self.value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..rng.next_u64() % 4)
                    .map(|_| (Text.sample(rng), self.value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }
}

impl Strategy for Tree {
    type Value = Value;
    fn sample(&self, rng: &mut TestRng) -> Value {
        self.value(rng, self.depth)
    }
}

/// Finite floats from [`finite_f64`].
struct Finite;

impl Strategy for Finite {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        finite_f64(rng)
    }
}

// ---- Properties. ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn floats_print_as_shortest_round_trip_debug(x in Finite, bits in any::<u64>()) {
        for x in [x, f64::from_bits(bits)] {
            if x.is_finite() {
                let text = serde_json::to_string(&x).unwrap();
                prop_assert_eq!(&text, &format!("{x:?}"));
                prop_assert_eq!(serde_json::from_str::<f64>(&text).unwrap().to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn integers_print_as_their_display(n in any::<u64>(), shift in 0u32..64, m in any::<i64>()) {
        let small = n >> shift;
        prop_assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
        prop_assert_eq!(serde_json::to_string(&small).unwrap(), small.to_string());
        prop_assert_eq!(serde_json::to_string(&m).unwrap(), m.to_string());
        prop_assert_eq!(serde_json::to_string(&(m >> shift)).unwrap(), (m >> shift).to_string());
        prop_assert_eq!(serde_json::to_string(&(small as u32)).unwrap(), (small as u32).to_string());
        prop_assert_eq!(serde_json::to_string(&(m as i16)).unwrap(), (m as i16).to_string());
    }

    #[test]
    fn strings_escape_as_the_old_escaper(s in Text) {
        let mut old = String::new();
        write_escaped(&mut old, &s);
        let text = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(&text, &old);
        prop_assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_trees_print_as_the_old_writer_and_parse_back(v in Tree { depth: 5 }) {
        for pretty in [false, true] {
            let text = if pretty {
                serde_json::to_string_pretty(&v)
            } else {
                serde_json::to_string(&v)
            }
            .unwrap();
            prop_assert_eq!(Ok(text.clone()), old_text(&v, pretty));
            prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v.clone());
        }
    }
}

#[test]
fn extreme_values_print_as_before() {
    let two53 = (1u64 << 53) as f64;
    let mut floats = vec![
        f64::MAX,
        -f64::MAX,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        1e15,
        1e16,
        -1e16,
        9_999_999_999_999_998.0,
    ];
    for k in -4i32..=4 {
        floats.push(two53 + f64::from(k));
        floats.push(-(two53 + f64::from(k)));
        floats.push(1e16 + 2.0 * f64::from(k));
    }
    for x in floats {
        let v = Value::F64(x);
        assert_eq!(
            serde_json::to_string(&x).unwrap(),
            format!("{x:?}"),
            "{x:e}"
        );
        assert_eq!(Ok(serde_json::to_string(&v).unwrap()), old_text(&v, false));
    }
    for n in [0, 9, 10, u64::MAX, u64::MAX / 10, 1 << 53] {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
    }
    for n in [0, -1, i64::MIN, i64::MAX, i64::MIN + 1] {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
        let v = Value::I64(n);
        assert_eq!(Ok(serde_json::to_string(&v).unwrap()), old_text(&v, false));
    }
    // Empty containers, nested and at the top, in both layouts.
    let empties = Value::Map(vec![
        ("seq".to_string(), Value::Seq(vec![])),
        ("map".to_string(), Value::Map(vec![])),
        (
            "nested".to_string(),
            Value::Seq(vec![Value::Seq(vec![]), Value::Map(vec![])]),
        ),
    ]);
    for v in [Value::Seq(vec![]), Value::Map(vec![]), empties] {
        for pretty in [false, true] {
            let text = if pretty {
                serde_json::to_string_pretty(&v)
            } else {
                serde_json::to_string(&v)
            };
            assert_eq!(text.map_err(|e| e.to_string()), old_text(&v, pretty));
        }
    }
    // A non-finite float is refused with the old text, anywhere in a tree.
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let v = Value::Seq(vec![Value::U64(1), Value::F64(x)]);
        let err = serde_json::to_string(&v).unwrap_err().to_string();
        assert_eq!(
            err,
            format!("JSON error: {}", old_text(&v, false).unwrap_err())
        );
        assert!(serde_json::to_string_pretty(&x).is_err());
    }
}
