//! A minimal JSON writer. The workspace takes no registry crates
//! (ARCHITECTURE invariant 9), and the benchmark only ever writes JSON.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number renders as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, rendered without a fraction.
    Int(i64),
    /// A measured number, rendered with every digit `f64` holds.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an array of numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// One line, no insignificant whitespace except after `:` and `,`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to string"),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to string"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    write_escaped(out, &members[i].0);
                    out.push_str(": ");
                    members[i].1.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
            if indent.is_none() {
                out.push(' ');
            }
        }
        newline(out, indent, depth + 1);
        item(out, i);
    }
    if len > 0 {
        newline(out, indent, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_kind_on_one_line() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("windows", Json::nums(&[1.0, 2.5])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            "{\"correct\": true, \"attempted\": 1000, \"nothing\": null, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}, \
             \"windows\": [1, 2.5], \"empty\": []}"
        );
        assert!(!doc.render().contains('\n'));
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1e21).render(), "1000000000000000000000");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Int(-7).render(), "-7");
    }

    #[test]
    fn escapes_strings_and_keys() {
        let doc = Json::obj([("a\"b", Json::str("line\nbreak\\ tab\t bell\u{7} é"))]);
        assert_eq!(
            doc.render(),
            "{\"a\\\"b\": \"line\\nbreak\\\\ tab\\t bell\\u0007 é\"}"
        );
    }

    #[test]
    fn pretty_indents_and_ends_with_a_newline() {
        let doc = Json::obj([("a", Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        assert_eq!(doc.pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}\n");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}\n");
    }
}
