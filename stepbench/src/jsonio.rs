//! JSON output on top of `kfac_telemetry::json` (which parses and
//! escapes but does not serialize a value tree).

pub use kfac_telemetry::json::Json;
use kfac_telemetry::json::{escape_into, number};
use std::collections::BTreeMap;

/// Object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Number value.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// String value.
pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// Serialize on one line.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write(&mut out, value, None, 0);
    out
}

/// Serialize with two-space indentation, for files people read.
pub fn render_pretty(value: &Json) -> String {
    let mut out = String::new();
    write(&mut out, value, Some(2), 0);
    out.push('\n');
    out
}

fn write(out: &mut String, value: &Json, indent: Option<usize>, level: usize) {
    let newline = |out: &mut String, level: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * level));
        }
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&number(*n)),
        Json::Str(s) => escape_into(out, s),
        Json::Arr(items) => {
            // Arrays of scalars stay on one line even when indenting.
            let scalar = items
                .iter()
                .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(if indent.is_some() && scalar {
                        ", "
                    } else {
                        ","
                    });
                }
                if !scalar {
                    newline(out, level + 1);
                }
                write(out, item, indent, level + 1);
            }
            if !scalar && !items.is_empty() {
                newline(out, level);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, level + 1);
                escape_into(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write(out, v, indent, level + 1);
            }
            if !map.is_empty() {
                newline(out, level);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_renderings_parse_back_to_the_same_value() {
        let v = obj([
            ("a", nums(&[1.0, 2.5])),
            ("b", obj([("c", Json::Bool(true)), ("d", Json::Null)])),
            ("e", text("x\"y")),
            ("f", Json::Arr(vec![obj([("g", num(0.1 + 0.2))])])),
        ]);
        assert_eq!(Json::parse(&render(&v)).unwrap(), v);
        assert_eq!(Json::parse(&render_pretty(&v)).unwrap(), v);
        assert!(!render(&v).contains('\n'));
    }
}
