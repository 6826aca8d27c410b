//! Minimal JSON serialization for experiment results.
//!
//! The build environment has no crates.io access, so instead of serde the
//! experiment row structs implement [`ToJson`] (via the
//! [`impl_to_json_struct!`](crate::impl_to_json_struct) macro) and the
//! `repro` binary renders [`Json`] trees directly. Output is
//! pretty-printed, two-space indented, keys in declaration order —
//! stable enough to diff across runs.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Integral number.
    Int(i64),
    /// Floating-point number (non-finite values render as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

impl_to_json_int!(usize, u64, u32, u16);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Derive-free `ToJson` for a struct: keys are the field names, in the
/// order given.
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)) ),+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(Json::Int(3).render(), "3\n");
        assert_eq!(Json::Float(1.5).render(), "1.5\n");
        assert_eq!(Json::Str("a\"b\n".into()).render(), "\"a\\\"b\\n\"\n");
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
    }

    #[test]
    fn renders_nested_structures() {
        let v = Json::Obj(vec![
            ("xs".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let s = v.render();
        assert!(s.contains("\"xs\": [\n    1,\n    2\n  ]"));
        assert!(s.contains("\"empty\": []"));
    }

    #[test]
    fn struct_macro_serializes_fields_in_order() {
        struct Row {
            a: usize,
            b: f64,
            name: String,
        }
        impl_to_json_struct!(Row { a, b, name });
        let row = Row {
            a: 7,
            b: 0.5,
            name: "x".into(),
        };
        let json = row.to_json().render();
        let pos = |needle: &str| json.find(needle).unwrap();
        assert!(pos("\"a\"") < pos("\"b\""));
        assert!(pos("\"b\"") < pos("\"name\""));
        assert!(json.contains("\"name\": \"x\""));
    }
}
