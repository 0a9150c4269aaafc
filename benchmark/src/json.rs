//! A JSON value and its serialisation — just enough for the result
//! line, the per-kind detail files and the span dump (no registry
//! access in the container, so no serde).

use std::fmt;

#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as inserted, so output diffs stay readable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN/inf; a metric that could not be computed
            // prints as 0 rather than breaking the line.
            Json::Num(v) if !v.is_finite() => f.write_str("0"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_escapes() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("x", Json::Num(1.5)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::str("a\"b\n")),
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"ok": true, "n": 3, "x": 1.5, "nan": 0, "s": "a\"b\n", "a": [1, 2]}"#
        );
    }
}
