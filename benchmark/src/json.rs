//! Small constructors and accessors over the vendored `serde_json`
//! value tree (it has no `json!` macro).

use serde_json::Number;
pub use serde_json::Value;
use std::collections::BTreeMap;

/// A JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON float.
pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// A JSON non-negative integer.
pub fn int(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A JSON string.
pub fn text(v: impl Into<String>) -> Value {
    Value::String(v.into())
}

/// A 64-bit digest as a hex string (JSON numbers lose nothing in the
/// vendored printer, but hex is what a person compares).
pub fn hex(v: u64) -> Value {
    Value::String(format!("{v:#018x}"))
}

/// Reads back [`hex`].
pub fn parse_hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

/// A named-number map (`counts`, `layers`) as a JSON object; keys that
/// start with `digest` are written as hex strings.
pub fn counts_to_json(counts: &BTreeMap<String, u64>) -> Value {
    obj(counts.iter().map(|(k, &v)| {
        let v = if k.starts_with("digest") {
            hex(v)
        } else {
            int(v)
        };
        (k.clone(), v)
    }))
}

/// Reads back [`counts_to_json`].
pub fn counts_from_json(v: &Value) -> Result<BTreeMap<String, u64>, String> {
    let o = v.as_object().ok_or("counts is not an object")?;
    o.iter()
        .map(|(k, v)| {
            let n = if k.starts_with("digest") {
                parse_hex(v)
            } else {
                v.as_u64()
            };
            n.map(|n| (k.clone(), n))
                .ok_or_else(|| format!("count `{k}` is not a whole number"))
        })
        .collect()
}

/// A float map as a JSON object.
pub fn floats_to_json(m: &BTreeMap<String, f64>) -> Value {
    obj(m.iter().map(|(k, &v)| (k.clone(), num(v))))
}

/// Reads back [`floats_to_json`].
pub fn floats_from_json(v: &Value) -> Result<BTreeMap<String, f64>, String> {
    let o = v.as_object().ok_or("expected an object of numbers")?;
    o.iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("`{k}` is not a number"))
        })
        .collect()
}

/// `v[key]` as `f64`, or an error naming the key.
pub fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

/// `v[key]` as `u64`, or an error naming the key.
pub fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing whole number `{key}`"))
}

/// `v[key]` as a string, or an error naming the key.
pub fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string `{key}`"))
}
