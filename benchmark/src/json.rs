//! Small helpers over the JSON value tree (rows between processes, result
//! files, the driver's last line).

use serde_json::{Map, Number, Value};

pub fn float(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

pub fn uint(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

pub fn text(v: impl Into<String>) -> Value {
    Value::String(v.into())
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<Map>(),
    )
}

/// `value[key]` as a float, or an error naming the key.
pub fn get_f64(value: &Value, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

/// `value[key]` as an unsigned integer, or an error naming the key.
pub fn get_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing count '{key}'"))
}

/// `value[key]` as a string, or an error naming the key.
pub fn get_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}
