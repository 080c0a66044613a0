//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small API-compatible subset of serde: the [`Serialize`] / [`Deserialize`]
//! traits are backed by a JSON-like [`Value`] tree instead of serde's
//! visitor machinery, and the companion `serde_derive` proc-macro crate
//! generates impls for the `#[derive(Serialize, Deserialize)]` and
//! `#[serde(...)]` attribute forms used in this repository (`default`,
//! `default = "path"`, `transparent`).
//!
//! `serde_json` (also shimmed) provides the text format on top of this tree.

pub use serde_derive::{Deserialize, Serialize};

mod json;
mod value;

pub use json::{format_compact, format_pretty, parse};
pub use value::{Map, Number, Value};

/// Error raised by (de)serialization and by JSON parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error carrying `msg`.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.msg)
    }
}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize_value(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from `v`.
    fn deserialize_value(v: &Value) -> Result<Self, Error>;
}

// ----- primitive impls ------------------------------------------------------

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_number()
                    .ok_or_else(|| Error::custom(format!("expected number, got {v}")))?;
                if let Some(i) = n.as_i64() {
                    return <$t>::try_from(i)
                        .map_err(|_| Error::custom(format!("integer {i} out of range")));
                }
                if let Some(u) = n.as_u64() {
                    return <$t>::try_from(u)
                        .map_err(|_| Error::custom(format!("integer {u} out of range")));
                }
                let f = n.as_f64();
                if f.fract() == 0.0 && f >= <$t>::MIN as f64 && f <= <$t>::MAX as f64 {
                    Ok(f as $t)
                } else {
                    Err(Error::custom(format!("expected integer, got {f}")))
                }
            }
        }
    )*};
}

impl_uint!(u32, u64, usize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_number()
            .map(Number::as_f64)
            .ok_or_else(|| Error::custom(format!("expected number, got {v}")))
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other}"))),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other}"))),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

/// A shared string serialises as the plain JSON string it holds, so a field
/// can move between `String` and `Arc<str>` without changing any saved file.
impl Serialize for std::sync::Arc<str> {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.as_str().into()),
            other => Err(Error::custom(format!("expected string, got {other}"))),
        }
    }
}

// ----- std container impls --------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(inner) => inner.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(Error::custom(format!("expected array, got {other}"))),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn serialize_value(&self) -> Value {
        // Sort for deterministic output: HashMap iteration order is random.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut map = Map::new();
        for k in keys {
            map.insert(k.clone(), self[k].serialize_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(map) => map
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::deserialize_value(val)?)))
                .collect(),
            other => Err(Error::custom(format!("expected object, got {other}"))),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        let mut map = Map::new();
        for (k, val) in self {
            map.insert(k.clone(), val.serialize_value());
        }
        Value::Object(map)
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
