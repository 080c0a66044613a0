//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small API-compatible subset of serde. [`Serialize`] builds a JSON-like
//! [`Value`] tree, which the printers in `serde_json` (also shimmed) render.
//! [`Deserialize`] reads JSON text directly through a [`Reader`]: no tree is
//! built on the way in, and a string without escapes is copied once, into
//! the field that keeps it. The companion `serde_derive` proc-macro crate
//! generates impls for the `#[derive(Serialize, Deserialize)]` and
//! `#[serde(...)]` attribute forms used in this repository (`default`,
//! `default = "path"`, `transparent`); a derived struct decoder refuses any
//! key outside its field list.

pub use serde_derive::{Deserialize, Serialize};

mod json;
mod value;

pub use json::{format_compact, format_pretty, Reader};
pub use value::{Map, Number, Value};

/// Error raised by (de)serialization and by JSON parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ErrorKind {
    Message(String),
    /// A key no field of the struct it sits in takes: its path from the
    /// outermost value decoded, and the input that value came from once a
    /// caller names it.
    UnknownKey {
        path: String,
        input: Option<&'static str>,
    },
}

impl Error {
    /// Creates an error carrying `msg`.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error {
            kind: ErrorKind::Message(msg.into()),
        }
    }

    /// The error for an object key that no field takes.
    pub fn unknown_key(key: &str) -> Self {
        Error {
            kind: ErrorKind::UnknownKey {
                path: key.to_string(),
                input: None,
            },
        }
    }

    /// Prefixes an unknown key's path with the field `key` it was found
    /// under: `corez` becomes `hosts.corez`, `[0].corez` becomes
    /// `sites[0].corez`. Other errors are returned as they are.
    pub fn at_key(self, key: &str) -> Self {
        self.prefixed(key)
    }

    /// Prefixes an unknown key's path with the array index it was found at.
    pub fn at_index(self, index: usize) -> Self {
        self.prefixed(&format!("[{index}]"))
    }

    fn prefixed(mut self, prefix: &str) -> Self {
        if let ErrorKind::UnknownKey { path, .. } = &mut self.kind {
            let dot = if path.starts_with('[') { "" } else { "." };
            *path = format!("{prefix}{dot}{path}");
        }
        self
    }

    /// Names the input an unknown key was found in (`unknown key `…` in
    /// {input}`). Other errors are returned as they are.
    pub fn found_in(mut self, name: &'static str) -> Self {
        if let ErrorKind::UnknownKey { input, .. } = &mut self.kind {
            *input = Some(name);
        }
        self
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ErrorKind::Message(msg) => f.write_str(msg),
            ErrorKind::UnknownKey { path, input: None } => write!(f, "unknown key `{path}`"),
            ErrorKind::UnknownKey {
                path,
                input: Some(input),
            } => write!(f, "unknown key `{path}` in {input}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize_value(&self) -> Value;
}

/// A type that can be decoded from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` from `r`, leaving `r` just past it.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
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
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.number()?;
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
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.number().map(|n| n.as_f64())
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(std::borrow::Cow::into_owned)
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
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(|s| s.as_ref().into())
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
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek() != Some(b'[') {
            return Err(r.unexpected("array"));
        }
        let mut items = Vec::new();
        r.array(|r| {
            let index = items.len();
            items.push(T::deserialize(r).map_err(|e| e.at_index(index))?);
            Ok(())
        })?;
        Ok(items)
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
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek() != Some(b'{') {
            return Err(r.unexpected("object"));
        }
        let mut map = Self::new();
        r.object(|r, key| {
            let value = V::deserialize(r).map_err(|e| e.at_key(&key))?;
            map.insert(key.into_owned(), value);
            Ok(())
        })?;
        Ok(map)
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
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}
