//! The JSON-like value tree the shimmed serde traits serialize through.

/// An arbitrary JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object (insertion-ordered, like serde_json's `preserve_order`).
    Object(Map),
}

impl Value {
    /// Returns the number if this is a numeric value.
    pub fn as_number(&self) -> Option<&Number> {
        match self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// Returns the value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().map(Number::as_f64)
    }

    /// Returns the value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number().and_then(Number::as_u64)
    }

    /// Returns the string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the object mutably if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object-key or array-index lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", crate::json::format_compact(self))
    }
}

/// A JSON number: an integer when it round-trips as one, a float otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A negative integer.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
}

impl Number {
    /// Wraps a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Number::UInt(v)
    }

    /// Wraps an `f64`.
    pub fn from_f64(v: f64) -> Self {
        Number::Float(v)
    }

    /// The number as a float (lossy above 2^53).
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::Int(v) => *v as f64,
            Number::UInt(v) => *v as f64,
            Number::Float(v) => *v,
        }
    }

    /// The number as `i64` when integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Number::Int(v) => Some(*v),
            Number::UInt(v) => i64::try_from(*v).ok(),
            Number::Float(_) => None,
        }
    }

    /// The number as `u64` when a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Number::Int(_) => None,
            Number::UInt(v) => Some(*v),
            Number::Float(_) => None,
        }
    }
}

/// An insertion-ordered string-keyed map (small, linear-scan lookups).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts `value` under `key`, replacing any previous entry.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes and returns the entry under `key`.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}
