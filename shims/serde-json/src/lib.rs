//! Offline stand-in for `serde_json` over the shimmed `serde` crate: text
//! is decoded by the types' own [`serde::Reader`]-based decoders and printed
//! from their [`Value`] trees.

pub use serde::{Error, Map, Number, Value};

/// Decodes JSON text into any [`serde::Deserialize`] type. Malformed text
/// is reported as such even where a decode error comes first in it, as if
/// the text had been parsed whole before decoding.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = serde::Reader::new(text);
    let decoded = reader.try_read::<T>()?;
    reader.finish()?;
    decoded.map_err(|(e, _)| e)
}

/// Renders any [`serde::Serialize`] type as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::format_compact(&value.serialize_value()))
}

/// Renders any [`serde::Serialize`] type as pretty-printed JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::format_pretty(&value.serialize_value()))
}

/// Converts any [`serde::Serialize`] type into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize_value())
}

/// Decodes a type from a [`Value`] tree by formatting the tree and reading
/// the text back (a non-finite float formats as `null`). Decoders read text
/// only; this adapter serves callers that already hold a tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    from_str(&serde::format_compact(&value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v: Vec<Option<u64>> = from_str("[1, null, 3]").unwrap();
        assert_eq!(v, vec![Some(1), None, Some(3)]);
        assert_eq!(to_string(&v).unwrap(), "[1,null,3]");
        let m: std::collections::HashMap<String, f64> = from_str("{\"a\": 1.5, \"b\": 2}").unwrap();
        assert_eq!(m["a"], 1.5);
        assert_eq!(m["b"], 2.0);
    }

    #[test]
    fn value_supports_object_editing() {
        let mut v: Value = from_str("{\"keep\": 1, \"drop\": true}").unwrap();
        v.as_object_mut().unwrap().remove("drop");
        assert_eq!(v.to_string(), "{\"keep\":1}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s: String = from_str("\"a\\\"b\\\\c\\n\\u0041\"").unwrap();
        assert_eq!(s, "a\"b\\c\nA");
        let back = to_string(&s).unwrap();
        let again: String = from_str(&back).unwrap();
        assert_eq!(again, s);
    }

    #[test]
    fn shared_strings_round_trip_as_plain_json_strings() {
        use std::sync::Arc;
        let name: Arc<str> = "T2\n\"rogue\"".into();
        let text = to_string(&name).unwrap();
        assert_eq!(text, to_string(&name.to_string()).unwrap());
        assert_eq!(from_str::<Arc<str>>(&text).unwrap(), name);
        assert_eq!(&*from_str::<Arc<str>>("\"\"").unwrap(), "");
        assert!(from_str::<Arc<str>>("7").is_err());
    }

    #[test]
    fn astral_plane_escapes_and_bad_surrogates() {
        let s: String = from_str("\"\\ud801\\udc00\"").unwrap();
        assert_eq!(s, "\u{10400}");
        assert!(from_str::<String>("\"\\ud800\\ue000\"").is_err());
        assert!(from_str::<String>("\"\\ud800x\"").is_err());
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(128)).is_ok());
        let err = from_str::<Value>(&nested(129)).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        // Mixed containers count together, siblings do not add up.
        let mixed = format!("{}1{}", "[{\"k\":".repeat(65), "}]".repeat(65));
        assert!(from_str::<Value>(&mixed).is_err());
        let wide = format!("[{}]", vec![nested(100); 50].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
        // Far past any stack: an error, not an overflow.
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1e300f64).unwrap(), "1e300");
    }
}
