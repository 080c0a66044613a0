//! Canonical, process-stable hashing of serialisable values.
//!
//! The scenario response cache keys on a hash that must be identical for
//! *equivalent* scenarios however they were expressed — built in code, parsed
//! from a JSONL request, or round-tripped through JSON with the object keys
//! in a different order — and must be stable across processes and server
//! restarts (std's default `Hasher` is SipHash with a per-process random key,
//! so it cannot be used). The canonical form is defined on the serde value
//! tree:
//!
//! * object keys are hashed in sorted order (insertion order is irrelevant),
//! * entries whose value is `null` are dropped (an absent optional field and
//!   an explicit `null` are the same scenario),
//! * every node is prefixed with a type tag, and strings/containers with
//!   their length, so concatenation ambiguities cannot collide trivially,
//! * numbers hash by variant: integers as their 64-bit value, floats by IEEE
//!   bit pattern (the JSON shim preserves the integer/float distinction
//!   through text round-trips by always printing floats with a fractional
//!   part).
//!
//! The hash itself is 64-bit FNV-1a: tiny, dependency-free and fully
//! deterministic.

use serde_json::{Number, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a state `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn tag(h: u64, t: u8) -> u64 {
    fnv1a(h, &[t])
}

/// Canonical hash of a serialisable value (see the module docs for the
/// canonical form).
pub(crate) fn canonical_hash_of<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let tree = serde_json::to_value(value).expect("shim serialisation is infallible");
    canonical_value_hash(&tree)
}

/// Canonical hash of a JSON value tree.
pub(crate) fn canonical_value_hash(value: &Value) -> u64 {
    hash_value(FNV_OFFSET, value)
}

/// Folds `value` into the running FNV-1a state `h` in canonical form.
pub(crate) fn hash_value(mut h: u64, value: &Value) -> u64 {
    match value {
        Value::Null => tag(h, 0),
        Value::Bool(b) => fnv1a(tag(h, 1), &[*b as u8]),
        Value::Number(n) => match n {
            // Non-negative integers always parse as `UInt`, but normalise
            // anyway so a hand-built `Int(3)` and a parsed `UInt(3)` agree.
            Number::Int(i) if *i >= 0 => fnv1a(tag(h, 2), &(*i as u64).to_le_bytes()),
            Number::UInt(u) => fnv1a(tag(h, 2), &u.to_le_bytes()),
            Number::Int(i) => fnv1a(tag(h, 3), &i.to_le_bytes()),
            Number::Float(f) => fnv1a(tag(h, 4), &f.to_bits().to_le_bytes()),
        },
        Value::String(s) => {
            h = fnv1a(tag(h, 5), &(s.len() as u64).to_le_bytes());
            fnv1a(h, s.as_bytes())
        }
        Value::Array(items) => {
            h = fnv1a(tag(h, 6), &(items.len() as u64).to_le_bytes());
            for item in items {
                h = hash_value(h, item);
            }
            h
        }
        Value::Object(map) => {
            let mut entries: Vec<(&String, &Value)> =
                map.iter().filter(|(_, v)| !v.is_null()).collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            h = fnv1a(tag(h, 7), &(entries.len() as u64).to_le_bytes());
            for (key, item) in entries {
                h = fnv1a(h, &(key.len() as u64).to_le_bytes());
                h = fnv1a(h, key.as_bytes());
                h = hash_value(h, item);
            }
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Map;

    fn obj(entries: &[(&str, Value)]) -> Value {
        let mut map = Map::new();
        for (k, v) in entries {
            map.insert((*k).to_string(), v.clone());
        }
        Value::Object(map)
    }

    #[test]
    fn key_order_is_irrelevant() {
        let a = obj(&[
            ("x", Value::Number(Number::UInt(1))),
            ("y", Value::String("s".into())),
        ]);
        let b = obj(&[
            ("y", Value::String("s".into())),
            ("x", Value::Number(Number::UInt(1))),
        ]);
        assert_eq!(canonical_value_hash(&a), canonical_value_hash(&b));
    }

    #[test]
    fn null_entries_match_absent_entries() {
        let explicit = obj(&[("x", Value::Number(Number::UInt(1))), ("opt", Value::Null)]);
        let absent = obj(&[("x", Value::Number(Number::UInt(1)))]);
        assert_eq!(
            canonical_value_hash(&explicit),
            canonical_value_hash(&absent)
        );
    }

    #[test]
    fn distinct_values_hash_differently() {
        let base = obj(&[("seed", Value::Number(Number::UInt(1)))]);
        let other = obj(&[("seed", Value::Number(Number::UInt(2)))]);
        assert_ne!(canonical_value_hash(&base), canonical_value_hash(&other));
        // Type confusion: string "1" vs number 1 vs bool true.
        assert_ne!(
            canonical_value_hash(&Value::String("1".into())),
            canonical_value_hash(&Value::Number(Number::UInt(1)))
        );
        assert_ne!(
            canonical_value_hash(&Value::Bool(true)),
            canonical_value_hash(&Value::Number(Number::UInt(1)))
        );
    }

    #[test]
    fn text_round_trip_is_hash_stable() {
        let v = obj(&[
            ("f", Value::Number(Number::Float(2.0))),
            ("u", Value::Number(Number::UInt(2))),
            (
                "nested",
                obj(&[("a", Value::Array(vec![Value::Bool(false)]))]),
            ),
        ]);
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(canonical_value_hash(&v), canonical_value_hash(&back));
        // The float kept its fractional form, so it did not collapse into the
        // integer 2 (which hashes differently).
        assert_ne!(
            canonical_value_hash(v.get("f").unwrap()),
            canonical_value_hash(v.get("u").unwrap())
        );
    }

    #[test]
    fn known_vector_pins_the_hash_across_releases() {
        // Cache keys may be persisted by operators (e.g. mapping saved
        // results.json files back to scenarios); changing the canonical form
        // is a breaking change and must show up as a test failure.
        assert_eq!(
            fnv1a(0xcbf2_9ce4_8422_2325, b"cgsim"),
            0xeeb3_b14c_d768_b63e
        );
    }
}
