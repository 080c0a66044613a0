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
//!
//! Two functions compute it. `hash_value` walks a value tree; it hashes a
//! scenario base's platform and trace, once per base. `hash_execution`
//! visits an [`ExecutionConfig`] field by field, in sorted key order, and
//! feeds FNV-1a exactly the bytes `hash_value` feeds it from the config's
//! tree — the same tags and length prefixes, unit enums as their variant
//! names, `horizon_s: None` dropped with its entry — without building the
//! tree, so hashing a scenario (every serve request) allocates nothing.
//! The tree walk is its reference twin: debug builds compare the two on
//! every [`ScenarioSpec::canonical_hash`](super::ScenarioSpec::canonical_hash)
//! call, so a config field added without a line here fails every debug test
//! that hashes a scenario.

use serde_json::{Number, Value};

use crate::config::{CheckpointTarget, ComputeMode, ExecutionConfig};

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

// One function per node kind of the value tree: the bytes each node feeds
// FNV-1a, shared by both walks.

fn boolean(h: u64, b: bool) -> u64 {
    fnv1a(tag(h, 1), &[b as u8])
}

fn uint(h: u64, u: u64) -> u64 {
    fnv1a(tag(h, 2), &u.to_le_bytes())
}

fn float(h: u64, f: f64) -> u64 {
    fnv1a(tag(h, 4), &f.to_bits().to_le_bytes())
}

fn string(h: u64, s: &str) -> u64 {
    key(tag(h, 5), s)
}

/// The head of an object of `entries` non-null entries.
fn object(h: u64, entries: usize) -> u64 {
    fnv1a(tag(h, 7), &(entries as u64).to_le_bytes())
}

/// An object entry's key; its value follows.
fn key(h: u64, key: &str) -> u64 {
    fnv1a(fnv1a(h, &(key.len() as u64).to_le_bytes()), key.as_bytes())
}

/// Folds `value` into the running FNV-1a state `h` in canonical form.
pub(crate) fn hash_value(mut h: u64, value: &Value) -> u64 {
    match value {
        Value::Null => tag(h, 0),
        Value::Bool(b) => boolean(h, *b),
        Value::Number(n) => match n {
            // Non-negative integers always parse as `UInt`, but normalise
            // anyway so a hand-built `Int(3)` and a parsed `UInt(3)` agree.
            Number::Int(i) if *i >= 0 => uint(h, *i as u64),
            Number::UInt(u) => uint(h, *u),
            Number::Int(i) => fnv1a(tag(h, 3), &i.to_le_bytes()),
            Number::Float(f) => float(h, *f),
        },
        Value::String(s) => string(h, s),
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
            h = object(h, entries.len());
            for (name, item) in entries {
                h = hash_value(key(h, name), item);
            }
            h
        }
    }
}

/// Folds `e` into `h` as [`hash_value`] folds `serde_json::to_value(e)`,
/// without building the tree: every object's entries in sorted key order.
pub(crate) fn hash_execution(h: u64, e: &ExecutionConfig) -> u64 {
    let compute_mode = match e.compute_mode {
        ComputeMode::DedicatedCores => "DedicatedCores",
        ComputeMode::TimeShared => "TimeShared",
    };
    let target = match e.checkpoint.target {
        CheckpointTarget::SiteStorage => "SiteStorage",
        CheckpointTarget::MainServer => "MainServer",
    };
    let (c, r, q, m) = (&e.checkpoint, &e.repair, &e.queue_model, &e.monitoring);

    let mut h = object(h, 11 + usize::from(e.horizon_s.is_some()));
    h = string(key(h, "allocation_policy"), &e.allocation_policy);
    h = object(key(h, "checkpoint"), 6);
    h = uint(key(h, "base_bytes"), c.base_bytes);
    h = uint(key(h, "bytes_per_core"), c.bytes_per_core);
    h = uint(key(h, "delta_bytes_per_s"), c.delta_bytes_per_s);
    h = float(key(h, "interval_s"), c.interval_s);
    h = boolean(key(h, "overlap"), c.overlap);
    h = string(key(h, "target"), target);
    h = string(key(h, "compute_mode"), compute_mode);
    h = string(key(h, "data_movement_policy"), &e.data_movement_policy);
    h = float(key(h, "failure_probability"), e.failure_probability);
    h = uint(key(h, "fault_max_retries"), e.fault_max_retries.into());
    if let Some(horizon_s) = e.horizon_s {
        h = float(key(h, "horizon_s"), horizon_s);
    }
    h = uint(key(h, "max_retries"), e.max_retries.into());
    h = object(key(h, "monitoring"), 5);
    h = boolean(key(h, "enabled"), m.enabled);
    h = uint(key(h, "max_events"), m.max_events);
    h = uint(key(h, "max_windows"), m.max_windows as u64);
    h = uint(key(h, "sample_stride"), m.sample_stride);
    h = float(key(h, "window_s"), m.window_s);
    h = object(key(h, "queue_model"), 3);
    h = float(key(h, "base_overhead_s"), q.base_overhead_s);
    h = float(key(h, "contention_coeff"), q.contention_coeff);
    h = float(key(h, "per_queued_job_s"), q.per_queued_job_s);
    h = object(key(h, "repair"), 5);
    h = float(key(h, "backoff_s"), r.backoff_s);
    h = boolean(key(h, "enabled"), r.enabled);
    h = uint(key(h, "max_concurrent"), r.max_concurrent.into());
    h = uint(key(h, "max_retries"), r.max_retries.into());
    h = uint(key(h, "target_factor"), r.target_factor.into());
    uint(key(h, "seed"), e.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointConfig, RepairConfig};
    use crate::queue_model::QueueModel;
    use cgsim_monitor::MonitoringConfig;
    use proptest::prelude::*;
    use serde_json::Map;
    use std::collections::BTreeSet;
    use std::num::FpCategory;

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

    /// The floats a float field draws half the time; the other half are
    /// random bit patterns (any NaN payload, any sign, subnormals).
    const FLOATS: [f64; 9] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -2.2e-308,
        f64::MAX,
        600.0,
    ];

    /// Policy names, non-ASCII and JSON-escaped ones among them.
    const NAMES: [&str; 5] = [
        "least-loaded",
        "",
        "données-aware",
        "最少负载",
        "🚀 \"quoted\"\\\n",
    ];

    /// Field values drawn from a list of random words, one word per field.
    struct Draw<'a>(std::slice::Iter<'a, u64>);

    impl Draw<'_> {
        fn word(&mut self) -> u64 {
            *self.0.next().expect("one word per field")
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[(self.word() % options.len() as u64) as usize]
        }

        fn float(&mut self) -> f64 {
            let w = self.word();
            match w % 2 {
                0 => FLOATS[(w / 2 % FLOATS.len() as u64) as usize],
                _ => f64::from_bits(w),
            }
        }

        fn u64(&mut self) -> u64 {
            let w = self.word();
            [0, u64::MAX, w][(w % 3) as usize]
        }

        fn u32(&mut self) -> u32 {
            let w = self.word();
            [0, u32::MAX, w as u32][(w % 3) as usize]
        }

        fn bool(&mut self) -> bool {
            self.word() & 1 == 0
        }
    }

    /// An execution config with every field drawn from `words` (28 of them).
    /// No field is left to `Default`, so a new field must be drawn here too.
    fn random_config(words: &[u64]) -> ExecutionConfig {
        let d = &mut Draw(words.iter());
        ExecutionConfig {
            allocation_policy: d.pick(&NAMES).to_string(),
            seed: d.u64(),
            failure_probability: d.float(),
            max_retries: d.u32(),
            fault_max_retries: d.u32(),
            checkpoint: CheckpointConfig {
                interval_s: d.float(),
                base_bytes: d.u64(),
                bytes_per_core: d.u64(),
                target: d.pick(&[CheckpointTarget::SiteStorage, CheckpointTarget::MainServer]),
                overlap: d.bool(),
                delta_bytes_per_s: d.u64(),
            },
            repair: RepairConfig {
                enabled: d.bool(),
                target_factor: d.u32(),
                max_concurrent: d.u32(),
                backoff_s: d.float(),
                max_retries: d.u32(),
            },
            data_movement_policy: d.pick(&NAMES).to_string(),
            compute_mode: d.pick(&[ComputeMode::DedicatedCores, ComputeMode::TimeShared]),
            queue_model: QueueModel {
                base_overhead_s: d.float(),
                per_queued_job_s: d.float(),
                contention_coeff: d.float(),
            },
            monitoring: MonitoringConfig {
                enabled: d.bool(),
                sample_stride: d.u64(),
                max_events: d.u64(),
                window_s: d.float(),
                max_windows: d.u64() as usize,
            },
            horizon_s: if d.bool() { Some(d.float()) } else { None },
        }
    }

    /// Adds what the entry `key: value` of a config's tree exercises to
    /// `seen`: each string (enum variants by name), each float's class and
    /// sign, the integer extremes.
    fn features(key: &str, value: &Value, seen: &mut BTreeSet<String>) {
        let feature = match value {
            Value::Object(map) => {
                for (key, value) in map.iter() {
                    features(key, value, seen);
                }
                return;
            }
            Value::String(s) if s.is_ascii() => format!("{key}={s}"),
            Value::String(_) => format!("{key} non-ASCII"),
            Value::Number(Number::Float(f)) => match f.classify() {
                FpCategory::Nan => "NaN".to_string(),
                class => format!("{class:?}{}", if f.is_sign_negative() { '-' } else { '+' }),
            },
            Value::Number(Number::UInt(u64::MAX)) => "u64::MAX".to_string(),
            Value::Number(Number::UInt(u)) if *u == u64::from(u32::MAX) => "u32::MAX".to_string(),
            Value::Null => format!("{key}=null"),
            _ => return,
        };
        seen.insert(feature);
    }

    /// `hash_execution` agrees with the tree walk on 512 random configs from
    /// random start states, and those configs drew every enum variant, both
    /// horizons, a non-ASCII name, every float class of either sign and
    /// both integer extremes.
    #[test]
    fn the_direct_execution_hash_equals_the_value_tree_hash() {
        let mut rng = TestRng::for_test("the_direct_execution_hash_equals_the_value_tree_hash");
        let words = prop::collection::vec(any::<u64>(), 28);
        let mut seen = BTreeSet::new();
        for _ in 0..512 {
            let execution = random_config(&words.sample(&mut rng));
            let start = FNV_OFFSET ^ rng.next_u64();
            let tree = serde_json::to_value(&execution).unwrap();
            assert_eq!(
                hash_execution(start, &execution),
                hash_value(start, &tree),
                "{execution:?}"
            );
            features("", &tree, &mut seen);
            if tree.get("horizon_s").is_some_and(|h| !h.is_null()) {
                seen.insert("horizon_s set".into());
            }
        }
        let wanted = [
            "compute_mode=DedicatedCores",
            "compute_mode=TimeShared",
            "target=SiteStorage",
            "target=MainServer",
            "horizon_s=null",
            "horizon_s set",
            "allocation_policy non-ASCII",
            "Zero+",
            "Zero-",
            "NaN",
            "Infinite+",
            "Infinite-",
            "Subnormal+",
            "Subnormal-",
            "Normal+",
            "Normal-",
            "u64::MAX",
            "u32::MAX",
        ];
        for feature in wanted {
            assert!(seen.contains(feature), "no case drew {feature}");
        }
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
