//! The shapes `#[derive(Serialize, Deserialize)]` supports, each printed and
//! parsed, with the exact error texts a caller sees (serve echoes them in its
//! error replies), and the shapes it refuses at compile time.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    count: u64,
    ratio: f64,
    label: String,
    kind: Kind,
    id: Id,
    #[serde(default)]
    tags: Vec<String>,
    #[serde(default = "default_limit")]
    limit: u32,
    note: Option<String>,
}

fn default_limit() -> u32 {
    7
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Id(u64);

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Kind {
    Small,
    Large,
}

#[derive(Serialize)]
struct Borrowed<'a> {
    label: &'a str,
    named: &'a Named,
}

fn named() -> Named {
    Named {
        count: 3,
        ratio: 0.5,
        label: "a\"b".to_string(),
        kind: Kind::Large,
        id: Id(42),
        tags: vec!["x".to_string()],
        limit: 1,
        note: None,
    }
}

const NAMED_JSON: &str = r#"{"count":3,"ratio":0.5,"label":"a\"b","kind":"Large","id":42,"tags":["x"],"limit":1,"note":null}"#;

#[test]
fn a_named_struct_is_an_object_in_field_order() {
    assert_eq!(serde_json::to_string(&named()).unwrap(), NAMED_JSON);
    assert_eq!(serde_json::from_str::<Named>(NAMED_JSON).unwrap(), named());
}

#[test]
fn absent_fields_take_their_defaults_and_options_none() {
    let sparse: Named =
        serde_json::from_str(r#"{"count":1,"ratio":2,"label":"","kind":"Small","id":0}"#).unwrap();
    assert_eq!(sparse.tags, Vec::<String>::new());
    assert_eq!(sparse.limit, 7);
    assert_eq!(sparse.note, None);
    assert_eq!(sparse.ratio, 2.0);
}

#[test]
fn a_newtype_is_its_inner_value_and_a_unit_variant_its_name() {
    assert_eq!(serde_json::to_string(&Id(9)).unwrap(), "9");
    assert_eq!(serde_json::from_str::<Id>("9").unwrap(), Id(9));
    assert_eq!(serde_json::to_string(&Kind::Small).unwrap(), "\"Small\"");
    let large: Kind = serde_json::from_str("\"Large\"").unwrap();
    assert_eq!(large, Kind::Large);
}

#[test]
fn a_struct_of_borrows_serialises_like_its_owner() {
    let owner = named();
    let borrowed = Borrowed {
        label: "b",
        named: &owner,
    };
    assert_eq!(
        serde_json::to_string(&borrowed).unwrap(),
        format!(r#"{{"label":"b","named":{NAMED_JSON}}}"#)
    );
}

#[test]
fn decode_errors_name_the_field_the_variant_or_the_type() {
    let err = |text: &str| serde_json::from_str::<Named>(text).unwrap_err().to_string();
    assert_eq!(
        err(r#"{"ratio":1.0,"label":"","kind":"Small","id":0}"#),
        "missing field `count` in Named"
    );
    assert_eq!(
        err(r#"{"count":1,"ratio":1.0,"label":"","kind":"Medium","id":0}"#),
        "unknown variant `Medium` of Kind"
    );
    assert_eq!(err("[1]"), "expected object for Named, got [1]");
    let id = serde_json::from_str::<Id>("\"9\"").unwrap_err();
    assert_eq!(id.to_string(), "expected number, got \"9\"");
    assert_eq!(
        err(r#"{"count":"1","ratio":1.0,"label":"","kind":"Small","id":0}"#),
        "expected number, got \"1\""
    );
    assert_eq!(
        err(r#"{"count":-1,"ratio":1.0,"label":"","kind":"Small","id":0}"#),
        "integer -1 out of range"
    );
    let kind = |text: &str| serde_json::from_str::<Kind>(text).unwrap_err().to_string();
    assert_eq!(
        kind("5"),
        "expected string or single-key object for Kind, got 5"
    );
    assert_eq!(kind(r#"{"Small":1}"#), "unknown variant `Small` of Kind");
}

/// Named structs nested every way a format nests them.
#[derive(Debug, Deserialize)]
struct Nest {
    #[serde(default)]
    named: Option<Named>,
    #[serde(default)]
    list: Vec<Vec<Named>>,
    #[serde(default)]
    by_name: std::collections::HashMap<String, Named>,
}

#[test]
fn a_key_no_field_takes_is_refused_with_its_path() {
    let nest: Nest = serde_json::from_str(&format!(
        r#"{{"named":{NAMED_JSON},"list":[[{NAMED_JSON}]],"by_name":{{"x":{NAMED_JSON}}}}}"#
    ))
    .unwrap();
    assert_eq!(nest.named, Some(named()));
    assert_eq!(nest.list, vec![vec![named()]]);
    assert_eq!(nest.by_name["x"], named());
    let bogus = NAMED_JSON.replacen('{', r#"{"bogus":1,"#, 1);
    let err = |text: &str| serde_json::from_str::<Nest>(text).unwrap_err();
    assert_eq!(
        serde_json::from_str::<Named>(&bogus)
            .unwrap_err()
            .to_string(),
        "unknown key `bogus`"
    );
    assert_eq!(
        err(&format!(r#"{{"named":{bogus}}}"#)).to_string(),
        "unknown key `named.bogus`"
    );
    assert_eq!(
        err(&format!(
            r#"{{"list":[[{NAMED_JSON}],[{NAMED_JSON},{bogus}]]}}"#
        ))
        .to_string(),
        "unknown key `list[1][1].bogus`"
    );
    let in_map = err(&format!(r#"{{"by_name":{{"x":{bogus}}}}}"#));
    assert_eq!(in_map.to_string(), "unknown key `by_name.x.bogus`");
    assert_eq!(
        in_map.found_in("the test").to_string(),
        "unknown key `by_name.x.bogus` in the test"
    );
    // Naming the input changes no other error.
    let other = serde_json::from_str::<Named>("[1]").unwrap_err();
    assert_eq!(other.clone().found_in("the test"), other);
    assert_eq!(err(r#"{"nest":{}}"#).to_string(), "unknown key `nest`");
}

#[test]
fn escaped_and_repeated_keys_decode_like_their_plain_spelling() {
    let escaped = NAMED_JSON.replacen(r#""count":3"#, r#""c\u006funt":3"#, 1);
    assert_eq!(serde_json::from_str::<Named>(&escaped).unwrap(), named());
    let repeated = NAMED_JSON.replacen(r#""count":3"#, r#""count":8,"count":3"#, 1);
    assert_eq!(serde_json::from_str::<Named>(&repeated).unwrap(), named());
}

/// Each shape the derive does not support stops the build with a message
/// that names the type, rather than expanding to an impl that misbehaves.
/// Checks a throwaway crate with `cargo check --offline` against the shims.
#[test]
fn unsupported_shapes_fail_to_compile_with_a_message_naming_them() {
    let shims = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap();
    let dir = std::env::temp_dir().join(format!("serde-shim-unsupported-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"unsupported\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [dependencies]\nserde = {{ path = {:?} }}\n\n[workspace]\n",
            shims.join("serde")
        ),
    )
    .unwrap();
    std::fs::write(
        dir.join("src/lib.rs"),
        "#[derive(serde::Serialize)]\npub enum Shape { Circle(f64), Unit }\n\
         #[derive(serde::Serialize)]\npub enum Event { Moved { x: f64 } }\n\
         #[derive(serde::Deserialize)]\npub struct Pair(pub u64, pub u64);\n\
         #[derive(serde::Serialize)]\npub struct Bare(pub u64);\n\
         #[derive(serde::Serialize)]\npub struct Marker;\n\
         #[derive(serde::Serialize)]\npub struct Generic<T> { pub value: T }\n",
    )
    .unwrap();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = std::process::Command::new(cargo)
        .args(["check", "--offline", "--quiet", "--manifest-path"])
        .arg(dir.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "{stderr}");
    for message in [
        "supports only unit variants, found `Shape::Circle` carrying data",
        "supports only unit variants, found `Event::Moved` carrying data",
        "supports a tuple struct only as a one-field `#[serde(transparent)]` newtype, found `Pair`",
        "supports a tuple struct only as a one-field `#[serde(transparent)]` newtype, found `Bare`",
        "does not support unit struct `Marker`",
        "supports only lifetime parameters on `Generic`",
    ] {
        assert!(stderr.contains(message), "no `{message}` in:\n{stderr}");
    }
}
