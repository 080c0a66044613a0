//! The derive's text decoder against a naive twin: parse the text into a
//! `Value` tree, refuse the first key the type does not know by walking the
//! tree against a tree of every key, then decode the tree field by field —
//! the path every format was read through before the derive read text.
//!
//! Random documents of one test type, each valid or carrying exactly one
//! fault (a wrong-typed value, an unknown key, a missing field, a syntax
//! error), must decode to the same value or fail with the same error text
//! through both paths. Valid rewrites ride along: reordered, escaped and
//! repeated keys, absent defaults, whitespace.

use proptest::prelude::*;
use serde::{Deserialize, Error, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer {
    count: u32,
    total: u64,
    ratio: f64,
    flag: bool,
    label: String,
    kind: Kind,
    inner: Inner,
    maybe: Option<Inner>,
    items: Vec<Inner>,
    note: Option<String>,
    #[serde(default)]
    tags: Vec<String>,
    #[serde(default = "default_limit")]
    limit: u32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    id: u64,
    #[serde(default)]
    weight: f64,
    name: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Kind {
    Small,
    Large,
}

fn default_limit() -> u32 {
    7
}

// ----- the twin: tree, key walk, field-by-field decode ----------------------

fn reference(text: &str) -> Result<Outer, Error> {
    let tree: Value = serde_json::from_str(text)?;
    let known = serde_json::to_value(&full()).unwrap();
    if let Some(path) = unknown_key(&tree, &known) {
        return Err(Error::custom(format!("unknown key `{path}`")));
    }
    Outer::tree(&tree)
}

/// The `.`-joined path of the first key of `tree` that `known` lacks; into
/// arrays too, against `known`'s one element.
fn unknown_key(tree: &Value, known: &Value) -> Option<String> {
    match (tree, known) {
        (Value::Object(tree), Value::Object(known)) => tree.iter().find_map(|(key, value)| {
            let Some(known) = known.get(key) else {
                return Some(key.clone());
            };
            let path = unknown_key(value, known)?;
            let dot = if path.starts_with('[') { "" } else { "." };
            Some(format!("{key}{dot}{path}"))
        }),
        (Value::Array(items), Value::Array(known)) => {
            items.iter().enumerate().find_map(|(index, value)| {
                let path = unknown_key(value, &known[0])?;
                let dot = if path.starts_with('[') { "" } else { "." };
                Some(format!("[{index}]{dot}{path}"))
            })
        }
        _ => None,
    }
}

/// A value of every key: each `Option` set and each `Vec` one element long.
fn full() -> Outer {
    let inner = Inner {
        id: 1,
        weight: 0.5,
        name: Some("n".into()),
    };
    Outer {
        count: 1,
        total: 2,
        ratio: 0.5,
        flag: true,
        label: "l".into(),
        kind: Kind::Small,
        inner: inner.clone(),
        maybe: Some(inner.clone()),
        items: vec![inner],
        note: Some("x".into()),
        tags: vec!["t".into()],
        limit: 3,
    }
}

/// Decoding from a tree, as each impl did before decoders read text.
trait Tree: Sized {
    fn tree(v: &Value) -> Result<Self, Error>;
}

macro_rules! tree_uint {
    ($($t:ty),*) => {$(
        impl Tree for $t {
            fn tree(v: &Value) -> Result<Self, Error> {
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

tree_uint!(u32, u64);

impl Tree for f64 {
    fn tree(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::custom(format!("expected number, got {v}")))
    }
}

impl Tree for bool {
    fn tree(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other}"))),
        }
    }
}

impl Tree for String {
    fn tree(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other}"))),
        }
    }
}

impl<T: Tree> Tree for Option<T> {
    fn tree(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::tree(other).map(Some),
        }
    }
}

impl<T: Tree> Tree for Vec<T> {
    fn tree(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::tree).collect(),
            other => Err(Error::custom(format!("expected array, got {other}"))),
        }
    }
}

impl Tree for Kind {
    fn tree(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(tag) => match tag.as_str() {
                "Small" => Ok(Kind::Small),
                "Large" => Ok(Kind::Large),
                other => Err(Error::custom(format!("unknown variant `{other}` of Kind"))),
            },
            Value::Object(map) if map.len() == 1 => {
                let tag = map.keys().next().unwrap();
                Err(Error::custom(format!("unknown variant `{tag}` of Kind")))
            }
            other => Err(Error::custom(format!(
                "expected string or single-key object for Kind, got {other}"
            ))),
        }
    }
}

/// A field of the object `obj` of the struct `name`: decoded when present,
/// else `missing()` (a default, `None`, or the missing-field error).
fn field<T: Tree>(
    obj: &serde::Map,
    key: &str,
    name: &str,
    missing: impl FnOnce() -> Option<T>,
) -> Result<T, Error> {
    match obj.get(key) {
        Some(v) => T::tree(v),
        None => missing().ok_or_else(|| Error::custom(format!("missing field `{key}` in {name}"))),
    }
}

fn object<'v>(v: &'v Value, name: &str) -> Result<&'v serde::Map, Error> {
    v.as_object()
        .ok_or_else(|| Error::custom(format!("expected object for {name}, got {v}")))
}

impl Tree for Inner {
    fn tree(v: &Value) -> Result<Self, Error> {
        let obj = object(v, "Inner")?;
        Ok(Inner {
            id: field(obj, "id", "Inner", || None)?,
            weight: field(obj, "weight", "Inner", || Some(0.0))?,
            name: field(obj, "name", "Inner", || Some(None))?,
        })
    }
}

impl Tree for Outer {
    fn tree(v: &Value) -> Result<Self, Error> {
        let obj = object(v, "Outer")?;
        Ok(Outer {
            count: field(obj, "count", "Outer", || None)?,
            total: field(obj, "total", "Outer", || None)?,
            ratio: field(obj, "ratio", "Outer", || None)?,
            flag: field(obj, "flag", "Outer", || None)?,
            label: field(obj, "label", "Outer", || None)?,
            kind: field(obj, "kind", "Outer", || None)?,
            inner: field(obj, "inner", "Outer", || None)?,
            maybe: field(obj, "maybe", "Outer", || Some(None))?,
            items: field(obj, "items", "Outer", || None)?,
            note: field(obj, "note", "Outer", || Some(None))?,
            tags: field(obj, "tags", "Outer", || Some(Vec::new()))?,
            limit: field(obj, "limit", "Outer", || Some(default_limit()))?,
        })
    }
}

// ----- random documents -----------------------------------------------------

/// A document as written: keys as their literal text (so they can be
/// escaped, and repeat), leaves as JSON text.
#[derive(Debug, Clone)]
enum Doc {
    Leaf(String),
    Array(Vec<Doc>),
    Object(Vec<(String, Doc)>),
}

impl Doc {
    fn of(v: &Value) -> Doc {
        match v {
            Value::Array(items) => Doc::Array(items.iter().map(Doc::of).collect()),
            Value::Object(map) => Doc::Object(
                map.iter()
                    .map(|(k, v)| (serde_json::to_string(k).unwrap(), Doc::of(v)))
                    .collect(),
            ),
            leaf => Doc::Leaf(leaf.to_string()),
        }
    }

    fn render(&self, out: &mut String, rng: &mut TestRng) {
        let space = |out: &mut String, rng: &mut TestRng| {
            if pick(rng, 4) == 0 {
                out.push_str([" ", "\n", "\t ", "\r\n"][pick(rng, 4)]);
            }
        };
        match self {
            Doc::Leaf(text) => out.push_str(text),
            Doc::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    space(out, rng);
                    item.render(out, rng);
                    space(out, rng);
                }
                out.push(']');
            }
            Doc::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    space(out, rng);
                    out.push_str(key);
                    space(out, rng);
                    out.push(':');
                    space(out, rng);
                    value.render(out, rng);
                }
                out.push('}');
            }
        }
    }
}

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn string(rng: &mut TestRng) -> String {
    [
        "",
        "plain",
        "quote\" back\\slash",
        "line\nbreak",
        "é 網 \u{10400}",
        "\u{1}",
    ][pick(rng, 6)]
    .to_string()
}

fn inner(rng: &mut TestRng) -> Inner {
    Inner {
        id: rng.next_u64() >> pick(rng, 64),
        weight: (rng.next_f64() - 0.5) * 1e3,
        name: (pick(rng, 2) == 0).then(|| string(rng)),
    }
}

fn outer(rng: &mut TestRng) -> Outer {
    Outer {
        count: (rng.next_u64() >> 32) as u32,
        total: rng.next_u64() >> pick(rng, 64),
        ratio: [0.0, -0.0, 1.5, 1e300, 5e-324, -2.25][pick(rng, 6)],
        flag: pick(rng, 2) == 0,
        label: string(rng),
        kind: [Kind::Small, Kind::Large][pick(rng, 2)],
        inner: inner(rng),
        maybe: (pick(rng, 2) == 0).then(|| inner(rng)),
        items: (0..pick(rng, 3)).map(|_| inner(rng)).collect(),
        note: (pick(rng, 2) == 0).then(|| string(rng)),
        tags: (0..pick(rng, 3)).map(|_| string(rng)).collect(),
        limit: pick(rng, 100) as u32,
    }
}

/// Values of the wrong type somewhere, or of the right one, or out of range.
const REPLACEMENTS: [&str; 20] = [
    "-1",
    "-1.0",
    "1.5",
    "7.0",
    "-0",
    "1e20",
    "18446744073709551616",
    "4294967296",
    "1e400",
    "\"x\"",
    "\"Small\"",
    "\"Huge\"",
    "true",
    "null",
    "[]",
    "[1]",
    "{}",
    "{\"Small\":1}",
    "{\"id\":3}",
    "0",
];

/// Visits the `n`th container (object or array) of `doc`, counting
/// outermost first, depth first.
fn nth_container(doc: &mut Doc, n: &mut usize, visit: &mut dyn FnMut(&mut Doc)) -> bool {
    if matches!(doc, Doc::Leaf(_)) {
        return false;
    }
    if *n == 0 {
        visit(doc);
        return true;
    }
    *n -= 1;
    let children: Vec<&mut Doc> = match doc {
        Doc::Leaf(_) => unreachable!(),
        Doc::Array(items) => items.iter_mut().collect(),
        Doc::Object(entries) => entries.iter_mut().map(|(_, v)| v).collect(),
    };
    children
        .into_iter()
        .any(|child| nth_container(child, n, visit))
}

fn container_count(doc: &Doc) -> usize {
    match doc {
        Doc::Leaf(_) => 0,
        Doc::Array(items) => 1 + items.iter().map(container_count).sum::<usize>(),
        Doc::Object(entries) => {
            1 + entries
                .iter()
                .map(|(_, v)| container_count(v))
                .sum::<usize>()
        }
    }
}

/// One random document: a random `Outer`, rewritten by at most one fault
/// and any number of harmless edits.
fn document(rng: &mut TestRng) -> String {
    let value = serde_json::to_value(&outer(rng)).unwrap();
    let mut doc = Doc::of(&value);
    let containers = container_count(&doc);
    let mut at = pick(rng, containers);
    let mutation = pick(rng, 9);
    let other = Doc::of(&serde_json::to_value(&outer(rng)).unwrap());
    nth_container(&mut doc, &mut at, &mut |target| match target {
        Doc::Object(entries) if !entries.is_empty() => {
            let i = pick(rng, entries.len());
            match mutation {
                // An unknown key.
                1 => entries.insert(i, ("\"bogus\"".into(), Doc::Leaf("1".into()))),
                // A value replaced, by the wrong type or the right one.
                2 => entries[i].1 = Doc::Leaf(REPLACEMENTS[pick(rng, REPLACEMENTS.len())].into()),
                // A key dropped: a default, `None` or a missing field.
                3 => {
                    entries.remove(i);
                }
                // A key repeated, its first value another valid one.
                4 => {
                    if let Doc::Object(others) = &other {
                        if let Some(earlier) = others.iter().find(|(k, _)| *k == entries[i].0) {
                            entries.insert(i, earlier.clone());
                        }
                    }
                }
                // A key spelt with an escape.
                5 => {
                    let key = &mut entries[i].0;
                    let first = key.as_bytes()[1];
                    *key = format!("\"\\u{:04x}{}", first, &key[2..]);
                }
                // Keys reordered.
                6 => entries.rotate_left(i),
                _ => {}
            }
        }
        Doc::Array(items) if !items.is_empty() && mutation == 2 => {
            let i = pick(rng, items.len());
            items[i] = Doc::Leaf(REPLACEMENTS[pick(rng, REPLACEMENTS.len())].into());
        }
        _ => {}
    });
    let mut text = String::new();
    doc.render(&mut text, rng);
    match mutation {
        // Truncated, or a stray byte: a syntax error, mostly.
        7 => {
            let mut cut = pick(rng, text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
        8 => {
            let mut at = pick(rng, text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.insert(at, [',', ':', '}', ']', 'x', '"', '['][pick(rng, 7)]);
        }
        _ => {}
    }
    text
}

struct Documents;

impl Strategy for Documents {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        document(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn the_text_decoder_agrees_with_the_tree_decoder(text in Documents) {
        let decoded = serde_json::from_str::<Outer>(&text).map_err(|e| e.to_string());
        let expected = reference(&text).map_err(|e| e.to_string());
        prop_assert_eq!(decoded, expected, "{}", text);
    }
}

#[test]
fn the_documents_cover_every_outcome() {
    let mut rng = TestRng::for_test("coverage");
    let (mut ok, mut unknown, mut missing, mut syntax, mut typed) = (0, 0, 0, 0, 0);
    for _ in 0..2000 {
        match reference(&document(&mut rng)) {
            Ok(_) => ok += 1,
            Err(e) => {
                let e = e.to_string();
                if e.starts_with("unknown key") {
                    unknown += 1;
                } else if e.starts_with("missing field") {
                    missing += 1;
                } else if e.starts_with("expected ") && e.contains(", got ") {
                    typed += 1;
                } else {
                    syntax += 1;
                }
            }
        }
    }
    for (what, count) in [
        ("ok", ok),
        ("unknown key", unknown),
        ("missing field", missing),
        ("syntax", syntax),
        ("wrong type", typed),
    ] {
        assert!(count >= 25, "{what}: {count} of 2000");
    }
}
