//! Offline `#[derive(Serialize, Deserialize)]` for the shimmed `serde` crate.
//!
//! The build environment has no crates.io access, so this proc macro parses
//! the derive input by hand (no `syn`/`quote`) and emits impls of the shim's
//! value-tree traits. It supports exactly the shapes used in this repository:
//!
//! * structs with named fields (external representation: JSON object),
//! * tuple structs (JSON array; single-field + `#[serde(transparent)]`
//!   serializes as the inner value),
//! * enums with unit, tuple and struct variants (externally tagged, like
//!   real serde: `"Variant"`, `{"Variant": payload}`),
//! * field attributes `#[serde(default)]` and `#[serde(default = "path")]`,
//! * missing `Option<T>` fields deserialize as `None`.
//!
//! Lifetime parameters are supported on `Serialize` only (a struct of
//! borrows, serialised without cloning what it points at); type parameters
//! are intentionally unsupported (the repo has none).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_input(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_input(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ----- input model ----------------------------------------------------------

struct Input {
    name: String,
    /// `<'a, 'b>` when the type has lifetime parameters, empty otherwise.
    lifetimes: String,
    transparent: bool,
    kind: Kind,
}

enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    /// First path segment of the type (enough to special-case `Option`).
    type_head: String,
    default: Option<DefaultKind>,
}

enum DefaultKind {
    /// `#[serde(default)]` — `Default::default()`.
    Std,
    /// `#[serde(default = "path")]` — call `path()`.
    Path(String),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

// ----- token-stream parsing -------------------------------------------------

struct Attrs {
    transparent: bool,
    default: Option<DefaultKind>,
}

fn parse_input(input: TokenStream) -> Input {
    let mut tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    let attrs = parse_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    let lifetimes = parse_lifetimes(&tokens, &mut pos, &name);

    match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input {
                name,
                lifetimes,
                transparent: attrs.transparent,
                kind: Kind::NamedStruct(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Input {
                name,
                lifetimes,
                transparent: attrs.transparent,
                kind: Kind::TupleStruct(parse_tuple_fields(g.stream())),
            },
            _ => Input {
                name,
                lifetimes,
                transparent: attrs.transparent,
                kind: Kind::NamedStruct(Vec::new()),
            },
        },
        "enum" => {
            let body = match tokens.remove(pos) {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("expected enum body, found {other}"),
            };
            Input {
                name,
                lifetimes,
                transparent: attrs.transparent,
                kind: Kind::Enum(parse_variants(body)),
            }
        }
        other => panic!("serde shim derive supports struct/enum, found `{other}`"),
    }
}

/// Consumes a `<'a, 'b>` parameter list, returning its text (empty when the
/// type has none). Anything but plain lifetimes is rejected.
fn parse_lifetimes(tokens: &[TokenTree], pos: &mut usize, name: &str) -> String {
    if !matches!(peek_punct(tokens, *pos), Some('<')) {
        return String::new();
    }
    let mut text = String::new();
    loop {
        let token = tokens
            .get(*pos)
            .unwrap_or_else(|| panic!("unterminated parameter list on `{name}`"));
        *pos += 1;
        match token {
            TokenTree::Punct(p) if p.as_char() == '>' => return text + ">",
            TokenTree::Punct(p) if matches!(p.as_char(), '<' | ',' | '\'') => {
                text.push(p.as_char());
            }
            TokenTree::Ident(lifetime) if text.ends_with('\'') => {
                text.push_str(&lifetime.to_string());
            }
            _ => panic!("serde shim derive supports only lifetime parameters on `{name}`"),
        }
    }
}

/// Consumes leading attributes, returning the serde-relevant ones.
fn parse_attrs(tokens: &[TokenTree], pos: &mut usize) -> Attrs {
    let mut attrs = Attrs {
        transparent: false,
        default: None,
    };
    while let Some(TokenTree::Punct(p)) = tokens.get(*pos) {
        if p.as_char() != '#' {
            break;
        }
        *pos += 1;
        let group = match tokens.get(*pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
            other => panic!("expected attribute brackets after '#', found {other:?}"),
        };
        *pos += 1;
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        let Some(TokenTree::Ident(head)) = inner.first() else {
            continue;
        };
        if head.to_string() != "serde" {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            continue;
        };
        parse_serde_args(args.stream(), &mut attrs);
    }
    attrs
}

/// Parses the inside of `#[serde(...)]`.
fn parse_serde_args(stream: TokenStream, attrs: &mut Attrs) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(ident) => match ident.to_string().as_str() {
                "transparent" => {
                    attrs.transparent = true;
                    i += 1;
                }
                "default" => {
                    if matches!(tokens.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=')
                    {
                        let lit = match tokens.get(i + 2) {
                            Some(TokenTree::Literal(l)) => l.to_string(),
                            other => panic!("expected string after `default =`, found {other:?}"),
                        };
                        attrs.default = Some(DefaultKind::Path(lit.trim_matches('"').to_string()));
                        i += 3;
                    } else {
                        attrs.default = Some(DefaultKind::Std);
                        i += 1;
                    }
                }
                other => panic!("serde shim does not support `#[serde({other})]`"),
            },
            TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
            other => panic!("unexpected token in #[serde(...)]: {other}"),
        }
    }
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if let Some(TokenTree::Ident(ident)) = tokens.get(*pos) {
        if ident.to_string() == "pub" {
            *pos += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *pos += 1;
                }
            }
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(ident)) => {
            *pos += 1;
            ident.to_string()
        }
        other => panic!("expected identifier, found {other:?}"),
    }
}

fn peek_punct(tokens: &[TokenTree], pos: usize) -> Option<char> {
    match tokens.get(pos) {
        Some(TokenTree::Punct(p)) => Some(p.as_char()),
        _ => None,
    }
}

/// Skips a type, returning its first identifier. Commas nested in angle
/// brackets, parens or brackets do not terminate the type.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) -> String {
    let mut head = String::new();
    let mut angle_depth = 0i32;
    while let Some(token) = tokens.get(*pos) {
        match token {
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                *pos += 1;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth -= 1;
                *pos += 1;
            }
            TokenTree::Ident(ident) => {
                if head.is_empty() {
                    head = ident.to_string();
                }
                *pos += 1;
            }
            _ => *pos += 1,
        }
    }
    head
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut pos);
        skip_visibility(&tokens, &mut pos);
        let name = expect_ident(&tokens, &mut pos);
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => panic!("expected ':' after field `{name}`, found {other:?}"),
        }
        let type_head = skip_type(&tokens, &mut pos);
        fields.push(Field {
            name: Some(name),
            type_head,
            default: attrs.default,
        });
        if matches!(peek_punct(&tokens, pos), Some(',')) {
            pos += 1;
        }
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut pos);
        skip_visibility(&tokens, &mut pos);
        let type_head = skip_type(&tokens, &mut pos);
        fields.push(Field {
            name: None,
            type_head,
            default: attrs.default,
        });
        if matches!(peek_punct(&tokens, pos), Some(',')) {
            pos += 1;
        }
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        let _attrs = parse_attrs(&tokens, &mut pos); // e.g. #[default], doc comments
        let name = expect_ident(&tokens, &mut pos);
        let kind = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                VariantKind::Tuple(parse_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantKind::Named(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        if matches!(peek_punct(&tokens, pos), Some(',')) {
            pos += 1;
        }
    }
    variants
}

// ----- code generation ------------------------------------------------------

fn gen_serialize(item: &Input) -> String {
    let name = &item.name;
    let lifetimes = &item.lifetimes;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let mut out = String::from("let mut map = ::serde::Map::new();\n");
            for field in fields {
                let fname = field.name.as_ref().unwrap();
                out.push_str(&format!(
                    "map.insert(\"{fname}\".to_string(), ::serde::Serialize::serialize_value(&self.{fname}));\n"
                ));
            }
            out.push_str("::serde::Value::Object(map)");
            out
        }
        Kind::TupleStruct(fields) if fields.len() == 1 && item.transparent => {
            "::serde::Serialize::serialize_value(&self.0)".to_string()
        }
        Kind::TupleStruct(fields) => {
            let items: Vec<String> = (0..fields.len())
                .map(|i| format!("::serde::Serialize::serialize_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for variant in variants {
                let vname = &variant.name;
                match &variant.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::String(\"{vname}\".to_string()),\n"
                    )),
                    VariantKind::Tuple(fields) => {
                        let binders: Vec<String> =
                            (0..fields.len()).map(|i| format!("__f{i}")).collect();
                        let payload = if fields.len() == 1 {
                            "::serde::Serialize::serialize_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize_value({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({binds}) => {{\n\
                             let mut map = ::serde::Map::new();\n\
                             map.insert(\"{vname}\".to_string(), {payload});\n\
                             ::serde::Value::Object(map)\n\
                             }}\n",
                            binds = binders.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let fnames: Vec<&String> =
                            fields.iter().map(|f| f.name.as_ref().unwrap()).collect();
                        let mut inner = String::from("let mut inner = ::serde::Map::new();\n");
                        for fname in &fnames {
                            inner.push_str(&format!(
                                "inner.insert(\"{fname}\".to_string(), ::serde::Serialize::serialize_value({fname}));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => {{\n\
                             {inner}\
                             let mut map = ::serde::Map::new();\n\
                             map.insert(\"{vname}\".to_string(), ::serde::Value::Object(inner));\n\
                             ::serde::Value::Object(map)\n\
                             }}\n",
                            binds = fnames
                                .iter()
                                .map(|s| s.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl{lifetimes} ::serde::Serialize for {name}{lifetimes} {{\n\
         fn serialize_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}\n"
    )
}

/// Expression deserializing named `fields` from the object expr `obj` into a
/// `Ctor { ... }` literal.
fn named_fields_ctor(ctor: &str, fields: &[Field], obj: &str, context: &str) -> String {
    let mut out = format!("{ctor} {{\n");
    for field in fields {
        let fname = field.name.as_ref().unwrap();
        let missing = match (&field.default, field.type_head.as_str()) {
            (Some(DefaultKind::Std), _) => "::std::default::Default::default()".to_string(),
            (Some(DefaultKind::Path(path)), _) => format!("{path}()"),
            (None, "Option") => "None".to_string(),
            (None, _) => format!(
                "return Err(::serde::Error::custom(\"missing field `{fname}` in {context}\"))"
            ),
        };
        out.push_str(&format!(
            "{fname}: match {obj}.get(\"{fname}\") {{\n\
             Some(__v) => ::serde::Deserialize::deserialize_value(__v)?,\n\
             None => {missing},\n\
             }},\n"
        ));
    }
    out.push('}');
    out
}

fn gen_deserialize(item: &Input) -> String {
    let name = &item.name;
    assert!(
        item.lifetimes.is_empty(),
        "serde shim derive cannot deserialize borrowed type `{name}`"
    );
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let ctor = named_fields_ctor(name, fields, "obj", name);
            format!(
                "let obj = v.as_object().ok_or_else(|| ::serde::Error::custom(\
                 format!(\"expected object for {name}, got {{v}}\")))?;\n\
                 Ok({ctor})"
            )
        }
        Kind::TupleStruct(fields) if fields.len() == 1 && item.transparent => {
            format!("Ok({name}(::serde::Deserialize::deserialize_value(v)?))")
        }
        Kind::TupleStruct(fields) => {
            let n = fields.len();
            let items: Vec<String> = (0..n)
                .map(|i| format!("::serde::Deserialize::deserialize_value(&items[{i}])?"))
                .collect();
            format!(
                "let items = v.as_array().ok_or_else(|| ::serde::Error::custom(\
                 format!(\"expected array for {name}, got {{v}}\")))?;\n\
                 if items.len() != {n} {{\n\
                 return Err(::serde::Error::custom(\"wrong tuple length for {name}\"));\n\
                 }}\n\
                 Ok({name}({}))",
                items.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for variant in variants {
                let vname = &variant.name;
                match &variant.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
                    }
                    VariantKind::Tuple(fields) if fields.len() == 1 => {
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => Ok({name}::{vname}(\
                             ::serde::Deserialize::deserialize_value(payload)?)),\n"
                        ));
                    }
                    VariantKind::Tuple(fields) => {
                        let n = fields.len();
                        let items: Vec<String> = (0..n)
                            .map(|i| {
                                format!("::serde::Deserialize::deserialize_value(&items[{i}])?")
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let items = payload.as_array().ok_or_else(|| \
                             ::serde::Error::custom(\"expected array for {name}::{vname}\"))?;\n\
                             if items.len() != {n} {{\n\
                             return Err(::serde::Error::custom(\"wrong tuple length for {name}::{vname}\"));\n\
                             }}\n\
                             Ok({name}::{vname}({}))\n\
                             }}\n",
                            items.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let ctor = named_fields_ctor(
                            &format!("{name}::{vname}"),
                            fields,
                            "inner",
                            &format!("{name}::{vname}"),
                        );
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let inner = payload.as_object().ok_or_else(|| \
                             ::serde::Error::custom(\"expected object for {name}::{vname}\"))?;\n\
                             Ok({ctor})\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::String(tag) => match tag.as_str() {{\n\
                 {unit_arms}\
                 other => Err(::serde::Error::custom(format!(\
                 \"unknown variant `{{other}}` of {name}\"))),\n\
                 }},\n\
                 ::serde::Value::Object(map) if map.len() == 1 => {{\n\
                 let (tag, payload) = map.iter().next().unwrap();\n\
                 let _ = payload;\n\
                 match tag.as_str() {{\n\
                 {tagged_arms}\
                 other => Err(::serde::Error::custom(format!(\
                 \"unknown variant `{{other}}` of {name}\"))),\n\
                 }}\n\
                 }}\n\
                 other => Err(::serde::Error::custom(format!(\
                 \"expected string or single-key object for {name}, got {{other}}\"))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n\
         }}\n"
    )
}
