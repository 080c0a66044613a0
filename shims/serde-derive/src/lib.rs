//! Offline `#[derive(Serialize, Deserialize)]` for the shimmed `serde` crate.
//!
//! The build environment has no crates.io access, so this proc macro parses
//! the derive input by hand (no `syn`/`quote`) and emits impls of the shim's
//! traits: `Serialize` builds a value tree, `Deserialize` reads JSON text
//! through `serde::Reader`. It supports exactly the shapes the workspace's
//! file formats use, each represented as real serde represents it:
//!
//! * structs with named fields (a JSON object; decoding refuses a key
//!   outside the field list, naming its path, and a repeated key's last
//!   value wins),
//! * one-field tuple structs marked `#[serde(transparent)]` (the inner
//!   value),
//! * enums whose variants are all unit variants (the variant name as a
//!   string),
//! * field attributes `#[serde(default)]` and `#[serde(default = "path")]`,
//! * missing `Option<T>` fields deserialize as `None`.
//!
//! Lifetime parameters are supported on `Serialize` only (a struct of
//! borrows, serialised without cloning what it points at). Any other shape
//! (a unit struct, a tuple struct that is not a transparent newtype, an
//! enum variant carrying data, a type parameter) fails to compile with a
//! message naming it.

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
    kind: Kind,
}

enum Kind {
    NamedStruct(Vec<Field>),
    /// A one-field tuple struct marked `#[serde(transparent)]`.
    Newtype,
    /// An enum of unit variants, by name.
    UnitEnum(Vec<String>),
}

struct Field {
    name: String,
    /// The field's type as written.
    ty: String,
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

// ----- token-stream parsing -------------------------------------------------

#[derive(Default)]
struct Attrs {
    transparent: bool,
    default: Option<DefaultKind>,
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    let attrs = parse_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    let lifetimes = parse_lifetimes(&tokens, &mut pos, &name);

    let kind = match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && attrs.transparent
                    && has_one_field(g.stream()) =>
            {
                Kind::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => panic!(
                "serde shim derive supports a tuple struct only as a one-field \
                 `#[serde(transparent)]` newtype, found `{name}`"
            ),
            _ => panic!("serde shim derive does not support unit struct `{name}`"),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::UnitEnum(parse_unit_variants(g.stream(), &name))
            }
            other => panic!("expected enum body, found {other:?}"),
        },
        other => panic!("serde shim derive supports struct/enum, found `{other}`"),
    };
    Input {
        name,
        lifetimes,
        kind,
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
    let mut attrs = Attrs::default();
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
        let start = pos;
        let type_head = skip_type(&tokens, &mut pos);
        let ty = tokens[start..pos].iter().cloned().collect::<TokenStream>();
        fields.push(Field {
            name,
            ty: ty.to_string(),
            type_head,
            default: attrs.default,
        });
        if matches!(peek_punct(&tokens, pos), Some(',')) {
            pos += 1;
        }
    }
    fields
}

/// True when a tuple struct's field list holds one field (and perhaps a
/// trailing comma).
fn has_one_field(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    parse_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);
    skip_type(&tokens, &mut pos);
    pos + 1 >= tokens.len()
}

/// The variant names of `enum_name`'s body, which must all be unit variants.
fn parse_unit_variants(stream: TokenStream, enum_name: &str) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        let _attrs = parse_attrs(&tokens, &mut pos); // e.g. #[default], doc comments
        let name = expect_ident(&tokens, &mut pos);
        if let Some(TokenTree::Group(_)) = tokens.get(pos) {
            panic!(
                "serde shim derive supports only unit variants, found `{enum_name}::{name}` \
                 carrying data"
            );
        }
        variants.push(name);
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
                let fname = &field.name;
                out.push_str(&format!(
                    "map.insert(\"{fname}\".to_string(), ::serde::Serialize::serialize_value(&self.{fname}));\n"
                ));
            }
            out.push_str("::serde::Value::Object(map)");
            out
        }
        Kind::Newtype => "::serde::Serialize::serialize_value(&self.0)".to_string(),
        Kind::UnitEnum(variants) => {
            let mut arms = String::new();
            for vname in variants {
                arms.push_str(&format!(
                    "{name}::{vname} => ::serde::Value::String(\"{vname}\".to_string()),\n"
                ));
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

/// Body of a named struct's decoder: one slot per field, filled while the
/// object is read (a repeated key overwrites its slot), then the struct
/// built from the slots, each absent field taking its default.
fn named_fields_body(name: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut ctor = String::new();
    for field in fields {
        let (fname, ty) = (&field.name, &field.ty);
        slots.push_str(&format!(
            "let mut __field_{fname}: ::std::option::Option<{ty}> = None;\n"
        ));
        arms.push_str(&format!(
            "\"{fname}\" => __field_{fname} = Some(::serde::Deserialize::deserialize(r)\
             .map_err(|e| e.at_key(\"{fname}\"))?),\n"
        ));
        let missing = match (&field.default, field.type_head.as_str()) {
            (Some(DefaultKind::Std), _) => "::std::default::Default::default()".to_string(),
            (Some(DefaultKind::Path(path)), _) => format!("{path}()"),
            (None, "Option") => "None".to_string(),
            (None, _) => {
                format!("return Err(::serde::Error::custom(\"missing field `{fname}` in {name}\"))")
            }
        };
        ctor.push_str(&format!(
            "{fname}: match __field_{fname} {{\n\
             Some(__v) => __v,\n\
             None => {missing},\n\
             }},\n"
        ));
    }
    format!(
        "if r.peek() != Some(b'{{') {{\n\
         return Err(r.unexpected(\"object for {name}\"));\n\
         }}\n\
         {slots}\
         r.object(|r, key| {{\n\
         match &*key {{\n\
         {arms}\
         other => return Err(::serde::Error::unknown_key(other)),\n\
         }}\n\
         Ok(())\n\
         }})?;\n\
         Ok({name} {{\n{ctor}}})"
    )
}

fn gen_deserialize(item: &Input) -> String {
    let name = &item.name;
    assert!(
        item.lifetimes.is_empty(),
        "serde shim derive cannot deserialize borrowed type `{name}`"
    );
    let body = match &item.kind {
        Kind::NamedStruct(fields) => named_fields_body(name, fields),
        Kind::Newtype => format!("Ok({name}(::serde::Deserialize::deserialize(r)?))"),
        Kind::UnitEnum(variants) => {
            let mut unit_arms = String::new();
            for vname in variants {
                unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
            }
            // A single-key object is how serde spells a variant with data;
            // this shim derives none, so every tag names an unknown variant.
            format!(
                "if r.peek() == Some(b'\"') {{\n\
                 return match &*r.string()? {{\n\
                 {unit_arms}\
                 other => Err(::serde::Error::custom(format!(\
                 \"unknown variant `{{other}}` of {name}\"))),\n\
                 }};\n\
                 }}\n\
                 match r.value()? {{\n\
                 ::serde::Value::Object(map) if map.len() == 1 => {{\n\
                 let tag = map.keys().next().unwrap();\n\
                 Err(::serde::Error::custom(format!(\
                 \"unknown variant `{{tag}}` of {name}\")))\n\
                 }}\n\
                 other => Err(::serde::Error::custom(format!(\
                 \"expected string or single-key object for {name}, got {{other}}\"))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n\
         }}\n"
    )
}
