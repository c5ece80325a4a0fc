//! `lrc-json` — a small, self-contained JSON layer.
//!
//! The experiment harness emits machine-readable reports and the test
//! suite round-trips configuration/stats structures. The build runs in
//! fully offline environments, so instead of an external JSON dependency
//! this crate provides the minimal surface the workspace needs: an ordered
//! [`Value`] type, a [`json!`] construction macro, compact and pretty
//! printers, a strict parser, and [`ToJson`]/[`FromJson`] conversion
//! traits.
//!
//! # The record codec
//!
//! [`json_struct!`] writes both conversions for a record from one field
//! list, so the encoder and the decoder cannot drift apart. Per field the
//! list states the wire key when it differs from the Rust name
//! (`requester as "req"`) and the wire kind (`line: Dec`); the kinds are
//! types implementing [`Wire`]:
//!
//! - [`Plain`] (the default): the field type's own conversions;
//! - [`Dec`]: a `u64` as a decimal string, exact beyond 2^53;
//! - [`Node`]: a node id, range-checked against [`Ctx::nodes`];
//! - [`List<K>`], [`Opt<K>`] and tuples of kinds `(K1, K2, ..)`: arrays,
//!   `null`-or-value, and fixed-length arrays of mixed kinds;
//! - [`Defaulted<K>`]: an absent key decodes to the default (fields added
//!   after a format's first version);
//! - [`Flat`]: a nested record's fields spliced into the enclosing object;
//! - [`Skip`]: not on the wire, decodes to the default.
//!
//! Enums come in two forms: `enum T as str { A = "a", .. }` for unit
//! variants as bare strings, and `enum T { V(x: Kind) = "tag", .. }` for
//! variants with data, written as an object with its `"t"` tag first. A
//! record that exists only to be written, such as one row of a table, is
//! declared and listed at once: `struct Row { line: u64 => Dec, busy: bool }`
//! defines a private struct with those fields and its codec.
//!
//! Each type has one decoder, [`FromJson::decode`]. It takes a [`Ctx`]
//! (the bound for node ids) and returns a [`DecodeError`] naming the path
//! of the first failing value, such as `nodes[3].cache.tick: expected a
//! decimal u64 string`; [`FromJson::from_json`] is the same decoder with
//! no node bound and the diagnosis dropped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The `json!` muncher builds containers by init-then-push; expansions in
// this crate are not "external macro" code, so clippy must be allowed here
// (downstream crates are exempt automatically).
#![allow(clippy::vec_init_then_push)]

mod canon;
mod codec;
mod parse;
mod print;

pub use canon::{canonical_dump, canonicalize};
pub use codec::{
    expect_object, tag_of, Ctx, Dec, DecodeError, DecodeReason, Defaulted, Flat, List, Node, Opt,
    Plain, Skip, Wire,
};
pub use parse::{parse, ParseError, MAX_DEPTH};
pub use print::{to_string, to_string_pretty};

use std::ops::Index;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like most JS runtimes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Value)>),
}

/// Shared `Null` used when indexing misses (lets `v["absent"]` return a
/// reference, mirroring the ergonomics of mainstream JSON crates).
static NULL: Value = Value::Null;

impl Value {
    /// Member lookup; `None` if `self` is not an object or lacks `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` if not an array or out of range.
    pub fn get_index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as an object (ordered key/value pairs).
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned-integer view (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Signed-integer view (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Is this an array?
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Is this an object?
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Insert or replace a member. A non-object silently becomes an object
    /// first, so optional report sections can be appended without matching
    /// on the variant at every call site.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        if !self.is_object() {
            *self = Value::Object(Vec::new());
        }
        let Value::Object(fields) = self else { unreachable!() };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// Compact rendering (no whitespace).
    pub fn dump(&self) -> String {
        to_string(self)
    }

    /// Pretty rendering (2-space indent).
    pub fn pretty(&self) -> String {
        to_string_pretty(self)
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.get_index(i).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

macro_rules! from_num {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        })*
    };
}
from_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Types that render themselves as a JSON [`Value`].
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

/// Types reconstructible from a JSON [`Value`].
pub trait FromJson: Sized {
    /// The decoder: rebuild `Self` from `v`, checking node ids against
    /// `cx`. The error names the path to the first value that failed.
    fn decode(v: &Value, cx: Ctx) -> Result<Self, DecodeError>;

    /// [`FromJson::decode`] with no node bound, dropping the diagnosis.
    fn from_json(v: &Value) -> Option<Self> {
        Self::decode(v, Ctx::default()).ok()
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn decode(v: &Value, _: Ctx) -> Result<Value, DecodeError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn decode(v: &Value, _: Ctx) -> Result<bool, DecodeError> {
        v.as_bool().ok_or_else(|| DecodeError::expected("a bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn decode(v: &Value, _: Ctx) -> Result<String, DecodeError> {
        v.as_str().map(str::to_string).ok_or_else(|| DecodeError::expected("a string"))
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn decode(v: &Value, _: Ctx) -> Result<$t, DecodeError> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| DecodeError::expected(stringify!($t)))
            }
        })*
    };
}
json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn decode(v: &Value, _: Ctx) -> Result<$t, DecodeError> {
                v.as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| DecodeError::expected(stringify!($t)))
            }
        })*
    };
}
json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn decode(v: &Value, _: Ctx) -> Result<f64, DecodeError> {
        v.as_f64().ok_or_else(|| DecodeError::expected("a number"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn decode(v: &Value, cx: Ctx) -> Result<Vec<T>, DecodeError> {
        codec::decode_items(v, |e| T::decode(e, cx))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn decode(v: &Value, cx: Ctx) -> Result<Option<T>, DecodeError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::decode(v, cx).map(Some)
        }
    }
}

/// Build a [`Value`] with JSON-looking syntax:
///
/// ```
/// use lrc_json::json;
/// let v = json!({ "name": "lrc", "sizes": [1, 2, 3], "ok": true });
/// assert_eq!(v["sizes"][2].as_u64(), Some(3));
/// ```
///
/// Keys must be string literals; values are any expression convertible
/// into a `Value` via `From`, or nested `{...}` / `[...]` forms.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_items!(items $($tt)*);
        $crate::Value::Array(items)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut fields: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_fields!(fields $($tt)*);
        $crate::Value::Object(fields)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal muncher for `json!` array bodies. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($vec:ident) => {};
    ($vec:ident null $(, $($rest:tt)*)?) => {
        $vec.push($crate::Value::Null);
        $( $crate::json_items!($vec $($rest)*); )?
    };
    ($vec:ident [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $vec.push($crate::json!([ $($arr)* ]));
        $( $crate::json_items!($vec $($rest)*); )?
    };
    ($vec:ident { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $vec.push($crate::json!({ $($obj)* }));
        $( $crate::json_items!($vec $($rest)*); )?
    };
    ($vec:ident $val:expr $(, $($rest:tt)*)?) => {
        $vec.push($crate::Value::from($val));
        $( $crate::json_items!($vec $($rest)*); )?
    };
}

/// Internal muncher for `json!` object bodies. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ($vec:ident) => {};
    ($vec:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::Value::Null));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
    ($vec:ident $key:literal : [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::json!([ $($arr)* ])));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
    ($vec:ident $key:literal : { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::json!({ $($obj)* })));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
    ($vec:ident $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::Value::from($val)));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
}

/// Implement [`ToJson`] + [`FromJson`] for a type from one field list;
/// the forms and wire kinds are described in the crate docs.
///
/// ```
/// use lrc_json::{json_struct, Ctx, Dec, FromJson, List, Node, ToJson};
///
/// struct Row { line: u64, owner: usize, peers: Vec<usize>, busy: bool }
/// json_struct!(Row { line: Dec, owner as "own": Node, peers: List<Node>, busy });
/// enum Ev { Step(usize), Wake { at: u64 }, Idle }
/// json_struct!(enum Ev { Step(p: Node) = "step", Wake { at: Dec } = "wake", Idle = "idle" });
///
/// let v = Row { line: 1 << 60, owner: 2, peers: vec![0, 1], busy: false }.to_json();
/// assert_eq!(v.dump(), r#"{"line":"1152921504606846976","own":2,"peers":[0,1],"busy":false}"#);
/// let err = Row::decode(&v, Ctx { nodes: 2 }).err().unwrap();
/// assert_eq!(err.to_string(), "own: node 2 out of range (< 2)");
/// assert_eq!(Ev::Wake { at: 7 }.to_json().dump(), r#"{"t":"wake","at":"7"}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    (@kind) => { $crate::Plain };
    (@kind $kind:ty) => { $kind };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    ($(#[$attr:meta])* struct $name:ident {
        $($field:ident $(as $key:literal)?: $fty:ty $(=> $kind:ty)?),* $(,)?
    }) => {
        $(#[$attr])*
        struct $name { $($field: $fty),* }
        $crate::json_struct!($name { $($field $(as $key)? $(: $kind)?),* });
    };
    (enum $ty:ident as str { $($var:ident = $name:literal),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Str(match self { $(Self::$var => $name),* }.to_string())
            }
        }
        impl $crate::FromJson for $ty {
            fn decode(
                v: &$crate::Value,
                _: $crate::Ctx,
            ) -> ::std::result::Result<Self, $crate::DecodeError> {
                match v.as_str() {
                    $(Some($name) => Ok(Self::$var),)*
                    Some(other) => Err($crate::DecodeError::new(
                        $crate::DecodeReason::UnknownTag(other.to_string()),
                    )),
                    None => Err($crate::DecodeError::expected("a string")),
                }
            }
        }
    };
    (enum $ty:ident { $(
        $var:ident
        $(( $($tf:ident $(: $tk:ty)?),* $(,)? ))?
        $({ $($sf:ident $(as $sk:literal)? $(: $skind:ty)?),* $(,)? })?
        = $tag:literal
    ),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                match self { $(
                    Self::$var $(( $($tf),* ))? $({ $($sf),* })? => {
                        let keys = [$($(stringify!($tf),)*)? $($(stringify!($sf),)*)? "t"];
                        let mut out = ::std::vec::Vec::with_capacity(keys.len());
                        out.push(("t".to_string(), $crate::Value::Str($tag.to_string())));
                        $($(
                            <$crate::json_struct!(@kind $($tk)?) as $crate::Wire<_>>::put(
                                stringify!($tf), $tf, &mut out,
                            );
                        )*)?
                        $($(
                            <$crate::json_struct!(@kind $($skind)?) as $crate::Wire<_>>::put(
                                $crate::json_struct!(@key $sf $($sk)?), $sf, &mut out,
                            );
                        )*)?
                        $crate::Value::Object(out)
                    }
                )* }
            }
        }
        impl $crate::FromJson for $ty {
            fn decode(
                v: &$crate::Value,
                cx: $crate::Ctx,
            ) -> ::std::result::Result<Self, $crate::DecodeError> {
                Ok(match $crate::tag_of(v)? {
                    $($tag => Self::$var
                        $(( $(
                            <$crate::json_struct!(@kind $($tk)?) as $crate::Wire<_>>::take(
                                v, stringify!($tf), cx,
                            )?
                        ),* ))?
                        $({ $(
                            $sf: <$crate::json_struct!(@kind $($skind)?) as $crate::Wire<_>>::take(
                                v, $crate::json_struct!(@key $sf $($sk)?), cx,
                            )?
                        ),* })?,
                    )*
                    other => {
                        let reason = $crate::DecodeReason::UnknownTag(other.to_string());
                        return Err($crate::DecodeError::new(reason).in_field("t"));
                    }
                })
            }
        }
    };
    ($ty:ty { $($field:ident $(as $key:literal)? $(: $kind:ty)?),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                let mut out = ::std::vec::Vec::with_capacity([$(stringify!($field)),*].len());
                $(
                    <$crate::json_struct!(@kind $($kind)?) as $crate::Wire<_>>::put(
                        $crate::json_struct!(@key $field $($key)?), &self.$field, &mut out,
                    );
                )*
                $crate::Value::Object(out)
            }
        }
        impl $crate::FromJson for $ty {
            fn decode(
                v: &$crate::Value,
                cx: $crate::Ctx,
            ) -> ::std::result::Result<Self, $crate::DecodeError> {
                $crate::expect_object(v)?;
                Ok(Self { $(
                    $field: <$crate::json_struct!(@kind $($kind)?) as $crate::Wire<_>>::take(
                        v, $crate::json_struct!(@key $field $($key)?), cx,
                    )?
                ),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let rows = vec![json!({ "a": 1 }), json!({ "a": 2 })];
        let v = json!({ "rows": rows, "tag": "x", "n": 3u64, "flag": false, "nested": { "k": [1, "two", null] } });
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        assert_eq!(v["rows"][1]["a"].as_u64(), Some(2));
        assert_eq!(v["tag"].as_str(), Some("x"));
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["flag"].as_bool(), Some(false));
        assert!(v["nested"]["k"][2].is_null());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn integer_views_reject_fractions() {
        assert_eq!(Value::Num(2.5).as_u64(), None);
        assert_eq!(Value::Num(-3.0).as_u64(), None);
        assert_eq!(Value::Num(-3.0).as_i64(), Some(-3));
    }

    #[test]
    fn struct_macro_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct P {
            x: u64,
            y: String,
            zs: Vec<u32>,
        }
        json_struct!(P { x, y, zs });
        let p = P { x: 7, y: "hi".into(), zs: vec![1, 2] };
        let v = p.to_json();
        assert_eq!(P::from_json(&v), Some(p));
        assert_eq!(P::from_json(&json!({ "x": 7 })), None);
    }

    #[test]
    fn set_inserts_replaces_and_upgrades() {
        let mut v = json!({ "a": 1 });
        v.set("b", "two");
        v.set("a", 3u64);
        assert_eq!(v["a"].as_u64(), Some(3));
        assert_eq!(v["b"].as_str(), Some("two"));
        let mut n = Value::Null;
        n.set("k", vec![1u64, 2]);
        assert_eq!(n["k"].get_index(1).and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn decode_errors_name_the_failing_path() {
        #[derive(Debug, PartialEq)]
        struct Q {
            a: u64,
            b: String,
        }
        json_struct!(Q { a, b });
        #[derive(Debug, PartialEq)]
        struct Outer {
            qs: Vec<Q>,
            pair: (u64, usize),
        }
        json_struct!(Outer { qs, pair: (Dec, Node) });
        let cx = Ctx { nodes: 4 };
        let ok = Q::decode(&json!({ "a": 1, "b": "x" }), cx);
        assert_eq!(ok, Ok(Q { a: 1, b: "x".into() }));
        let missing = Q::decode(&json!({ "a": 1 }), cx).unwrap_err();
        assert_eq!((missing.path.as_str(), &missing.reason), ("b", &DecodeReason::Missing));
        assert_eq!(missing.to_string(), "b: missing");
        let deep = json!({ "qs": [{ "a": 1, "b": "x" }, { "a": -2, "b": "x" }], "pair": ["9", 1] });
        let err = Outer::decode(&deep, cx).unwrap_err();
        assert_eq!(err.to_string(), "qs[1].a: expected u64");
        let far = json!({ "qs": [], "pair": ["9", 4] });
        let err = Outer::decode(&far, cx).unwrap_err();
        assert_eq!(err.to_string(), "pair[1]: node 4 out of range (< 4)");
        let short = json!({ "qs": [], "pair": ["9"] });
        let err = Outer::decode(&short, cx).unwrap_err();
        assert_eq!(err.reason, DecodeReason::Length { expected: 2, found: 1 });
        assert!(Outer::decode(&json!([]), cx).is_err());
    }

    #[test]
    fn kinds_keep_their_wire_rules() {
        #[derive(Debug, PartialEq, Default)]
        struct Inner {
            k: u64,
        }
        json_struct!(Inner { k: Dec });
        #[derive(Debug, PartialEq)]
        struct R {
            big: u64,
            owner: usize,
            late: Vec<u32>,
            maybe: Option<u64>,
            arr: [u64; 2],
            row: Inner,
            gone: u32,
        }
        json_struct!(R {
            big: Dec,
            owner as "own": Node,
            late: Defaulted,
            maybe: Opt<Dec>,
            arr: List<Dec>,
            row: Flat,
            gone: Skip,
        });
        let r = R {
            big: u64::MAX,
            owner: 3,
            late: vec![1],
            maybe: Some(1 << 60),
            arr: [1, 2],
            row: Inner { k: 5 },
            gone: 0,
        };
        let v = r.to_json();
        assert_eq!(
            v.dump(),
            concat!(
                r#"{"big":"18446744073709551615","own":3,"late":[1],"#,
                r#""maybe":"1152921504606846976","arr":["1","2"],"k":"5"}"#
            )
        );
        assert_eq!(R::decode(&v, Ctx::default()), Ok(r));
        let mut old = v.clone();
        if let Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| k != "late");
        }
        assert_eq!(R::decode(&old, Ctx::default()).map(|r| r.late), Ok(vec![]));
        let mut bad = v;
        bad.set("arr", json!(["1"]));
        let err = R::decode(&bad, Ctx::default()).unwrap_err();
        assert_eq!(err.to_string(), "arr: expected 2 elements, found 1");
    }

    #[test]
    fn struct_form_declares_the_record_it_lists() {
        json_struct!(
            /// A row.
            struct Row { line: u64 => Dec, owner as "own": usize => Node, busy: bool }
        );
        let row = Row { line: 1 << 60, owner: 1, busy: true };
        let v = row.to_json();
        assert_eq!(v.dump(), r#"{"line":"1152921504606846976","own":1,"busy":true}"#);
        let back = Row::decode(&v, Ctx { nodes: 2 }).expect("decodes");
        assert_eq!((back.line, back.owner, back.busy), (1 << 60, 1, true));
    }

    #[test]
    fn enum_forms_tag_first_and_reject_unknown_tags() {
        #[derive(Debug, PartialEq)]
        enum G {
            A,
            B,
        }
        json_struct!(enum G as str { A = "a", B = "b" });
        #[derive(Debug, PartialEq)]
        enum E {
            Step(usize, u64),
            Wake { at: u64, why: G },
            Idle,
        }
        json_struct!(enum E {
            Step(p: Node, line: Dec) = "step",
            Wake { at: Dec, why as "w" } = "wake",
            Idle = "idle",
        });
        let cases = [
            (E::Step(1, 2), r#"{"t":"step","p":1,"line":"2"}"#),
            (E::Wake { at: 9, why: G::B }, r#"{"t":"wake","at":"9","w":"b"}"#),
            (E::Idle, r#"{"t":"idle"}"#),
        ];
        for (e, text) in cases {
            let v = e.to_json();
            assert_eq!(v.dump(), text);
            assert_eq!(E::decode(&v, Ctx { nodes: 2 }), Ok(e));
        }
        let err = E::decode(&json!({ "t": "nap" }), Ctx::default()).unwrap_err();
        assert_eq!(err.to_string(), "t: unknown tag `nap`");
        let err = E::decode(&json!({ "t": "wake", "at": "9", "w": "c" }), Ctx::default());
        assert_eq!(err.unwrap_err().to_string(), "w: unknown tag `c`");
        let err = E::decode(&json!({ "p": 1 }), Ctx::default()).unwrap_err();
        assert_eq!(err.to_string(), "t: missing");
        let far = json!({ "t": "step", "p": 2, "line": "0" });
        assert!(matches!(
            E::decode(&far, Ctx { nodes: 2 }).unwrap_err().reason,
            DecodeReason::NodeOutOfRange { node: 2, nodes: 2 }
        ));
    }
}
