//! The record codec behind [`json_struct!`](crate::json_struct) (see the
//! crate docs): the decoding context, decode errors that name their path,
//! and the wire kinds a field list assigns per field.

use crate::{FromJson, ToJson, Value};
use std::marker::PhantomData;

/// What a decoder checks values against beyond their shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Exclusive bound on [`Node`] fields: the processor count of the
    /// document being decoded (`usize::MAX` when there is none).
    pub nodes: usize,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx { nodes: usize::MAX }
    }
}

/// Why a value failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeReason {
    /// The key is absent from the object.
    Missing,
    /// The value has the wrong shape or domain; names what was expected.
    Expected(&'static str),
    /// An array or tuple of the wrong length.
    Length {
        /// Elements required.
        expected: usize,
        /// Elements present.
        found: usize,
    },
    /// A node id at or above the document's processor count.
    NodeOutOfRange {
        /// The id found.
        node: u64,
        /// The processor count it must stay below.
        nodes: usize,
    },
    /// A tag or name that no variant carries.
    UnknownTag(String),
}

/// A value could not be decoded: why, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Keys and indices from the decoded value to the failing one, like
    /// `nodes[3].cache.tick`; empty when the value itself failed.
    pub path: String,
    /// What was wrong with it.
    pub reason: DecodeReason,
}

impl DecodeError {
    /// An error at the value being decoded.
    pub fn new(reason: DecodeReason) -> DecodeError {
        DecodeError { path: String::new(), reason }
    }

    /// The value has the wrong shape: `what` names the expected one.
    pub fn expected(what: &'static str) -> DecodeError {
        DecodeError::new(DecodeReason::Expected(what))
    }

    /// Prefix the path with object key `key` (the error arose inside it).
    pub fn in_field(self, key: &str) -> DecodeError {
        self.prefixed(key)
    }

    /// Prefix the path with array index `i`.
    pub fn in_index(self, i: usize) -> DecodeError {
        self.prefixed(&format!("[{i}]"))
    }

    fn prefixed(mut self, seg: &str) -> DecodeError {
        let sep = if self.path.is_empty() || self.path.starts_with('[') { "" } else { "." };
        self.path = format!("{seg}{sep}{}", self.path);
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        match &self.reason {
            DecodeReason::Missing => write!(f, "missing"),
            DecodeReason::Expected(what) => write!(f, "expected {what}"),
            DecodeReason::Length { expected, found } => {
                write!(f, "expected {expected} elements, found {found}")
            }
            DecodeReason::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (< {nodes})")
            }
            DecodeReason::UnknownTag(t) => write!(f, "unknown tag `{t}`"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// How a field of type `T` travels: the encoding a [`json_struct!`]
/// field list names per field (the kinds are listed in the crate docs).
///
/// [`json_struct!`]: crate::json_struct
pub trait Wire<T> {
    /// Render `x`.
    fn encode(x: &T) -> Value;

    /// Decode `v`, checking node ids against `cx`.
    fn decode(v: &Value, cx: Ctx) -> Result<T, DecodeError>;

    /// Append `x` to an object under construction as field `key`.
    fn put(key: &'static str, x: &T, out: &mut Vec<(String, Value)>) {
        out.push((key.to_string(), Self::encode(x)));
    }

    /// Decode field `key` of object `obj`.
    fn take(obj: &Value, key: &'static str, cx: Ctx) -> Result<T, DecodeError> {
        match obj.get(key) {
            Some(v) => Self::decode(v, cx),
            None => Err(DecodeError::new(DecodeReason::Missing)),
        }
        .map_err(|e| e.in_field(key))
    }
}

/// The field type's own [`ToJson`]/[`FromJson`] encoding.
pub enum Plain {}

/// A `u64` as a decimal string. JSON numbers are `f64`, exact only to
/// 2^53; addresses, masks, tie keys, cycles and RNG state exceed that.
pub enum Dec {}

/// A node id: a number below the document's processor count
/// ([`Ctx::nodes`]).
pub enum Node {}

/// An array whose elements travel as kind `K`.
pub struct List<K = Plain>(PhantomData<K>);

/// `null`, or a value of kind `K`.
pub struct Opt<K = Plain>(PhantomData<K>);

/// Kind `K`, except that an absent key decodes to `T::default()`: for
/// fields added after a format's first version.
pub struct Defaulted<K = Plain>(PhantomData<K>);

/// The value's own object fields, spliced into the enclosing object (a
/// table row that carries its key beside the value's fields).
pub enum Flat {}

/// Not on the wire at all; decodes to `T::default()`. For state the
/// enclosing document carries elsewhere.
pub enum Skip {}

impl<T: ToJson + FromJson> Wire<T> for Plain {
    fn encode(x: &T) -> Value {
        x.to_json()
    }
    fn decode(v: &Value, cx: Ctx) -> Result<T, DecodeError> {
        T::decode(v, cx)
    }
}

impl Wire<u64> for Dec {
    fn encode(x: &u64) -> Value {
        Value::Str(x.to_string())
    }
    fn decode(v: &Value, _: Ctx) -> Result<u64, DecodeError> {
        v.as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| DecodeError::expected("a decimal u64 string"))
    }
}

impl Wire<usize> for Node {
    fn encode(x: &usize) -> Value {
        Value::Num(*x as f64)
    }
    fn decode(v: &Value, cx: Ctx) -> Result<usize, DecodeError> {
        let n = v.as_u64().ok_or_else(|| DecodeError::expected("a node id"))?;
        match usize::try_from(n) {
            Ok(node) if node < cx.nodes => Ok(node),
            _ => Err(DecodeError::new(DecodeReason::NodeOutOfRange { node: n, nodes: cx.nodes })),
        }
    }
}

/// The elements of array `v`, each decoded by `dec`.
pub(crate) fn decode_items<T>(
    v: &Value,
    dec: impl Fn(&Value) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let items = v.as_array().ok_or_else(|| DecodeError::expected("an array"))?;
    items.iter().enumerate().map(|(i, e)| dec(e).map_err(|e| e.in_index(i))).collect()
}

impl<T, K: Wire<T>> Wire<Vec<T>> for List<K> {
    fn encode(xs: &Vec<T>) -> Value {
        Value::Array(xs.iter().map(K::encode).collect())
    }
    fn decode(v: &Value, cx: Ctx) -> Result<Vec<T>, DecodeError> {
        decode_items(v, |e| K::decode(e, cx))
    }
}

impl<T, K: Wire<T>, const N: usize> Wire<[T; N]> for List<K> {
    fn encode(xs: &[T; N]) -> Value {
        Value::Array(xs.iter().map(K::encode).collect())
    }
    fn decode(v: &Value, cx: Ctx) -> Result<[T; N], DecodeError> {
        <[T; N]>::try_from(decode_items(v, |e| K::decode(e, cx))?).map_err(|xs| {
            DecodeError::new(DecodeReason::Length { expected: N, found: xs.len() })
        })
    }
}

impl<T, K: Wire<T>> Wire<Option<T>> for Opt<K> {
    fn encode(x: &Option<T>) -> Value {
        x.as_ref().map_or(Value::Null, K::encode)
    }
    fn decode(v: &Value, cx: Ctx) -> Result<Option<T>, DecodeError> {
        if v.is_null() {
            Ok(None)
        } else {
            K::decode(v, cx).map(Some)
        }
    }
}

impl<T: Default, K: Wire<T>> Wire<T> for Defaulted<K> {
    fn encode(x: &T) -> Value {
        K::encode(x)
    }
    fn decode(v: &Value, cx: Ctx) -> Result<T, DecodeError> {
        K::decode(v, cx)
    }
    fn take(obj: &Value, key: &'static str, cx: Ctx) -> Result<T, DecodeError> {
        if obj.get(key).is_none() {
            return Ok(T::default());
        }
        K::take(obj, key, cx)
    }
}

impl<T: ToJson + FromJson> Wire<T> for Flat {
    fn encode(x: &T) -> Value {
        x.to_json()
    }
    fn decode(v: &Value, cx: Ctx) -> Result<T, DecodeError> {
        T::decode(v, cx)
    }
    fn put(key: &'static str, x: &T, out: &mut Vec<(String, Value)>) {
        match x.to_json() {
            Value::Object(fields) => {
                out.reserve_exact(fields.len());
                out.extend(fields)
            }
            other => out.push((key.to_string(), other)),
        }
    }
    fn take(obj: &Value, _: &'static str, cx: Ctx) -> Result<T, DecodeError> {
        T::decode(obj, cx)
    }
}

impl<T: Default> Wire<T> for Skip {
    fn encode(_: &T) -> Value {
        Value::Null
    }
    fn decode(_: &Value, _: Ctx) -> Result<T, DecodeError> {
        Ok(T::default())
    }
    fn put(_: &'static str, _: &T, _: &mut Vec<(String, Value)>) {}
    fn take(_: &Value, _: &'static str, _: Ctx) -> Result<T, DecodeError> {
        Ok(T::default())
    }
}

macro_rules! wire_tuple {
    ($n:literal: $($k:ident $t:ident $i:tt),+) => {
        impl<$($t, $k: Wire<$t>),+> Wire<($($t,)+)> for ($($k,)+) {
            fn encode(x: &($($t,)+)) -> Value {
                Value::Array(vec![$($k::encode(&x.$i)),+])
            }
            fn decode(v: &Value, cx: Ctx) -> Result<($($t,)+), DecodeError> {
                let a = v.as_array().ok_or_else(|| DecodeError::expected("an array"))?;
                if a.len() != $n {
                    let found = a.len();
                    return Err(DecodeError::new(DecodeReason::Length { expected: $n, found }));
                }
                Ok(($($k::decode(&a[$i], cx).map_err(|e| e.in_index($i))?,)+))
            }
        }
    };
}
wire_tuple!(2: KA A 0, KB B 1);
wire_tuple!(3: KA A 0, KB B 1, KC C 2);
wire_tuple!(4: KA A 0, KB B 1, KC C 2, KD D 3);

/// `v` must be an object (the generated struct decoders' first check).
#[doc(hidden)]
pub fn expect_object(v: &Value) -> Result<(), DecodeError> {
    if v.is_object() {
        Ok(())
    } else {
        Err(DecodeError::expected("an object"))
    }
}

/// The `"t"` tag of a tagged-enum object.
#[doc(hidden)]
pub fn tag_of(v: &Value) -> Result<&str, DecodeError> {
    expect_object(v)?;
    match v.get("t") {
        Some(t) => t.as_str().ok_or_else(|| DecodeError::expected("a string")),
        None => Err(DecodeError::new(DecodeReason::Missing)),
    }
    .map_err(|e| e.in_field("t"))
}
