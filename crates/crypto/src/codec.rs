//! Deterministic binary encoding, in the spirit of XDR.
//!
//! Production `stellar-core` defines all on-wire and hashed structures in
//! XDR so that every node serializes — and therefore hashes — a structure
//! identically. This module provides the same guarantee with a small
//! hand-rolled scheme:
//!
//! * fixed-width integers are big-endian;
//! * variable-length byte strings and sequences carry a `u64` length prefix;
//! * `Option<T>` is a one-byte tag (0/1) followed by the payload;
//! * structs encode fields in declaration order;
//! * tagged unions encode the variant's tag then its fields in order. The
//!   tag width is per type (`u32` for SCP statements, `u8` elsewhere) and
//!   is stated, with the tag of every variant, in the type's one codec
//!   declaration.
//!
//! Structs declare their codec with
//! [`impl_codec_struct!`](crate::impl_codec_struct) and tagged unions with
//! [`impl_codec_enum!`](crate::impl_codec_enum): the encoder, the decoder
//! and the tag table all come from the one declaration, so they cannot
//! drift apart, and a generated decoder answers every input with a value
//! or a [`DecodeError`]. Hand-written impls remain only where decoding
//! validates (UTF-8 strings, asset codes, flag bits) or builds through a
//! constructor, and for primitives and one-field newtypes.
//!
//! Everything that is ever hashed or signed implements [`Encode`]; types
//! that travel between simulated nodes also implement [`Decode`] so the
//! overlay can exercise a real serialize → flood → deserialize path.

use std::collections::{BTreeMap, BTreeSet};

/// Serializes `self` into a deterministic byte stream.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Deserializes a value previously produced by [`Encode`].
pub trait Decode: Sized {
    /// Reads a value from the front of `input`, advancing it.
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Convenience: decodes a value that must consume the whole buffer.
    fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(DecodeError::TrailingBytes(input.len()))
        }
    }
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    Truncated,
    /// An enum discriminant or tag byte had no corresponding variant.
    BadTag(u32),
    /// A declared length exceeded the remaining input (corrupt or hostile).
    BadLength(u64),
    /// Bytes remained after a full-buffer decode.
    TrailingBytes(usize),
    /// A value failed a domain check (e.g. non-UTF-8 string).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::BadLength(l) => write!(f, "declared length {l} exceeds input"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads exactly `n` bytes from the front of `input`.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Decode for $t {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                let mut arr = [0u8; std::mem::size_of::<$t>()];
                arr.copy_from_slice(bytes);
                Ok(<$t>::from_be_bytes(arr))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t as u32)),
        }
    }
}

impl Encode for crate::Hash256 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for crate::Hash256 {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = take(input, 32)?;
        let mut arr = [0u8; 32];
        arr.copy_from_slice(bytes);
        Ok(crate::Hash256(arr))
    }
}

impl Encode for [u8] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self);
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = Vec::<u8>::decode(input)?;
        String::from_utf8(bytes).map_err(|_| DecodeError::Invalid("non-utf8 string"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(DecodeError::BadTag(t as u32)),
        }
    }
}

/// Generic sequence encoding: length prefix then each element.
fn encode_seq<'a, T: Encode + 'a>(iter: impl ExactSizeIterator<Item = &'a T>, out: &mut Vec<u8>) {
    (iter.len() as u64).encode(out);
    for item in iter {
        item.encode(out);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u64::decode(input)?;
        // Each element takes at least one byte; reject absurd lengths early.
        if len > input.len() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = Vec::<T>::decode(input)?;
        Ok(v.into_iter().collect())
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u64::decode(input)?;
        if len > input.len() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<T: Encode> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self).encode(out);
    }
}

/// Implements [`Encode`]/[`Decode`] for a struct, field by field in order.
///
/// ```
/// use stellar_crypto::impl_codec_struct;
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_codec_struct!(Point { x, y });
///
/// use stellar_crypto::codec::{Encode, Decode};
/// let p = Point { x: 1, y: 2 };
/// assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Encode::encode(&self.$field, out); )+
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                Ok(Self {
                    $( $field: $crate::codec::Decode::decode(input)?, )+
                })
            }
        }
    };
}

/// Implements [`Encode`]/[`Decode`] and a `tag()` accessor for a tagged
/// union from one declaration: the tag type, then each variant's tag and
/// its fields in wire order (tuple fields are named for the binding).
///
/// A variant encodes as its tag then its fields; decoding an unknown tag
/// is [`DecodeError::BadTag`].
///
/// ```
/// use stellar_crypto::impl_codec_enum;
/// #[derive(Debug, PartialEq)]
/// enum Shape { Empty, Dot(u32, u32), Box { w: u16, h: u16 } }
/// impl_codec_enum!(Shape: u8 {
///     0 => Empty,
///     1 => Dot(x, y),
///     2 => Box { w, h },
/// });
///
/// use stellar_crypto::codec::{Decode, DecodeError, Encode};
/// let s = Shape::Box { w: 3, h: 4 };
/// assert_eq!(s.tag(), 2);
/// assert_eq!(s.to_bytes(), [2, 0, 3, 0, 4]);
/// assert_eq!(Shape::from_bytes(&s.to_bytes()), Ok(s));
/// assert_eq!(Shape::from_bytes(&[3]), Err(DecodeError::BadTag(3)));
/// ```
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ident : $tag_ty:ty {
        $( $tag:literal => $var:ident
            $( ( $($tf:ident),+ $(,)? ) )?
            $( { $($nf:ident),+ $(,)? } )?
        ),+ $(,)?
    }) => {
        impl $ty {
            /// The variant's wire tag, as declared in its codec.
            pub fn tag(&self) -> $tag_ty {
                match self {
                    $( $ty::$var { .. } => $tag, )+
                }
            }
        }
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( $ty::$var $( ( $($tf),+ ) )? $( { $($nf),+ } )? => {
                        // `&TAG` points at a static, not into this frame,
                        // so the variant's last encode call can be a tail call.
                        const TAG: $tag_ty = $tag;
                        $crate::codec::Encode::encode(&TAG, out);
                        $( $( $crate::codec::Encode::encode($tf, out); )+ )?
                        $( $( $crate::codec::Encode::encode($nf, out); )+ )?
                    } )+
                }
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                // Each arm returns its own `Ok` so the value is built in
                // the return slot rather than copied into it.
                match <$tag_ty as $crate::codec::Decode>::decode(input)? {
                    $( $tag => {
                        $( $( let $tf = $crate::codec::Decode::decode(input)?; )+ )?
                        $( $( let $nf = $crate::codec::Decode::decode(input)?; )+ )?
                        Ok($ty::$var $( ( $($tf),+ ) )? $( { $($nf),+ } )?)
                    } )+
                    t => Err($crate::codec::DecodeError::BadTag(u32::from(t))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn ints_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(12345u32);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(i128::MIN);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u64));
        roundtrip(String::from("hello"));
        roundtrip(BTreeSet::from([3u32, 1, 2]));
        roundtrip(BTreeMap::from([
            (1u32, "a".to_string()),
            (2, "b".to_string()),
        ]));
        roundtrip((7u8, vec![1u16]));
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = 77u64.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(u64::from_bytes(&bytes[..cut]), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn hostile_length_is_rejected() {
        // Vec<u8> claiming u64::MAX elements must not allocate.
        let mut bytes = u64::MAX.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Vec::<u8>::from_bytes(&bytes),
            Err(DecodeError::BadLength(_))
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0xff);
        assert_eq!(u32::from_bytes(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_and_option_tags() {
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(DecodeError::BadTag(2))
        ));
        assert!(matches!(
            Option::<u8>::from_bytes(&[9, 0]),
            Err(DecodeError::BadTag(9))
        ));
    }

    #[test]
    fn btreeset_encoding_is_order_independent() {
        let a: BTreeSet<u32> = [3, 1, 2].into_iter().collect();
        let b: BTreeSet<u32> = [2, 3, 1].into_iter().collect();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut bytes = Vec::new();
        vec![0xffu8, 0xfe].encode(&mut bytes);
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(DecodeError::Invalid(_))
        ));
    }
}
