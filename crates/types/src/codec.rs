//! A small hand-rolled binary codec.
//!
//! Used for snapshot payloads and persisted state. All integers are
//! big-endian fixed width; byte strings and collections are length-prefixed
//! with a `u32`. No external serialization format is required (DESIGN.md §7).
//!
//! # Example
//! ```
//! use bytes::BytesMut;
//! use recraft_types::codec::{Decode, Encode};
//!
//! let mut buf = BytesMut::new();
//! 42u64.encode(&mut buf);
//! "hello".to_string().encode(&mut buf);
//! let mut bytes = buf.freeze();
//! assert_eq!(u64::decode(&mut bytes).unwrap(), 42);
//! assert_eq!(String::decode(&mut bytes).unwrap(), "hello");
//! ```

use crate::error::{Error, Result};
use crate::eterm::EpochTerm;
use crate::ids::{ClusterId, LogIndex, NodeId, TxId};
use crate::range::{KeyRange, RangeSet};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, BTreeSet};

/// Types that can be appended to a byte buffer.
pub trait Encode {
    /// Appends the binary form of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Appends every element of `items` in order: the body of a
    /// length-prefixed `Vec<Self>`. The default encodes one element at a
    /// time; `u8` overrides it with a single copy.
    fn encode_slice(items: &[Self], buf: &mut BytesMut)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Types that can be decoded from a byte buffer.
pub trait Decode: Sized {
    /// Decodes a value, consuming bytes from the front of `buf`.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on truncated or malformed input.
    fn decode(buf: &mut Bytes) -> Result<Self>;

    /// Decodes `len` consecutive elements: the body of a length-prefixed
    /// `Vec<Self>`. The default decodes one element at a time; `u8`
    /// overrides it with a single bounds-checked copy.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on truncated or malformed input.
    fn decode_vec(len: usize, buf: &mut Bytes) -> Result<Vec<Self>> {
        // `len` comes off the wire: cap the up-front reservation so a
        // hostile prefix cannot allocate before the body is checked.
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(Error::Codec(format!(
            "truncated input decoding {what}: need {n}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Appends a `u32` length prefix and the bytes themselves: the wire form of
/// every byte string (`Vec<u8>`, `Bytes`, `String`).
fn put_byte_string(bytes: &[u8], buf: &mut BytesMut) {
    buf.put_u32(u32::try_from(bytes.len()).expect("byte string too long"));
    buf.put_slice(bytes);
}

impl Encode for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }

    fn encode_slice(items: &[u8], buf: &mut BytesMut) {
        buf.put_slice(items);
    }
}

impl Decode for u8 {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }

    fn decode_vec(len: usize, buf: &mut Bytes) -> Result<Vec<u8>> {
        // The check precedes the copy, so a length prefix past the input's
        // end fails without allocating `len`.
        need(buf, len, "byte string body")?;
        let out = buf.chunk()[..len].to_vec();
        buf.advance(len);
        Ok(out)
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, 4, "u32")?;
        Ok(buf.get_u32())
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "u64")?;
        Ok(buf.get_u64())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::Codec(format!("invalid bool byte {v}"))),
        }
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_byte_string(self, buf);
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        need(buf, len, "byte string body")?;
        Ok(buf.copy_to_bytes(len))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_byte_string(self.as_bytes(), buf);
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let raw = Vec::<u8>::decode(buf)?;
        String::from_utf8(raw).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            v => Err(Error::Codec(format!("invalid option tag {v}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("collection too long"));
        T::encode_slice(self, buf);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        T::decode_vec(len, buf)
    }
}

impl<T: Encode + Ord> Encode for BTreeSet<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("collection too long"));
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("map too long"));
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! id_codec {
    ($ty:ty) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.put_u64(self.0);
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut Bytes) -> Result<Self> {
                Ok(Self(u64::decode(buf)?))
            }
        }
    };
}

id_codec!(NodeId);
id_codec!(ClusterId);
id_codec!(LogIndex);
id_codec!(TxId);

impl Encode for EpochTerm {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.packed());
    }
}

impl Decode for EpochTerm {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        Ok(EpochTerm::from_packed(u64::decode(buf)?))
    }
}

impl Encode for KeyRange {
    fn encode(&self, buf: &mut BytesMut) {
        self.start().to_vec().encode(buf);
        self.end().map(<[u8]>::to_vec).encode(buf);
    }
}

impl Decode for KeyRange {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let start = Vec::<u8>::decode(buf)?;
        let end = Option::<Vec<u8>>::decode(buf)?;
        match end {
            Some(end) => KeyRange::new(start, end),
            None => Ok(KeyRange::from_start(start)),
        }
    }
}

impl Encode for RangeSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.ranges().to_vec().encode(buf);
    }
}

impl Decode for RangeSet {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let ranges = Vec::<KeyRange>::decode(buf)?;
        RangeSet::from_ranges(ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = value.encode_to_bytes();
        let decoded = T::decode(&mut bytes).unwrap();
        assert_eq!(decoded, value);
        assert_eq!(bytes.remaining(), 0, "leftover bytes");
    }

    #[test]
    fn primitives() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(b"hello".to_vec());
        roundtrip(String::from("snapshot"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(7u64));
    }

    #[test]
    fn collections() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(BTreeSet::from([NodeId(1), NodeId(2)]));
        roundtrip(BTreeMap::from([
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
        ]));
    }

    #[test]
    fn domain_types() {
        roundtrip(NodeId(9));
        roundtrip(ClusterId(3));
        roundtrip(LogIndex(77));
        roundtrip(TxId(5));
        roundtrip(EpochTerm::new(4, 19));
        roundtrip(KeyRange::full());
        roundtrip(KeyRange::new("a", "m").unwrap());
        roundtrip(RangeSet::full());
        roundtrip(
            RangeSet::from_ranges([
                KeyRange::new("a", "c").unwrap(),
                KeyRange::new("x", "z").unwrap(),
            ])
            .unwrap(),
        );
    }

    #[test]
    fn truncated_inputs_error() {
        let mut short = Bytes::from_static(&[0, 0]);
        assert!(u64::decode(&mut short).is_err());

        let mut bad_len = BytesMut::new();
        bad_len.put_u32(100); // claims 100 bytes, provides none
        let mut bytes = bad_len.freeze();
        assert!(Vec::<u8>::decode(&mut bytes).is_err());

        // A 4 GiB claim over three bytes: the length check precedes any
        // copy (tests/codec_alloc.rs asserts that nothing is allocated).
        let mut hostile = BytesMut::new();
        hostile.put_u32(u32::MAX);
        hostile.put_slice(b"abc");
        let hostile = hostile.freeze();
        assert!(Vec::<u8>::decode(&mut hostile.clone()).is_err());
        assert!(String::decode(&mut hostile.clone()).is_err());
        assert!(Bytes::decode(&mut hostile.clone()).is_err());
    }

    #[test]
    fn invalid_tags_error() {
        let mut bad_bool = Bytes::from_static(&[7]);
        assert!(bool::decode(&mut bad_bool).is_err());
        let mut bad_opt = Bytes::from_static(&[9]);
        assert!(Option::<u8>::decode(&mut bad_opt).is_err());
    }

    /// The per-element wire form the `u8` slice hooks must reproduce: a
    /// `u32` length prefix, then one `put_u8` per byte.
    fn reference_encode(bytes: &[u8]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32(bytes.len() as u32);
        for b in bytes {
            buf.put_u8(*b);
        }
        buf.freeze()
    }

    /// The per-element reader: one bounds check and `get_u8` per byte.
    fn reference_decode(buf: &mut Bytes) -> Result<Vec<u8>> {
        let len = u32::decode(buf)? as usize;
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(u8::decode(buf)?);
        }
        Ok(out)
    }

    proptest! {
        #[test]
        fn byte_strings_match_per_element_reference(data: Vec<u8>, text: String) {
            let reference = reference_encode(&data);
            prop_assert_eq!(data.encode_to_bytes(), reference.clone());
            prop_assert_eq!(Bytes::from(data.clone()).encode_to_bytes(), reference.clone());
            prop_assert_eq!(text.encode_to_bytes(), reference_encode(text.as_bytes()));
            // Decoding agrees too, on well-formed and on truncated input.
            prop_assert_eq!(Vec::<u8>::decode(&mut reference.clone()).unwrap(), data);
            for cut in [0, reference.len() / 2, reference.len().saturating_sub(1)] {
                let truncated = reference.slice(..cut);
                prop_assert_eq!(
                    Vec::<u8>::decode(&mut truncated.clone()).is_ok(),
                    reference_decode(&mut truncated.clone()).is_ok()
                );
            }
        }

        #[test]
        fn bytes_roundtrip(data: Vec<u8>) {
            roundtrip(data);
        }

        #[test]
        fn map_roundtrip(map: BTreeMap<Vec<u8>, Vec<u8>>) {
            roundtrip(map);
        }

        #[test]
        fn decode_never_panics(data: Vec<u8>) {
            let mut bytes = Bytes::from(data);
            let _ = RangeSet::decode(&mut bytes);
            let _ = String::decode(&mut bytes);
        }
    }
}
