//! The byte codec under every decoder of the workspace: table files
//! ([`crate::persist`]), commit records ([`crate::commitlog`]), the wire
//! and the row store.
//!
//! Reading goes through one checked reader, [`Reader`] (from
//! `cods-bitmap`, the lowest crate every decoder reaches): a length is
//! checked before the bytes behind it are sliced, and a count read from
//! the bytes is held against what remains ([`Reader::count`]) before
//! anything is sized from it. Writing goes through [`BufMut`]. On top of
//! the two sit the one value, string and schema codec, all little-endian:
//!
//! ```text
//! value  := tag:u8 body   (0 NULL | 1 bool:u8 | 2 int:i64 | 3 float bits:u64
//!                          | 4 str)
//! str    := len:u32 utf-8
//! type   := tag:u8        (ValueType::tag)
//! schema := arity:u16 (name:str type)* key_len:u16 key_idx:u16*
//! ```
//!
//! Each surface reports a [`CodecError`] in its own kind: a table file as
//! [`StorageError::PersistError`], a commit record and a row as
//! [`StorageError::Corrupt`], the wire as its `WireError`.

pub use bytes::BufMut;
pub use cods_bitmap::codec::{CodecError, Reader};

use crate::error::StorageError;
use crate::schema::{ColumnDef, Schema};
use crate::value::{OrderedF64, Value, ValueType};
use std::sync::Arc;

/// Writes `len:u32 utf-8`.
#[inline]
pub fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a string [`put_str`] wrote, borrowed from the reader's buffer.
#[inline]
pub fn read_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, CodecError> {
    let len = r.u32()? as usize;
    std::str::from_utf8(r.take(len)?).map_err(|_| CodecError::Utf8)
}

/// Writes a tagged value. A float is its raw bits, so NaN payloads
/// round-trip exactly.
#[inline]
pub fn put_value<B: BufMut>(buf: &mut B, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Float(OrderedF64(f)) => {
            buf.put_u8(3);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
    }
}

/// Reads a value [`put_value`] wrote; a string goes straight from the
/// buffer into its `Arc<str>`.
#[inline]
pub fn read_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::float(r.f64()?),
        4 => Value::Str(Arc::from(read_str(r)?)),
        b => return Err(CodecError::BadTag("value", b)),
    })
}

/// Reads a [`ValueType::tag`].
pub fn read_type(r: &mut Reader<'_>) -> Result<ValueType, CodecError> {
    let b = r.u8()?;
    ValueType::from_tag(b).ok_or(CodecError::BadTag("value type", b))
}

/// Writes a schema: its columns' names and types, then its key.
pub fn put_schema<B: BufMut>(buf: &mut B, s: &Schema) {
    buf.put_u16_le(s.arity() as u16);
    for c in s.columns() {
        put_str(buf, &c.name);
        buf.put_u8(c.ty.tag());
    }
    buf.put_u16_le(s.key().len() as u16);
    for &k in s.key() {
        buf.put_u16_le(k as u16);
    }
}

/// Reads a schema [`put_schema`] wrote. A byte-level failure is a
/// [`StorageError::PersistError`], as is a schema that does not validate.
pub fn read_schema(r: &mut Reader<'_>) -> Result<Schema, StorageError> {
    // A column is at least its name's length and a type tag.
    let arity = r.u16()? as usize;
    let arity = r.fits(arity, 5)?;
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = read_str(r)?.to_owned();
        cols.push(ColumnDef::new(name, read_type(r)?));
    }
    let key_len = r.u16()? as usize;
    let key_len = r.fits(key_len, 2)?;
    let mut key = Vec::with_capacity(key_len);
    for _ in 0..key_len {
        key.push(r.u16()? as usize);
    }
    Schema::with_key(cols, key).map_err(|e| StorageError::PersistError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_schemas_and_strings_round_trip() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::int(-42),
            Value::float(f64::from_bits(0x7FF8_0000_0000_1234)),
            Value::str("héllo"),
        ];
        let schema =
            Schema::build(&[("a", ValueType::Int), ("b", ValueType::Str)], &["a"]).unwrap();
        let mut buf = Vec::new();
        values.iter().for_each(|v| put_value(&mut buf, v));
        put_schema(&mut buf, &schema);
        let mut r = Reader::new(&buf);
        for v in &values {
            let back = read_value(&mut r).unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.0.to_bits(), b.0.to_bits()),
                _ => assert_eq!(&back, v),
            }
        }
        assert_eq!(read_schema(&mut r).unwrap(), schema);
        r.finish().unwrap();
    }

    #[test]
    fn every_cut_and_bad_tag_is_typed() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::str("abcdef"));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert_eq!(
                read_value(&mut r),
                Err(CodecError::UnexpectedEof),
                "cut {cut}"
            );
        }
        assert_eq!(
            read_value(&mut Reader::new(&[9])),
            Err(CodecError::BadTag("value", 9))
        );
        assert_eq!(
            read_value(&mut Reader::new(&[4, 1, 0, 0, 0, 0xFF])),
            Err(CodecError::Utf8)
        );
        // A count the bytes cannot hold is refused before it sizes anything.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0]);
        assert_eq!(r.count(1), Err(CodecError::UnexpectedEof));
        assert_eq!(Reader::new(&[1]).finish(), Err(CodecError::Trailing));
    }
}
