//! Row (tuple) encoding for the row-oriented baseline engine.
//!
//! Rows are serialized to a compact byte format and stored in slotted pages,
//! as a disk-resident row store would. The encode/decode cost is part of the
//! baseline's honest query-level evolution price: every tuple the evolution
//! query touches is decoded, and every output tuple re-encoded.

use cods_storage::codec::{put_value, read_value, BufMut, Reader};
use cods_storage::{StorageError, Value};

/// Serializes a row into `buf`: its arity, then each value in the one
/// value codec ([`cods_storage::codec`]).
pub fn encode_row<B: BufMut>(buf: &mut B, row: &[Value]) {
    buf.put_u16_le(row.len() as u16);
    for v in row {
        put_value(buf, v);
    }
}

/// Size in bytes [`encode_row`] will produce.
pub fn encoded_row_len(row: &[Value]) -> usize {
    2 + row
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

/// Deserializes a row from the front of `record`.
pub fn decode_row(record: &[u8]) -> Result<Vec<Value>, StorageError> {
    let mut r = Reader::new(record);
    let bad = |e| StorageError::Corrupt(format!("row: {e}"));
    // A value is at least its tag byte.
    let arity = r.u16().map_err(bad)? as usize;
    let arity = r.fits(arity, 1).map_err(bad)?;
    (0..arity)
        .map(|_| read_value(&mut r).map_err(bad))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn round_trip_all_types() {
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::int(-42),
            Value::float(2.75),
            Value::str("hello world"),
        ];
        let mut buf = BytesMut::new();
        encode_row(&mut buf, &row);
        assert_eq!(buf.len(), encoded_row_len(&row));
        let back = decode_row(&buf.freeze()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn empty_row() {
        let mut buf = BytesMut::new();
        encode_row(&mut buf, &[]);
        let back = decode_row(&buf.freeze()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let row = vec![Value::str("abcdef")];
        let mut buf = BytesMut::new();
        encode_row(&mut buf, &row);
        let bytes = buf.freeze();
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_row(&bytes.slice(0..cut)).is_err(), "cut {cut}");
        }
    }
}
