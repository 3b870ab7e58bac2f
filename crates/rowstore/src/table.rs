//! Row-oriented tables: heap file + optional B-tree indexes.

use crate::heap::{HeapFile, RowId};
use crate::index::BTreeIndex;
use crate::journal::Journal;
use crate::row::{decode_row, encode_row, encoded_row_len};
use cods_storage::{Schema, StorageError, Value};

/// A mutable row-oriented table.
pub struct RowTable {
    name: String,
    schema: Schema,
    heap: HeapFile,
    indexes: Vec<BTreeIndex>,
}

impl RowTable {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        RowTable {
            name: name.into(),
            schema,
            heap: HeapFile::new(),
            indexes: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.heap.row_count()
    }

    /// Number of heap pages.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// The secondary indexes.
    pub fn indexes(&self) -> &[BTreeIndex] {
        &self.indexes
    }

    /// Declares an index over the given column positions. If the table
    /// already has rows the index is built by a full scan (the "rebuild
    /// indexes from scratch" cost of query-level evolution).
    pub fn create_index(&mut self, key_columns: Vec<usize>) -> Result<(), StorageError> {
        for &c in &key_columns {
            if c >= self.schema.arity() {
                return Err(StorageError::InvalidSchema(format!(
                    "index column {c} out of range"
                )));
            }
        }
        let mut idx = BTreeIndex::new(key_columns);
        for (rid, rec) in self.heap.scan() {
            let row = decode_row(rec)?;
            idx.insert(&row, rid);
        }
        self.indexes.push(idx);
        Ok(())
    }

    fn validate(&self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::RowMismatch(format!(
                "row has {} values, schema has {}",
                row.len(),
                self.schema.arity()
            )));
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if !v.conforms_to(c.ty) {
                return Err(StorageError::RowMismatch(format!(
                    "value {v} does not conform to column {:?} of type {}",
                    c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    /// Inserts a row, maintaining all indexes.
    pub fn insert(&mut self, row: &[Value]) -> Result<RowId, StorageError> {
        self.validate(row)?;
        let mut buf = Vec::with_capacity(encoded_row_len(row));
        encode_row(&mut buf, row);
        let rid = self.heap.insert(&buf);
        for idx in &mut self.indexes {
            idx.insert(row, rid);
        }
        Ok(rid)
    }

    /// Inserts a row under rollback-journal protection: the before-image of
    /// the target page is copied into `journal` before the page is modified
    /// (the SQLite-style per-statement cost).
    pub fn insert_journaled(
        &mut self,
        row: &[Value],
        journal: &mut Journal,
    ) -> Result<RowId, StorageError> {
        self.validate(row)?;
        let mut buf = Vec::with_capacity(encoded_row_len(row));
        encode_row(&mut buf, row);
        let target = self.heap.target_page(buf.len());
        if (target as usize) < self.heap.page_count() {
            journal.record_before_image(target, self.heap.page(target).image());
        } else {
            // Fresh page: journal only needs the allocation record, modeled
            // as journaling a zero page the first time.
            static ZERO: [u8; crate::page::PAGE_SIZE] = [0u8; crate::page::PAGE_SIZE];
            journal.record_before_image(target, &ZERO);
        }
        let rid = self.heap.insert(&buf);
        for idx in &mut self.indexes {
            idx.insert(row, rid);
        }
        Ok(rid)
    }

    /// Reads one row by id.
    pub fn row(&self, rid: RowId) -> Result<Vec<Value>, StorageError> {
        decode_row(self.heap.record(rid))
    }

    /// Full scan decoding every tuple — the access path query-level
    /// evolution is forced to use.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        self.heap.scan().map(|(rid, rec)| {
            let row = decode_row(rec).expect("heap row decodes");
            (rid, row)
        })
    }

    /// Approximate on-disk footprint.
    pub fn size_bytes(&self) -> usize {
        self.heap.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::ValueType;

    fn schema() -> Schema {
        Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)], &["id"]).unwrap()
    }

    #[test]
    fn insert_scan_round_trip() {
        let mut t = RowTable::new("t", schema());
        for i in 0..100 {
            t.insert(&[Value::int(i), Value::str(format!("n{i}"))])
                .unwrap();
        }
        assert_eq!(t.row_count(), 100);
        let rows: Vec<Vec<Value>> = t.scan().map(|(_, r)| r).collect();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42], vec![Value::int(42), Value::str("n42")]);
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let mut t = RowTable::new("t", schema());
        assert!(t.insert(&[Value::int(1)]).is_err());
        assert!(t.insert(&[Value::str("x"), Value::str("y")]).is_err());
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = RowTable::new("t", schema());
        t.create_index(vec![1]).unwrap();
        let rid = t.insert(&[Value::int(1), Value::str("alice")]).unwrap();
        t.insert(&[Value::int(2), Value::str("bob")]).unwrap();
        assert_eq!(t.indexes()[0].lookup(&[Value::str("alice")]), &[rid]);
    }

    #[test]
    fn index_built_from_existing_rows() {
        let mut t = RowTable::new("t", schema());
        for i in 0..50 {
            t.insert(&[Value::int(i), Value::str(format!("n{}", i % 5))])
                .unwrap();
        }
        t.create_index(vec![1]).unwrap();
        assert_eq!(t.indexes()[0].len(), 50);
        assert_eq!(t.indexes()[0].distinct_keys(), 5);
        assert_eq!(t.indexes()[0].lookup(&[Value::str("n3")]).len(), 10);
    }

    #[test]
    fn journaled_inserts_copy_pages() {
        let mut t = RowTable::new("t", schema());
        let mut j = Journal::new();
        for i in 0..100 {
            t.insert_journaled(&[Value::int(i), Value::str("x")], &mut j)
                .unwrap();
            j.commit(); // autocommit per row
        }
        assert_eq!(j.commits, 100);
        // Every row journaled its target page once per transaction.
        assert_eq!(j.pages_journaled, 100);
    }

    #[test]
    fn bad_index_column_rejected() {
        let mut t = RowTable::new("t", schema());
        assert!(t.create_index(vec![5]).is_err());
    }
}
