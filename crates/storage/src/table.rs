//! Column-oriented tables: a schema plus one shared, immutable column per
//! attribute.
//!
//! Columns are `Arc`-shared between tables. This is what lets CODS implement
//! Property 1 of lossless decompositions — "the unchanged output table can be
//! created right away using the existing columns … without any data
//! operation" — as literal pointer sharing.
//!
//! A table knows no encodings. Re-encoding, and the pins that go with it,
//! belong to the column ([`EncodedColumn::with_encoding`]); a table only
//! maps a function over its columns ([`Table::map_columns`]), sharing
//! every column the function does not touch.

use crate::encoded::{ColumnBuilder, EncodedColumn};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable column-oriented table. Each column is independently bitmap
/// or run-length encoded (see [`EncodedColumn`]).
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<EncodedColumn>>,
    rows: u64,
}

impl Table {
    /// Assembles a table from a schema and matching columns.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Arc<EncodedColumn>>,
    ) -> Result<Table, StorageError> {
        if columns.len() != schema.arity() {
            return Err(StorageError::RowMismatch(format!(
                "schema has {} columns but {} were supplied",
                schema.arity(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.rows());
        for (i, c) in columns.iter().enumerate() {
            if c.rows() != rows {
                return Err(StorageError::Corrupt(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.rows()
                )));
            }
            if c.ty() != schema.columns()[i].ty && c.rows() > 0 {
                return Err(StorageError::RowMismatch(format!(
                    "column {:?} has type {}, schema says {}",
                    schema.columns()[i].name,
                    c.ty(),
                    schema.columns()[i].ty
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            rows,
        })
    }

    /// Builds a table from rows of values.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: &[Vec<Value>],
    ) -> Result<Table, StorageError> {
        Self::from_rows_with_segment_rows(name, schema, rows, crate::segment::DEFAULT_SEGMENT_ROWS)
    }

    /// Builds a table from rows of values with an explicit column segment
    /// size (benchmarks use this to compare segmentations).
    pub fn from_rows_with_segment_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: &[Vec<Value>],
        segment_rows: u64,
    ) -> Result<Table, StorageError> {
        let mut builders: Vec<ColumnBuilder> = schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::with_segment_rows(c.ty, segment_rows))
            .collect();
        for (rno, row) in rows.iter().enumerate() {
            if row.len() != schema.arity() {
                return Err(StorageError::RowMismatch(format!(
                    "row {rno} has {} values, schema has {} columns",
                    row.len(),
                    schema.arity()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v.clone())?;
            }
        }
        let columns = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Table::new(name, schema, columns)
    }

    /// Returns a copy with `f` applied to the named column, or to every
    /// column when `only` is `None`. Every column `f` leaves unchanged, and
    /// every other column, stays shared by `Arc` — what RENAME, COPY and
    /// the commit log's column references rely on
    /// ([`Table::shares_column_with`]). How a column is re-encoded is the
    /// column's business ([`EncodedColumn::with_encoding`]).
    pub fn map_columns(
        &self,
        only: Option<&str>,
        mut f: impl FnMut(&EncodedColumn) -> Result<EncodedColumn, StorageError>,
    ) -> Result<Table, StorageError> {
        let only = only.map(|name| self.schema.index_of(name)).transpose()?;
        let columns = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if only.is_some_and(|idx| idx != i) {
                    return Ok(Arc::clone(c));
                }
                let mapped = f(c)?;
                Ok(if mapped.same_as(c) {
                    Arc::clone(c)
                } else {
                    Arc::new(mapped)
                })
            })
            .collect::<Result<_, StorageError>>()?;
        Table::new(&self.name, self.schema.clone(), columns)
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
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Arc<EncodedColumn> {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Arc<EncodedColumn>, StorageError> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Arc<EncodedColumn>] {
        &self.columns
    }

    /// Returns a copy with a different name (RENAME TABLE shares all data).
    pub fn renamed(&self, name: impl Into<String>) -> Table {
        Table {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Materializes row `idx` as values (display/test path).
    pub fn row(&self, idx: u64) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| c.value_at(idx).into_owned())
            .collect()
    }

    /// Materializes all rows (test/display helper; decompresses everything).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let per_col: Vec<Vec<Value>> = self.columns.iter().map(|c| c.values()).collect();
        (0..self.rows as usize)
            .map(|r| per_col.iter().map(|col| col[r].clone()).collect())
            .collect()
    }

    /// Materializes only the named columns, in the given order — the
    /// projection-pushdown scan path of a column store (untouched columns
    /// are never decompressed).
    pub fn to_rows_projected(&self, names: &[&str]) -> Result<Vec<Vec<Value>>, StorageError> {
        let per_col: Vec<Vec<Value>> = names
            .iter()
            .map(|n| Ok(self.column_by_name(n)?.values()))
            .collect::<Result<_, StorageError>>()?;
        Ok((0..self.rows as usize)
            .map(|r| per_col.iter().map(|col| col[r].clone()).collect())
            .collect())
    }

    /// The multiset of tuples, for order-insensitive equality in tests and
    /// cross-engine verification.
    pub fn tuple_multiset(&self) -> HashMap<Vec<Value>, u64> {
        let mut m = HashMap::new();
        for row in self.to_rows() {
            *m.entry(row).or_insert(0) += 1;
        }
        m
    }

    /// Rewrites the table clustered (stably sorted) by the named columns, in
    /// value order. Clustering turns each value's bitmap into a single fill
    /// run, which is where WAH — and the RLE encoding for sorted columns —
    /// compress best. After the rewrite every unpinned column is re-encoded
    /// to the adaptive chooser's pick (clustering is exactly what makes RLE
    /// win, so sort columns typically flip to RLE automatically; pin an
    /// encoding with an explicit recode to opt out).
    pub fn cluster_by(&self, names: &[&str]) -> Result<Table, StorageError> {
        // Map every sort column's row ids to their value-order ranks, then
        // sort row indices by the rank tuple (stable).
        let mut rank_cols: Vec<Vec<u32>> = Vec::with_capacity(names.len());
        for n in names {
            let col = self.column_by_name(n)?;
            let mut ranks = col.try_value_ids()?;
            if let Some(rank_of) = col.dict().value_order().rank_table() {
                ranks.iter_mut().for_each(|id| *id = rank_of[*id as usize]);
            }
            rank_cols.push(ranks);
        }
        let mut perm: Vec<u64> = (0..self.rows).collect();
        let key = |row: u64| rank_cols.iter().map(move |ranks| ranks[row as usize]);
        perm.sort_by(|&a, &b| key(a).cmp(key(b)));
        self.map_columns(None, |c| c.gather(&perm)?.auto_recoded())
    }

    /// Checks that the declared key is actually unique.
    pub fn verify_key(&self) -> Result<(), StorageError> {
        if self.schema.key().is_empty() {
            return Ok(());
        }
        let key_cols: Vec<Vec<u32>> = self
            .schema
            .key()
            .iter()
            .map(|&i| self.columns[i].value_ids())
            .collect();
        let mut seen: HashMap<Vec<u32>, u64> = HashMap::with_capacity(self.rows as usize);
        for r in 0..self.rows as usize {
            let key: Vec<u32> = key_cols.iter().map(|c| c[r]).collect();
            if let Some(prev) = seen.insert(key, r as u64) {
                return Err(StorageError::KeyViolation(format!(
                    "rows {prev} and {r} share the same key in table {:?}",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// Validates all column invariants and row-count consistency.
    pub fn check_invariants(&self) -> Result<(), StorageError> {
        for (i, c) in self.columns.iter().enumerate() {
            c.check_invariants()
                .map_err(|e| StorageError::Corrupt(format!("column {i}: {e}")))?;
            if c.rows() != self.rows {
                return Err(StorageError::Corrupt(format!(
                    "column {i} row count mismatch"
                )));
            }
        }
        Ok(())
    }

    /// Approximate heap size of all columns.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.size_bytes()).sum()
    }

    /// Faults every segment of every column in — the explicit warm-up for
    /// a lazily opened table.
    pub fn fault_in_all(&self) {
        for c in &self.columns {
            c.fault_in_all();
        }
    }

    /// `(resident, on-disk)` segment counts over all columns —
    /// buffer-cache telemetry.
    pub fn residency_counts(&self) -> (usize, usize) {
        self.columns.iter().fold((0, 0), |(r, d), c| {
            let (cr, cd) = c.residency_counts();
            (r + cr, d + cd)
        })
    }

    /// Returns `true` when the named column's data is shared (same `Arc`)
    /// with `other`'s column of the same name — the zero-copy reuse check
    /// used by evolution tests.
    pub fn shares_column_with(&self, other: &Table, name: &str) -> bool {
        match (self.column_by_name(name), other.column_by_name(name)) {
            (Ok(a), Ok(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::{Encoding, EncodingCounts, RecodeScope, RecodeTarget};
    use crate::value::ValueType;

    pub(crate) fn figure1_r() -> Table {
        let schema = Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = [
            ("Jones", "Typing", "425 Grant Ave"),
            ("Jones", "Shorthand", "425 Grant Ave"),
            ("Roberts", "Light Cleaning", "747 Industrial Way"),
            ("Ellis", "Alchemy", "747 Industrial Way"),
            ("Jones", "Whittling", "425 Grant Ave"),
            ("Ellis", "Juggling", "747 Industrial Way"),
            ("Harrison", "Light Cleaning", "425 Grant Ave"),
        ]
        .iter()
        .map(|&(e, s, a)| vec![Value::str(e), Value::str(s), Value::str(a)])
        .collect();
        Table::from_rows("R", schema, &rows).unwrap()
    }

    #[test]
    fn build_figure1() {
        let r = figure1_r();
        r.check_invariants().unwrap();
        assert_eq!(r.rows(), 7);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.column_by_name("employee").unwrap().distinct_count(), 4);
        assert_eq!(r.column_by_name("skill").unwrap().distinct_count(), 6);
        assert_eq!(r.column_by_name("address").unwrap().distinct_count(), 2);
    }

    #[test]
    fn row_round_trip() {
        let r = figure1_r();
        assert_eq!(
            r.row(3),
            vec![
                Value::str("Ellis"),
                Value::str("Alchemy"),
                Value::str("747 Industrial Way")
            ]
        );
        assert_eq!(r.to_rows().len(), 7);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let err = Table::from_rows("t", schema, &[vec![Value::int(1), Value::int(2)]]);
        assert!(matches!(err, Err(StorageError::RowMismatch(_))));
    }

    #[test]
    fn key_verification() {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let good = Table::from_rows(
            "t",
            schema.clone(),
            &[
                vec![Value::int(1), Value::str("a")],
                vec![Value::int(2), Value::str("b")],
            ],
        )
        .unwrap();
        good.verify_key().unwrap();
        let bad = Table::from_rows(
            "t",
            schema,
            &[
                vec![Value::int(1), Value::str("a")],
                vec![Value::int(1), Value::str("b")],
            ],
        )
        .unwrap();
        assert!(matches!(
            bad.verify_key(),
            Err(StorageError::KeyViolation(_))
        ));
    }

    #[test]
    fn rename_shares_columns() {
        let r = figure1_r();
        let r2 = r.renamed("R2");
        assert_eq!(r2.name(), "R2");
        assert!(r.shares_column_with(&r2, "employee"));
        assert!(r.shares_column_with(&r2, "skill"));
    }

    #[test]
    fn tuple_multiset_counts_duplicates() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let t = Table::from_rows(
            "t",
            schema,
            &[
                vec![Value::int(1)],
                vec![Value::int(1)],
                vec![Value::int(2)],
            ],
        )
        .unwrap();
        let m = t.tuple_multiset();
        assert_eq!(m[&vec![Value::int(1)]], 2);
        assert_eq!(m[&vec![Value::int(2)]], 1);
    }

    #[test]
    fn empty_table() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let t = Table::from_rows("t", schema, &[]).unwrap();
        assert_eq!(t.rows(), 0);
        t.check_invariants().unwrap();
        t.verify_key().unwrap();
    }

    #[test]
    fn cluster_by_sorts_and_preserves_tuples() {
        let r = figure1_r();
        let clustered = r.cluster_by(&["employee"]).unwrap();
        clustered.check_invariants().unwrap();
        assert_eq!(clustered.tuple_multiset(), r.tuple_multiset());
        let employees: Vec<Value> = clustered
            .to_rows()
            .iter()
            .map(|row| row[0].clone())
            .collect();
        let mut sorted = employees.clone();
        sorted.sort();
        assert_eq!(employees, sorted, "not clustered by employee");
        // Clustered value bitmaps are single fill runs (tiny).
        let col = clustered.column_by_name("employee").unwrap();
        for id in 0..col.distinct_count() as u32 {
            let bm = col.value_bitmap(id);
            assert!(bm.words().len() <= 3, "bitmap not run-compressed");
        }
    }

    #[test]
    fn row_and_cluster_by_read_a_dense_key_from_its_bounds() {
        // A key loaded in key order, and a column whose values descend.
        let schema = Schema::build(&[("k", ValueType::Int), ("d", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::int(i), Value::int(-i % 7)])
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let key = t.column_by_name("k").unwrap().dict().clone();
        assert!(key.is_dense());
        assert_eq!(key.size_bytes(), 0);
        assert_eq!(t.row(3), rows[3]);
        assert_eq!(key.size_bytes(), 0, "a row read spelled the key out");
        // By the key, every row stays in place; by (d, k), rows sort by d
        // through its value order, then by the key.
        assert_eq!(t.cluster_by(&["k"]).unwrap().to_rows(), rows);
        let mut by_dk = rows.clone();
        by_dk.sort_by(|a, b| (&a[1], &a[0]).cmp(&(&b[1], &b[0])));
        assert_eq!(t.cluster_by(&["d", "k"]).unwrap().to_rows(), by_dk);
        assert_eq!(key.size_bytes(), 0, "cluster_by spelled the key out");
    }

    #[test]
    fn cluster_by_composite_is_stable() {
        let schema = Schema::build(
            &[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("seq", ValueType::Int),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::int(i % 3), Value::int(i % 2), Value::int(i)])
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let c = t.cluster_by(&["a", "b"]).unwrap();
        let decoded = c.to_rows();
        // Sorted by (a, b); within a group, original order (stable via seq).
        for w in decoded.windows(2) {
            let ka = (&w[0][0], &w[0][1]);
            let kb = (&w[1][0], &w[1][1]);
            assert!(ka <= kb, "not sorted: {ka:?} > {kb:?}");
            if ka == kb {
                assert!(w[0][2] < w[1][2], "not stable");
            }
        }
    }

    #[test]
    fn cluster_by_auto_encodes_unpinned_columns() {
        let schema = Schema::build(&[("k", ValueType::Int), ("u", ValueType::Int)], &[]).unwrap();
        // k clusters perfectly (long runs); u stays scattered.
        let rows: Vec<Vec<Value>> = (0..4_000)
            .map(|i| {
                vec![
                    Value::int(i % 8),
                    Value::int((i * 2_654_435_761u64 as i64) % 1_000),
                ]
            })
            .collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 512).unwrap();
        let c = t.cluster_by(&["k"]).unwrap();
        c.check_invariants().unwrap();
        assert!(
            c.column_by_name("k").unwrap().is_uniform(Encoding::Rle),
            "chooser flips the sort column to RLE after clustering"
        );
        assert!(
            c.column_by_name("u").unwrap().is_uniform(Encoding::Bitmap),
            "scattered column stays bitmap"
        );
        assert_eq!(c.tuple_multiset(), t.tuple_multiset());

        // A pinned column opts out of the chooser.
        let pinned = t
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
            })
            .unwrap();
        let cp = pinned.cluster_by(&["k"]).unwrap();
        assert!(cp.column_by_name("k").unwrap().is_uniform(Encoding::Bitmap));
        assert!(cp.column_by_name("k").unwrap().encoding_pinned());
        // ...until re-set to auto.
        let auto = cp
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Column, RecodeTarget::Auto)
            })
            .unwrap();
        assert!(auto.column_by_name("k").unwrap().is_uniform(Encoding::Rle));
        assert!(!auto.column_by_name("k").unwrap().encoding_pinned());
    }

    #[test]
    fn an_explicit_recode_pins_every_column() {
        let r = figure1_r();
        let p = r
            .map_columns(None, |c| {
                c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Rle))
            })
            .unwrap();
        assert!(p
            .columns()
            .iter()
            .all(|c| c.is_uniform(Encoding::Rle) && c.encoding_pinned()));
        assert_eq!(p.to_rows(), r.to_rows());
        let back = p.map_columns(None, EncodedColumn::auto_recoded).unwrap();
        // Pinned columns are untouched by the chooser pass.
        assert!(back.shares_column_with(&p, "employee"));
    }

    #[test]
    fn column_type_checked_against_schema() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let col = Arc::new(EncodedColumn::from_values(ValueType::Str, &[Value::str("x")]).unwrap());
        assert!(Table::new("t", schema, vec![col]).is_err());
    }

    #[test]
    fn recoded_preserves_rows_and_shares_on_noop() {
        let r = figure1_r();
        let rle = r.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap();
        rle.check_invariants().unwrap();
        assert_eq!(rle.to_rows(), r.to_rows());
        assert!(rle.columns().iter().all(|c| c.is_uniform(Encoding::Rle)));
        let back = rle
            .map_columns(None, |c| c.recode(Encoding::Bitmap))
            .unwrap();
        assert_eq!(back.to_rows(), r.to_rows());
        // Re-encoding to the current encoding shares columns by reference.
        let same = rle.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap();
        assert!(rle.shares_column_with(&same, "employee"));
        // Single-column recode shares the rest.
        let one = r
            .map_columns(Some("skill"), |c| c.recode(Encoding::Rle))
            .unwrap();
        assert!(r.shares_column_with(&one, "employee"));
        assert!(one
            .column_by_name("skill")
            .unwrap()
            .is_uniform(Encoding::Rle));
        assert_eq!(one.to_rows(), r.to_rows());
    }
    #[test]
    fn segment_range_recode_mixes_one_column() {
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..800).map(|i| vec![Value::int(i / 50)]).collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        assert_eq!(t.column(0).segment_count(), 8);
        let m = t
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Segments(0..4), RecodeTarget::To(Encoding::Rle))
            })
            .unwrap();
        m.check_invariants().unwrap();
        let col = m.column_by_name("k").unwrap();
        assert_eq!(col.encoding_counts(), EncodingCounts([4, 4, 0]));
        assert!(col.segment_pinned(0) && !col.segment_pinned(4));
        assert_eq!(m.to_rows(), t.to_rows());
        // `auto` over the range hands those segments back to the chooser
        // (clustered data: they stay RLE but the pins clear).
        let back = m
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Segments(0..4), RecodeTarget::Auto)
            })
            .unwrap();
        let col = back.column_by_name("k").unwrap();
        assert!(!col.segment_pinned(0));
        assert!(t
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Segments(7..9), RecodeTarget::To(Encoding::Rle))
            })
            .is_err());
    }
}
