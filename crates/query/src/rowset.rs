//! The one batch type of every row-producing read: `len` rows held
//! **column-major**, each column either still in the dictionary-id domain
//! (a scan's or a join's output: one `u32` per row beside the column whose
//! dictionary gives the ids meaning) or plain values (what an aggregate
//! computes). Producing a [`RowSet`] touches no [`Value`]; a consumer reads
//! cells one at a time ([`RowSet::cell`]), encodes the ids as they are (the
//! wire), or asks for rows of values at the very edge ([`RowSet::to_rows`]).

use cods_storage::{EncodedColumn, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// One column of a [`RowSet`].
#[derive(Debug, Clone)]
pub enum RowColumn {
    /// One id per row into `column`'s dictionary.
    Dict {
        /// The table column the ids were read from (kept for its
        /// dictionary; sharing it pins no payload).
        column: Arc<EncodedColumn>,
        /// Value id per row.
        ids: Vec<u32>,
    },
    /// One value per row.
    Plain(Vec<Value>),
}

impl RowColumn {
    fn len(&self) -> usize {
        match self {
            RowColumn::Dict { ids, .. } => ids.len(),
            RowColumn::Plain(values) => values.len(),
        }
    }

    fn cell(&self, row: usize) -> Cow<'_, Value> {
        match self {
            RowColumn::Dict { column, ids } => column.dict().value(ids[row]),
            RowColumn::Plain(values) => Cow::Borrowed(&values[row]),
        }
    }
}

/// A batch of result rows, column-major (see the module docs).
#[derive(Debug, Clone)]
pub struct RowSet {
    len: usize,
    columns: Vec<RowColumn>,
}

impl RowSet {
    /// A set of `len` rows over `columns`, each of which holds exactly
    /// `len` entries.
    pub fn new(len: usize, columns: Vec<RowColumn>) -> RowSet {
        assert!(
            columns.iter().all(|c| c.len() == len),
            "every column of a row set holds one entry per row"
        );
        RowSet { len, columns }
    }

    /// Transposes rows of `arity` values each into plain columns, moving
    /// the values — how an aggregate's output becomes a batch.
    pub fn from_rows(arity: usize, rows: impl IntoIterator<Item = Vec<Value>>) -> RowSet {
        let mut columns = vec![Vec::new(); arity];
        let mut len = 0;
        for row in rows {
            assert_eq!(row.len(), arity, "a row set is rectangular");
            len += 1;
            for (column, value) in columns.iter_mut().zip(row) {
                column.push(value);
            }
        }
        RowSet {
            len,
            columns: columns.into_iter().map(RowColumn::Plain).collect(),
        }
    }

    /// Rows in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Columns per row.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in output order.
    pub fn columns(&self) -> &[RowColumn] {
        &self.columns
    }

    /// The value at row `row`, column `column` — a dictionary lookup for a
    /// dictionary-backed column, borrowed wherever the value is held.
    pub fn cell(&self, row: usize, column: usize) -> Cow<'_, Value> {
        assert!(row < self.len, "row {row} out of range {}", self.len);
        self.columns[column].cell(row)
    }

    /// The set as rows of values — the one place (with the wire client's
    /// decoder) a row of [`Value`]s is built.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len)
            .map(|r| {
                self.columns
                    .iter()
                    .map(|c| c.cell(r).into_owned())
                    .collect()
            })
            .collect()
    }
}

/// Cell-wise: two sets are equal when they hold the same values, whatever
/// dictionaries back them.
impl PartialEq for RowSet {
    fn eq(&self, other: &RowSet) -> bool {
        self.len == other.len
            && self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| (0..self.len).all(|r| a.cell(r) == b.cell(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::ValueType;

    #[test]
    fn dictionary_backed_and_plain_columns_read_alike() {
        let values = [Value::str("a"), Value::Null, Value::str("b"), Value::Null];
        let column = Arc::new(EncodedColumn::from_values(ValueType::Str, &values).unwrap());
        let ids = column.value_ids();
        let set = RowSet::new(
            4,
            vec![
                RowColumn::Dict { column, ids },
                RowColumn::Plain((0..4).map(Value::int).collect()),
            ],
        );
        assert_eq!((set.len(), set.arity()), (4, 2));
        assert_eq!(*set.cell(2, 0), Value::str("b"));
        assert_eq!(*set.cell(3, 1), Value::int(3));
        let rows = set.to_rows();
        assert_eq!(rows[1], [Value::Null, Value::int(1)]);
        assert_eq!(RowSet::from_rows(2, rows), set);
    }

    #[test]
    fn empty_sets_keep_their_arity() {
        let set = RowSet::from_rows(3, Vec::new());
        assert!(set.is_empty());
        assert_eq!(set.arity(), 3);
        assert!(set.to_rows().is_empty());
    }
}
