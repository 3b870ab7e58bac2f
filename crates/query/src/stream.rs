//! Streaming, segment-batched table scans — the query surface the network
//! serving layer drains.
//!
//! [`filter_table`](crate::filter_table) materializes the whole selected
//! result before anything can be sent; over a long-running connection that
//! means peak memory proportional to the *result*, not to the working set.
//! [`ScanStream`] instead yields [`RowBatch`]es whose row ranges follow the
//! scanned table's **segment directory** (column 0's row-range shards):
//!
//! 1. the predicate is evaluated once on the compressed representation
//!    ([`predicate_mask`](crate::predicate_mask)), and the resulting mask's
//!    maximal one-intervals are split once along column 0's segments
//!    ([`cods_storage::EncodedColumn::split_by_segment`]) — bounded by the
//!    mask's run count, never by the selected row count;
//! 2. each batch reads its intervals' ids off every projected column
//!    ([`cods_storage::EncodedColumn::try_ids_in`], one decode per
//!    overlapping segment) into a [`RowSet`] — peak memory is one
//!    segment's ids per projected column, and no value is touched;
//! 3. a segment with no selected row is never a batch, so its payload is
//!    never touched — zone- and stat-pruned ranges stream at metadata
//!    speed.
//!
//! The concatenation of all batches is row-for-row identical to
//! `filter_table(...)` followed by projection (locked by tests here and,
//! over TCP, by `tests/serve.rs`).

use crate::pred::Predicate;
use crate::rowset::{RowColumn, RowSet};
use cods_storage::{StorageError, Table, Value};
use std::ops::Range;
use std::sync::Arc;

/// One streamed slice of a scan result: the selected, projected tuples
/// whose row ids fall inside `range` (one segment of the scanned table's
/// column 0).
#[derive(Debug, Clone, PartialEq)]
pub struct RowBatch {
    /// Row-id range of the underlying table this batch was decoded from.
    pub range: Range<u64>,
    /// Selected tuples in row order, each projected to the stream's
    /// column selection.
    pub rows: RowSet,
}

/// A batch before it is a [`RowSet`]: `len` selected rows of `range`, their
/// value ids in one vector per projected column.
pub(crate) struct IdBatch {
    pub(crate) range: Range<u64>,
    pub(crate) len: usize,
    pub(crate) ids: Vec<Vec<u32>>,
}

/// The ids of columns `cols` of `t` at the selection `sel`, one vector per
/// column — what a scan batch and a join build pass read.
pub(crate) fn ids_in(
    t: &Table,
    cols: &[usize],
    sel: &[(u64, u64)],
) -> Result<Vec<Vec<u32>>, StorageError> {
    cols.iter().map(|&c| t.column(c).try_ids_in(sel)).collect()
}

/// A pull-based streaming scan: predicate once, then segment-sized
/// [`RowBatch`]es on demand.
///
/// The stream owns an [`Arc`] of the table, so it keeps the scanned
/// version alive (and consistent) even while the catalog moves on to newer
/// table versions — exactly the contract a snapshot session needs.
pub struct ScanStream {
    table: Arc<Table>,
    /// Projected column indices, in output order.
    projection: Vec<usize>,
    /// The batches still to emit: each segment of column 0 holding a
    /// selected row, with the selection mask's one-intervals inside it.
    batches: std::vec::IntoIter<(usize, Vec<(u64, u64)>)>,
    /// Total selected rows (the mask's ones count).
    selected: u64,
}

impl ScanStream {
    /// Plans a streaming scan of `table`: rows satisfying `pred`, projected
    /// to `projection` (column names, output order) or to the full schema
    /// when `None`. Fails on unknown column names; the predicate is
    /// evaluated here, so all that can fail mid-flight is faulting a
    /// paged-out segment back in ([`ScanStream::try_next`]).
    pub fn new(
        table: Arc<Table>,
        pred: &Predicate,
        projection: Option<&[String]>,
    ) -> Result<Self, StorageError> {
        let projection: Vec<usize> = match projection {
            None => (0..table.arity()).collect(),
            Some(names) => names
                .iter()
                .map(|n| table.schema().index_of(n))
                .collect::<Result<_, _>>()?,
        };
        Self::with_projection(table, pred, projection)
    }

    /// [`ScanStream::new`] over already-resolved column positions.
    pub fn with_projection(
        table: Arc<Table>,
        pred: &Predicate,
        projection: Vec<usize>,
    ) -> Result<Self, StorageError> {
        let mask = crate::predicate_mask(&table, pred)?;
        let selected = mask.count_ones();
        let intervals: Vec<(u64, u64)> = mask
            .iter_intervals()
            .map(|(start, len)| (start, start + len))
            .collect();
        // A table without columns has no rows, so nothing to batch.
        let batches = match table.columns().first() {
            Some(col) => col.split_by_segment(&intervals),
            None => Vec::new(),
        };
        Ok(ScanStream {
            table,
            projection,
            batches: batches.into_iter(),
            selected,
        })
    }

    /// Total rows the stream will yield across all batches (known up front
    /// from the selection mask).
    pub fn total_selected(&self) -> u64 {
        self.selected
    }

    /// Drains the stream into one materialized row set — the
    /// anti-streaming baseline; tests use it to check batch concatenation
    /// against [`crate::filter_table`].
    pub fn collect_rows(self) -> Vec<Vec<Value>> {
        self.flat_map(|batch| batch.rows.to_rows()).collect()
    }

    /// The next non-empty batch in the id domain — what [`Self::try_next`]
    /// wraps into a [`RowSet`] and what a join probes directly.
    pub(crate) fn next_ids(&mut self) -> Result<Option<IdBatch>, StorageError> {
        let Some((seg, sel)) = self.batches.next() else {
            return Ok(None);
        };
        Ok(Some(IdBatch {
            range: self.table.column(0).segment_range(seg),
            len: sel.iter().map(|&(a, b)| (b - a) as usize).sum(),
            ids: ids_in(&self.table, &self.projection, &sel)?,
        }))
    }

    /// The next non-empty batch, or the typed error of a segment that
    /// could not be faulted in — what the served path drives, so a failed
    /// fault ends the reply instead of the connection thread. A stream
    /// that returned an error is finished with.
    pub fn try_next(&mut self) -> Result<Option<RowBatch>, StorageError> {
        let Some(IdBatch { range, len, ids }) = self.next_ids()? else {
            return Ok(None);
        };
        let columns = self
            .projection
            .iter()
            .zip(ids)
            .map(|(&ci, ids)| RowColumn::Dict {
                column: Arc::clone(self.table.column(ci)),
                ids,
            })
            .collect();
        Ok(Some(RowBatch {
            range,
            rows: RowSet::new(len, columns),
        }))
    }
}

/// [`ScanStream::try_next`] for in-process callers over resident or
/// trusted tables: a failed fault-in panics, as
/// [`cods_storage::SegSlot::enc`] does.
impl Iterator for ScanStream {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        self.try_next()
            .unwrap_or_else(|e| panic!("segment fault failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_table;
    use cods_storage::{Schema, ValueType};

    fn table(rows: usize, seg: u64) -> Arc<Table> {
        let schema = Schema::build(
            &[
                ("k", ValueType::Int),
                ("v", ValueType::Str),
                ("f", ValueType::Float),
            ],
            &[],
        )
        .unwrap();
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::int((i % 17) as i64),
                    Value::str(format!("s{}", i % 5)),
                    Value::float(i as f64 / 3.0),
                ]
            })
            .collect();
        Arc::new(Table::from_rows_with_segment_rows("t", schema, &data, seg).unwrap())
    }

    fn expected(t: &Table, pred: &Predicate, proj: &[usize]) -> Vec<Vec<Value>> {
        filter_table(t, pred)
            .unwrap()
            .to_rows()
            .into_iter()
            .map(|row| proj.iter().map(|&c| row[c].clone()).collect())
            .collect()
    }

    #[test]
    fn batches_concatenate_to_the_filtered_table() {
        let t = table(1_000, 64);
        for pred in [
            Predicate::lt("k", 5i64),
            Predicate::eq("v", "s2"),
            Predicate::lt("k", 5i64).and(Predicate::eq("v", "s2")),
            Predicate::eq("k", 999i64), // selects nothing
            Predicate::True,
        ] {
            let stream = ScanStream::new(Arc::clone(&t), &pred, None).unwrap();
            let want = expected(&t, &pred, &[0, 1, 2]);
            assert_eq!(stream.total_selected() as usize, want.len());
            assert_eq!(stream.collect_rows(), want, "diverges for {pred:?}");
        }
    }

    #[test]
    fn batches_follow_segment_boundaries() {
        let t = table(1_000, 64);
        let stream = ScanStream::new(Arc::clone(&t), &Predicate::True, None).unwrap();
        let mut next = 0u64;
        for batch in stream {
            assert_eq!(batch.range.start, next, "batches must tile the table");
            assert!(batch.range.end - batch.range.start <= 64);
            assert_eq!(batch.rows.len() as u64, batch.range.end - batch.range.start);
            next = batch.range.end;
        }
        assert_eq!(next, 1_000);
    }

    #[test]
    fn sparse_selection_skips_empty_batches() {
        // k == 16 hits 1 row in 17: most 8-row segments select nothing and
        // must be skipped entirely.
        let t = table(1_000, 8);
        let pred = Predicate::eq("k", 16i64);
        let stream = ScanStream::new(Arc::clone(&t), &pred, None).unwrap();
        let batches: Vec<RowBatch> = stream.collect();
        assert!(batches.iter().all(|b| !b.rows.is_empty()));
        assert!(batches.len() < 125, "empty segment ranges must be skipped");
        let got: Vec<Vec<Value>> = batches.iter().flat_map(|b| b.rows.to_rows()).collect();
        assert_eq!(got, expected(&t, &pred, &[0, 1, 2]));
    }

    #[test]
    fn projection_reorders_and_drops_columns() {
        let t = table(300, 50);
        let proj = ["f".to_string(), "k".to_string()];
        let pred = Predicate::lt("k", 3i64);
        let stream = ScanStream::new(Arc::clone(&t), &pred, Some(&proj)).unwrap();
        assert_eq!(stream.projection, [2, 0]);
        assert_eq!(stream.collect_rows(), expected(&t, &pred, &[2, 0]));
        // Unknown projection column fails up front.
        assert!(ScanStream::new(
            Arc::clone(&t),
            &Predicate::True,
            Some(&["nope".to_string()])
        )
        .is_err());
    }

    #[test]
    fn rle_and_bitmap_streams_agree() {
        let t = table(600, 100);
        let rle = Arc::new(
            t.map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
                .unwrap(),
        );
        let pred = Predicate::lt("k", 9i64).or(Predicate::eq("v", "s4"));
        let a = ScanStream::new(Arc::clone(&t), &pred, None)
            .unwrap()
            .collect_rows();
        let b = ScanStream::new(rle, &pred, None).unwrap().collect_rows();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_survives_table_replacement() {
        // The stream pins its Arc: dropping every other reference mid-scan
        // must not disturb the remaining batches.
        let t = table(500, 64);
        let pred = Predicate::True;
        let mut stream = ScanStream::new(Arc::clone(&t), &pred, None).unwrap();
        let first = stream.next().unwrap();
        drop(t);
        let rest = stream.collect_rows();
        assert_eq!(first.rows.len() + rest.len(), 500);
    }
}
