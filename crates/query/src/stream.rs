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
//!    ([`predicate_mask`](crate::predicate_mask)), and the resulting mask
//!    is held as its maximal one-intervals — bounded by the mask's run
//!    count, never by the selected row count;
//! 2. each batch decodes only the segments overlapping its row range
//!    ([`cods_storage::EncodedColumn::try_ids_range`]) and gathers the
//!    selected ids per projected column into a [`RowSet`] — peak memory is
//!    one segment's ids per projected column, and no value is touched;
//! 3. batches with no selected rows are skipped without touching any
//!    payload — zone- and stat-pruned ranges stream at metadata speed.
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
/// whose row ids fall inside `range` (a run of whole segments of the
/// scanned table).
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
    /// Batch boundaries: `bounds[i]..bounds[i + 1]` is batch `i`'s row
    /// range, aligned to column 0's segment directory.
    bounds: Vec<u64>,
    /// Maximal one-intervals of the selection mask as half-open
    /// `(start, end)` row-id ranges, ascending and disjoint.
    intervals: Vec<(u64, u64)>,
    /// Total selected rows (the mask's ones count).
    selected: u64,
    /// Next batch index to emit.
    next_batch: usize,
    /// First interval that can still overlap the next batch.
    iv_cursor: usize,
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
        let rows = table.rows();
        let mut bounds = Vec::new();
        bounds.push(0);
        if let Some(col) = table.columns().first() {
            let mut at = 0u64;
            for slot in col.segments() {
                at += slot.rows();
                bounds.push(at);
            }
        } else if rows > 0 {
            bounds.push(rows);
        }
        Ok(ScanStream {
            table,
            projection,
            bounds,
            intervals,
            selected,
            next_batch: 0,
            iv_cursor: 0,
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

    /// The selected stretches of `lo..hi` as offsets from `lo`, advancing
    /// the interval cursor past every interval that ends at or before `hi`.
    fn selected_in(&mut self, lo: u64, hi: u64) -> Vec<Range<usize>> {
        while self.iv_cursor < self.intervals.len() && self.intervals[self.iv_cursor].1 <= lo {
            self.iv_cursor += 1;
        }
        let mut sel = Vec::new();
        let mut i = self.iv_cursor;
        while i < self.intervals.len() && self.intervals[i].0 < hi {
            let (start, end) = self.intervals[i];
            sel.push((start.max(lo) - lo) as usize..(end.min(hi) - lo) as usize);
            if end <= hi {
                i += 1;
            } else {
                // The interval runs on into the next batch: keep it current.
                break;
            }
        }
        self.iv_cursor = i;
        sel
    }

    /// The next non-empty batch in the id domain — what [`Self::try_next`]
    /// wraps into a [`RowSet`] and what a join probes directly.
    pub(crate) fn next_ids(&mut self) -> Result<Option<IdBatch>, StorageError> {
        while self.next_batch + 1 < self.bounds.len() {
            let lo = self.bounds[self.next_batch];
            let hi = self.bounds[self.next_batch + 1];
            self.next_batch += 1;
            let sel = self.selected_in(lo, hi);
            if sel.is_empty() {
                // Nothing selected in this row range: no payload faulted.
                continue;
            }
            let whole = sel[0] == (0..(hi - lo) as usize);
            // Decode each projected column's overlapping segments once.
            let ids = self
                .projection
                .iter()
                .map(|&ci| {
                    let ids = self.table.column(ci).try_ids_range(lo..hi)?;
                    Ok(match whole {
                        true => ids,
                        false => sel.iter().flat_map(|r| &ids[r.clone()]).copied().collect(),
                    })
                })
                .collect::<Result<_, StorageError>>()?;
            return Ok(Some(IdBatch {
                range: lo..hi,
                len: sel.iter().map(ExactSizeIterator::len).sum(),
                ids,
            }));
        }
        Ok(None)
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
        let rle = Arc::new(t.recoded(cods_storage::Encoding::Rle).unwrap());
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
