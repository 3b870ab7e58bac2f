//! Data-level selection: evaluate a predicate *on the compressed
//! representation* — once per distinct dictionary value, never per row —
//! producing a row-selection [`Wah`] mask. Every read ([`Query`]'s count,
//! scan, group-by and join filters) and PARTITION TABLE build their masks
//! here.
//!
//! Evaluation is **range-major**. The predicate is compiled once against
//! the table — column names resolved, each comparison's satisfying value
//! set resolved to a contiguous *rank interval* in the dictionary's value
//! order ([`CmpOp::sat_rank_interval`]: two binary searches; only
//! `Ne <non-null>` falls back to a per-value boolean table), and a
//! same-column conjunction of two intervals fused into one (BETWEEN). The
//! table is then walked in *row ranges* — the boundaries common to every
//! predicate column's segment directory, i.e. segment by segment whenever
//! the directories agree — and the whole tree is evaluated bottom-up on
//! one range before the next is touched. A segment's payload is faulted at
//! most once per query however many leaves read it, and is held only while
//! its range is evaluated.
//!
//! Each leaf decides a segment by the cheapest of four tiers:
//!
//! 1. **Zone.** A segment whose zone map's rank span misses the satisfying
//!    interval is a zero fill in O(1) — neither stats nor payload touched.
//! 2. **Present ids, none satisfy.** The resident per-id stats show no
//!    satisfying value in the range: zero fill, payload untouched.
//! 3. **Present ids, all satisfy.** Every row of the range carries a
//!    satisfying value: one fill, payload untouched.
//! 4. **Mask build.** Only now is the payload faulted in and the mask
//!    built on the segment's native encoding.
//!
//! A child that comes out as a constant fill short-circuits its `AND` /
//! `OR`: the other side is not evaluated, so its payload is never faulted.
//!
//! Pruning never changes results: tiers 1–3 emit exactly the fill tier 4
//! would have built, so [`predicate_mask`] and [`predicate_mask_unpruned`]
//! (the same evaluator with tier 1 off) are bit-identical (locked by the
//! differential proptest `tests/proptest_scan_pruning.rs`).
//!
//! [`Query`]: crate::Query

use crate::pred::{CmpOp, CompiledPredicate, Predicate};
use cods_bitmap::Wah;
use cods_storage::{EncodedColumn, SegmentEnc, StorageError, Table, Value, Zone};
use std::ops::Range;

/// The satisfying value set of one comparison, in whichever form the
/// operator admits: a rank interval in value order (everything except
/// `Ne`), or a per-id boolean table.
pub(crate) enum SatSet<'a> {
    /// Ids whose value-order rank lies in `[lo, hi)` satisfy.
    Interval {
        /// `ranks[id]` = value-order rank (borrowed from the dictionary's
        /// cached [`cods_storage::ValueOrder`]).
        ranks: &'a [u32],
        /// Inclusive lower rank bound.
        lo: u32,
        /// Exclusive upper rank bound.
        hi: u32,
    },
    /// Per-id satisfaction, indexed by value id.
    Bools(Vec<bool>),
}

impl SatSet<'_> {
    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        match self {
            SatSet::Interval { ranks, lo, hi } => {
                let r = ranks[id as usize];
                *lo <= r && r < *hi
            }
            SatSet::Bools(sat) => sat[id as usize],
        }
    }

    /// Zone test: `false` only when *no* value inside the zone's
    /// `[min, max]` value interval can satisfy — sound because the
    /// satisfying set is a rank interval and every present id's rank lies
    /// within the zone's span. The boolean fallback never zone-prunes.
    #[inline]
    pub(crate) fn zone_may_match(&self, zone: Zone) -> bool {
        match self {
            SatSet::Interval { ranks, lo, hi } => {
                let zone_lo = ranks[zone.min_id as usize];
                let zone_hi = ranks[zone.max_id as usize];
                zone_hi >= *lo && zone_lo < *hi
            }
            SatSet::Bools(_) => true,
        }
    }
}

/// Builds the selection mask of `pred` over `table` at data level (see the
/// module docs for the range-major walk and the four pruning tiers).
pub fn predicate_mask(table: &Table, pred: &Predicate) -> Result<Wah, StorageError> {
    eval_mask(table, pred, true)
}

/// [`predicate_mask`] with zone pruning disabled: every segment's
/// present-id stats are consulted even when its zone already rules it out.
/// Exists for the differential test harness — the two functions are
/// bit-identical by construction.
pub fn predicate_mask_unpruned(table: &Table, pred: &Predicate) -> Result<Wah, StorageError> {
    eval_mask(table, pred, false)
}

/// A predicate compiled against one table. Leaves name their column by
/// position in the evaluator's column list.
enum Node<'a> {
    Leaf { col: usize, sat: SatSet<'a> },
    And(Box<Node<'a>>, Box<Node<'a>>),
    Or(Box<Node<'a>>, Box<Node<'a>>),
    Not(Box<Node<'a>>),
    True,
}

/// The value of a subtree over one row range: a constant, or a mask as
/// long as the range. Constants are what `AND`/`OR` short-circuit on.
enum RangeMask {
    Fill(bool),
    Mask(Wah),
}

impl RangeMask {
    /// Normalizes an all-zero or all-one mask to its constant.
    fn of(mask: Wah) -> RangeMask {
        if !mask.any() {
            RangeMask::Fill(false)
        } else if mask.count_ones() == mask.len() {
            RangeMask::Fill(true)
        } else {
            RangeMask::Mask(mask)
        }
    }
}

/// One predicate column during the walk: the segments of the current row
/// range and the payloads faulted for it so far.
struct ColRange<'a> {
    col: &'a EncodedColumn,
    /// Directory entries covering the current range.
    segs: Range<usize>,
    /// Row at which `segs` ends.
    end: u64,
    /// Payloads of `segs` (parallel to it), faulted on first use by any
    /// leaf and dropped when the walk moves on — so a segment costs one
    /// fault per query and at most one range's payloads are held.
    held: Vec<Option<SegmentEnc>>,
}

impl ColRange<'_> {
    /// Extends the range by one directory entry.
    fn take_segment(&mut self) {
        self.end += self.col.segments()[self.segs.end].rows();
        self.segs.end += 1;
        self.held.push(None);
    }

    /// Starts the next range at the current end.
    fn start_next(&mut self) {
        self.segs.start = self.segs.end;
        self.held.clear();
    }

    /// The payload of directory entry `seg` (inside the current range);
    /// a clone shares the decoded segment.
    fn payload(&mut self, seg: usize) -> Result<SegmentEnc, StorageError> {
        let held = &mut self.held[seg - self.segs.start];
        if let Some(enc) = held {
            return Ok(enc.clone());
        }
        let enc = self.col.segments()[seg].try_enc()?;
        *held = Some(enc.clone());
        Ok(enc)
    }
}

fn eval_mask(table: &Table, pred: &Predicate, zones: bool) -> Result<Wah, StorageError> {
    let mut cols: Vec<ColRange<'_>> = Vec::new();
    let root = compile(table, pred, &mut cols)?;
    let mut mask = Wah::new();
    if let Node::Leaf { col, sat } = &root {
        // A lone comparison (or BETWEEN) has nothing to combine: append
        // each segment's mask straight into the output.
        let col = cols[*col].col;
        for (seg, slot) in col.segments().iter().enumerate() {
            append_segment_mask(&mut mask, col, seg, sat, zones, || slot.try_enc())?;
        }
        return Ok(mask);
    }
    let rows = table.rows();
    let mut start = 0u64;
    while start < rows {
        // The next boundary common to every predicate column: each takes
        // one segment, then laggards catch up until all ends agree (the
        // table's last row at the latest). Directories that agree — any
        // loaded or saved table — give one segment per column per range.
        let mut end = if cols.is_empty() { rows } else { start };
        for c in &mut cols {
            c.start_next();
            c.take_segment();
            end = end.max(c.end);
        }
        while let Some(c) = cols.iter_mut().find(|c| c.end < end) {
            c.take_segment();
            end = end.max(c.end);
        }
        match eval_range(&root, &mut cols, zones)? {
            RangeMask::Fill(bit) => mask.append_run(bit, end - start),
            RangeMask::Mask(m) => mask.append_bitmap(&m),
        }
        start = end;
    }
    Ok(mask)
}

/// Resolves `pred` against `table`: names to columns (registered in `cols`
/// on first mention), comparisons to satisfying sets.
fn compile<'a>(
    table: &'a Table,
    pred: &Predicate,
    cols: &mut Vec<ColRange<'a>>,
) -> Result<Node<'a>, StorageError> {
    let mut leaf = |col: &'a EncodedColumn, sat| {
        let known = cols.iter().position(|c| std::ptr::eq(c.col, col));
        let col = known.unwrap_or_else(|| {
            cols.push(ColRange {
                col,
                segs: 0..0,
                end: 0,
                held: Vec::new(),
            });
            cols.len() - 1
        });
        Node::Leaf { col, sat }
    };
    Ok(match pred {
        Predicate::Compare {
            column,
            op,
            literal,
        } => {
            let col = table.column_by_name(column)?;
            leaf(col, sat_set(col, *op, literal))
        }
        Predicate::And(a, b) => match fused_range(table, a, b)? {
            Some((col, sat)) => leaf(col, sat),
            None => Node::And(
                Box::new(compile(table, a, cols)?),
                Box::new(compile(table, b, cols)?),
            ),
        },
        Predicate::Or(a, b) => Node::Or(
            Box::new(compile(table, a, cols)?),
            Box::new(compile(table, b, cols)?),
        ),
        Predicate::Not(p) => Node::Not(Box::new(compile(table, p, cols)?)),
        Predicate::True => Node::True,
    })
}

/// BETWEEN fusion: a conjunction of two interval-admitting comparisons on
/// the *same column* (`k >= a AND k < b` and friends) is one rank interval
/// — the intersection — so it is one leaf instead of two half-range masks
/// that each touch most of the table. Each row holds exactly one value, so
/// satisfying both comparisons is exactly having its rank in both
/// intervals; the fused mask is bit-identical to the composed one. This is
/// what makes zone maps decisive for range scans: only the segments
/// overlapping `[a, b)` are ever visited.
fn fused_range<'a>(
    table: &'a Table,
    a: &Predicate,
    b: &Predicate,
) -> Result<Option<(&'a EncodedColumn, SatSet<'a>)>, StorageError> {
    let (
        Predicate::Compare {
            column: col_a,
            op: op_a,
            literal: lit_a,
        },
        Predicate::Compare {
            column: col_b,
            op: op_b,
            literal: lit_b,
        },
    ) = (a, b)
    else {
        return Ok(None);
    };
    if col_a != col_b {
        return Ok(None);
    }
    let col = table.column_by_name(col_a)?;
    let dict = col.dict();
    let (Some((lo_a, hi_a)), Some((lo_b, hi_b))) = (
        op_a.sat_rank_interval(dict, lit_a),
        op_b.sat_rank_interval(dict, lit_b),
    ) else {
        return Ok(None);
    };
    let sat = SatSet::Interval {
        ranks: dict.value_order().ranks(),
        lo: lo_a.max(lo_b),
        hi: hi_a.min(hi_b),
    };
    Ok(Some((col, sat)))
}

/// Resolves one comparison's satisfying set against a column's dictionary:
/// rank interval when the operator admits one, per-value booleans otherwise.
pub(crate) fn sat_set<'a>(col: &'a EncodedColumn, op: CmpOp, literal: &Value) -> SatSet<'a> {
    let dict = col.dict();
    match op.sat_rank_interval(dict, literal) {
        Some((lo, hi)) => SatSet::Interval {
            ranks: dict.value_order().ranks(),
            lo,
            hi,
        },
        None => {
            let probe = CompiledPredicate::Compare {
                column: 0,
                op,
                literal: literal.clone(),
            };
            SatSet::Bools(dict.iter().map(|(_, v)| probe.eval_value(v)).collect())
        }
    }
}

/// Evaluates a subtree over the current row range, bottom-up. A constant
/// child that decides its `AND`/`OR` (zero for `AND`, one for `OR`) ends
/// the evaluation there: the other child is not visited, so no payload of
/// its columns is faulted for this range.
fn eval_range(
    node: &Node<'_>,
    cols: &mut [ColRange<'_>],
    zones: bool,
) -> Result<RangeMask, StorageError> {
    let (a, b, deciding, op): (_, _, _, fn(&Wah, &Wah) -> Wah) = match node {
        Node::True => return Ok(RangeMask::Fill(true)),
        Node::Leaf { col, sat } => {
            let c = &mut cols[*col];
            let column = c.col;
            let mut mask = Wah::new();
            for seg in c.segs.clone() {
                append_segment_mask(&mut mask, column, seg, sat, zones, || c.payload(seg))?;
            }
            return Ok(RangeMask::of(mask));
        }
        Node::Not(p) => {
            return Ok(match eval_range(p, cols, zones)? {
                RangeMask::Fill(bit) => RangeMask::Fill(!bit),
                RangeMask::Mask(m) => RangeMask::Mask(m.not()),
            })
        }
        Node::And(a, b) => (a, b, false, Wah::and),
        Node::Or(a, b) => (a, b, true, Wah::or),
    };
    let left = match eval_range(a, cols, zones)? {
        RangeMask::Fill(bit) if bit == deciding => return Ok(RangeMask::Fill(bit)),
        RangeMask::Fill(_) => return eval_range(b, cols, zones),
        RangeMask::Mask(m) => m,
    };
    Ok(match eval_range(b, cols, zones)? {
        RangeMask::Fill(bit) if bit == deciding => RangeMask::Fill(bit),
        RangeMask::Fill(_) => RangeMask::Mask(left),
        RangeMask::Mask(right) => RangeMask::of(op(&left, &right)),
    })
}

/// Appends the selection mask of the satisfying value set over one segment
/// of `col` to `mask`, by the cheapest tier that decides it (module docs);
/// the mask build dispatches on the segment's own encoding — a mixed
/// directory's bitmap and RLE segments each take their native path, and
/// the resulting mask is byte-identical whatever the mix.
///
/// Tiers 1–3 run on the slot's *resident metadata* (zone, present ids,
/// cached ones): `payload` is called — and a lazily opened segment faulted
/// in — only for a segment some but not all of whose rows satisfy.
fn append_segment_mask(
    mask: &mut Wah,
    col: &EncodedColumn,
    seg: usize,
    sat: &SatSet<'_>,
    zones: bool,
    payload: impl FnOnce() -> Result<SegmentEnc, StorageError>,
) -> Result<(), StorageError> {
    let slot = &col.segments()[seg];
    if zones && !sat.zone_may_match(col.zone(seg)) {
        // Zone-pruned: neither stats nor payload touched.
        mask.append_run(false, slot.rows());
        return Ok(());
    }
    // Present-id tiers, still metadata-only: stats show how many
    // satisfying values live in this row range, and on how many rows.
    let mut sat_rows = 0u64;
    let mut sat_ids = 0usize;
    for (&id, &ones) in slot.present_ids().iter().zip(slot.ones().iter()) {
        if sat.contains(id) {
            sat_ids += 1;
            sat_rows += ones;
        }
    }
    if sat_ids == 0 || sat_rows == slot.rows() {
        // No row of the range satisfies, or (each row carrying exactly one
        // present id) every row does: a fill, payload untouched.
        mask.append_run(sat_ids != 0, slot.rows());
        return Ok(());
    }
    // Survivor: fault the payload in (through the buffer cache) and build
    // this range's mask on its native encoding.
    match &payload()? {
        SegmentEnc::Bitmap(seg) => {
            let mut satisfying: Vec<&Wah> = Vec::with_capacity(sat_ids);
            for (&id, bm) in seg.present_ids().iter().zip(seg.bitmaps()) {
                if sat.contains(id) {
                    satisfying.push(bm);
                }
            }
            if satisfying.len() <= 64 {
                mask.append_bitmap(&Wah::union_many(satisfying, seg.rows()));
            } else if sat_rows * 8 <= seg.rows() {
                // Many values but few rows (the cached ones say so up
                // front): merge the set positions — O(selected · log)
                // instead of paging a dense bit-vector over the whole
                // segment. This is the hot shape of a range scan over a
                // wide dictionary.
                let mut positions: Vec<u64> = Vec::with_capacity(sat_rows as usize);
                for bm in &satisfying {
                    positions.extend(bm.iter_ones());
                }
                positions.sort_unstable();
                mask.append_bitmap(&Wah::from_sorted_positions(positions, seg.rows()));
            } else {
                // Many satisfying values and dense selection: one pass
                // over the segment's set bits instead of a wide union.
                let mut bits = vec![false; seg.rows() as usize];
                for bm in satisfying {
                    for pos in bm.iter_ones() {
                        bits[pos as usize] = true;
                    }
                }
                for b in bits {
                    mask.push(b);
                }
            }
        }
        SegmentEnc::Rle(seg) => {
            for &(id, n) in seg.seq().runs() {
                mask.append_run(sat.contains(id), n);
            }
        }
    }
    Ok(())
}

/// Data-level table filter: bitmap-filters every column by the predicate
/// mask, returning the selected rows as a new (compressed) table in each
/// column's own encoding. The mask stays in compressed form end to end
/// (per-segment splits inside
/// [`cods_storage::EncodedColumn::filter_bitmap`]).
pub fn filter_table(table: &Table, pred: &Predicate) -> Result<Table, StorageError> {
    let mask = predicate_mask(table, pred)?;
    let columns: Vec<std::sync::Arc<EncodedColumn>> = table
        .columns()
        .iter()
        .map(|c| std::sync::Arc::new(c.filter_bitmap(&mask)))
        .collect();
    let schema = cods_storage::Schema::new(table.schema().columns().to_vec())?;
    Table::new(table.name(), schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn table() -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::int(i % 10), Value::str(format!("s{}", i % 3))])
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    #[test]
    fn mask_counts_match_row_filtering() {
        let t = table();
        let pred = Predicate::lt("k", 3i64);
        let mask = predicate_mask(&t, &pred).unwrap();
        let naive = t
            .to_rows()
            .iter()
            .filter(|r| matches!(&r[0], Value::Int(i) if *i < 3))
            .count() as u64;
        assert_eq!(mask.count_ones(), naive);
        for (row, tuple) in t.to_rows().iter().enumerate() {
            let expect = matches!(&tuple[0], Value::Int(i) if *i < 3);
            assert_eq!(mask.get(row as u64), expect, "row {row}");
        }
    }

    #[test]
    fn combinators_compose() {
        let t = table();
        let a = predicate_mask(&t, &Predicate::lt("k", 3i64)).unwrap();
        let b = predicate_mask(&t, &Predicate::eq("v", "s0")).unwrap();
        let and =
            predicate_mask(&t, &Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0"))).unwrap();
        assert_eq!(and, a.and(&b));
        let not = predicate_mask(&t, &Predicate::lt("k", 3i64).not()).unwrap();
        assert_eq!(not, a.not());
    }

    #[test]
    fn many_satisfying_values_path() {
        // Predicate satisfied by > 64 distinct values exercises the id path.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1000).map(|i| vec![Value::int(i % 200)]).collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let mask = predicate_mask(&t, &Predicate::lt("k", 150i64)).unwrap();
        assert_eq!(mask.count_ones(), 750);
    }

    #[test]
    fn filter_table_returns_selected_rows() {
        let t = table();
        let filtered = filter_table(&t, &Predicate::eq("v", "s1")).unwrap();
        filtered.check_invariants().unwrap();
        assert_eq!(filtered.rows(), 33);
        for row in filtered.to_rows() {
            assert_eq!(row[1], Value::str("s1"));
        }
    }

    #[test]
    fn rle_masks_match_bitmap_masks() {
        let t = table();
        let rle = t.recoded(cods_storage::Encoding::Rle).unwrap();
        for pred in [
            Predicate::lt("k", 3i64),
            Predicate::eq("v", "s0"),
            Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0")),
            Predicate::eq("k", 99i64), // nothing satisfies
            Predicate::True,
        ] {
            assert_eq!(
                predicate_mask(&t, &pred).unwrap(),
                predicate_mask(&rle, &pred).unwrap(),
                "masks diverge for {pred:?}"
            );
        }
    }

    #[test]
    fn rle_filter_preserves_encoding() {
        let t = table().recoded(cods_storage::Encoding::Rle).unwrap();
        let filtered = filter_table(&t, &Predicate::eq("v", "s1")).unwrap();
        filtered.check_invariants().unwrap();
        assert_eq!(filtered.rows(), 33);
        assert!(filtered
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Rle)));
    }

    #[test]
    fn pruned_and_unpruned_masks_are_bit_identical() {
        // Clustered + uniform, bitmap + RLE, every operator, literals in
        // and out of range, NULL literals, and boolean combinations.
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..2_000)
            .map(|i| {
                vec![
                    Value::int(i / 50), // clustered
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::int((i * 37) % 97) // scattered, with NULLs
                    },
                ]
            })
            .collect();
        let bitmap =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 128).unwrap();
        let rle = bitmap.recoded(cods_storage::Encoding::Rle).unwrap();
        let preds = [
            Predicate::lt("k", 7i64),
            Predicate::ge("k", 33i64),
            Predicate::eq("k", 17i64),
            Predicate::eq("k", 999i64), // matches nothing
            Predicate::lt("k", -5i64),  // below every value
            Predicate::ge("k", 0i64),   // matches everything
            Predicate::lt("v", 40i64),
            Predicate::eq("v", 0i64).not(),
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Ne,
                literal: Value::int(3),
            },
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Eq,
                literal: Value::Null,
            },
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Le,
                literal: Value::Null,
            },
            Predicate::ge("k", 10i64).and(Predicate::lt("k", 12i64)),
            Predicate::lt("k", 3i64).or(Predicate::ge("v", 90i64)),
            Predicate::True,
        ];
        for t in [&bitmap, &rle] {
            for pred in &preds {
                let pruned = predicate_mask(t, pred).unwrap();
                let unpruned = predicate_mask_unpruned(t, pred).unwrap();
                assert_eq!(pruned, unpruned, "masks diverge for {pred:?}");
                // Cross-check against row-level evaluation.
                let compiled = pred.compile(t.schema()).unwrap();
                for (row, tuple) in t.to_rows().iter().enumerate() {
                    assert_eq!(
                        pruned.get(row as u64),
                        compiled.eval(tuple),
                        "row {row} for {pred:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn between_fusion_is_bit_identical_to_composed_masks() {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..3_000)
            .map(|i| vec![Value::int(i / 30), Value::int((i * 41) % 50)])
            .collect();
        let bitmap =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 256).unwrap();
        let rle = bitmap.recoded(cods_storage::Encoding::Rle).unwrap();
        for t in [&bitmap, &rle] {
            for (lo, hi) in [(10i64, 20i64), (0, 1), (95, 200), (-5, 3), (40, 30)] {
                let between = Predicate::ge("k", lo).and(Predicate::lt("k", hi));
                let fused = predicate_mask(t, &between).unwrap();
                let composed = predicate_mask(t, &Predicate::ge("k", lo))
                    .unwrap()
                    .and(&predicate_mask(t, &Predicate::lt("k", hi)).unwrap());
                assert_eq!(fused, composed, "between [{lo}, {hi})");
                assert_eq!(fused, predicate_mask_unpruned(t, &between).unwrap());
            }
            // Mixed-column And and Ne sides fall back to composition.
            let mixed = Predicate::ge("k", 5i64).and(Predicate::lt("v", 25i64));
            let m = predicate_mask(t, &mixed).unwrap();
            assert_eq!(m, predicate_mask_unpruned(t, &mixed).unwrap());
            let ne_side = Predicate::ge("k", 5i64).and(Predicate::Compare {
                column: "k".into(),
                op: CmpOp::Ne,
                literal: Value::int(7),
            });
            let m = predicate_mask(t, &ne_side).unwrap();
            assert_eq!(m, predicate_mask_unpruned(t, &ne_side).unwrap());
            let compiled = ne_side.compile(t.schema()).unwrap();
            for (row, tuple) in t.to_rows().iter().enumerate() {
                assert_eq!(m.get(row as u64), compiled.eval(tuple), "row {row}");
            }
        }
    }

    #[test]
    fn zone_pruning_skips_range_mismatched_segments() {
        // k is clustered: segment s covers values [4s, 4(s+1)). A narrow
        // range predicate must produce the same mask whether or not zones
        // are consulted, and the zones must actually exclude the segment.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 25)]).collect();
        let t = cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        let col = t.column(0);
        // Segment 0 holds values 0..4; its zone cannot match k >= 20.
        let (lo, hi) = CmpOp::Ge
            .sat_rank_interval(col.dict(), &Value::int(20))
            .unwrap();
        let sat = SatSet::Interval {
            ranks: col.dict().value_order().ranks(),
            lo,
            hi,
        };
        assert!(!sat.zone_may_match(col.zone(0)));
        assert!(sat.zone_may_match(col.zone(col.segment_count() - 1)));
        let pred = Predicate::ge("k", 20i64);
        assert_eq!(
            predicate_mask(&t, &pred).unwrap(),
            predicate_mask_unpruned(&t, &pred).unwrap()
        );
        assert_eq!(predicate_mask(&t, &pred).unwrap().count_ones(), 500);
    }

    #[test]
    fn rle_segment_pruning_skips_absent_ranges() {
        // Value 0 lives only in the first quarter of the rows: the mask for
        // k = 0 over the clustered RLE column must come from pruned fills
        // plus one run walk, and still match the bitmap answer.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 250)]).collect();
        let t = cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        let rle = t.recoded(cods_storage::Encoding::Rle).unwrap();
        let pred = Predicate::eq("k", 0i64);
        let mask = predicate_mask(&rle, &pred).unwrap();
        assert_eq!(mask, predicate_mask(&t, &pred).unwrap());
        assert_eq!(mask.count_ones(), 250);
        assert_eq!(mask.iter_ones().max(), Some(249));
    }
}
