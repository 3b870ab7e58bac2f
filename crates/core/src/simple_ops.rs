//! The "relatively straightforward" SMOs of Table 1: CREATE / DROP / RENAME
//! / COPY TABLE, UNION TABLES, PARTITION TABLE, and the column-level
//! ADD / DROP / RENAME COLUMN — all executed at data level. Each function
//! checks its own inputs; a plan checks a script by running them on empty
//! copies of its tables (see [`crate::plan`]).
//!
//! Even these showcase the column store's advantage: COPY shares columns by
//! reference, ADD COLUMN with a default is one fill run per segment, and PARTITION evaluates its predicate once per *distinct
//! value* (over dictionaries) instead of once per row, then bitmap-filters.

use crate::error::{EvolutionError, Result};
use cods_bitmap::Wah;
use cods_query::pred::Predicate;
use cods_storage::{ColumnBuilder, ColumnDef, EncodedColumn, Schema, StepLog, Table, Value};
use std::sync::Arc;

/// CREATE TABLE: an empty table with the given schema.
pub fn create_table(name: &str, schema: Schema) -> Result<Table> {
    let columns = schema
        .columns()
        .iter()
        .map(|c| Ok(Arc::new(EncodedColumn::from_values(c.ty, &[])?)))
        .collect::<Result<Vec<_>>>()?;
    Table::new(name, schema, columns).map_err(EvolutionError::Storage)
}

/// UNION TABLES: concatenates two union-compatible tables. Unchanged value
/// payloads are reused segment-by-segment; only dictionaries are merged.
/// After the
/// concat, the threshold-triggered compaction pass re-chunks any column
/// whose directory a long UNION chain has fragmented into irregular tiny
/// segments (untouched segments stay shared by reference), and the same
/// threshold triggers the adaptive encoding chooser: a freshly rewritten
/// directory is the cheap moment to re-evaluate run statistics, so an
/// unpinned column whose data shape has drifted (e.g. clustered halves
/// unioned into runs) flips encoding here instead of waiting for a manual
/// `recode`.
pub fn union_tables(left: &Table, right: &Table, output_name: &str) -> Result<(Table, StepLog)> {
    let mut log = StepLog::new();
    if !left.schema().union_compatible(right.schema()) {
        return Err(EvolutionError::InvalidOperator(format!(
            "tables {:?} and {:?} are not union-compatible",
            left.name(),
            right.name()
        )));
    }
    log.mark("validate union compatibility");
    let columns: Vec<Arc<EncodedColumn>> = left
        .columns()
        .iter()
        .zip(right.columns())
        .map(|(a, b)| {
            let col = a.concat(b)?;
            // Threshold-triggered compaction; checked on the owned value so
            // the common healthy-directory path is clone-free. Compaction
            // just paid for a directory rewrite, so run the stats-driven
            // encoding chooser on the result too.
            let col = if col.needs_compaction() {
                col.compacted()?.auto_recoded()?
            } else {
                col
            };
            Ok(Arc::new(col))
        })
        .collect::<Result<_>>()?;
    log.mark_items("concatenate column payloads", columns.len() as u64);
    let schema = Schema::new(left.schema().columns().to_vec()).map_err(EvolutionError::Storage)?;
    let table = Table::new(output_name, schema, columns).map_err(EvolutionError::Storage)?;
    Ok((table, log))
}

/// Builds the row-selection mask of a predicate *at data level* (delegates
/// to [`cods_query::bitmap_scan::predicate_mask`]): comparisons are
/// evaluated once per distinct dictionary value, and the per-value bitmaps
/// of satisfying values are combined — never touching individual rows.
pub fn predicate_mask(table: &Table, pred: &Predicate) -> Result<Wah> {
    Ok(cods_query::bitmap_scan::predicate_mask(table, pred)?)
}

/// PARTITION TABLE: splits `input` into rows satisfying `pred` and the rest.
pub fn partition_table(
    input: &Table,
    pred: &Predicate,
    satisfying_name: &str,
    rest_name: &str,
) -> Result<(Table, Table, StepLog)> {
    let mut log = StepLog::new();
    let mask = predicate_mask(input, pred)?;
    log.mark_items("build predicate mask over dictionaries", mask.count_ones());
    let not_mask = mask.not();

    let schema = Schema::new(input.schema().columns().to_vec()).map_err(EvolutionError::Storage)?;
    // Fan the mask-driven filtering out per (column × segment) like
    // DECOMPOSE does, staying on the compressed form — no whole-column
    // position list is ever materialized.
    let col_refs: Vec<&EncodedColumn> = input.columns().iter().map(|c| c.as_ref()).collect();
    let sat_cols = crate::decompose::filter_columns_by_mask(&col_refs, &mask)?;
    let rest_cols = crate::decompose::filter_columns_by_mask(&col_refs, &not_mask)?;
    log.mark("bitmap filtering into partitions");

    let sat =
        Table::new(satisfying_name, schema.clone(), sat_cols).map_err(EvolutionError::Storage)?;
    let rest = Table::new(rest_name, schema, rest_cols).map_err(EvolutionError::Storage)?;
    Ok((sat, rest, log))
}

/// ADD COLUMN: appends a column holding `default` in every row — one
/// dictionary entry and one fill run per segment, never a pass over the
/// rows. Existing columns are shared by reference; the schema, as after
/// DROP COLUMN, declares no key.
pub fn add_column(table: &Table, def: ColumnDef, default: &Value) -> Result<(Table, StepLog)> {
    let mut log = StepLog::new();
    if table.schema().contains(&def.name) {
        return Err(EvolutionError::InvalidOperator(format!(
            "column {:?} already exists",
            def.name
        )));
    }
    if !default.conforms_to(def.ty) {
        return Err(EvolutionError::InvalidOperator(format!(
            "default value {default} does not conform to type {}",
            def.ty
        )));
    }
    let mut b = ColumnBuilder::new(def.ty);
    b.push_run(default.clone(), table.rows())?;
    log.mark("build new column");

    let mut defs = table.schema().columns().to_vec();
    defs.push(def);
    let mut columns = table.columns().to_vec();
    columns.push(Arc::new(b.finish()));
    let out = Table::new(table.name(), Schema::new(defs)?, columns)?;
    log.mark("attach column");
    Ok((out, log))
}

/// DROP COLUMN: removes a column, never the last; all other columns are
/// shared, and the schema declares no key.
pub fn drop_column(table: &Table, column: &str) -> Result<(Table, StepLog)> {
    let mut log = StepLog::new();
    let idx = table.schema().index_of(column)?;
    if table.arity() == 1 {
        return Err(EvolutionError::InvalidOperator(
            "cannot drop the last column".into(),
        ));
    }
    let mut defs = table.schema().columns().to_vec();
    defs.remove(idx);
    let mut columns = table.columns().to_vec();
    columns.remove(idx);
    let out = Table::new(table.name(), Schema::new(defs)?, columns)?;
    log.mark("detach column");
    Ok((out, log))
}

/// RENAME COLUMN: pure metadata; the key declaration is kept.
pub fn rename_column(table: &Table, from: &str, to: &str) -> Result<(Table, StepLog)> {
    let mut log = StepLog::new();
    let s = table.schema();
    let idx = s.index_of(from)?;
    if s.contains(to) {
        return Err(EvolutionError::InvalidOperator(format!(
            "column {to:?} already exists"
        )));
    }
    let mut defs = s.columns().to_vec();
    defs[idx] = ColumnDef::new(to, defs[idx].ty);
    let schema = Schema::with_key(defs, s.key().to_vec())?;
    let out = Table::new(table.name(), schema, table.columns().to_vec())?;
    log.mark("rename column metadata");
    Ok((out, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{RecodeScope, RecodeTarget, ValueType};

    fn sample() -> Table {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("grade", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::int(i), Value::int(i % 3)])
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    #[test]
    fn create_empty_table() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let t = create_table("t", schema).unwrap();
        assert_eq!(t.rows(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn union_concatenates() {
        let a = sample();
        let b = sample();
        let (u, _) = union_tables(&a, &b, "u").unwrap();
        u.check_invariants().unwrap();
        assert_eq!(u.rows(), 20);
        assert_eq!(u.row(10), a.row(0));
    }

    #[test]
    fn union_compaction_threshold_triggers_encoding_chooser() {
        use cods_storage::Encoding;
        // Clustered base sliced into tiny pieces, then union-chained: the
        // chain fragments the directory past the compaction threshold, and
        // the rewrite re-evaluates the encoding — clustered data flips the
        // unpinned bitmap column to RLE.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..2_000).map(|i| vec![Value::int(i / 200)]).collect();
        let base = Table::from_rows_with_segment_rows("b", schema.clone(), &rows, 200).unwrap();
        let chain = |base: &Table| {
            let mut acc = {
                let cols = base
                    .columns()
                    .iter()
                    .map(|c| Arc::new(c.slice(0, 20).unwrap()))
                    .collect();
                Table::new("u", schema.clone(), cols).unwrap()
            };
            for i in 1..100 {
                let lo = (i * 20) % 1_980;
                let cols = base
                    .columns()
                    .iter()
                    .map(|c| Arc::new(c.slice(lo, lo + 20).unwrap()))
                    .collect();
                let piece = Table::new("p", schema.clone(), cols).unwrap();
                acc = union_tables(&acc, &piece, "u").unwrap().0;
            }
            acc
        };
        let out = chain(&base);
        out.check_invariants().unwrap();
        assert_eq!(out.rows(), 2_000);
        let col = out.column(0);
        let counts = col.encoding_counts();
        let (bitmap_segs, rle_segs) = (counts[Encoding::Bitmap], counts[Encoding::Rle]);
        // The chain's compaction passes flipped the clustered bulk to RLE;
        // slices appended after the last threshold crossing may still sit
        // in bitmap segments — a mixed directory is the expected steady
        // state now that concat preserves both sides' segment encodings.
        assert!(
            rle_segs > bitmap_segs,
            "threshold-triggered chooser flips compacted clustered segments to RLE \
             (got {bitmap_segs}\u{d7}bitmap / {rle_segs}\u{d7}rle)"
        );
        // An explicit chooser pass converges the trailing fragments too.
        let full = col.auto_recoded().unwrap();
        assert!(full.is_uniform(Encoding::Rle));
        // A pinned column opts out even across the same chain.
        let pinned = base
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
            })
            .unwrap();
        let out = chain(&pinned);
        assert!(out.column(0).is_uniform(Encoding::Bitmap));
        assert!(out.column(0).encoding_pinned(), "pin survives the chain");
    }

    #[test]
    fn union_rejects_incompatible() {
        let a = sample();
        let schema = Schema::build(&[("x", ValueType::Int)], &[]).unwrap();
        let b = Table::from_rows("b", schema, &[vec![Value::int(1)]]).unwrap();
        assert!(union_tables(&a, &b, "u").is_err());
    }

    #[test]
    fn predicate_mask_is_data_level() {
        let t = sample();
        let mask = predicate_mask(&t, &Predicate::eq("grade", 0i64)).unwrap();
        assert_eq!(mask.len(), 10);
        assert_eq!(mask.count_ones(), 4); // grades 0 at ids 0,3,6,9
        assert!(mask.get(0));
        assert!(mask.get(3));
        assert!(!mask.get(1));
        // Combined predicates.
        let m2 = predicate_mask(
            &t,
            &Predicate::eq("grade", 0i64).or(Predicate::eq("grade", 1i64)),
        )
        .unwrap();
        assert_eq!(m2.count_ones(), 7);
        let m3 = predicate_mask(&t, &Predicate::eq("grade", 0i64).not()).unwrap();
        assert_eq!(m3.count_ones(), 6);
        assert_eq!(
            predicate_mask(&t, &Predicate::True).unwrap().count_ones(),
            10
        );
    }

    #[test]
    fn partition_splits_and_preserves() {
        let t = sample();
        let (sat, rest, status) =
            partition_table(&t, &Predicate::lt("id", 4i64), "lo", "hi").unwrap();
        sat.check_invariants().unwrap();
        rest.check_invariants().unwrap();
        assert_eq!(sat.rows(), 4);
        assert_eq!(rest.rows(), 6);
        assert!(status.step("bitmap filtering into partitions").is_some());
        // Partition + union = original multiset.
        let (back, _) = union_tables(&sat, &rest, "back").unwrap();
        assert_eq!(back.tuple_multiset(), t.tuple_multiset());
    }

    #[test]
    fn add_column_default_is_o1() {
        let t = sample();
        let (out, _) = add_column(
            &t,
            ColumnDef::new("dept", ValueType::Str),
            &Value::str("eng"),
        )
        .unwrap();
        out.check_invariants().unwrap();
        assert_eq!(out.arity(), 3);
        assert_eq!(out.row(5)[2], Value::str("eng"));
        // A single fill word regardless of row count.
        assert!(out.column(2).value_bitmap(0).words().len() <= 2);
        // Other columns shared with the input.
        assert!(t.shares_column_with(&out, "id"));
    }

    #[test]
    fn add_column_errors() {
        let t = sample();
        // Duplicate name.
        assert!(add_column(&t, ColumnDef::new("id", ValueType::Int), &Value::int(0)).is_err());
        // Type mismatch in default.
        assert!(add_column(
            &t,
            ColumnDef::new("oops", ValueType::Int),
            &Value::str("nope")
        )
        .is_err());
    }

    #[test]
    fn drop_and_rename_column() {
        let t = sample();
        let (dropped, _) = drop_column(&t, "grade").unwrap();
        assert_eq!(dropped.arity(), 1);
        assert!(t.shares_column_with(&dropped, "id"));
        assert!(drop_column(&dropped, "id").is_err()); // last column

        let (renamed, _) = rename_column(&t, "grade", "level").unwrap();
        assert!(renamed.schema().contains("level"));
        assert!(!renamed.schema().contains("grade"));
        assert!(t.shares_column_with(&renamed, "id"));
        assert!(rename_column(&t, "grade", "id").is_err()); // collision
        assert!(rename_column(&t, "zzz", "w").is_err()); // missing
    }
}
