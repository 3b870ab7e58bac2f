//! **Query-level data evolution** — the baselines CODS is measured against
//! (the right-hand path of Figure 2 in the paper).
//!
//! Evolving data at query level means executing the evolution as SQL:
//!
//! ```sql
//! INSERT INTO S SELECT employee, skill FROM R;
//! INSERT INTO T SELECT DISTINCT employee, address FROM R;
//! ```
//!
//! On a row store that is a full scan + tuple decode, hash DISTINCT, and
//! row-at-a-time re-insert (plus index maintenance for "C+I", plus rollback
//! journaling for the SQLite-like "S"). On a column store it additionally
//! requires *decompressing* every column into tuples and *re-compressing*
//! the results into fresh bitmaps. Both drivers below pay those costs
//! faithfully; `cods::decompose` / `cods::merge` are the data-level
//! alternative that avoids them.

use crate::tuple;
use cods_rowstore::RowDb;
use cods_storage::{Catalog, Schema, StepLog, StorageError, Table, Value};

/// Work report for one evolution execution: tuple counts plus the step log.
#[derive(Clone, Debug, Default)]
pub struct EvolutionReport {
    /// Tuples read (materialized) from the inputs.
    pub tuples_read: u64,
    /// Tuples written into the outputs.
    pub tuples_written: u64,
    /// Named step timings, in execution order.
    pub log: StepLog,
}

fn positions(schema: &Schema, names: &[&str]) -> Result<Vec<usize>, StorageError> {
    names.iter().map(|n| schema.index_of(n)).collect()
}

// ---------------------------------------------------------------------
// Row-store drivers (baselines C, C+I, S — policy picked by the RowDb)
// ---------------------------------------------------------------------

/// Decomposes `input` into `left` (inserted verbatim) and `right` (inserted
/// with DISTINCT) on a row store, exactly as the two SQL statements of
/// Section 1. When `with_indexes` is set, B-tree indexes on the common
/// (join) columns are declared on both outputs before loading, so every
/// insert pays index maintenance — the "C+I" configuration.
#[allow(clippy::too_many_arguments)]
pub fn decompose_row_level(
    db: &mut RowDb,
    input: &str,
    left_name: &str,
    left_cols: &[&str],
    right_name: &str,
    right_cols: &[&str],
    common_cols: &[&str],
    with_indexes: bool,
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();

    // Full scan, decoding every tuple.
    let input_schema = db.table(input)?.schema().clone();
    let rows: Vec<Vec<Value>> = db.table(input)?.scan().map(|(_, r)| r).collect();
    report.tuples_read = rows.len() as u64;
    report.log.mark("scan input");

    // CREATE TABLE left / right (+ indexes for C+I).
    let left_schema = input_schema.project(left_cols, &[])?;
    let right_schema = input_schema.project(right_cols, common_cols)?;
    db.create_table(left_name, left_schema)?;
    db.create_table(right_name, right_schema)?;
    if with_indexes {
        let li = positions(db.table(left_name)?.schema(), common_cols)?;
        db.table_mut(left_name)?.create_index(li)?;
        let ri = positions(db.table(right_name)?.schema(), common_cols)?;
        db.table_mut(right_name)?.create_index(ri)?;
    }
    report.log.mark("create output tables");

    // INSERT INTO left SELECT cols FROM input.
    let lpos = positions(&input_schema, left_cols)?;
    let left_rows = tuple::project(&rows, &lpos);
    report.tuples_written += left_rows.len() as u64;
    db.insert_many(left_name, left_rows.iter().map(|r| r.as_slice()))?;
    report.log.mark("insert left (verbatim)");

    // INSERT INTO right SELECT DISTINCT cols FROM input.
    let rpos = positions(&input_schema, right_cols)?;
    let right_rows = tuple::distinct(tuple::project(&rows, &rpos));
    report.tuples_written += right_rows.len() as u64;
    db.insert_many(right_name, right_rows.iter().map(|r| r.as_slice()))?;
    report.log.mark("insert right (distinct)");

    Ok(report)
}

/// Merges `left` and `right` into `output` on a row store via hash join +
/// re-insert. Output columns are left's columns followed by right's
/// non-join columns.
pub fn merge_row_level(
    db: &mut RowDb,
    left_name: &str,
    right_name: &str,
    output: &str,
    join_cols: &[&str],
    with_indexes: bool,
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();

    let left_schema = db.table(left_name)?.schema().clone();
    let right_schema = db.table(right_name)?.schema().clone();
    let left_rows: Vec<Vec<Value>> = db.table(left_name)?.scan().map(|(_, r)| r).collect();
    let right_rows: Vec<Vec<Value>> = db.table(right_name)?.scan().map(|(_, r)| r).collect();
    report.tuples_read = (left_rows.len() + right_rows.len()) as u64;
    report.log.mark("scan inputs");

    let lk = positions(&left_schema, join_cols)?;
    let rk = positions(&right_schema, join_cols)?;
    let joined = tuple::hash_join(&left_rows, &right_rows, &lk, &rk);
    report.log.mark("hash join");

    // Output schema: left columns ++ right non-join columns.
    let mut out_cols: Vec<&str> = left_schema.names();
    let right_payload: Vec<&str> = right_schema
        .names()
        .into_iter()
        .filter(|n| !join_cols.contains(n))
        .collect();
    out_cols.extend(right_payload);
    let mut combined = left_schema.columns().to_vec();
    for (i, c) in right_schema.columns().iter().enumerate() {
        if !rk.contains(&i) {
            combined.push(c.clone());
        }
    }
    let out_schema = Schema::new(combined)?;
    db.create_table(output, out_schema)?;
    if with_indexes {
        let ji = positions(db.table(output)?.schema(), join_cols)?;
        db.table_mut(output)?.create_index(ji)?;
    }
    report.log.mark("create output table");

    report.tuples_written = joined.len() as u64;
    db.insert_many(output, joined.iter().map(|r| r.as_slice()))?;
    report.log.mark("insert join result");

    Ok(report)
}

// ---------------------------------------------------------------------
// Column-store driver (baseline M — query-level evolution on a column store)
// ---------------------------------------------------------------------

/// Decomposes a column-store table at query level: decompress → project /
/// distinct on tuples → rebuild dictionaries and re-compress bitmaps.
/// This is the expensive path of Figure 2 that CODS avoids.
pub fn decompose_column_level(
    catalog: &Catalog,
    input: &str,
    left_name: &str,
    left_cols: &[&str],
    right_name: &str,
    right_cols: &[&str],
    common_cols: &[&str],
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();

    let input_table = catalog.get(input)?;
    // Decompression: every column is decoded and merged into tuples.
    let rows = input_table.to_rows();
    report.tuples_read = rows.len() as u64;
    report.log.mark("decompress input to tuples");

    let left_schema = input_table.schema().project(left_cols, &[])?;
    let lpos = positions(input_table.schema(), left_cols)?;
    let left_rows = tuple::project(&rows, &lpos);
    report.log.mark("project left");
    // Re-compression: dictionaries and bitmaps rebuilt from scratch.
    let left_table = Table::from_rows(left_name, left_schema, &left_rows)?;
    report.tuples_written += left_rows.len() as u64;
    report.log.mark("re-compress left");

    let right_schema = input_table.schema().project(right_cols, common_cols)?;
    let rpos = positions(input_table.schema(), right_cols)?;
    let right_rows = tuple::distinct(tuple::project(&rows, &rpos));
    report.log.mark("project + distinct right");
    let right_table = Table::from_rows(right_name, right_schema, &right_rows)?;
    report.tuples_written += right_rows.len() as u64;
    report.log.mark("re-compress right");

    catalog.create(left_table)?;
    catalog.create(right_table)?;
    Ok(report)
}

/// Merges two column-store tables at query level: decompress both → hash
/// join on tuples → re-compress the result.
pub fn merge_column_level(
    catalog: &Catalog,
    left_name: &str,
    right_name: &str,
    output: &str,
    join_cols: &[&str],
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();

    let left = catalog.get(left_name)?;
    let right = catalog.get(right_name)?;
    let left_rows = left.to_rows();
    let right_rows = right.to_rows();
    report.tuples_read = (left_rows.len() + right_rows.len()) as u64;
    report.log.mark("decompress inputs to tuples");

    let lk = positions(left.schema(), join_cols)?;
    let rk = positions(right.schema(), join_cols)?;
    let joined = tuple::hash_join(&left_rows, &right_rows, &lk, &rk);
    report.log.mark("hash join");

    let mut combined = left.schema().columns().to_vec();
    for (i, c) in right.schema().columns().iter().enumerate() {
        if !rk.contains(&i) {
            combined.push(c.clone());
        }
    }
    let out_schema = Schema::new(combined)?;
    let out_table = Table::from_rows(output, out_schema, &joined)?;
    report.tuples_written = joined.len() as u64;
    report.log.mark("re-compress result");

    catalog.create(out_table)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_rowstore::InsertPolicy;
    use cods_storage::ValueType;

    fn figure1_rows() -> Vec<Vec<Value>> {
        [
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
        .collect()
    }

    fn r_schema() -> Schema {
        Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap()
    }

    fn row_db(policy: InsertPolicy) -> RowDb {
        let mut db = RowDb::new(policy);
        db.create_table("R", r_schema()).unwrap();
        for row in figure1_rows() {
            db.insert("R", &row).unwrap();
        }
        db
    }

    #[test]
    fn row_level_decompose_matches_figure1() {
        let mut db = row_db(InsertPolicy::Batch);
        let report = decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        )
        .unwrap();
        assert_eq!(report.tuples_read, 7);
        assert_eq!(db.table("S").unwrap().row_count(), 7);
        assert_eq!(db.table("T").unwrap().row_count(), 4); // 4 distinct employees
        assert!(report.log.render().contains("insert right (distinct)"));
    }

    #[test]
    fn row_level_decompose_with_indexes_builds_them() {
        let mut db = row_db(InsertPolicy::Batch);
        decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            true,
        )
        .unwrap();
        assert_eq!(db.table("S").unwrap().indexes().len(), 1);
        assert_eq!(db.table("T").unwrap().indexes()[0].len(), 4);
    }

    #[test]
    fn row_level_merge_round_trips() {
        let mut db = row_db(InsertPolicy::Batch);
        decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        )
        .unwrap();
        let report = merge_row_level(&mut db, "S", "T", "R2", &["employee"], false).unwrap();
        assert_eq!(report.tuples_written, 7);
        // R2 must equal R as a multiset of tuples.
        let mut orig: Vec<Vec<Value>> = db.table("R").unwrap().scan().map(|(_, r)| r).collect();
        let mut merged: Vec<Vec<Value>> = db.table("R2").unwrap().scan().map(|(_, r)| r).collect();
        orig.sort();
        merged.sort();
        assert_eq!(orig, merged);
    }

    #[test]
    fn journaled_policy_pays_journal_cost() {
        let mut db = row_db(InsertPolicy::JournaledAutocommit);
        decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        )
        .unwrap();
        let (pages, commits) = db.journal_stats();
        assert!(commits >= 7 + 4 + 7, "commits {commits}"); // R load + S + T
        assert!(pages > 0);
    }

    #[test]
    fn column_level_decompose_and_merge_round_trip() {
        let catalog = Catalog::new();
        catalog
            .create(Table::from_rows("R", r_schema(), &figure1_rows()).unwrap())
            .unwrap();
        decompose_column_level(
            &catalog,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
        )
        .unwrap();
        let s = catalog.get("S").unwrap();
        let t = catalog.get("T").unwrap();
        assert_eq!(s.rows(), 7);
        assert_eq!(t.rows(), 4);
        t.verify_key().unwrap();

        merge_column_level(&catalog, "S", "T", "R2", &["employee"]).unwrap();
        let r2 = catalog.get("R2").unwrap();
        assert_eq!(
            r2.tuple_multiset(),
            catalog.get("R").unwrap().tuple_multiset()
        );
    }

    #[test]
    fn duplicate_output_name_fails() {
        let mut db = row_db(InsertPolicy::Batch);
        let err = decompose_row_level(
            &mut db,
            "R",
            "R", // collides with input
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        );
        assert!(err.is_err());
    }
}
