//! Measurement runners for the Figure 3 harness: each function performs the
//! *untimed* setup (loading the input into the engine under test) and times
//! only the evolution itself, exactly as the paper measures.

use cods::{decompose, merge, DecomposeSpec, MergeStrategy};
use cods_query::{
    decompose_column_level, decompose_row_level, merge_column_level, merge_row_level,
};
use cods_rowstore::{InsertPolicy, RowDb};
use cods_storage::{Catalog, Schema, Table, Value};
use cods_workload::gen::r_schema;
use cods_workload::System;
use std::time::{Duration, Instant};

/// Columns of the unchanged side.
const UNCHANGED_COLS: [&str; 2] = ["entity", "attr"];
/// Columns of the changed (distinct) side.
const CHANGED_COLS: [&str; 2] = ["entity", "detail"];
/// The join/key column.
const COMMON_COLS: [&str; 1] = ["entity"];

/// The decomposition spec of the experiment
/// (`R(entity, attr, detail) → S(entity, attr), T(entity, detail)`).
pub fn experiment_spec(verify_fd: bool) -> DecomposeSpec {
    let spec = DecomposeSpec::new("S", &UNCHANGED_COLS, "T", &CHANGED_COLS);
    if verify_fd {
        spec
    } else {
        spec.trusted()
    }
}

fn load_row_db(rows: &[Vec<Value>], policy: InsertPolicy) -> RowDb {
    let mut db = RowDb::new(policy);
    db.create_table("R", r_schema()).unwrap();
    // Input loading is setup, not the measured evolution: insert directly
    // into the heap (batch semantics) so journaled engines do not pay their
    // per-row transaction cost for data that exists before the experiment.
    let table = db.table_mut("R").unwrap();
    for r in rows {
        table.insert(r).unwrap();
    }
    db
}

/// Times a decomposition of `rows` under `system`. The column `table` (if
/// provided) avoids rebuilding the bitmap-encoded input for the CODS and M
/// runs.
pub fn time_decompose(system: System, rows: &[Vec<Value>], table: Option<&Table>) -> Duration {
    match system {
        System::Cods => {
            let owned;
            let t = match table {
                Some(t) => t,
                None => {
                    owned = Table::from_rows("R", r_schema(), rows).unwrap();
                    &owned
                }
            };
            let spec = experiment_spec(false);
            let start = Instant::now();
            let out = decompose(t, &spec).unwrap();
            let elapsed = start.elapsed();
            std::hint::black_box(&out.changed);
            elapsed
        }
        System::ColumnQueryLevel => {
            let catalog = Catalog::new();
            match table {
                Some(t) => catalog.create(t.renamed("R")).unwrap(),
                None => catalog
                    .create(Table::from_rows("R", r_schema(), rows).unwrap())
                    .unwrap(),
            }
            let start = Instant::now();
            decompose_column_level(
                &catalog,
                "R",
                "S",
                &UNCHANGED_COLS,
                "T",
                &CHANGED_COLS,
                &COMMON_COLS,
            )
            .unwrap();
            start.elapsed()
        }
        System::CommercialRow | System::CommercialRowIndexed | System::SqliteLike => {
            let (policy, with_indexes) = match system {
                System::CommercialRow => (InsertPolicy::Batch, false),
                System::CommercialRowIndexed => (InsertPolicy::Indexed, true),
                System::SqliteLike => (InsertPolicy::JournaledAutocommit, false),
                _ => unreachable!(),
            };
            let mut db = load_row_db(rows, policy);
            let start = Instant::now();
            decompose_row_level(
                &mut db,
                "R",
                "S",
                &UNCHANGED_COLS,
                "T",
                &CHANGED_COLS,
                &COMMON_COLS,
                with_indexes,
            )
            .unwrap();
            start.elapsed()
        }
    }
}

/// Builds the decomposed inputs `(S, T)` as raw rows (setup for mergence).
pub fn decomposed_rows(rows: &[Vec<Value>]) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let s: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| vec![r[0].clone(), r[1].clone()])
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut t = Vec::new();
    for r in rows {
        if seen.insert(r[0].clone()) {
            t.push(vec![r[0].clone(), r[2].clone()]);
        }
    }
    (s, t)
}

/// Schema of the unchanged side `S(entity, attr)`.
pub fn s_schema() -> Schema {
    r_schema().project(&UNCHANGED_COLS, &[]).unwrap()
}

/// Schema of the changed side `T(entity, detail)` keyed by entity.
pub fn t_schema() -> Schema {
    r_schema().project(&CHANGED_COLS, &COMMON_COLS).unwrap()
}

/// Times the mergence of the decomposed inputs under `system`.
pub fn time_merge(
    system: System,
    s_rows: &[Vec<Value>],
    t_rows: &[Vec<Value>],
    s_table: Option<&Table>,
    t_table: Option<&Table>,
) -> Duration {
    match system {
        System::Cods => {
            let (s_owned, t_owned);
            let s = match s_table {
                Some(t) => t,
                None => {
                    s_owned = Table::from_rows("S", s_schema(), s_rows).unwrap();
                    &s_owned
                }
            };
            let t = match t_table {
                Some(t) => t,
                None => {
                    t_owned = Table::from_rows("T", t_schema(), t_rows).unwrap();
                    &t_owned
                }
            };
            let start = Instant::now();
            let out = merge(
                s,
                t,
                "R",
                &MergeStrategy::KeyForeignKey { keyed: "T".into() },
            )
            .unwrap();
            let elapsed = start.elapsed();
            std::hint::black_box(&out.output);
            elapsed
        }
        System::ColumnQueryLevel => {
            let catalog = Catalog::new();
            match (s_table, t_table) {
                (Some(s), Some(t)) => {
                    catalog.create(s.renamed("S")).unwrap();
                    catalog.create(t.renamed("T")).unwrap();
                }
                _ => {
                    catalog
                        .create(Table::from_rows("S", s_schema(), s_rows).unwrap())
                        .unwrap();
                    catalog
                        .create(Table::from_rows("T", t_schema(), t_rows).unwrap())
                        .unwrap();
                }
            }
            let start = Instant::now();
            merge_column_level(&catalog, "S", "T", "R", &COMMON_COLS).unwrap();
            start.elapsed()
        }
        System::CommercialRow | System::CommercialRowIndexed | System::SqliteLike => {
            let (policy, with_indexes) = match system {
                System::CommercialRow => (InsertPolicy::Batch, false),
                System::CommercialRowIndexed => (InsertPolicy::Indexed, true),
                System::SqliteLike => (InsertPolicy::JournaledAutocommit, false),
                _ => unreachable!(),
            };
            let mut db = RowDb::new(policy);
            db.create_table("S", s_schema()).unwrap();
            db.create_table("T", t_schema()).unwrap();
            // Setup loads bypass the per-row transaction policy (see
            // load_row_db).
            let s_t = db.table_mut("S").unwrap();
            for r in s_rows {
                s_t.insert(r).unwrap();
            }
            let t_t = db.table_mut("T").unwrap();
            for r in t_rows {
                t_t.insert(r).unwrap();
            }
            let start = Instant::now();
            merge_row_level(&mut db, "S", "T", "R", &COMMON_COLS, with_indexes).unwrap();
            start.elapsed()
        }
    }
}

/// Median of several runs of `f` (CODS runs are microsecond-scale, so the
/// harness repeats them; second-scale baselines run once).
pub fn median_duration(mut runs: Vec<Duration>) -> Duration {
    runs.sort();
    runs[runs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_workload::GenConfig;

    #[test]
    fn all_systems_run_decompose() {
        let rows = cods_workload::generate_rows(&GenConfig::sweep_point(2_000, 50));
        let table = Table::from_rows("R", r_schema(), &rows).unwrap();
        for &sys in System::decomposition_systems() {
            let d = time_decompose(sys, &rows, Some(&table));
            assert!(d.as_nanos() > 0, "{sys:?} reported zero time");
        }
    }

    #[test]
    fn all_systems_run_merge() {
        let rows = cods_workload::generate_rows(&GenConfig::sweep_point(2_000, 50));
        let (s_rows, t_rows) = decomposed_rows(&rows);
        assert_eq!(t_rows.len(), 50);
        let s = Table::from_rows("S", s_schema(), &s_rows).unwrap();
        let t = Table::from_rows("T", t_schema(), &t_rows).unwrap();
        for &sys in System::mergence_systems() {
            let d = time_merge(sys, &s_rows, &t_rows, Some(&s), Some(&t));
            assert!(d.as_nanos() > 0, "{sys:?} reported zero time");
        }
    }

    #[test]
    fn median_is_middle() {
        let d = median_duration(vec![
            Duration::from_millis(5),
            Duration::from_millis(1),
            Duration::from_millis(3),
        ]);
        assert_eq!(d, Duration::from_millis(3));
    }
}
