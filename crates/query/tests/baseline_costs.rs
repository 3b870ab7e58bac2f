//! Tests that the query-level baselines actually pay the costs the paper
//! attributes to them — scans, distinct hashing, index maintenance,
//! journaling — by checking the work counters, not just the results.

use cods_query::{decompose_row_level, merge_row_level, EvolutionReport};
use cods_rowstore::{InsertPolicy, RowDb};
use cods_storage::{Schema, Value, ValueType};

fn schema() -> Schema {
    Schema::build(
        &[
            ("entity", ValueType::Int),
            ("attr", ValueType::Int),
            ("detail", ValueType::Int),
        ],
        &[],
    )
    .unwrap()
}

fn load(policy: InsertPolicy, rows: u64, distinct: i64) -> RowDb {
    let mut db = RowDb::new(policy);
    db.create_table("R", schema()).unwrap();
    let table = db.table_mut("R").unwrap();
    for i in 0..rows {
        table
            .insert(&[
                Value::int(i as i64 % distinct),
                Value::int(i as i64),
                Value::int((i as i64 % distinct) * 3),
            ])
            .unwrap();
    }
    db
}

fn run_decompose(db: &mut RowDb, with_indexes: bool) -> EvolutionReport {
    decompose_row_level(
        db,
        "R",
        "S",
        &["entity", "attr"],
        "T",
        &["entity", "detail"],
        &["entity"],
        with_indexes,
    )
    .unwrap()
}

#[test]
fn every_tuple_is_read_and_written() {
    let mut db = load(InsertPolicy::Batch, 5_000, 100);
    let report = run_decompose(&mut db, false);
    assert_eq!(report.tuples_read, 5_000);
    // S gets all 5k; T gets the 100 distinct entities.
    assert_eq!(report.tuples_written, 5_100);
    let step_names: Vec<&str> = report.log.steps.iter().map(|s| s.name.as_str()).collect();
    assert!(step_names.contains(&"scan input"));
    assert!(step_names.contains(&"insert right (distinct)"));
}

#[test]
fn indexed_mode_populates_indexes() {
    let mut db = load(InsertPolicy::Indexed, 5_000, 100);
    run_decompose(&mut db, true);
    assert_eq!(db.table("S").unwrap().indexes()[0].len(), 5_000);
    assert_eq!(db.table("T").unwrap().indexes()[0].len(), 100);
    assert_eq!(db.table("T").unwrap().indexes()[0].distinct_keys(), 100);
}

#[test]
fn journaled_mode_pays_per_row() {
    let mut db = load(InsertPolicy::JournaledAutocommit, 2_000, 50);
    let (pages_before, commits_before) = db.journal_stats();
    assert_eq!(
        (pages_before, commits_before),
        (0, 0),
        "setup must not journal"
    );
    run_decompose(&mut db, false);
    let (pages, commits) = db.journal_stats();
    // One transaction per inserted row: 2000 into S + 50 into T.
    assert_eq!(commits, 2_050);
    assert_eq!(pages, 2_050);
}

#[test]
fn merge_reads_both_sides_and_writes_the_join() {
    let mut db = load(InsertPolicy::Batch, 3_000, 60);
    run_decompose(&mut db, false);
    let report = merge_row_level(&mut db, "S", "T", "R2", &["entity"], false).unwrap();
    assert_eq!(report.tuples_read, 3_000 + 60);
    assert_eq!(report.tuples_written, 3_000);
    assert_eq!(db.table("R2").unwrap().row_count(), 3_000);
}

#[test]
fn report_log_renders_all_steps() {
    let mut db = load(InsertPolicy::Batch, 500, 10);
    let report = run_decompose(&mut db, false);
    let log = report.log.render();
    for step in &report.log.steps {
        assert!(log.contains(step.name.as_str()), "missing {}", step.name);
    }
}
