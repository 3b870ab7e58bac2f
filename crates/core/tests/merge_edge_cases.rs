//! Edge-case suite for the mergence algorithms: pathological cardinalities,
//! dictionary mismatches, string keys, and output clustering guarantees.

use cods::{merge, merge_general, merge_key_fk, MergeStrategy, UsedStrategy};
use cods_storage::{Schema, Table, Value, ValueType};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn t(name: &str, cols: &[(&str, ValueType)], rows: Vec<Vec<Value>>) -> Table {
    Table::from_rows(name, Schema::build(cols, &[]).unwrap(), &rows).unwrap()
}

fn multiset(t: &Table) -> HashMap<Vec<Value>, u64> {
    t.tuple_multiset()
}

fn naive_join(a: &Table, b: &Table) -> HashMap<Vec<Value>, u64> {
    // Join on column 0 of both; output (k, a.rest…, b.rest…).
    let mut m = HashMap::new();
    for ra in a.to_rows() {
        for rb in b.to_rows() {
            if ra[0] == rb[0] {
                let mut row = ra.clone();
                row.extend(rb[1..].iter().cloned());
                *m.entry(row).or_insert(0) += 1;
            }
        }
    }
    m
}

#[test]
fn single_row_tables() {
    let a = t(
        "A",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        vec![vec![Value::int(1), Value::int(2)]],
    );
    let b = t(
        "B",
        &[("k", ValueType::Int), ("y", ValueType::Int)],
        vec![vec![Value::int(1), Value::int(3)]],
    );
    let out = merge(&a, &b, "AB", &MergeStrategy::Auto).unwrap();
    assert_eq!(out.output.rows(), 1);
    assert_eq!(
        out.output.row(0),
        vec![Value::int(1), Value::int(2), Value::int(3)]
    );
}

#[test]
fn all_rows_same_key_cross_product() {
    let a = t(
        "A",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        (0..40)
            .map(|i| vec![Value::int(7), Value::int(i)])
            .collect(),
    );
    let b = t(
        "B",
        &[("k", ValueType::Int), ("y", ValueType::Int)],
        (0..25)
            .map(|i| vec![Value::int(7), Value::int(100 + i)])
            .collect(),
    );
    let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
    assert_eq!(out.output.rows(), 40 * 25);
    out.output.check_invariants().unwrap();
    assert_eq!(multiset(&out.output), naive_join(&a, &b));
}

#[test]
fn string_keys_with_disjoint_dictionaries() {
    // Dictionaries assign different ids to the same strings on each side.
    let a = t(
        "A",
        &[("k", ValueType::Str), ("x", ValueType::Int)],
        vec![
            vec![Value::str("zebra"), Value::int(1)],
            vec![Value::str("ant"), Value::int(2)],
            vec![Value::str("bee"), Value::int(3)],
        ],
    );
    let b = t(
        "B",
        &[("k", ValueType::Str), ("y", ValueType::Int)],
        vec![
            vec![Value::str("bee"), Value::int(10)],
            vec![Value::str("cat"), Value::int(20)],
            vec![Value::str("zebra"), Value::int(30)],
        ],
    );
    let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
    assert_eq!(multiset(&out.output), naive_join(&a, &b));
    assert_eq!(out.output.rows(), 2);
}

#[test]
fn null_join_values_match_each_other() {
    // NULL is a dictionary value like any other, so NULL = NULL joins.
    // (Document: SQL would drop these; CODS mergence is a value-level join.)
    let a = t(
        "A",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        vec![
            vec![Value::Null, Value::int(1)],
            vec![Value::int(5), Value::int(2)],
        ],
    );
    let b = t(
        "B",
        &[("k", ValueType::Int), ("y", ValueType::Int)],
        vec![vec![Value::Null, Value::int(7)]],
    );
    let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
    assert_eq!(out.output.rows(), 1);
    assert_eq!(
        out.output.row(0),
        vec![Value::Null, Value::int(1), Value::int(7)]
    );
}

#[test]
fn key_fk_with_unreferenced_dimension_rows() {
    // T rows never referenced by S must not appear in the output and their
    // payload values must be compacted away.
    let s = t(
        "S",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        vec![
            vec![Value::int(1), Value::int(10)],
            vec![Value::int(1), Value::int(11)],
        ],
    );
    let keyed = t(
        "T",
        &[("k", ValueType::Int), ("d", ValueType::Str)],
        vec![
            vec![Value::int(1), Value::str("used")],
            vec![Value::int(2), Value::str("orphan")],
        ],
    );
    let out = merge_key_fk(&s, &keyed, "R", &["k".into()]).unwrap();
    assert_eq!(out.output.rows(), 2);
    let d_col = out.output.column_by_name("d").unwrap();
    assert_eq!(d_col.distinct_count(), 1, "orphan value not compacted");
    assert_eq!(*d_col.value_at(0), Value::str("used"));
}

#[test]
fn general_merge_output_is_clustered_by_join_value() {
    let a = t(
        "A",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        (0..100)
            .map(|i| vec![Value::int(i % 5), Value::int(i)])
            .collect(),
    );
    let b = t(
        "B",
        &[("k", ValueType::Int), ("y", ValueType::Int)],
        (0..20)
            .map(|i| vec![Value::int(i % 5), Value::int(i)])
            .collect(),
    );
    let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
    // Clustered: the k column's bitmaps are single fill runs.
    let k_col = out.output.column_by_name("k").unwrap();
    for id in 0..k_col.distinct_count() as u32 {
        let bm = k_col.value_bitmap(id);
        assert_eq!(
            bm.iter_intervals().count(),
            1,
            "join column not clustered into one run"
        );
    }
}

#[test]
fn three_way_composite_join_columns() {
    let a = t(
        "A",
        &[
            ("k1", ValueType::Int),
            ("k2", ValueType::Int),
            ("k3", ValueType::Int),
            ("x", ValueType::Int),
        ],
        (0..60)
            .map(|i| {
                vec![
                    Value::int(i % 2),
                    Value::int(i % 3),
                    Value::int(i % 5),
                    Value::int(i),
                ]
            })
            .collect(),
    );
    let b = t(
        "B",
        &[
            ("k1", ValueType::Int),
            ("k2", ValueType::Int),
            ("k3", ValueType::Int),
            ("y", ValueType::Int),
        ],
        (0..30)
            .map(|i| {
                vec![
                    Value::int(i % 2),
                    Value::int(i % 3),
                    Value::int(i % 5),
                    Value::int(i),
                ]
            })
            .collect(),
    );
    let out = merge_general(&a, &b, "AB", &["k1".into(), "k2".into(), "k3".into()]).unwrap();
    out.output.check_invariants().unwrap();
    // Oracle.
    let mut expected = HashMap::new();
    for ra in a.to_rows() {
        for rb in b.to_rows() {
            if ra[..3] == rb[..3] {
                let mut row = ra.clone();
                row.push(rb[3].clone());
                *expected.entry(row).or_insert(0u64) += 1;
            }
        }
    }
    assert_eq!(multiset(&out.output), expected);
}

#[test]
fn auto_on_both_sides_unique_prefers_right_keyed() {
    let a = t(
        "A",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        vec![
            vec![Value::int(1), Value::int(10)],
            vec![Value::int(2), Value::int(20)],
        ],
    );
    let b = t(
        "B",
        &[("k", ValueType::Int), ("y", ValueType::Int)],
        vec![
            vec![Value::int(1), Value::int(30)],
            vec![Value::int(2), Value::int(40)],
        ],
    );
    let out = merge(&a, &b, "AB", &MergeStrategy::Auto).unwrap();
    assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
    assert_eq!(out.output.schema().names(), vec!["k", "x", "y"]);
    assert_eq!(multiset(&out.output), naive_join(&a, &b));
}

#[test]
fn status_log_covers_the_whole_merge() {
    // The paper's "Data Evolution Status" must account for the mergence's
    // work, the strategy decision included: Auto's first logged step is the
    // key-table build that decides the keyed side is keyed.
    let s = t(
        "S",
        &[("k", ValueType::Int), ("x", ValueType::Int)],
        (0..1i64 << 16)
            .map(|i| vec![Value::int(i * 7 % 1000), Value::int(i)])
            .collect(),
    );
    let d = t(
        "D",
        &[("k", ValueType::Int), ("y", ValueType::Int)],
        (0..1000)
            .map(|k| vec![Value::int(k), Value::int(k * 3)])
            .collect(),
    );
    // Wall-clock shares are noisy on a shared host: the best of three
    // attempts must be within 5 %.
    let mut best_gap = f64::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        let out = merge(&s, &d, "R", &MergeStrategy::Auto).unwrap();
        let wall = started.elapsed();
        assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
        let status = &out.status;
        assert_eq!(status.steps[0].name, "build key table");
        assert_eq!(status.steps[0].items, Some(1000));
        // The steps tile the total: each is timed since the previous one.
        let logged: Duration = status.steps.iter().map(|s| s.elapsed).sum();
        assert_eq!(logged, status.total);
        assert!(status.total <= wall);
        best_gap = best_gap.min(1.0 - status.total.as_secs_f64() / wall.as_secs_f64());
    }
    assert!(
        best_gap <= 0.05,
        "status.total misses {:.1} % of the merge's wall time",
        best_gap * 100.0
    );

    // A forced key–FK mergence logs the same first step, and a keyed side
    // that is not unique is logged as such before Auto moves on.
    let forced = merge_key_fk(&s, &d, "R", &["k".into()]).unwrap();
    assert_eq!(forced.status.steps[0].name, "build key table");
    let out = merge(&d, &s, "R", &MergeStrategy::Auto).unwrap();
    assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
    assert_eq!(out.status.steps[0].name, "build key table: not unique");
    assert_eq!(out.status.steps[1].name, "build key table");
}
