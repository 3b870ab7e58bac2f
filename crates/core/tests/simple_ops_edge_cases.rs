//! Edge-case suite for the simple SMOs: empty tables, extreme predicates,
//! unions of empties, and column operations on evolution outputs.

use cods::simple_ops::{add_column, partition_table, union_tables};
use cods::{decompose, DecomposeSpec};
use cods_query::Predicate;
use cods_storage::{ColumnDef, Schema, Table, Value, ValueType};

fn t(rows: Vec<Vec<Value>>) -> Table {
    let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
    Table::from_rows("t", schema, &rows).unwrap()
}

#[test]
fn partition_all_or_nothing() {
    let input = t((0..40)
        .map(|i| vec![Value::int(i), Value::int(i)])
        .collect());
    // Everything satisfies.
    let (sat, rest, _) = partition_table(&input, &Predicate::True, "a", "b").unwrap();
    assert_eq!(sat.rows(), 40);
    assert_eq!(rest.rows(), 0);
    rest.check_invariants().unwrap();
    // Nothing satisfies.
    let (sat, rest, _) = partition_table(&input, &Predicate::True.not(), "a", "b").unwrap();
    assert_eq!(sat.rows(), 0);
    assert_eq!(rest.rows(), 40);
}

#[test]
fn partition_of_empty_table() {
    let input = t(vec![]);
    let (sat, rest, _) = partition_table(&input, &Predicate::eq("k", 1i64), "a", "b").unwrap();
    assert_eq!(sat.rows(), 0);
    assert_eq!(rest.rows(), 0);
}

#[test]
fn union_with_empty_side() {
    let a = t((0..10)
        .map(|i| vec![Value::int(i), Value::int(i)])
        .collect());
    let empty = t(vec![]);
    let (u1, _) = union_tables(&a, &empty, "u").unwrap();
    assert_eq!(u1.rows(), 10);
    u1.check_invariants().unwrap();
    let (u2, _) = union_tables(&empty, &a, "u").unwrap();
    assert_eq!(u2.tuple_multiset(), a.tuple_multiset());
    let (u3, _) = union_tables(&empty, &empty, "u").unwrap();
    assert_eq!(u3.rows(), 0);
}

#[test]
fn union_of_table_with_itself_doubles() {
    let a = t((0..5)
        .map(|i| vec![Value::int(i % 2), Value::int(i)])
        .collect());
    let (u, _) = union_tables(&a, &a, "u").unwrap();
    assert_eq!(u.rows(), 10);
    for (row, count) in u.tuple_multiset() {
        assert_eq!(count % 2, 0, "odd count for {row:?}");
    }
}

#[test]
fn add_column_to_empty_table_then_grow() {
    let empty = t(vec![]);
    let (with_col, _) = add_column(
        &empty,
        ColumnDef::new("flag", ValueType::Bool),
        &Value::Bool(true),
    )
    .unwrap();
    assert_eq!(with_col.arity(), 3);
    assert_eq!(with_col.rows(), 0);
    with_col.check_invariants().unwrap();
}

#[test]
fn column_ops_compose_with_decompose() {
    // Add a column, decompose keeping it on the changed side, verify the
    // default value survived through bitmap filtering.
    let input = t((0..60)
        .map(|i| vec![Value::int(i % 6), Value::int((i % 6) * 10)])
        .collect());
    let (wide, _) = add_column(
        &input,
        ColumnDef::new("src", ValueType::Str),
        &Value::str("gen"),
    )
    .unwrap();
    let out = decompose(
        &wide,
        &DecomposeSpec::new("S", &["k"], "T", &["k", "v", "src"]),
    )
    .unwrap();
    assert_eq!(out.changed.rows(), 6);
    for row in out.changed.to_rows() {
        assert_eq!(row[2], Value::str("gen"));
    }
    // The filtered default column is still a single fill bitmap.
    let src_col = out.changed.column_by_name("src").unwrap();
    assert_eq!(src_col.distinct_count(), 1);
}

#[test]
fn predicate_mask_on_float_and_string_columns() {
    let schema = Schema::build(
        &[("name", ValueType::Str), ("score", ValueType::Float)],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..20)
        .map(|i| {
            vec![
                Value::str(format!("user{}", i % 4)),
                Value::float(i as f64 / 2.0),
            ]
        })
        .collect();
    let table = Table::from_rows("t", schema, &rows).unwrap();
    let (sat, rest, _) = partition_table(
        &table,
        &Predicate::eq("name", "user1").or(Predicate::ge("score", 8.0)),
        "a",
        "b",
    )
    .unwrap();
    assert_eq!(sat.rows() + rest.rows(), 20);
    for row in sat.to_rows() {
        let is_user1 = row[0] == Value::str("user1");
        let high = matches!(&row[1], Value::Float(f) if f.0 >= 8.0);
        assert!(is_user1 || high, "{row:?} wrongly satisfied");
    }
}
