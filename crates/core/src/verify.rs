//! Cross-engine verification: data-level results must equal query-level
//! results as multisets of tuples. Used by the test suite and exposed for
//! the demo's "display table" comparisons.

use crate::error::Result;
use cods_storage::{Table, Value};
use std::collections::HashMap;

/// Returns `true` if two tables hold the same tuples (order-insensitive,
/// duplicate-sensitive), projecting both to `a`'s column order by name.
pub fn same_tuples(a: &Table, b: &Table) -> Result<bool> {
    if a.rows() != b.rows() {
        return Ok(false);
    }
    let names = a.schema().names();
    if b.schema().arity() != names.len() || names.iter().any(|n| !b.schema().contains(n)) {
        return Ok(false);
    }
    // Project b's rows into a's column order.
    let perm: Vec<usize> = names
        .iter()
        .map(|n| Ok(b.schema().index_of(n)?))
        .collect::<Result<_>>()?;
    let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
    for row in a.to_rows() {
        *counts.entry(row).or_insert(0) += 1;
    }
    for row in b.to_rows() {
        let projected: Vec<Value> = perm.iter().map(|&i| row[i].clone()).collect();
        match counts.get_mut(&projected) {
            Some(c) => *c -= 1,
            None => return Ok(false),
        }
    }
    Ok(counts.values().all(|&c| c == 0))
}

/// Asserts that reconstructing the original table by re-joining a
/// decomposition's outputs yields the original tuples — the lossless-join
/// property end to end.
pub fn verify_lossless_round_trip(
    original: &Table,
    unchanged: &Table,
    changed: &Table,
) -> Result<bool> {
    let merged = crate::merge::merge(
        unchanged,
        changed,
        "__verify_round_trip",
        &crate::merge::MergeStrategy::Auto,
    )?;
    same_tuples(original, &merged.output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, DecomposeSpec};
    use cods_storage::{Schema, ValueType};

    fn figure1() -> Table {
        let schema = Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = [
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
        .collect();
        Table::from_rows("R", schema, &rows).unwrap()
    }

    #[test]
    fn same_tuples_modulo_column_order() {
        let r = figure1();
        let schema2 = Schema::build(
            &[
                ("address", ValueType::Str),
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let permuted: Vec<Vec<Value>> = r
            .to_rows()
            .into_iter()
            .map(|row| vec![row[2].clone(), row[0].clone(), row[1].clone()])
            .collect();
        let r2 = Table::from_rows("R2", schema2, &permuted).unwrap();
        assert!(same_tuples(&r, &r2).unwrap());
    }

    #[test]
    fn same_tuples_detects_differences() {
        let r = figure1();
        let mut rows = r.to_rows();
        rows[0][1] = Value::str("Dancing");
        let r2 = Table::from_rows("R2", r.schema().clone(), &rows).unwrap();
        assert!(!same_tuples(&r, &r2).unwrap());
        // Different row counts.
        rows.pop();
        let r3 = Table::from_rows("R3", r.schema().clone(), &rows).unwrap();
        assert!(!same_tuples(&r, &r3).unwrap());
    }

    #[test]
    fn lossless_round_trip_on_figure1() {
        let r = figure1();
        let out = decompose(
            &r,
            &DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
        )
        .unwrap();
        assert!(verify_lossless_round_trip(&r, &out.unchanged, &out.changed).unwrap());
    }
}
