//! Schema-level analysis backing the evolution operators: common attributes,
//! lossless-join checking, and functional-dependency verification — the two
//! properties of Section 2.4 that make data-level decomposition correct.

use crate::error::{EvolutionError, Result};
use cods_storage::{Schema, Table};
use std::collections::HashMap;

/// The columns two schemas share, in the first schema's order.
pub fn common_columns(a: &Schema, b: &Schema) -> Vec<String> {
    a.names()
        .into_iter()
        .filter(|n| b.contains(n))
        .map(str::to_string)
        .collect()
}

/// Validates the *shape* of a decomposition of `input` into column sets
/// `left_cols` and `right_cols`:
///
/// * every output column exists in the input;
/// * the union of the outputs covers the input exactly;
/// * the two outputs share at least one column (the join attributes).
///
/// Returns the common columns. Losslessness additionally requires the common
/// columns to be a key of one output — that is a *data* property checked by
/// [`fd_holds`] / the decomposition executor.
pub fn check_decomposition_shape(
    input: &Schema,
    left_cols: &[String],
    right_cols: &[String],
) -> Result<Vec<String>> {
    for n in left_cols.iter().chain(right_cols) {
        if !input.contains(n) {
            return Err(EvolutionError::InvalidOperator(format!(
                "output column {n:?} does not exist in the input table"
            )));
        }
    }
    for set in [left_cols, right_cols] {
        let mut seen = std::collections::HashSet::new();
        for n in set {
            if !seen.insert(n) {
                return Err(EvolutionError::InvalidOperator(format!(
                    "duplicate column {n:?} in output spec"
                )));
            }
        }
    }
    let missing: Vec<&str> = input
        .names()
        .into_iter()
        .filter(|n| !left_cols.iter().any(|c| c == n) && !right_cols.iter().any(|c| c == n))
        .collect();
    if !missing.is_empty() {
        return Err(EvolutionError::LossyDecomposition(format!(
            "input columns {missing:?} appear in neither output"
        )));
    }
    let common: Vec<String> = left_cols
        .iter()
        .filter(|n| right_cols.contains(n))
        .cloned()
        .collect();
    if common.is_empty() {
        return Err(EvolutionError::LossyDecomposition(
            "outputs share no columns, so the join cannot reconstruct the input".into(),
        ));
    }
    Ok(common)
}

/// Checks whether the functional dependency `lhs → rhs` holds in `table`.
///
/// Runs one pass over the compressed columns' value ids (never touching the
/// values themselves): for every distinct lhs combination the rhs combination
/// must be constant.
pub fn fd_holds(table: &Table, lhs: &[&str], rhs: &[&str]) -> Result<bool> {
    let lhs_ids: Vec<Vec<u32>> = lhs
        .iter()
        .map(|n| Ok(table.column_by_name(n)?.value_ids()))
        .collect::<Result<_>>()?;
    let rhs_ids: Vec<Vec<u32>> = rhs
        .iter()
        .map(|n| Ok(table.column_by_name(n)?.value_ids()))
        .collect::<Result<_>>()?;
    let mut witness: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
    for row in 0..table.rows() as usize {
        let l: Vec<u32> = lhs_ids.iter().map(|c| c[row]).collect();
        let r: Vec<u32> = rhs_ids.iter().map(|c| c[row]).collect();
        match witness.get(&l) {
            Some(prev) if *prev != r => return Ok(false),
            Some(_) => {}
            None => {
                witness.insert(l, r);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Value, ValueType};

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
    fn common_columns_found() {
        let a = Schema::build(&[("x", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap();
        let b = Schema::build(&[("y", ValueType::Int), ("z", ValueType::Int)], &[]).unwrap();
        assert_eq!(common_columns(&a, &b), vec!["y"]);
    }

    #[test]
    fn shape_check_accepts_figure1() {
        let r = figure1();
        let common = check_decomposition_shape(
            r.schema(),
            &["employee".into(), "skill".into()],
            &["employee".into(), "address".into()],
        )
        .unwrap();
        assert_eq!(common, vec!["employee"]);
    }

    #[test]
    fn shape_check_rejects_missing_coverage() {
        let r = figure1();
        let err = check_decomposition_shape(
            r.schema(),
            &["employee".into(), "skill".into()],
            &["employee".into()], // address lost
        );
        assert!(matches!(err, Err(EvolutionError::LossyDecomposition(_))));
    }

    #[test]
    fn shape_check_rejects_disjoint_outputs() {
        let r = figure1();
        let err = check_decomposition_shape(
            r.schema(),
            &["employee".into(), "skill".into()],
            &["address".into()],
        );
        assert!(matches!(err, Err(EvolutionError::LossyDecomposition(_))));
    }

    #[test]
    fn shape_check_rejects_unknown_column() {
        let r = figure1();
        let err = check_decomposition_shape(
            r.schema(),
            &["employee".into(), "bogus".into()],
            &["employee".into(), "address".into()],
        );
        assert!(matches!(err, Err(EvolutionError::InvalidOperator(_))));
    }

    #[test]
    fn fd_employee_address_holds() {
        let r = figure1();
        assert!(fd_holds(&r, &["employee"], &["address"]).unwrap());
        // …but employee does not determine skill.
        assert!(!fd_holds(&r, &["employee"], &["skill"]).unwrap());
    }
}
