//! Schema-level analysis backing the evolution operators: common attributes
//! and the shape of a lossless decomposition. The data half of Section 2.4's
//! properties — the functional dependency of Property 2 — is checked by the
//! decomposition executor itself, chunk by chunk.

use crate::error::{EvolutionError, Result};
use cods_storage::Schema;

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
/// the decomposition executor.
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

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Table, Value, ValueType};

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
}
