//! Tuple-at-a-time operators over materialized rows — the machinery
//! query-level evolution is forced to run (Figure 2, right-hand path):
//! project, distinct, hash join.

use cods_storage::Value;
use std::collections::HashMap;

/// Projects each row to the given column positions.
pub fn project(rows: &[Vec<Value>], columns: &[usize]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| columns.iter().map(|&c| r[c].clone()).collect())
        .collect()
}

/// Removes duplicate rows (hash-based DISTINCT), preserving first-seen order.
pub fn distinct(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut seen: HashMap<Vec<Value>, ()> = HashMap::with_capacity(rows.len());
    let mut out = Vec::new();
    for r in rows {
        if seen.insert(r.clone(), ()).is_none() {
            out.push(r);
        }
    }
    out
}

/// Hash equi-join. Builds on `right`, probes with `left`. The output row is
/// the left row followed by the right row's columns *excluding* the join
/// columns (natural-join column layout).
pub fn hash_join(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    left_keys: &[usize],
    right_keys: &[usize],
) -> Vec<Vec<Value>> {
    assert_eq!(left_keys.len(), right_keys.len(), "join key arity mismatch");
    let mut table: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::with_capacity(right.len());
    for r in right {
        let key: Vec<Value> = right_keys.iter().map(|&k| r[k].clone()).collect();
        table.entry(key).or_default().push(r);
    }
    let right_payload: Vec<usize> = (0..right.first().map_or(0, |r| r.len()))
        .filter(|i| !right_keys.contains(i))
        .collect();
    let mut out = Vec::new();
    for l in left {
        let key: Vec<Value> = left_keys.iter().map(|&k| l[k].clone()).collect();
        if let Some(matches) = table.get(&key) {
            for r in matches {
                let mut row = l.clone();
                row.extend(right_payload.iter().map(|&i| r[i].clone()));
                out.push(row);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[(&str, i64)]) -> Vec<Vec<Value>> {
        items
            .iter()
            .map(|&(s, i)| vec![Value::str(s), Value::int(i)])
            .collect()
    }

    #[test]
    fn project_reorders() {
        let rows = v(&[("a", 1), ("b", 2)]);
        let p = project(&rows, &[1, 0]);
        assert_eq!(p[0], vec![Value::int(1), Value::str("a")]);
        assert_eq!(p[1], vec![Value::int(2), Value::str("b")]);
    }

    #[test]
    fn distinct_dedups_preserving_order() {
        let rows = v(&[("a", 1), ("b", 2), ("a", 1), ("c", 3), ("b", 2)]);
        let d = distinct(rows);
        assert_eq!(d, v(&[("a", 1), ("b", 2), ("c", 3)]));
    }

    #[test]
    fn hash_join_basic() {
        // left(emp, addr_id) ⋈ right(addr_id, addr)
        let left = v(&[("jones", 1), ("ellis", 2), ("none", 9)]);
        let right: Vec<Vec<Value>> = vec![
            vec![Value::int(1), Value::str("grant ave")],
            vec![Value::int(2), Value::str("industrial way")],
        ];
        let joined = hash_join(&left, &right, &[1], &[0]);
        assert_eq!(joined.len(), 2);
        assert_eq!(
            joined[0],
            vec![Value::str("jones"), Value::int(1), Value::str("grant ave")]
        );
    }

    #[test]
    fn hash_join_duplicates_multiply() {
        let left: Vec<Vec<Value>> = vec![
            vec![Value::int(1), Value::str("l1")],
            vec![Value::int(1), Value::str("l2")],
        ];
        let right: Vec<Vec<Value>> = vec![
            vec![Value::int(1), Value::str("r1")],
            vec![Value::int(1), Value::str("r2")],
        ];
        let joined = hash_join(&left, &right, &[0], &[0]);
        assert_eq!(joined.len(), 4); // n1 × n2
    }

    #[test]
    fn hash_join_empty_sides() {
        let rows = v(&[("a", 1)]);
        assert!(hash_join(&[], &rows, &[1], &[1]).is_empty());
        assert!(hash_join(&rows, &[], &[1], &[1]).is_empty());
    }
}
