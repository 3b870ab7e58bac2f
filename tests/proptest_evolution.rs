//! Property-based tests of the evolution operators over randomly generated
//! tables: losslessness, cross-engine agreement, algebraic identities, and
//! the bitmap-vs-RLE differential harness — every SMO must produce
//! bit-identical results whichever encoding holds the columns, segmented
//! or single-segment.

use cods::decompose::distinction;
use cods::simple_ops::{partition_table, union_tables};
use cods::{
    decompose, merge, merge_general, merge_key_fk, DecomposeSpec, EvolutionError, MergeStrategy,
    UsedStrategy,
};
use cods_query::Predicate;
use cods_storage::{
    Dictionary, EncodedColumn, Encoding, RecodeScope, RecodeTarget, Schema, Table, Value, ValueType,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Random table R(k, a, d) where k → d holds by construction.
fn fd_table() -> impl Strategy<Value = Table> {
    (1usize..12, 1usize..400).prop_flat_map(|(distinct, rows)| {
        prop::collection::vec((0..distinct, 0usize..8), rows).prop_map(move |pairs| {
            let schema = Schema::build(
                &[
                    ("k", ValueType::Int),
                    ("a", ValueType::Int),
                    ("d", ValueType::Int),
                ],
                &[],
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = pairs
                .into_iter()
                .map(|(k, a)| {
                    vec![
                        Value::int(k as i64),
                        Value::int(a as i64),
                        // d = f(k): FD holds.
                        Value::int((k as i64) * 7 % 5),
                    ]
                })
                .collect();
            Table::from_rows("R", schema, &rows).unwrap()
        })
    })
}

/// Any random two-int-column table (no FD guarantee).
fn any_table(name: &'static str) -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..15, 0i64..10), 0usize..200).prop_map(move |pairs| {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = pairs
            .into_iter()
            .map(|(k, v)| vec![Value::int(k), Value::int(v)])
            .collect();
        Table::from_rows(name, schema, &rows).unwrap()
    })
}

fn multiset(t: &Table) -> HashMap<Vec<Value>, u64> {
    t.tuple_multiset()
}

/// A key–foreign-key mergence case: `S(k1[, k2], x)` reuses, `T(k1[, k2],
/// y)` is keyed. Key components are small ints, `0` standing for NULL.
#[derive(Clone, Debug)]
struct FkCase {
    width: usize,
    /// T's keys, distinct.
    t_keys: Vec<Vec<i64>>,
    /// S's keys, drawn from T's unless the case dangles.
    s_keys: Vec<Vec<i64>>,
    /// Both sides' key columns hold one dictionary (`same_as`).
    shared: bool,
    /// T's key dictionaries also hold values no row carries.
    extra: bool,
    segment_rows: u64,
}

fn fk_case() -> impl Strategy<Value = FkCase> {
    (
        (
            1usize..3,
            prop::collection::btree_set(prop::collection::vec(0i64..6, 2), 1..10),
            prop::collection::vec(
                (
                    any::<prop::sample::Index>(),
                    0u8..100,
                    prop::collection::vec(0i64..8, 2),
                ),
                0..120,
            ),
        ),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            prop_oneof![Just(8u64), Just(64), Just(1 << 16)],
        ),
    )
        .prop_map(
            |((width, t_set, draws), (shared, extra, dangle, segment_rows))| {
                let mut t_keys: Vec<Vec<i64>> = Vec::new();
                for key in t_set {
                    let key = key[..width].to_vec();
                    if !t_keys.contains(&key) {
                        t_keys.push(key);
                    }
                }
                let s_keys = draws
                    .into_iter()
                    .map(|(pick, roll, random)| {
                        if dangle && roll < 8 {
                            random[..width].to_vec()
                        } else {
                            t_keys[pick.index(t_keys.len())].clone()
                        }
                    })
                    .collect();
                FkCase {
                    width,
                    t_keys,
                    s_keys,
                    shared,
                    extra,
                    segment_rows,
                }
            },
        )
}

fn key_value(c: i64) -> Value {
    if c == 0 {
        Value::Null
    } else {
        Value::int(c)
    }
}

/// A column over `dict` (left as it is, unused values and all).
fn column_over(dict: &Dictionary, values: &[Value], segment_rows: u64) -> Arc<EncodedColumn> {
    let ids: Vec<u32> = values.iter().map(|v| dict.id_of(v).unwrap()).collect();
    Arc::new(EncodedColumn::from_ids_with(
        ValueType::Int,
        dict.clone(),
        &ids,
        segment_rows,
    ))
}

fn build_fk_case(case: &FkCase) -> (Table, Table) {
    let seg = case.segment_rows;
    let key_names: Vec<String> = (1..=case.width).map(|c| format!("k{c}")).collect();
    let (mut s_cols, mut t_cols) = (Vec::new(), Vec::new());
    for c in 0..case.width {
        let s_vals: Vec<Value> = case.s_keys.iter().map(|k| key_value(k[c])).collect();
        let t_vals: Vec<Value> = case.t_keys.iter().map(|k| key_value(k[c])).collect();
        let extras: Vec<Value> = if case.extra {
            vec![Value::int(6), Value::int(99)]
        } else {
            Vec::new()
        };
        let mut t_dict = Dictionary::new();
        for v in extras.iter().chain(&t_vals) {
            t_dict.intern(v.clone());
        }
        if case.shared {
            for v in &s_vals {
                t_dict.intern(v.clone());
            }
            let (s_col, t_col) = (
                column_over(&t_dict, &s_vals, seg),
                column_over(&t_dict, &t_vals, seg),
            );
            assert!(s_col.dict().same_as(t_col.dict()));
            s_cols.push(s_col);
            t_cols.push(t_col);
        } else {
            s_cols.push(Arc::new(
                EncodedColumn::from_values_with(ValueType::Int, &s_vals, seg).unwrap(),
            ));
            t_cols.push(column_over(&t_dict, &t_vals, seg));
        }
    }
    let payload = |n: usize, base: i64| -> Arc<EncodedColumn> {
        let vals: Vec<Value> = (0..n as i64).map(|i| Value::int(base + i)).collect();
        Arc::new(EncodedColumn::from_values_with(ValueType::Int, &vals, seg).unwrap())
    };
    s_cols.push(payload(case.s_keys.len(), 0));
    t_cols.push(payload(case.t_keys.len(), 1000));
    let schema = |payload: &str| {
        let mut cols: Vec<(&str, ValueType)> = key_names
            .iter()
            .map(|n| (n.as_str(), ValueType::Int))
            .collect();
        cols.push((payload, ValueType::Int));
        Schema::build(&cols, &[]).unwrap()
    };
    (
        Table::new("S", schema("x"), s_cols).unwrap(),
        Table::new("T", schema("y"), t_cols).unwrap(),
    )
}

/// The nested-loop join on the first `width` columns, in S-row then T-row
/// order: `S`'s row followed by `T`'s non-key values.
fn nested_loop(s: &Table, t: &Table, width: usize) -> Vec<Vec<Value>> {
    let t_rows = t.to_rows();
    let mut out = Vec::new();
    for rs in s.to_rows() {
        for rt in &t_rows {
            if rs[..width] == rt[..width] {
                let mut row = rs.clone();
                row.extend(rt[width..].iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

/// The serial key–FK scan's verdict: the first S row without a match, and
/// whether one of its values is missing from T's dictionary outright.
fn reference_fk_scan(s: &Table, t: &Table, width: usize) -> Result<(), String> {
    let t_rows = t.to_rows();
    for (row, rs) in s.to_rows().iter().enumerate() {
        let what = if (0..width).any(|c| t.column(c).dict().id_of(&rs[c]).is_none()) {
            "join value"
        } else if !t_rows.iter().any(|rt| rt[..width] == rs[..width]) {
            "join combination"
        } else {
            continue;
        };
        return Err(format!(
            "row {row} of \"S\" has a {what} missing from \"T\""
        ));
    }
    Ok(())
}

fn tuples(rows: Vec<Vec<Value>>) -> HashMap<Vec<Value>, u64> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decompose_then_merge_is_identity(table in fd_table()) {
        let spec = DecomposeSpec::new("S", &["k", "a"], "T", &["k", "d"]);
        let out = decompose(&table, &spec).unwrap();
        out.unchanged.check_invariants().unwrap();
        out.changed.check_invariants().unwrap();
        out.changed.verify_key().unwrap();
        let merged = merge(&out.unchanged, &out.changed, "R2", &MergeStrategy::Auto).unwrap();
        prop_assert_eq!(multiset(&merged.output), multiset(&table));
    }

    #[test]
    fn changed_side_has_exactly_distinct_keys(table in fd_table()) {
        let spec = DecomposeSpec::new("S", &["k", "a"], "T", &["k", "d"]);
        let out = decompose(&table, &spec).unwrap();
        let distinct = table.column_by_name("k").unwrap().distinct_count() as u64;
        prop_assert_eq!(out.changed.rows(), distinct);
        prop_assert_eq!(out.distinct_keys, distinct);
    }

    #[test]
    fn general_merge_matches_nested_loop_oracle(a in any_table("A"), b in any_table("B2")) {
        // Rename b's value column so schemas only share "k".
        let b = {
            let (renamed, _) = cods::simple_ops::rename_column(&b, "v", "w").unwrap();
            renamed
        };
        let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
        out.output.check_invariants().unwrap();
        let mut expected: HashMap<Vec<Value>, u64> = HashMap::new();
        for ra in a.to_rows() {
            for rb in b.to_rows() {
                if ra[0] == rb[0] {
                    *expected
                        .entry(vec![ra[0].clone(), ra[1].clone(), rb[1].clone()])
                        .or_insert(0) += 1;
                }
            }
        }
        prop_assert_eq!(multiset(&out.output), expected);
    }

    #[test]
    fn partition_union_is_identity(table in any_table("R"), threshold in 0i64..15) {
        let (sat, rest, _) =
            partition_table(&table, &Predicate::lt("k", threshold), "lo", "hi").unwrap();
        sat.check_invariants().unwrap();
        rest.check_invariants().unwrap();
        prop_assert_eq!(sat.rows() + rest.rows(), table.rows());
        let (back, _) = union_tables(&sat, &rest, "back").unwrap();
        prop_assert_eq!(multiset(&back), multiset(&table));
    }

    #[test]
    fn union_is_commutative_on_multisets(a in any_table("A"), b in any_table("B")) {
        let (ab, _) = union_tables(&a, &b, "ab").unwrap();
        let (ba, _) = union_tables(&b, &a, "ba").unwrap();
        prop_assert_eq!(multiset(&ab), multiset(&ba));
        prop_assert_eq!(ab.rows(), a.rows() + b.rows());
    }

    // ---- Bitmap vs RLE differential: SMOs agree across encodings ----

    #[test]
    fn decompose_merge_round_trip_matches_across_encodings(table in fd_table()) {
        let rle = table.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap();
        rle.check_invariants().unwrap();
        let spec = DecomposeSpec::new("S", &["k", "a"], "T", &["k", "d"]);
        let out_b = decompose(&table, &spec).unwrap();
        let out_r = decompose(&rle, &spec).unwrap();
        out_r.unchanged.check_invariants().unwrap();
        out_r.changed.check_invariants().unwrap();
        prop_assert_eq!(out_b.distinct_keys, out_r.distinct_keys);
        // Bit-identical outputs, and the RLE path stays RLE end to end.
        prop_assert_eq!(out_b.unchanged.to_rows(), out_r.unchanged.to_rows());
        prop_assert_eq!(out_b.changed.to_rows(), out_r.changed.to_rows());
        prop_assert!(out_r
            .changed
            .columns()
            .iter()
            .all(|c| c.is_uniform(Encoding::Rle)));
        prop_assert!(rle.shares_column_with(&out_r.unchanged, "k"));
        // Full round trip: DECOMPOSE → MERGE restores the input on both.
        let m_b = merge(&out_b.unchanged, &out_b.changed, "R2", &MergeStrategy::Auto).unwrap();
        let m_r = merge(&out_r.unchanged, &out_r.changed, "R2", &MergeStrategy::Auto).unwrap();
        m_r.output.check_invariants().unwrap();
        prop_assert_eq!(m_b.output.to_rows(), m_r.output.to_rows());
        prop_assert_eq!(multiset(&m_r.output), multiset(&table));
    }

    #[test]
    fn general_merge_matches_across_encodings(a in any_table("A"), b in any_table("B2")) {
        let b = {
            let (renamed, _) = cods::simple_ops::rename_column(&b, "v", "w").unwrap();
            renamed
        };
        // Pin the RLE side: fresh mergence output chunks go through the
        // per-segment chooser, and only a pin forces them to stay RLE.
        let pin_rle = |c: &EncodedColumn| {
            c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Rle))
        };
        let ra = a.map_columns(None, pin_rle).unwrap();
        let rb = b.map_columns(None, pin_rle).unwrap();
        let out_b = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
        let out_r = merge_general(&ra, &rb, "AB", &["k".into()]).unwrap();
        out_r.output.check_invariants().unwrap();
        // The general mergence emits its output clustered by join value, so
        // even exact row order must agree across encodings.
        prop_assert_eq!(out_b.output.to_rows(), out_r.output.to_rows());
        prop_assert!(out_r
            .output
            .columns()
            .iter()
            .all(|c| c.is_uniform(Encoding::Rle)));
    }

    #[test]
    fn partition_and_union_match_across_encodings(table in any_table("R"), threshold in 0i64..15) {
        let rle = table.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap();
        let pred = Predicate::lt("k", threshold);
        let (sat_b, rest_b, _) = partition_table(&table, &pred, "lo", "hi").unwrap();
        let (sat_r, rest_r, _) = partition_table(&rle, &pred, "lo", "hi").unwrap();
        sat_r.check_invariants().unwrap();
        rest_r.check_invariants().unwrap();
        prop_assert_eq!(sat_b.to_rows(), sat_r.to_rows());
        prop_assert_eq!(rest_b.to_rows(), rest_r.to_rows());
        let (back_b, _) = union_tables(&sat_b, &rest_b, "back").unwrap();
        let (back_r, _) = union_tables(&sat_r, &rest_r, "back").unwrap();
        back_r.check_invariants().unwrap();
        prop_assert_eq!(back_b.to_rows(), back_r.to_rows());
        prop_assert!(back_r
            .columns()
            .iter()
            .all(|c| c.is_uniform(Encoding::Rle)));
    }

    #[test]
    fn mixed_encoding_tables_evolve_consistently(table in fd_table()) {
        // One RLE column among bitmap columns: operators must handle
        // per-column encodings independently.
        let mixed = table.map_columns(Some("k"), |c| c.recode(Encoding::Rle)).unwrap();
        mixed.check_invariants().unwrap();
        let spec = DecomposeSpec::new("S", &["k", "a"], "T", &["k", "d"]);
        let out_b = decompose(&table, &spec).unwrap();
        let out_m = decompose(&mixed, &spec).unwrap();
        prop_assert_eq!(out_b.changed.to_rows(), out_m.changed.to_rows());
        prop_assert!(out_m
            .changed
            .column_by_name("k")
            .unwrap()
            .is_uniform(Encoding::Rle));
        // `d` draws from bitmap segments: bitmap, or packed where the
        // deduplicated rows are near-unique — the chooser's call.
        prop_assert!(out_m
            .changed
            .column_by_name("d")
            .unwrap()
            .segments()
            .iter()
            .all(|s| s.meta().encoding
                == match s.meta().choose_encoding() {
                    Encoding::Packed => Encoding::Packed,
                    _ => Encoding::Bitmap,
                }));
        let m_b = merge(&out_b.unchanged, &out_b.changed, "R2", &MergeStrategy::Auto).unwrap();
        let m_m = merge(&out_m.unchanged, &out_m.changed, "R2", &MergeStrategy::Auto).unwrap();
        prop_assert_eq!(m_b.output.to_rows(), m_m.output.to_rows());
    }

    // ---- Key–FK mergence against the nested-loop oracle ----

    #[test]
    fn key_fk_matches_nested_loop_and_reference_scan(case in fk_case()) {
        let (s, t) = build_fk_case(&case);
        let keys: Vec<String> = (1..=case.width).map(|c| format!("k{c}")).collect();
        let oracle = nested_loop(&s, &t, case.width);
        let forced = merge_key_fk(&s, &t, "R", &keys);
        let by_name = merge(&s, &t, "R", &MergeStrategy::KeyForeignKey { keyed: "T".into() });
        let auto = merge(&s, &t, "R", &MergeStrategy::Auto).unwrap();
        match reference_fk_scan(&s, &t, case.width) {
            Ok(()) => {
                // Every S row has exactly one T row: the output is S's rows
                // in order, each extended by its T row's payload.
                prop_assert_eq!(forced.unwrap().output.to_rows(), oracle.clone());
                prop_assert_eq!(by_name.unwrap().output.to_rows(), oracle.clone());
                prop_assert_eq!(auto.strategy, UsedStrategy::KeyForeignKey);
                prop_assert_eq!(auto.output.to_rows(), oracle);
            }
            Err(expected) => {
                for got in [forced, by_name] {
                    match got {
                        Err(EvolutionError::ForeignKeyViolation(msg)) => {
                            prop_assert_eq!(msg, expected.clone())
                        }
                        other => panic!("expected a violation, got {other:?}"),
                    }
                }
                // Auto degrades to the general algorithm's inner join.
                prop_assert_eq!(auto.strategy, UsedStrategy::General);
                prop_assert_eq!(multiset(&auto.output), tuples(oracle));
            }
        }
    }

    #[test]
    fn non_unique_keyed_side_is_refused_and_auto_goes_general(case in fk_case()) {
        // Repeat T's first key with a new payload, and S's first row, so
        // neither side is keyed.
        let mut case = case;
        case.t_keys.push(case.t_keys[0].clone());
        case.s_keys = vec![case.t_keys[0].clone(); 2]
            .into_iter()
            .chain(case.s_keys)
            .collect();
        let (s, t) = build_fk_case(&case);
        let keys: Vec<String> = (1..=case.width).map(|c| format!("k{c}")).collect();
        prop_assert!(matches!(
            merge_key_fk(&s, &t, "R", &keys),
            Err(EvolutionError::InvalidOperator(_))
        ));
        let auto = merge(&s, &t, "R", &MergeStrategy::Auto).unwrap();
        prop_assert_eq!(auto.strategy, UsedStrategy::General);
        prop_assert_eq!(multiset(&auto.output), tuples(nested_loop(&s, &t, case.width)));
    }

    #[test]
    fn distinction_matches_a_sequential_map(
        rows in prop::collection::vec((0u32..200, 0u32..3), 0..300),
        segment_rows in 4u64..32,
    ) {
        // A 200-value dictionary is wider than every chunk here, and most
        // chunks touch only a few of its ids.
        let dict = Dictionary::from_values((0..200).map(|v| Value::int(v * 31 % 200)).collect())
            .unwrap();
        let small = Dictionary::from_values((0..3).map(Value::int).collect()).unwrap();
        let wide: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let narrow: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let columns = vec![
            Arc::new(EncodedColumn::from_ids_with(ValueType::Int, dict, &wide, segment_rows)),
            Arc::new(EncodedColumn::from_ids_with(ValueType::Int, small, &narrow, segment_rows)),
        ];
        let schema = Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
        let table = Table::new("R", schema, columns).unwrap();
        for key_cols in [vec![0usize], vec![0, 1], vec![1, 0], vec![1]] {
            let mut group_of: HashMap<Vec<u32>, u32> = HashMap::new();
            let (mut positions, mut groups) = (Vec::new(), Vec::new());
            for (row, &(a, b)) in rows.iter().enumerate() {
                let key: Vec<u32> = key_cols.iter().map(|&c| [a, b][c]).collect();
                let next = group_of.len() as u32;
                let g = *group_of.entry(key).or_insert_with(|| {
                    positions.push(row as u64);
                    next
                });
                groups.push(g);
            }
            let keys = distinction(&table, &key_cols, true).unwrap();
            prop_assert_eq!(&keys.positions, &positions);
            prop_assert_eq!(distinction(&table, &key_cols, false).unwrap().positions, positions.clone());
            // Property 2 per column against the same map: the first row
            // whose value differs from its group's first row's.
            for c in 0..2 {
                let value = |row: usize| [rows[row].0, rows[row].1][c];
                let first = (0..rows.len())
                    .find(|&row| value(row) != value(positions[groups[row] as usize] as usize));
                prop_assert_eq!(
                    keys.check_fd(&table, &[c]).unwrap(),
                    first.map(|row| (c, row as u64))
                );
            }
        }
    }

    #[test]
    fn data_level_equals_query_level_decompose(table in fd_table()) {
        let spec = DecomposeSpec::new("S", &["k", "a"], "T", &["k", "d"]);
        let out = decompose(&table, &spec).unwrap();
        let catalog = cods_storage::Catalog::new();
        catalog.create(table.renamed("R")).unwrap();
        cods_query::decompose_column_level(
            &catalog, "R", "S", &["k", "a"], "T", &["k", "d"], &["k"],
        )
        .unwrap();
        prop_assert_eq!(
            multiset(&catalog.get("S").unwrap()),
            multiset(&out.unchanged)
        );
        prop_assert_eq!(
            multiset(&catalog.get("T").unwrap()),
            multiset(&out.changed)
        );
    }
}
