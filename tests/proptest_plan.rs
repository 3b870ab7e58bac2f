//! Differential property test of the planned execution surface (CI runs
//! this at `PROPTEST_CASES=512`): for random SMO chains over
//! mixed-encoding tables, the planned path — validate → fuse →
//! DAG-parallel execute → atomic commit — must be indistinguishable from
//! the sequential path, which commits one single-op plan per operator:
//!
//! * a chain the sequential path completes must complete planned, with a
//!   **byte-identical** catalog (every table compared through the persist
//!   encoder, so schemas, encodings, dictionaries, and segment directories
//!   all have to agree, not just the decoded tuples);
//! * a chain the sequential path rejects anywhere must fail planned too —
//!   and leave the planned catalog byte-identical to its pre-plan state
//!   (the sequential path keeps the prefix it committed before the
//!   failure).

use cods::simple_ops::ColumnFill;
use cods::{Cods, DecomposeSpec, EvolutionError, MergeStrategy, Smo};
use cods_query::Predicate;
use cods_storage::persist::encode_table;
use cods_storage::{ColumnDef, Encoding, Schema, Table, Value, ValueType};
use proptest::prelude::*;

/// Small pools: collisions and chained reuse of names are the point.
const NAMES: &[&str] = &["R", "B", "t1", "t2", "t3"];
const COLS: &[&str] = &["k", "a", "d", "v", "x1", "x2"];

fn name(i: usize) -> String {
    NAMES[i % NAMES.len()].to_string()
}

fn col(i: usize) -> String {
    COLS[i % COLS.len()].to_string()
}

#[derive(Clone, Debug)]
enum OpSpec {
    Copy(usize, usize),
    Rename(usize, usize),
    Drop(usize),
    Union(usize, usize, usize, bool),
    Partition(usize, i64, usize, usize),
    Decompose(usize, usize, usize),
    Merge(usize, usize, usize),
    AddCol(usize, usize, i64),
    DropCol(usize, usize),
    RenameCol(usize, usize, usize),
}

fn to_smo(op: &OpSpec) -> Smo {
    match *op {
        OpSpec::Copy(a, b) => Smo::CopyTable {
            from: name(a),
            to: name(b),
        },
        OpSpec::Rename(a, b) => Smo::RenameTable {
            from: name(a),
            to: name(b),
        },
        OpSpec::Drop(a) => Smo::DropTable { name: name(a) },
        OpSpec::Union(a, b, o, drop_inputs) => Smo::UnionTables {
            left: name(a),
            right: name(b),
            output: name(o),
            drop_inputs,
        },
        OpSpec::Partition(a, thr, o1, o2) => Smo::PartitionTable {
            input: name(a),
            predicate: Predicate::lt("k", thr),
            satisfying: name(o1),
            rest: name(o2),
        },
        OpSpec::Decompose(a, o1, o2) => Smo::DecomposeTable {
            input: name(a),
            spec: DecomposeSpec::new(name(o1), &["k", "a"], name(o2), &["k", "d"]),
        },
        OpSpec::Merge(a, b, o) => Smo::MergeTables {
            left: name(a),
            right: name(b),
            output: name(o),
            strategy: MergeStrategy::Auto,
        },
        OpSpec::AddCol(t, c, v) => Smo::AddColumn {
            table: name(t),
            column: ColumnDef::new(col(c), ValueType::Int),
            fill: ColumnFill::Default(Value::int(v)),
        },
        OpSpec::DropCol(t, c) => Smo::DropColumn {
            table: name(t),
            column: col(c),
        },
        OpSpec::RenameCol(t, c1, c2) => Smo::RenameColumn {
            table: name(t),
            from: col(c1),
            to: col(c2),
        },
    }
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    let n = 0usize..NAMES.len();
    let c = 0usize..COLS.len();
    prop_oneof![
        (n.clone(), n.clone()).prop_map(|(a, b)| OpSpec::Copy(a, b)),
        (n.clone(), n.clone()).prop_map(|(a, b)| OpSpec::Rename(a, b)),
        n.clone().prop_map(OpSpec::Drop),
        (
            n.clone(),
            n.clone(),
            n.clone(),
            prop_oneof![Just(true), Just(false)]
        )
            .prop_map(|(a, b, o, d)| OpSpec::Union(a, b, o, d)),
        (n.clone(), 0i64..8, n.clone(), n.clone())
            .prop_map(|(a, t, o1, o2)| OpSpec::Partition(a, t, o1, o2)),
        (n.clone(), n.clone(), n.clone()).prop_map(|(a, o1, o2)| OpSpec::Decompose(a, o1, o2)),
        (n.clone(), n.clone(), n.clone()).prop_map(|(a, b, o)| OpSpec::Merge(a, b, o)),
        (n.clone(), c.clone(), -5i64..5).prop_map(|(t, cc, v)| OpSpec::AddCol(t, cc, v)),
        (n.clone(), c.clone()).prop_map(|(t, cc)| OpSpec::DropCol(t, cc)),
        (n, c.clone(), c).prop_map(|(t, a, b)| OpSpec::RenameCol(t, a, b)),
    ]
}

/// Builds the shared starting catalog: R(k, a, d) with the FD k → d held
/// by construction (so DECOMPOSE can succeed), B(k, v), and the requested
/// per-table / per-column encoding mix.
fn platform(rle_r: bool, rle_b_k: bool) -> Cods {
    let cods = Cods::new();
    let r_schema = Schema::build(
        &[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("d", ValueType::Int),
        ],
        &[],
    )
    .unwrap();
    let r_rows: Vec<Vec<Value>> = (0..60)
        .map(|i| {
            vec![
                Value::int(i % 5),
                Value::int(i),
                Value::int((i % 5) * 7 + 1),
            ]
        })
        .collect();
    let mut r = Table::from_rows("R", r_schema, &r_rows).unwrap();
    if rle_r {
        r = r.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap();
    }
    cods.catalog().create(r).unwrap();

    let b_schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
    let b_rows: Vec<Vec<Value>> = (0..40)
        .map(|i| vec![Value::int(i % 7), Value::int(i % 3)])
        .collect();
    let mut b = Table::from_rows("B", b_schema, &b_rows).unwrap();
    if rle_b_k {
        b = b
            .map_columns(Some("k"), |c| c.recode(Encoding::Rle))
            .unwrap();
    }
    cods.catalog().create(b).unwrap();
    cods
}

/// Byte-level fingerprint of a whole catalog: table names plus their full
/// persist encoding (schema, per-column encoding byte, dictionaries,
/// segment directories — everything the on-disk format captures).
fn catalog_bytes(cods: &Cods) -> Vec<(String, Vec<u8>)> {
    cods.catalog()
        .table_names()
        .into_iter()
        .map(|n| {
            let t = cods.table(&n).unwrap();
            (n, encode_table(&t).as_slice().to_vec())
        })
        .collect()
}

/// The sequential reference: every operator runs as its own single-op plan
/// and commits on its own, so a failure keeps the prefix before it.
fn apply_each(cods: &Cods, smos: &[Smo]) -> Result<(), EvolutionError> {
    smos.iter()
        .try_for_each(|s| cods.execute(s.clone()).map(drop))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_execution_matches_sequential(
        ops in prop::collection::vec(op_strategy(), 1..12),
        enc in 0u8..4,
    ) {
        let rle_r = enc & 1 != 0;
        let rle_b_k = enc & 2 != 0;
        let smos: Vec<Smo> = ops.iter().map(to_smo).collect();

        let sequential = platform(rle_r, rle_b_k);
        let planned = platform(rle_r, rle_b_k);
        let before = catalog_bytes(&planned);

        let seq_result = apply_each(&sequential, &smos);
        let plan_result = planned.plan(smos).and_then(|p| p.execute());

        match seq_result {
            Ok(_) => {
                let report = plan_result.expect("sequential succeeded, planned must too");
                // Bit-identical catalogs, byte for byte.
                prop_assert_eq!(catalog_bytes(&sequential), catalog_bytes(&planned));
                // The planned path never materializes more catalog tables
                // than the eager path did.
                prop_assert!(report.committed_puts <= report.staged_puts);
                // History carries one record per original operator on both
                // sides.
                prop_assert!(!planned.history().is_empty());
            }
            Err(_) => {
                // The planned path must also reject the chain — and,
                // unlike the sequential path's committed prefix, leave
                // its catalog untouched.
                prop_assert!(plan_result.is_err());
                prop_assert_eq!(catalog_bytes(&planned), before);
                prop_assert!(planned.history().is_empty());
            }
        }
    }

    #[test]
    fn planned_random_column_chains_match_sequential(
        ops in prop::collection::vec(
            prop_oneof![
                (0usize..6, -9i64..9).prop_map(|(c, v)| OpSpec::AddCol(0, c, v)),
                (0usize..6).prop_map(|c| OpSpec::DropCol(0, c)),
                (0usize..6, 0usize..6).prop_map(|(a, b)| OpSpec::RenameCol(0, a, b)),
            ],
            1..10,
        ),
        enc in 0u8..2,
    ) {
        // Pure column chains on one table: one node per operator, and the
        // plan must agree byte-for-byte with the sequential application
        // whatever the add/drop/rename interleaving does — including
        // cancelled adds and renames of renamed columns.
        let rle = enc & 1 != 0;
        let smos: Vec<Smo> = ops.iter().map(to_smo).collect();
        let sequential = platform(rle, false);
        let planned = platform(rle, false);
        let before = catalog_bytes(&planned);
        let seq_result = apply_each(&sequential, &smos);
        let plan = planned.plan(smos);
        match seq_result {
            Ok(_) => {
                let plan = plan.expect("sequential succeeded, planning must too");
                // A chain of n column operators is n nodes.
                prop_assert_eq!(plan.nodes().len(), ops.len());
                plan.execute().expect("planned execution must succeed");
                prop_assert_eq!(catalog_bytes(&sequential), catalog_bytes(&planned));
            }
            Err(_) => {
                if let Ok(plan) = plan {
                    prop_assert!(plan.execute().is_err());
                }
                prop_assert_eq!(catalog_bytes(&planned), before);
            }
        }
    }
}
