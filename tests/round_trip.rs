//! Cross-crate round-trip tests: decompose ∘ merge ≡ identity and
//! partition ∘ union ≡ identity, at several scales and cardinalities,
//! through the full platform stack.

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_query::Predicate;
use cods_workload::GenConfig;

fn platform_with(rows: u64, distinct: u64) -> Cods {
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(rows, distinct),
        ))
        .unwrap();
    cods
}

#[test]
fn decompose_merge_identity_across_scales() {
    for (rows, distinct) in [
        (100u64, 10u64),
        (1_000, 100),
        (20_000, 500),
        (20_000, 20_000),
    ] {
        let cods = platform_with(rows, distinct);
        let original = cods.table("R").unwrap();
        let original_tuples = original.tuple_multiset();
        cods.plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("T").unwrap().rows(), distinct);
        cods.table("S").unwrap().check_invariants().unwrap();
        cods.table("T").unwrap().check_invariants().unwrap();
        cods.table("T").unwrap().verify_key().unwrap();
        cods.plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(
            cods.table("R").unwrap().tuple_multiset(),
            original_tuples,
            "round trip failed at rows={rows} distinct={distinct}"
        );
    }
}

#[test]
fn repeated_evolution_cycles_are_stable() {
    let cods = platform_with(5_000, 200);
    let original = cods.table("R").unwrap().tuple_multiset();
    for cycle in 0..5 {
        cods.plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
        }])
        .unwrap()
        .execute()
        .unwrap();
        cods.plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])
        .unwrap()
        .execute()
        .unwrap();
        cods.plan(vec![Smo::DropTable { name: "S".into() }])
            .unwrap()
            .execute()
            .unwrap();
        cods.plan(vec![Smo::DropTable { name: "T".into() }])
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(
            cods.table("R").unwrap().tuple_multiset(),
            original,
            "cycle {cycle} lost data"
        );
    }
}

#[test]
fn partition_union_identity() {
    for threshold in [0i64, 50, 199, 1_000_000] {
        let cods = platform_with(3_000, 200);
        let original = cods.table("R").unwrap().tuple_multiset();
        cods.plan(vec![Smo::PartitionTable {
            input: "R".into(),
            predicate: Predicate::lt("entity", threshold),
            satisfying: "lo".into(),
            rest: "hi".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        let lo = cods.table("lo").unwrap().rows();
        let hi = cods.table("hi").unwrap().rows();
        assert_eq!(lo + hi, 3_000);
        cods.plan(vec![Smo::UnionTables {
            left: "lo".into(),
            right: "hi".into(),
            output: "R".into(),
            drop_inputs: true,
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("R").unwrap().tuple_multiset(), original);
    }
}

#[test]
fn general_merge_round_trip_on_duplicated_keys() {
    // When the "changed" table is not unique on the join column, Auto must
    // route to general mergence and still be correct against a naive join.
    use cods_storage::{Schema, Table, Value, ValueType};
    let a = Table::from_rows(
        "A",
        Schema::build(&[("k", ValueType::Int), ("x", ValueType::Int)], &[]).unwrap(),
        &(0..200)
            .map(|i| vec![Value::int(i % 10), Value::int(i)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let b = Table::from_rows(
        "B",
        Schema::build(&[("k", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap(),
        &(0..60)
            .map(|i| vec![Value::int(i % 12), Value::int(1000 + i)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let out = cods::merge(&a, &b, "AB", &MergeStrategy::Auto).unwrap();
    assert_eq!(out.strategy, cods::UsedStrategy::General);
    // Naive nested-loop oracle.
    let mut expected = std::collections::HashMap::new();
    for ra in a.to_rows() {
        for rb in b.to_rows() {
            if ra[0] == rb[0] {
                *expected
                    .entry(vec![ra[0].clone(), ra[1].clone(), rb[1].clone()])
                    .or_insert(0u64) += 1;
            }
        }
    }
    assert_eq!(out.output.tuple_multiset(), expected);
}
