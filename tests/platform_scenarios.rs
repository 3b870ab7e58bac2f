//! End-to-end multi-step evolution scenarios through the platform,
//! exercising the full SMO catalogue in realistic sequences.

use cods::{Cods, DecomposeSpec, EvolutionError, MergeStrategy, Smo};
use cods_query::Predicate;
use cods_storage::{ColumnDef, Value, ValueType};
use cods_workload::{figure1, GenConfig};

#[test]
fn figure1_demo_walkthrough() {
    // The exact Section 3 demo flow: create, load, decompose, inspect,
    // further SMOs on the outputs.
    let cods = Cods::new();
    cods.catalog().create(figure1::table_r()).unwrap();

    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
    }])
    .unwrap()
    .execute()
    .unwrap();

    // Downstream SMO on a decomposition output: add a column to T.
    cods.plan(vec![Smo::AddColumn {
        table: "T".into(),
        column: ColumnDef::new("verified", ValueType::Bool),
        default: Value::Bool(false),
    }])
    .unwrap()
    .execute()
    .unwrap();
    let t = cods.table("T").unwrap();
    assert_eq!(t.arity(), 3);
    assert_eq!(t.rows(), 4);
    assert_eq!(t.row(0)[2], Value::Bool(false));

    // The status log must mention the paper's step names.
    let history = cods.history();
    let decompose_record = &history[0];
    let names: Vec<&str> = decompose_record
        .status
        .steps
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(names.contains(&"distinction"), "{names:?}");
    assert!(names.contains(&"bitmap filtering"), "{names:?}");
}

#[test]
fn evolution_with_column_smos_interleaved() {
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(2_000, 100),
        ))
        .unwrap();

    // Add an audit column, decompose, and check the column went with S.
    cods.plan(vec![Smo::AddColumn {
        table: "R".into(),
        column: ColumnDef::new("audit", ValueType::Int),
        default: Value::int(1),
    }])
    .unwrap()
    .execute()
    .unwrap();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new(
            "S",
            &["entity", "attr", "audit"],
            "T",
            &["entity", "detail"],
        ),
    }])
    .unwrap()
    .execute()
    .unwrap();
    assert!(cods.table("S").unwrap().schema().contains("audit"));
    assert!(!cods.table("T").unwrap().schema().contains("audit"));

    // Drop it again and merge back; the result must have the original shape.
    cods.plan(vec![Smo::DropColumn {
        table: "S".into(),
        column: "audit".into(),
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
    let r = cods.table("R").unwrap();
    assert_eq!(r.schema().names(), vec!["entity", "attr", "detail"]);
    assert_eq!(r.rows(), 2_000);
}

#[test]
fn failed_smo_leaves_catalog_intact() {
    let cods = Cods::new();
    cods.catalog().create(figure1::table_r()).unwrap();
    let before = cods.catalog().table_names();

    // Lossy decomposition (skill dropped entirely) must fail…
    let err = cods
        .plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["employee"], "T", &["employee", "address"]),
        }])
        .and_then(|p| p.execute());
    assert!(matches!(err, Err(EvolutionError::LossyDecomposition(_))));
    // …and leave everything as it was.
    assert_eq!(cods.catalog().table_names(), before);

    // FD-violating decomposition must fail too (skill does not depend on
    // employee).
    let err = cods
        .plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["employee", "address"], "T", &["employee", "skill"]),
        }])
        .and_then(|p| p.execute());
    assert!(matches!(err, Err(EvolutionError::FdViolation(_))));
    assert_eq!(cods.catalog().table_names(), before);
}

#[test]
fn recursive_decomposition_into_three_tables() {
    // The paper: "Decomposing a table into multiple tables can be done by
    // recursively executing this operation." R(e, a, d, z) with e → d and
    // e → z: two DECOMPOSE SMOs produce three tables.
    use cods_storage::{Schema, Table};
    let schema = Schema::build(
        &[
            ("e", ValueType::Int),
            ("a", ValueType::Int),
            ("d", ValueType::Int),
            ("z", ValueType::Int),
        ],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..600)
        .map(|i| {
            let e = i % 30;
            vec![
                Value::int(e),
                Value::int(i),
                Value::int(e * 2),
                Value::int(e * 3),
            ]
        })
        .collect();
    let cods = Cods::new();
    cods.catalog()
        .create(Table::from_rows("R", schema, &rows).unwrap())
        .unwrap();
    // First split off d.
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("R1", &["e", "a", "z"], "D", &["e", "d"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    // Recurse on the unchanged output to split off z.
    cods.plan(vec![Smo::DecomposeTable {
        input: "R1".into(),
        spec: DecomposeSpec::new("S", &["e", "a"], "Z", &["e", "z"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    assert_eq!(cods.catalog().table_names(), vec!["D", "S", "Z"]);
    assert_eq!(cods.table("D").unwrap().rows(), 30);
    assert_eq!(cods.table("Z").unwrap().rows(), 30);
    assert_eq!(cods.table("S").unwrap().rows(), 600);

    // Recursive mergence reconstructs R.
    cods.plan(vec![Smo::MergeTables {
        left: "S".into(),
        right: "Z".into(),
        output: "SZ".into(),
        strategy: MergeStrategy::Auto,
    }])
    .unwrap()
    .execute()
    .unwrap();
    cods.plan(vec![Smo::MergeTables {
        left: "SZ".into(),
        right: "D".into(),
        output: "R".into(),
        strategy: MergeStrategy::Auto,
    }])
    .unwrap()
    .execute()
    .unwrap();
    let r = cods.table("R").unwrap();
    assert_eq!(r.rows(), 600);
    // Same tuples as the original, modulo column order.
    let schema2 = r.schema().clone();
    assert!(
        schema2.contains("e")
            && schema2.contains("a")
            && schema2.contains("d")
            && schema2.contains("z")
    );
}

#[test]
fn partition_by_compound_predicate() {
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(1_000, 50),
        ))
        .unwrap();
    let pred = Predicate::lt("entity", 10i64).or(Predicate::ge("entity", 40i64));
    cods.plan(vec![Smo::PartitionTable {
        input: "R".into(),
        predicate: pred,
        satisfying: "edges".into(),
        rest: "middle".into(),
    }])
    .unwrap()
    .execute()
    .unwrap();
    let edges = cods.table("edges").unwrap();
    let middle = cods.table("middle").unwrap();
    assert_eq!(edges.rows() + middle.rows(), 1_000);
    for row in edges.to_rows() {
        if let Value::Int(e) = row[0] {
            assert!(!(10..40).contains(&e));
        }
    }
    for row in middle.to_rows() {
        if let Value::Int(e) = row[0] {
            assert!((10..40).contains(&e));
        }
    }
}

#[test]
fn union_of_differently_dictionaried_tables() {
    // Two tables over disjoint value ranges: union must merge dictionaries.
    let cods = Cods::new();
    let a = cods_workload::generate_table("A", &GenConfig::sweep_point(500, 20));
    let mut cfg = GenConfig::sweep_point(500, 20);
    cfg.seed = 999;
    let b = cods_workload::generate_table("B", &cfg);
    cods.catalog().create(a.clone()).unwrap();
    cods.catalog().create(b.clone()).unwrap();
    cods.plan(vec![Smo::UnionTables {
        left: "A".into(),
        right: "B".into(),
        output: "AB".into(),
        drop_inputs: false,
    }])
    .unwrap()
    .execute()
    .unwrap();
    let ab = cods.table("AB").unwrap();
    assert_eq!(ab.rows(), 1_000);
    ab.check_invariants().unwrap();
    let mut expected = a.tuple_multiset();
    for (k, v) in b.tuple_multiset() {
        *expected.entry(k).or_insert(0) += v;
    }
    assert_eq!(ab.tuple_multiset(), expected);
}

#[test]
fn decompose_output_columns_share_input_memory() {
    use std::sync::Arc;
    let cods = Cods::new();
    let input = cods_workload::generate_table("R", &GenConfig::sweep_point(2_000, 100));
    let entity_col = Arc::clone(input.column_by_name("entity").unwrap());
    cods.catalog().create(input).unwrap();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    // Property 1: S's entity column is literally R's.
    let s = cods.table("S").unwrap();
    assert!(Arc::ptr_eq(
        s.column_by_name("entity").unwrap(),
        &entity_col
    ));
}
