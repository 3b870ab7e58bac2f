//! Integration tests of the planned evolution surface: whole-script
//! validation, DAG parallelism across independent branches, column
//! operators over mixed-encoding tables, and atomic commit semantics.

use cods::{Cods, EvolutionError, Smo};
use cods_storage::{Encoding, StorageError};
use cods_workload::GenConfig;

fn platform_with(name: &str, rows: u64) -> Cods {
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            name,
            &GenConfig::sweep_point(rows, 64),
        ))
        .unwrap();
    cods
}

#[test]
fn planned_script_equals_sequential_on_generated_workload() {
    // The workload generator emits R(entity, attr, detail) with
    // entity → detail, so the full decompose → reshape → evolve → merge
    // cycle runs; only R2 survives it.
    let script = "\
        DECOMPOSE TABLE R INTO S (entity, attr), T (entity, detail)\n\
        PARTITION TABLE S WHERE entity < 32 INTO s_lo, s_hi\n\
        UNION TABLES s_lo, s_hi INTO S2\n\
        DROP TABLE s_lo\n\
        DROP TABLE s_hi\n\
        ADD COLUMN verified int DEFAULT 0 TO T\n\
        RENAME COLUMN verified TO audited IN T\n\
        MERGE TABLES S2, T INTO R2\n\
        DROP TABLE S2\n\
        DROP TABLE T\n";
    // The sequential reference runs each statement as its own plan.
    let sequential = platform_with("R", 4_000);
    for smo in cods::parse_script(script).unwrap() {
        sequential.plan(vec![smo]).unwrap().execute().unwrap();
    }

    let planned = platform_with("R", 4_000);
    let plan = planned.plan_script(script).unwrap();
    // Ten operators, ten nodes: each operator runs through its own executor.
    assert_eq!(plan.nodes().len(), 10);
    let report = plan.execute().unwrap();
    // Every intermediate lived in the plan's workspace only: one table
    // lands, in one catalog version bump (seed create + one commit),
    // where the sequential path bumps once per operator.
    assert_eq!(report.committed_puts, 1);
    assert!(report.committed_puts < report.staged_puts);
    assert_eq!(report.committed_drops, 1); // R disappears
    assert_eq!(report.elided, ["S", "S2", "T", "s_hi", "s_lo"]);
    assert_eq!(planned.catalog().version(), 2);
    assert!(sequential.catalog().version() > planned.catalog().version());

    assert_eq!(
        sequential.catalog().table_names(),
        planned.catalog().table_names()
    );
    let a = sequential.table("R2").unwrap();
    let b = planned.table("R2").unwrap();
    assert_eq!(a.schema(), b.schema());
    assert_eq!(a.to_rows(), b.to_rows());
}

#[test]
fn independent_branches_run_in_one_wave_with_identical_results() {
    let cods = platform_with("R", 2_000);
    for i in 0..4 {
        cods.plan(vec![Smo::CopyTable {
            from: "R".into(),
            to: format!("c{i}"),
        }])
        .unwrap()
        .execute()
        .unwrap();
    }
    // Four independent decompositions: one wave, four concurrent nodes.
    let script = (0..4)
        .map(|i| format!("DECOMPOSE TABLE c{i} INTO s{i} (entity, attr), t{i} (entity, detail)\n"))
        .collect::<String>();
    let plan = cods.plan_script(&script).unwrap();
    assert_eq!(plan.waves().len(), 1);
    assert_eq!(plan.waves()[0].len(), 4);
    plan.execute().unwrap();
    let s0 = cods.table("s0").unwrap();
    for i in 1..4 {
        let si = cods.table(&format!("s{i}")).unwrap();
        assert_eq!(s0.to_rows(), si.to_rows());
        let ti = cods.table(&format!("t{i}")).unwrap();
        ti.verify_key().unwrap();
    }
}

#[test]
fn fused_chain_preserves_column_encodings() {
    let cods = platform_with("R", 1_000);
    let recoded = cods
        .table("R")
        .unwrap()
        .map_columns(None, |c| c.recode(Encoding::Rle))
        .unwrap();
    cods.catalog().put(recoded);
    cods.plan_script(
        "ADD COLUMN flag int DEFAULT 1 TO R\n\
         RENAME COLUMN flag TO mark IN R\n\
         DROP COLUMN attr FROM R\n",
    )
    .unwrap()
    .execute()
    .unwrap();
    let t = cods.table("R").unwrap();
    // Carried columns keep their RLE encoding (shared by reference); the
    // added column is bitmap-built like ADD COLUMN always builds it.
    assert!(t
        .column_by_name("entity")
        .unwrap()
        .is_uniform(Encoding::Rle));
    assert!(t
        .column_by_name("detail")
        .unwrap()
        .is_uniform(Encoding::Rle));
    assert!(t
        .column_by_name("mark")
        .unwrap()
        .is_uniform(Encoding::Bitmap));
    assert!(!t.schema().contains("attr"));
}

#[test]
fn mid_script_data_failure_aborts_atomically() {
    // attr does not functionally depend on entity, so the second
    // decompose fails *at run time*, after wave 0 already produced tables
    // in the workspace — none of which may reach the catalog.
    let cods = platform_with("R", 2_000);
    let before = cods.catalog().version();
    let plan = cods
        .plan_script(
            "COPY TABLE R TO KEEP\n\
             DECOMPOSE TABLE R INTO S (entity, detail), T (entity, attr)\n",
        )
        .unwrap();
    let err = plan.execute().unwrap_err();
    assert!(matches!(err, EvolutionError::FdViolation(_)));
    assert_eq!(cods.catalog().table_names(), vec!["R"]);
    assert_eq!(cods.catalog().version(), before);
    assert!(cods.history().is_empty());
}

#[test]
fn stale_plan_conflicts_instead_of_clobbering() {
    let cods = platform_with("R", 500);
    let plan = cods.plan_script("COPY TABLE R TO A\n").unwrap();
    // A writer sneaks in between plan and execute.
    cods.plan(vec![Smo::CopyTable {
        from: "R".into(),
        to: "Z".into(),
    }])
    .unwrap()
    .execute()
    .unwrap();
    let err = plan.execute().unwrap_err();
    assert!(matches!(
        err,
        EvolutionError::Storage(StorageError::Conflict(_))
    ));
    assert!(!cods.catalog().contains("A"));
    // Re-planning against the fresh catalog succeeds.
    cods.plan_script("COPY TABLE R TO A\n")
        .unwrap()
        .execute()
        .unwrap();
    assert!(cods.catalog().contains("A"));
}

#[test]
fn plan_describe_names_waves_and_elisions() {
    let cods = platform_with("R", 500);
    let plan = cods
        .plan_script(
            "PARTITION TABLE R WHERE entity < 10 INTO lo, hi\n\
             UNION TABLES lo, hi INTO R\n\
             DROP TABLE lo\n\
             DROP TABLE hi\n",
        )
        .unwrap();
    let text = plan.describe();
    assert!(text.contains("wave 0"), "{text}");
    assert!(text.contains("PARTITION TABLE R"), "{text}");
    assert!(
        text.contains("elided intermediates (never enter the catalog): hi, lo"),
        "{text}"
    );
}

/// A small catalog for the refusal table: `R(k, a, d)` with `d` a function
/// of `k`, `U` with `R`'s schema, `Q(k, x)` joinable with `R` on `k`,
/// `Z(z)` sharing no column with `R`, and `Ks(k str, y)` whose `k` has the
/// other type. `Q` is unique on `k`; the other tables are not.
fn refusal_catalog() -> Cods {
    use cods_storage::{Schema, Table, Value, ValueType};
    let cods = Cods::new();
    let int = ValueType::Int;
    let tables: [(&str, &[(&str, ValueType)]); 5] = [
        ("R", &[("k", int), ("a", int), ("d", int)]),
        ("U", &[("k", int), ("a", int), ("d", int)]),
        ("Q", &[("k", int), ("x", int)]),
        ("Z", &[("z", int)]),
        ("Ks", &[("k", ValueType::Str), ("y", int)]),
    ];
    for (name, cols) in tables {
        let schema = Schema::build(cols, &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..12i64)
            .map(|i| {
                cols.iter()
                    .enumerate()
                    .map(|(c, &(_, ty))| match (c, ty) {
                        (_, ValueType::Str) => Value::str(format!("s{}", i % 4)),
                        (0, _) if name == "Q" => Value::int(i),
                        (0, _) => Value::int(i % 4),
                        (2, _) => Value::int((i % 4) * 10),
                        _ => Value::int(i),
                    })
                    .collect()
            })
            .collect();
        cods.catalog()
            .create(Table::from_rows(name, schema, &rows).unwrap())
            .unwrap();
    }
    cods
}

/// Every operator's plan-time refusals, each with the exact error it
/// reports, and the in-place forms the name rules allow. A refused script
/// leaves the catalog as it was; an allowed one plans and executes.
/// `None` means the script plans; otherwise the refusal's `Debug` form
/// must start with the given text (the whole form for name and column
/// errors, the variant for errors that carry a message).
#[test]
fn every_operator_refuses_at_plan_time_with_its_own_error() {
    const EXISTS_Q: &str = r#"Storage(TableExists("Q"))"#;
    const NO_TABLE: &str = r#"Storage(UnknownTable("nope"))"#;
    const NO_COL: &str = r#"Storage(UnknownColumn("zz"))"#;
    const INVALID: &str = "InvalidOperator(";
    const LOSSY: &str = "LossyDecomposition(";
    const DISJOINT: &str = "NoCommonColumns(";
    let cases: &[(&str, Option<&str>)] = &[
        // CREATE TABLE: the name must be absent.
        ("CREATE TABLE Q (z int)", Some(EXISTS_Q)),
        ("CREATE TABLE N (z int)", None),
        // DROP TABLE: the name must exist.
        ("DROP TABLE nope", Some(NO_TABLE)),
        ("DROP TABLE Q", None),
        // RENAME TABLE: `from` exists, `to` is absent (itself included).
        ("RENAME TABLE nope TO N", Some(NO_TABLE)),
        ("RENAME TABLE R TO Q", Some(EXISTS_Q)),
        ("RENAME TABLE R TO R", Some(r#"Storage(TableExists("R"))"#)),
        ("RENAME TABLE R TO N", None),
        // COPY TABLE: the same two rules.
        ("COPY TABLE nope TO N", Some(NO_TABLE)),
        ("COPY TABLE R TO Q", Some(EXISTS_Q)),
        ("COPY TABLE R TO N", None),
        // UNION TABLES: inputs exist and are union-compatible; the output
        // may replace only one of its inputs.
        ("UNION TABLES nope, R INTO N", Some(NO_TABLE)),
        ("UNION TABLES R, nope INTO N", Some(NO_TABLE)),
        ("UNION TABLES R, Q INTO N", Some(INVALID)),
        ("UNION TABLES R, U INTO Q", Some(EXISTS_Q)),
        ("UNION TABLES R, U INTO R", None),
        ("UNION TABLES R, U INTO U", None),
        ("UNION TABLES R, U INTO N", None),
        // PARTITION TABLE: the predicate's columns exist; the outputs
        // differ, and each is absent or the input.
        (
            "PARTITION TABLE nope WHERE k < 2 INTO lo, hi",
            Some(NO_TABLE),
        ),
        ("PARTITION TABLE R WHERE zz < 2 INTO lo, hi", Some(NO_COL)),
        (
            "PARTITION TABLE R WHERE k < 2 INTO lo, lo",
            Some(r#"Storage(TableExists("lo"))"#),
        ),
        (
            "PARTITION TABLE R WHERE k < 2 INTO R, R",
            Some(r#"Storage(TableExists("R"))"#),
        ),
        ("PARTITION TABLE R WHERE k < 2 INTO Q, hi", Some(EXISTS_Q)),
        ("PARTITION TABLE R WHERE k < 2 INTO lo, Q", Some(EXISTS_Q)),
        ("PARTITION TABLE R WHERE k < 2 INTO R, rest", None),
        ("PARTITION TABLE R WHERE k < 2 INTO lo, R", None),
        // DECOMPOSE TABLE: the same name rules, then the shape.
        (
            "DECOMPOSE TABLE nope INTO S (k, a), T (k, d)",
            Some(NO_TABLE),
        ),
        (
            "DECOMPOSE TABLE R INTO S (k, a), S (k, d)",
            Some(r#"Storage(TableExists("S"))"#),
        ),
        ("DECOMPOSE TABLE R INTO Q (k, a), T (k, d)", Some(EXISTS_Q)),
        ("DECOMPOSE TABLE R INTO S (k, a), Q (k, d)", Some(EXISTS_Q)),
        (
            "DECOMPOSE TABLE R INTO S (k, zz), T (k, a, d)",
            Some(INVALID),
        ),
        ("DECOMPOSE TABLE R INTO S (k, a), T (k)", Some(LOSSY)),
        ("DECOMPOSE TABLE R INTO S (k), T (a, d)", Some(LOSSY)),
        (
            "DECOMPOSE TABLE R INTO S (k, a, a), T (k, d)",
            Some(INVALID),
        ),
        ("DECOMPOSE TABLE R INTO R (k, a), T (k, d)", None),
        ("DECOMPOSE TABLE R INTO S (k, a), R (k, d)", None),
        // MERGE TABLES: inputs exist, the output is absent (an input's
        // name included), the inputs share a column of one type.
        ("MERGE TABLES nope, Q INTO N", Some(NO_TABLE)),
        ("MERGE TABLES R, nope INTO N", Some(NO_TABLE)),
        ("MERGE TABLES R, U INTO Q", Some(EXISTS_Q)),
        ("MERGE TABLES Q, R INTO Q", Some(EXISTS_Q)),
        ("MERGE TABLES R, Z INTO N", Some(DISJOINT)),
        ("MERGE TABLES R, Ks INTO N", Some(INVALID)),
        ("MERGE TABLES R, Q INTO N", None),
        // ADD COLUMN: the table exists and the column does not.
        ("ADD COLUMN e int DEFAULT 0 TO nope", Some(NO_TABLE)),
        ("ADD COLUMN a int DEFAULT 0 TO R", Some(INVALID)),
        ("ADD COLUMN e int DEFAULT 0 TO R", None),
        // DROP COLUMN: the column exists and is not the last.
        ("DROP COLUMN a FROM nope", Some(NO_TABLE)),
        ("DROP COLUMN zz FROM R", Some(NO_COL)),
        ("DROP COLUMN z FROM Z", Some(INVALID)),
        ("DROP COLUMN a FROM R", None),
        // RENAME COLUMN: `from` exists and `to` does not.
        ("RENAME COLUMN a TO b IN nope", Some(NO_TABLE)),
        ("RENAME COLUMN zz TO b IN R", Some(NO_COL)),
        ("RENAME COLUMN a TO d IN R", Some(INVALID)),
        ("RENAME COLUMN a TO b IN R", None),
        // Refusals only a schema produced earlier in the chain shows.
        (
            "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
             RENAME COLUMN k TO key2 IN T\n\
             MERGE TABLES S, T INTO R2",
            Some(DISJOINT),
        ),
        (
            "DROP COLUMN a FROM R\nDROP COLUMN d FROM R\nDROP COLUMN k FROM R",
            Some(INVALID),
        ),
        (
            "RENAME COLUMN a TO zz IN R\nDROP COLUMN a FROM R",
            Some(r#"Storage(UnknownColumn("a"))"#),
        ),
        (
            "DROP TABLE R\nCOPY TABLE R TO N",
            Some(r#"Storage(UnknownTable("R"))"#),
        ),
        (
            "COPY TABLE R TO N\nCREATE TABLE N (z int)",
            Some(r#"Storage(TableExists("N"))"#),
        ),
        (
            "PARTITION TABLE R WHERE k < 2 INTO lo, hi\nUNION TABLES lo, Q INTO N",
            Some(INVALID),
        ),
        (
            "ADD COLUMN x int DEFAULT 0 TO R\nMERGE TABLES R, Q INTO N\nUNION TABLES N, U INTO M",
            Some(INVALID),
        ),
        (
            "CREATE TABLE N (z int)\nMERGE TABLES N, R INTO M",
            Some(DISJOINT),
        ),
        (
            "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\nDECOMPOSE TABLE S INTO S1 (k), S2 (a)",
            Some(LOSSY),
        ),
        (
            "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
             MERGE TABLES S, T INTO R2\n\
             UNION TABLES R2, U INTO R3",
            None,
        ),
    ];
    for &(script, want) in cases {
        let cods = refusal_catalog();
        let names = cods.catalog().table_names();
        match (cods.plan_script(script), want) {
            (Ok(plan), None) => {
                plan.execute().unwrap_or_else(|e| panic!("{script:?}: {e}"));
            }
            (Err(e), Some(want)) => {
                let got = format!("{e:?}");
                assert!(got.starts_with(want), "{script:?}: {got}, want {want}");
                assert_eq!(cods.catalog().table_names(), names, "{script:?}");
            }
            (got, _) => panic!("{script:?}: {:?}, want {want:?}", got.map(|_| ())),
        }
    }
    // The rules the grammar cannot spell: a UNION that drops its inputs,
    // and a key-FK MERGE naming a keyed table that is neither input.
    let cods = refusal_catalog();
    let union = |output: &str| Smo::UnionTables {
        left: "R".into(),
        right: "U".into(),
        output: output.into(),
        drop_inputs: true,
    };
    let err = cods.plan(vec![union("Q")]).err().map(|e| format!("{e:?}"));
    assert_eq!(err.as_deref(), Some(EXISTS_Q));
    cods.plan(vec![union("R")]).unwrap().execute().unwrap();
    assert!(!cods.catalog().contains("U"));
    let cods = refusal_catalog();
    let merge = |keyed: &str| Smo::MergeTables {
        left: "R".into(),
        right: "Q".into(),
        output: "N".into(),
        strategy: cods::MergeStrategy::KeyForeignKey {
            keyed: keyed.into(),
        },
    };
    let err = cods.plan(vec![merge("Z")]).err().map(|e| format!("{e:?}"));
    assert!(err.as_deref().unwrap_or("").starts_with(INVALID), "{err:?}");
    cods.plan(vec![merge("Q")]).unwrap().execute().unwrap();
    assert_eq!(
        cods.table("N").unwrap().schema().names(),
        ["k", "a", "d", "x"]
    );
}
