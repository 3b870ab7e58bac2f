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
