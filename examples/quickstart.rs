//! Quickstart: the paper's Figure 1, end to end.
//!
//! Builds table `R(employee, skill, address)`, decomposes it at data level
//! into `S(employee, skill)` and `T(employee, address)` (schema 2), prints
//! the evolution status log, merges the two back into `R`, and verifies the
//! round trip is lossless.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_workload::figure1;

fn print_table(t: &cods_storage::Table) {
    println!("-- {} ({} rows) --", t.name(), t.rows());
    println!("   {}", t.schema().names().join(" | "));
    for row in t.to_rows() {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("   {}", cells.join(" | "));
    }
    println!();
}

fn main() {
    // 1. Load the Figure 1 table into a CODS platform.
    let cods = Cods::new();
    cods.catalog().create(figure1::table_r()).unwrap();
    println!("Schema 1 (original):\n");
    print_table(&cods.table("R").unwrap());
    let original = cods.table("R").unwrap().tuple_multiset();

    // 2. Decompose R into S(employee, skill) and T(employee, address).
    //    Data level: S reuses R's columns by reference; T is produced by
    //    distinction + bitmap filtering, never materializing tuples.
    let report = cods
        .plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
        }])
        .unwrap()
        .execute()
        .unwrap();
    println!("Data evolution status (DECOMPOSE):");
    println!("{}", report.records[0].status.render());
    println!("Schema 2 (decomposed):\n");
    print_table(&cods.table("S").unwrap());
    print_table(&cods.table("T").unwrap());

    // 3. Workload changed back? Merge S and T into R again. The join
    //    attributes are T's key, so S's columns are reused wholesale.
    let report = cods
        .plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])
        .unwrap()
        .execute()
        .unwrap();
    println!("Data evolution status (MERGE):");
    println!("{}", report.records[0].status.render());
    print_table(&cods.table("R").unwrap());

    // 4. Verify the evolution was lossless.
    assert_eq!(cods.table("R").unwrap().tuple_multiset(), original);
    println!("round trip verified: R == decompose ∘ merge (R)");

    // 5. The same round trip as one *planned* script: validated up front
    //    against a catalog snapshot, executed as a DAG of one node per
    //    operator, committed atomically — S2/T2 never enter the
    //    catalog, and a failure anywhere would have left it untouched.
    let fresh = Cods::new();
    fresh.catalog().create(figure1::table_r()).unwrap();
    let plan = fresh
        .plan_script(
            "DECOMPOSE TABLE R INTO S2 (employee, skill), T2 (employee, address)\n\
             MERGE TABLES S2, T2 INTO R\n\
             DROP TABLE S2\n\
             DROP TABLE T2\n",
        )
        .unwrap();
    println!("\nPlanned script:\n{}", plan.describe());
    let report = plan.execute().unwrap();
    println!("Plan status:\n{}", report.log.render());
    assert_eq!(fresh.table("R").unwrap().tuple_multiset(), original);
    assert_eq!(report.elided, vec!["S2".to_string(), "T2".to_string()]);
    println!(
        "planned round trip verified: committed {} table(s), elided {:?}",
        report.committed_puts, report.elided
    );
}
