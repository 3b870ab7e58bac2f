//! A tour of the full Table 1 SMO catalogue on a small personnel database,
//! mirroring the demo walkthrough of Section 3: every operator is executed
//! through the platform and its "Data Evolution Status" log printed.
//!
//! ```text
//! cargo run --release --example smo_tour
//! ```

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_query::Predicate;
use cods_storage::{ColumnDef, Value, ValueType};
use cods_workload::figure1;

fn show(cods: &Cods) {
    println!("tables: {}", cods.catalog().table_names().join(", "));
}

fn main() {
    let cods = Cods::new();
    cods.catalog().create(figure1::table_r()).unwrap();

    let ops = vec![
        // Schema-level plumbing.
        Smo::CopyTable {
            from: "R".into(),
            to: "R_backup".into(),
        },
        Smo::RenameTable {
            from: "R_backup".into(),
            to: "R_archive".into(),
        },
        // Column-level changes.
        Smo::AddColumn {
            table: "R".into(),
            column: ColumnDef::new("country", ValueType::Str),
            default: Value::str("US"),
        },
        Smo::RenameColumn {
            table: "R".into(),
            from: "country".into(),
            to: "nation".into(),
        },
        Smo::DropColumn {
            table: "R".into(),
            column: "nation".into(),
        },
        // Horizontal split and re-union.
        Smo::PartitionTable {
            input: "R".into(),
            predicate: Predicate::eq("address", "425 Grant Ave"),
            satisfying: "R_grant".into(),
            rest: "R_industrial".into(),
        },
        Smo::UnionTables {
            left: "R_grant".into(),
            right: "R_industrial".into(),
            output: "R".into(),
            drop_inputs: true,
        },
        // The headline operators.
        Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
        },
        Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        },
        // Cleanup.
        Smo::DropTable {
            name: "R_archive".into(),
        },
        Smo::CreateTable {
            name: "scratch".into(),
            schema: figure1::r_schema(),
        },
    ];

    for op in ops {
        println!("==> {op}");
        let report = cods.plan(vec![op]).unwrap().execute().unwrap();
        let status = &report.records[0].status;
        let rendered = status.render();
        if !status.steps.is_empty() {
            print!("{rendered}");
        }
        show(&cods);
        println!();
    }

    println!("execution history ({} operators):", cods.history().len());
    for rec in cods.history() {
        println!(
            "  {:<60} {:>9.3} ms",
            rec.operator,
            rec.status.total.as_secs_f64() * 1e3
        );
    }
}
