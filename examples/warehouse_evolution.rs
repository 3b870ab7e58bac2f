//! Warehouse evolution: star (denormalized) ↔ normalized layouts — Scenario
//! 2 of the paper's introduction.
//!
//! A query-intensive workload favors the wide table
//! `sales_wide(sale_id, cust_id, cust_name, region_name, amount)`: no joins.
//! When the workload turns update-intensive, the customer attributes should
//! be normalized out to avoid redundancy and update anomalies:
//! `sales(sale_id, cust_id, amount)` + `customer_dim(cust_id, cust_name,
//! region_name)`. With CODS both directions are a single data-level SMO;
//! this example runs the full cycle and compares against the query-level
//! cost on the same column store.
//!
//! ```text
//! cargo run --release --example warehouse_evolution
//! ```

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_query::{decompose_column_level, merge_column_level};
use cods_storage::Catalog;
use cods_workload::warehouse::{wide_sales, WarehouseConfig};
use std::time::Instant;

fn main() {
    let cfg = WarehouseConfig {
        sales: 300_000,
        customers: 5_000,
        regions: 50,
        seed: 7,
    };
    println!(
        "building wide sales table: {} sales, {} customers, {} regions",
        cfg.sales, cfg.customers, cfg.regions
    );
    let wide = wide_sales(&cfg);

    // --- Data level (CODS) ---
    let cods = Cods::new();
    cods.catalog().create(wide.clone()).unwrap();
    let t0 = Instant::now();
    let report = cods
        .plan(vec![Smo::DecomposeTable {
            input: "sales_wide".into(),
            spec: DecomposeSpec::new(
                "sales",
                &["sale_id", "cust_id", "amount"],
                "customer_dim",
                &["cust_id", "cust_name", "region_name"],
            ),
        }])
        .unwrap()
        .execute()
        .unwrap();
    let normalize_data_level = t0.elapsed();
    println!(
        "\nnormalize (data level) status:\n{}",
        report.records[0].status.render()
    );
    println!(
        "customer_dim has {} rows (one per customer)",
        cods.table("customer_dim").unwrap().rows()
    );

    let t0 = Instant::now();
    cods.plan(vec![Smo::MergeTables {
        left: "sales".into(),
        right: "customer_dim".into(),
        output: "sales_wide".into(),
        strategy: MergeStrategy::Auto,
    }])
    .unwrap()
    .execute()
    .unwrap();
    let denormalize_data_level = t0.elapsed();

    // --- Query level on the same column store ---
    let catalog = Catalog::new();
    catalog.create(wide.clone()).unwrap();
    let t0 = Instant::now();
    decompose_column_level(
        &catalog,
        "sales_wide",
        "sales",
        &["sale_id", "cust_id", "amount"],
        "customer_dim",
        &["cust_id", "cust_name", "region_name"],
        &["cust_id"],
    )
    .unwrap();
    let normalize_query_level = t0.elapsed();
    let t0 = Instant::now();
    merge_column_level(&catalog, "sales", "customer_dim", "star2", &["cust_id"]).unwrap();
    let denormalize_query_level = t0.elapsed();

    println!("\n                      data level (CODS)    query level");
    println!(
        "star → normalized     {:>12.3} ms    {:>12.3} ms",
        normalize_data_level.as_secs_f64() * 1e3,
        normalize_query_level.as_secs_f64() * 1e3
    );
    println!(
        "normalized → star     {:>12.3} ms    {:>12.3} ms",
        denormalize_data_level.as_secs_f64() * 1e3,
        denormalize_query_level.as_secs_f64() * 1e3
    );

    // Verify both engines produced the same star again (column order
    // differs — the merge puts payload columns last — so compare by name).
    let a = cods.table("sales_wide").unwrap();
    let b = catalog.get("star2").unwrap();
    assert!(
        cods::verify::same_tuples(&a, &b).unwrap(),
        "data-level and query-level must agree"
    );
    assert!(
        cods::verify::same_tuples(&wide, &a).unwrap(),
        "round trip must be lossless"
    );
    println!("\nverified: both engines reconstruct the original wide table");
}
