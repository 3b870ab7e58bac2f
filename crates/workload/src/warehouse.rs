//! A small data-warehouse workload: a sales fact table with customer and
//! product dimensions, in both *star* (denormalized dimension) and
//! *snowflake* (normalized) shapes. Scenario 2 of the paper's introduction:
//! when the workload turns query-intensive, merge the snowflake back into a
//! star; when it turns update-intensive, decompose the star into a
//! snowflake — both are single SMOs in CODS.

use cods_storage::{Schema, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Size parameters of the warehouse.
#[derive(Clone, Debug)]
pub struct WarehouseConfig {
    /// Rows in the sales fact table.
    pub sales: u64,
    /// Number of customers.
    pub customers: u64,
    /// Number of regions (each customer belongs to one).
    pub regions: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            sales: 10_000,
            customers: 500,
            regions: 10,
            seed: 7,
        }
    }
}

/// The denormalized customer dimension of the star schema:
/// `customer_dim(cust_id, cust_name, region_name)`. `cust_id → region_name`
/// holds, so the snowflake decomposition is lossless.
pub fn star_customer_dim(cfg: &WarehouseConfig) -> Table {
    let schema = Schema::build(
        &[
            ("cust_id", ValueType::Int),
            ("cust_name", ValueType::Str),
            ("region_name", ValueType::Str),
        ],
        &["cust_id"],
    )
    .expect("static schema");
    let rows: Vec<Vec<Value>> = (0..cfg.customers)
        .map(|c| {
            vec![
                Value::int(c as i64),
                Value::str(format!("customer-{c}")),
                Value::str(format!("region-{}", region_of(c, cfg.regions))),
            ]
        })
        .collect();
    Table::from_rows("customer_dim", schema, &rows).expect("valid dim rows")
}

/// The region an id belongs to (deterministic).
pub fn region_of(cust: u64, regions: u64) -> u64 {
    (cust.wrapping_mul(2654435761)) % regions
}

/// The sales fact table: `sales(sale_id, cust_id, amount)`.
pub fn sales_fact(cfg: &WarehouseConfig) -> Table {
    let schema = Schema::build(
        &[
            ("sale_id", ValueType::Int),
            ("cust_id", ValueType::Int),
            ("amount", ValueType::Int),
        ],
        &["sale_id"],
    )
    .expect("static schema");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rows: Vec<Vec<Value>> = (0..cfg.sales)
        .map(|s| {
            vec![
                Value::int(s as i64),
                Value::int(rng.random_range(0..cfg.customers) as i64),
                Value::int(rng.random_range(1..1000)),
            ]
        })
        .collect();
    Table::from_rows("sales", schema, &rows).expect("valid fact rows")
}

/// The fully denormalized ("wide") sales table of the query-intensive star
/// layout: `sales_wide(sale_id, cust_id, cust_name, region_name, amount)`.
/// `cust_id → cust_name` and `cust_id → region_name` hold, so normalizing
/// the customer attributes out (the update-intensive layout) is a lossless
/// CODS decomposition into `sales(sale_id, cust_id, amount)` and
/// `customer_dim(cust_id, cust_name, region_name)`.
pub fn wide_sales(cfg: &WarehouseConfig) -> Table {
    let schema = Schema::build(
        &[
            ("sale_id", ValueType::Int),
            ("cust_id", ValueType::Int),
            ("cust_name", ValueType::Str),
            ("region_name", ValueType::Str),
            ("amount", ValueType::Int),
        ],
        &["sale_id"],
    )
    .expect("static schema");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rows: Vec<Vec<Value>> = (0..cfg.sales)
        .map(|s| {
            let cust = rng.random_range(0..cfg.customers);
            vec![
                Value::int(s as i64),
                Value::int(cust as i64),
                Value::str(format!("customer-{cust}")),
                Value::str(format!("region-{}", region_of(cust, cfg.regions))),
                Value::int(rng.random_range(1..1000)),
            ]
        })
        .collect();
    Table::from_rows("sales_wide", schema, &rows).expect("valid wide rows")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_sales_fds_hold() {
        let cfg = WarehouseConfig {
            sales: 2_000,
            customers: 100,
            regions: 5,
            ..Default::default()
        };
        let wide = wide_sales(&cfg);
        assert_eq!(wide.rows(), 2_000);
        wide.verify_key().unwrap();
        let mut seen = std::collections::HashMap::new();
        for row in wide.to_rows() {
            let prev = seen.insert(row[1].clone(), (row[2].clone(), row[3].clone()));
            if let Some(p) = prev {
                assert_eq!(p.0, row[2], "cust_id → cust_name violated");
                assert_eq!(p.1, row[3], "cust_id → region_name violated");
            }
        }
    }

    #[test]
    fn dimensions_are_consistent() {
        let cfg = WarehouseConfig {
            sales: 1000,
            customers: 100,
            regions: 5,
            ..Default::default()
        };
        let dim = star_customer_dim(&cfg);
        assert_eq!(dim.rows(), 100);
        dim.verify_key().unwrap();
        assert_eq!(
            dim.column_by_name("region_name").unwrap().distinct_count(),
            5
        );

        let fact = sales_fact(&cfg);
        assert_eq!(fact.rows(), 1000);
        fact.verify_key().unwrap();
        assert!(fact.column_by_name("cust_id").unwrap().distinct_count() <= 100);
    }

    /// The per-segment chooser at the serving scale: a unique key packs,
    /// while a 65,536-row segment of 10,000 customers (about 9,987
    /// present), 50 regions or 999 amounts keeps one bitmap per value.
    #[test]
    fn ingest_packs_only_the_near_unique_columns() {
        use cods_storage::Encoding;
        let cfg = WarehouseConfig {
            sales: 1 << 16,
            customers: 10_000,
            regions: 50,
            seed: 1,
        };
        let uniform = |t: &Table, col: &str| t.column_by_name(col).unwrap().uniform_encoding();
        let wide = wide_sales(&cfg);
        assert_eq!(wide.column(0).segment_count(), 1);
        let cust = wide.column_by_name("cust_id").unwrap().segments()[0].meta();
        assert!((9_900..10_000).contains(&cust.distinct_count()));
        assert_eq!(uniform(&wide, "sale_id"), Some(Encoding::Packed));
        for col in ["cust_id", "cust_name", "region_name", "amount"] {
            assert_eq!(uniform(&wide, col), Some(Encoding::Bitmap), "{col}");
        }
        let dim = star_customer_dim(&cfg);
        assert_eq!(uniform(&dim, "cust_id"), Some(Encoding::Packed));
        assert_eq!(uniform(&dim, "cust_name"), Some(Encoding::Packed));
        assert_eq!(uniform(&dim, "region_name"), Some(Encoding::Bitmap));
        let fact = sales_fact(&cfg);
        assert_eq!(uniform(&fact, "sale_id"), Some(Encoding::Packed));
    }

    #[test]
    fn fd_cust_region_holds() {
        let cfg = WarehouseConfig::default();
        let dim = star_customer_dim(&cfg);
        // cust_id is unique, so cust_id → region trivially holds; the
        // interesting FD for snowflaking is cust_name → region via cust_id.
        let mut seen = std::collections::HashMap::new();
        for row in dim.to_rows() {
            let prev = seen.insert(row[0].clone(), row[2].clone());
            assert!(prev.is_none());
        }
    }
}
