//! The benchmark's data sets and the oracle that knows their contents.
//!
//! Tables come from `cods-workload`, seeded by `--seed`. The oracle never
//! asks the engine what a table holds: for the sweep tables it reads the
//! raw generated rows, and for the warehouse it replays the generator's
//! recipe (one customer draw, then one amount draw, per sale) on the same
//! seeded generator. Expected values for every op are computed from these
//! plain vectors.

use cods_storage::{Table, Value};
use cods_workload::gen::r_schema;
use cods_workload::warehouse::{
    region_of, sales_fact, star_customer_dim, wide_sales, WarehouseConfig,
};
use cods_workload::{generate_rows, GenConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// keeps every op class and every check but finishes in seconds.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Rows of each sweep table `R100`, `R10k`, `R100k`.
    pub sweep_rows: u64,
    /// Rows of `sales_wide`.
    pub sales: u64,
    pub customers: u64,
    pub regions: u64,
    /// Rows of `recent` (the join's probe side).
    pub recent: u64,
    /// Rows and customers of `orders_wide`, the small wide table whose
    /// commit image `storage.encode_table_mb_per_s` encodes.
    pub orders: u64,
    pub order_customers: u64,
    /// Rows one `range_scan` returns. The reply must fit one loopback TCP
    /// segment (64 KiB): larger replies straddle it and the delayed-ACK
    /// stall then hits them at random instead of every time.
    pub scan_rows: u64,
    /// Rows one `group_by` aggregates.
    pub group_rows: u64,
    /// Buffer-cache budget of `serve_cold`, about an eighth of what
    /// `serve_hot` keeps resident.
    pub cold_budget: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            sweep_rows: 256 << 10,
            sales: 256 << 10,
            customers: 10_000,
            regions: 50,
            recent: 64 << 10,
            orders: 16 << 10,
            order_customers: 1_000,
            scan_rows: 1_000,
            group_rows: 128 << 10,
            cold_budget: 4 << 20,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            sweep_rows: 64 << 10,
            sales: 128 << 10,
            recent: 16 << 10,
            group_rows: 64 << 10,
            cold_budget: 2 << 20,
            ..Scale::full()
        }
    }
}

/// One point of the paper's Figure 3 distinct-value sweep.
pub struct SweepTable {
    /// `d100`, `d10k` or `d100k`: the full-size distinct-value count the
    /// point stands for (smaller scales cap it at half the rows).
    pub label: &'static str,
    /// Catalog name: `R100`, `R10k`, `R100k`.
    pub name: &'static str,
    pub distinct: u64,
    pub table: Table,
    /// Rows carrying each entity value.
    pub entity_rows: Vec<u32>,
    /// `detail -> (rows, sum of attr)`, what a group-by over any lossless
    /// rearrangement of the table must return.
    pub by_detail: BTreeMap<i64, (i64, i64)>,
}

/// The three sweep tables. Each gets its own seed so they share no rows.
pub fn sweep_tables(seed: u64, scale: &Scale) -> Vec<SweepTable> {
    [
        ("d100", "R100", 100u64),
        ("d10k", "R10k", 10_000),
        ("d100k", "R100k", 100_000),
    ]
    .into_iter()
    .map(|(label, name, d)| {
        let distinct = d.min(scale.sweep_rows / 2);
        let cfg = GenConfig {
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(d),
            ..GenConfig::sweep_point(scale.sweep_rows, distinct)
        };
        let rows = generate_rows(&cfg);
        let mut entity_rows = vec![0u32; distinct as usize];
        let mut by_detail: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for r in &rows {
            let (Value::Int(e), Value::Int(a), Value::Int(d)) = (&r[0], &r[1], &r[2]) else {
                panic!("sweep rows are all-integer");
            };
            entity_rows[*e as usize] += 1;
            let g = by_detail.entry(*d).or_default();
            g.0 += 1;
            g.1 += a;
        }
        let table = Table::from_rows(name, r_schema(), &rows).expect("rows match r_schema");
        SweepTable {
            label,
            name,
            distinct,
            table,
            entity_rows,
            by_detail,
        }
    })
    .collect()
}

/// The customer and amount of every sale of one fact table, indexed by
/// `sale_id`.
pub struct Sales {
    pub cust: Vec<u32>,
    pub amount: Vec<u32>,
    /// `prefix[i]` = sums over sales `0..i`, for O(1) range digests.
    prefix_amount: Vec<u64>,
    prefix_cust: Vec<u64>,
}

impl Sales {
    /// Replays `wide_sales` / `sales_fact`: both draw `cust` then `amount`
    /// per sale from `StdRng::seed_from_u64(cfg.seed)`.
    fn replay(cfg: &WarehouseConfig) -> Sales {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.sales as usize;
        let (mut cust, mut amount) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut prefix_amount, mut prefix_cust) = (vec![0u64], vec![0u64]);
        for i in 0..n {
            let c = rng.random_range(0..cfg.customers);
            let a: i64 = rng.random_range(1..1000);
            cust.push(c as u32);
            amount.push(a as u32);
            prefix_amount.push(prefix_amount[i] + a as u64);
            prefix_cust.push(prefix_cust[i] + c);
        }
        Sales {
            cust,
            amount,
            prefix_amount,
            prefix_cust,
        }
    }

    pub fn len(&self) -> u64 {
        self.cust.len() as u64
    }

    /// Sales per customer.
    pub fn rows_per_customer(&self, customers: u64) -> Vec<u64> {
        let mut n = vec![0u64; customers as usize];
        for &c in &self.cust {
            n[c as usize] += 1;
        }
        n
    }

    /// What a scan of `sale_id in [start, start + rows)` must add up to.
    pub fn range_digest(&self, start: u64, rows: u64) -> RowDigest {
        let (a, b) = (start as usize, (start + rows) as usize);
        RowDigest {
            rows,
            sum_sale_id: (a as u64..b as u64).sum(),
            sum_cust: self.prefix_cust[b] - self.prefix_cust[a],
            sum_amount: self.prefix_amount[b] - self.prefix_amount[a],
        }
    }

    /// `region_name -> sum(amount)` over `sale_id in [start, start + rows)`.
    pub fn region_sums(&self, start: u64, rows: u64, regions: u64) -> BTreeMap<String, i64> {
        let mut sums = BTreeMap::new();
        for i in start as usize..(start + rows) as usize {
            *sums
                .entry(region_name(self.cust[i] as u64, regions))
                .or_insert(0) += self.amount[i] as i64;
        }
        sums
    }
}

pub fn customer_name(c: u64) -> String {
    format!("customer-{c}")
}

pub fn region_name(c: u64, regions: u64) -> String {
    format!("region-{}", region_of(c, regions))
}

/// Order-free digest of a streamed row set whose rows start
/// `sale_id, cust_id` and carry `amount` somewhere after.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    pub sum_sale_id: u64,
    pub sum_cust: u64,
    pub sum_amount: u64,
}

/// The warehouse catalog and its oracle.
pub struct Warehouse {
    /// `sales_wide`, `customer_dim`, `recent`, `orders_wide`.
    pub tables: Vec<Table>,
    pub wide: Sales,
    pub recent: Sales,
    /// Bytes of user data in the four tables: int 8, str its length.
    pub user_bytes: u64,
}

pub fn warehouse(seed: u64, scale: &Scale) -> Warehouse {
    let cfg = WarehouseConfig {
        sales: scale.sales,
        customers: scale.customers,
        regions: scale.regions,
        seed,
    };
    let recent_cfg = WarehouseConfig {
        sales: scale.recent,
        seed: seed ^ 0x5EED_0001,
        ..cfg.clone()
    };
    let orders_cfg = WarehouseConfig {
        sales: scale.orders,
        customers: scale.order_customers,
        seed: seed ^ 0x5EED_0002,
        ..cfg.clone()
    };
    let tables = vec![
        wide_sales(&cfg),
        star_customer_dim(&cfg),
        sales_fact(&recent_cfg).renamed("recent"),
        wide_sales(&orders_cfg).renamed("orders_wide"),
    ];
    let (wide, recent, orders) = (
        Sales::replay(&cfg),
        Sales::replay(&recent_cfg),
        Sales::replay(&orders_cfg),
    );
    let dim_strings = |c: u64| (customer_name(c).len() + region_name(c, cfg.regions).len()) as u64;
    let wide_bytes =
        |s: &Sales| -> u64 { s.cust.iter().map(|&c| 24 + dim_strings(c as u64)).sum() };
    let user_bytes = wide_bytes(&wide)
        + wide_bytes(&orders)
        + (0..cfg.customers).map(|c| 8 + dim_strings(c)).sum::<u64>()
        + 24 * recent.len();
    Warehouse {
        tables,
        wide,
        recent,
        user_bytes,
    }
}
