//! The engine's spans over a saved and reopened warehouse catalog: the
//! open's per-column dictionary and segment-metadata decode, the
//! fault-in's payload decode and the selection walker, per encoding,
//! printed as a table (`cargo test --release --test spans -- --nocapture`).
//! A second catalog holds `sales_wide.sale_id` alone, so its dictionary's
//! share of the open can be read against its ids and ones. Its own binary:
//! the span registry is process-wide.

use cods_storage::persist::{read_catalog, save_catalog};
use cods_storage::span::{self, Span, SpanStats};
use cods_storage::{Catalog, Schema, Table};
use cods_workload::warehouse::{sales_fact, star_customer_dim, wide_sales, WarehouseConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cods_spans_{name}_{}.cods", std::process::id()))
}

fn saved(path: &Path, tables: Vec<Table>) {
    let cat = Catalog::new();
    for t in tables {
        cat.create(t).unwrap();
    }
    save_catalog(&cat, path).unwrap();
}

/// Opens `path` with recording on, faults every payload in and reads every
/// row; returns what each site recorded.
fn recorded_open(path: &Path) -> Vec<SpanStats> {
    span::reset();
    span::set_recording(true);
    let cat = read_catalog(path).unwrap();
    for t in cat.snapshot() {
        t.check_invariants().unwrap();
        t.to_rows();
    }
    span::set_recording(false);
    span::snapshot()
}

fn of(stats: &[SpanStats], s: Span) -> &SpanStats {
    stats.iter().find(|x| x.span == s).unwrap()
}

#[test]
fn a_reopened_warehouse_reports_its_open_and_payload_spans() {
    let cfg = WarehouseConfig {
        sales: 1 << 16,
        customers: 10_000,
        regions: 50,
        seed: 1,
    };
    let wide = wide_sales(&cfg);
    let sale_id = Table::new(
        "sale_id",
        Schema::new(vec![wide.schema().columns()[0].clone()]).unwrap(),
        vec![Arc::clone(wide.column(0))],
    )
    .unwrap();
    let (all, alone) = (scratch("warehouse"), scratch("sale_id"));
    saved(
        &all,
        vec![
            wide,
            star_customer_dim(&cfg),
            sales_fact(&cfg).renamed("recent"),
        ],
    );
    saved(&alone, vec![sale_id]);

    let stats = recorded_open(&all);
    println!("warehouse ({} sales), open + fault + read:", cfg.sales);
    print!("{}", span::render());
    // 5 + 3 + 3 columns, each decoded once at the open.
    for s in [Span::OpenDict, Span::OpenSegMeta] {
        assert_eq!(of(&stats, s).count, 11, "{}", s.name());
    }
    // Both `sale_id` columns and the dimension's key and name are packed,
    // the rest bitmap; nothing is sealed by an open.
    for s in [
        Span::FaultPacked,
        Span::FaultBitmap,
        Span::WalkPacked,
        Span::WalkBitmap,
    ] {
        assert!(of(&stats, s).count > 0, "{}", s.name());
    }
    for s in [
        Span::SealBitmap,
        Span::SealRle,
        Span::SealPacked,
        Span::FaultRle,
    ] {
        assert_eq!(of(&stats, s).count, 0, "{}", s.name());
    }
    assert_eq!(
        of(&stats, Span::WalkPacked).items,
        2 * cfg.sales + 2 * cfg.customers
    );

    let stats = recorded_open(&alone);
    println!("sales_wide.sale_id alone, open + fault + read:");
    print!("{}", span::render());
    assert_eq!(of(&stats, Span::OpenDict).items, cfg.sales);
    assert_eq!(of(&stats, Span::OpenSegMeta).items, cfg.sales);
    for p in [all, alone] {
        std::fs::remove_file(p).ok();
    }
}
