//! The engine's spans over a saved and reopened warehouse catalog: the
//! open's per-column dictionary and segment-metadata decode, the
//! fault-in's payload decode and the selection walker, per encoding (a
//! range segment under its own walker span, `walk.range`), and
//! the dictionary layer's value orders and remaps under a round of reads
//! and joins, printed as a table (`cargo test --release --test spans --
//! --nocapture`).
//! A second catalog holds `sales_wide.sale_id` alone, so its dictionary's
//! share of the open can be read against its ids and ones. A second test
//! prints the evolution operators' per-chunk spans beside the seal and the
//! walker for one DECOMPOSE + MERGE of a 256 Ki-row, 10,000-entity sweep
//! table. A third serves the benchmark's `recent ⋈ customer_dim` join of
//! 65,536 rows over loopback and prints the wire's spans: the server
//! encoding each `Rows` batch, the client decoding it. Its own
//! binary, and the tests take turns: the span registry is process-wide.

use cods::{decompose, merge, Cods, DecomposeSpec, MergeStrategy};
use cods_query::{parse_query, QueryOutput};
use cods_server::{Client, Server, ServerConfig};
use cods_storage::persist::{read_catalog, save_catalog};
use cods_storage::span::{self, Span, SpanStats};
use cods_storage::{Catalog, Schema, Table};
use cods_workload::gen::{generate_table, GenConfig};
use cods_workload::warehouse::{sales_fact, star_customer_dim, wide_sales, WarehouseConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Held by each test while it records: the registry is process-wide.
static REGISTRY: Mutex<()> = Mutex::new(());

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
/// row; returns the catalog and what each site recorded.
fn recorded_open(path: &Path) -> (Catalog, Vec<SpanStats>) {
    span::reset();
    span::set_recording(true);
    let cat = read_catalog(path).unwrap();
    for t in cat.snapshot() {
        t.check_invariants().unwrap();
        t.to_rows();
    }
    span::set_recording(false);
    (cat, span::snapshot())
}

/// Runs `queries` over `cat` with recording on; returns what each site
/// recorded.
fn recorded_queries(cat: &Catalog, queries: &[&str]) -> Vec<SpanStats> {
    span::reset();
    span::set_recording(true);
    for q in queries {
        let resolved = parse_query(q)
            .unwrap()
            .resolve(&cat.snapshot_view())
            .unwrap();
        if let QueryOutput::Rows { batches, .. } = resolved.run().unwrap() {
            for batch in batches {
                batch.unwrap();
            }
        }
    }
    span::set_recording(false);
    span::snapshot()
}

/// Reads and joins over the warehouse: a range and a point read on the
/// dense key, a group-by with MIN/MAX, and joins of a dense key with a
/// dense key and of a shuffled foreign key with a dense key.
const READS_AND_JOINS: [&str; 6] = [
    "count sales_wide where sale_id < 100",
    "scan customer_dim where cust_name = 'customer-7'",
    "agg sales_wide by region_name max:amount,min:cust_name",
    "join sales_wide recent on sale_id=sale_id",
    "join recent customer_dim on cust_id=cust_id",
    "join sales_wide customer_dim on cust_name=cust_name",
];

fn of(stats: &[SpanStats], s: Span) -> &SpanStats {
    stats.iter().find(|x| x.span == s).unwrap()
}

#[test]
fn a_reopened_warehouse_reports_its_open_and_payload_spans() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
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

    let (cat, stats) = recorded_open(&all);
    println!("warehouse ({} sales), open + fault + read:", cfg.sales);
    print!("{}", span::render());
    // 5 + 3 + 3 columns, each decoded once at the open.
    for s in [Span::OpenDict, Span::OpenSegMeta] {
        assert_eq!(of(&stats, s).count, 11, "{}", s.name());
    }
    // Both `sale_id` columns and the dimension's key and name are range
    // segments, read from their bounds with no payload; the rest bitmap.
    // Nothing is sealed by an open, and nothing is packed by codes.
    for s in [Span::FaultBitmap, Span::WalkRange, Span::WalkBitmap] {
        assert!(of(&stats, s).count > 0, "{}", s.name());
    }
    for s in [
        Span::SealBitmap,
        Span::SealRle,
        Span::SealPacked,
        Span::SealRange,
        Span::FaultRle,
        Span::FaultPacked,
        Span::WalkPacked,
    ] {
        assert_eq!(of(&stats, s).count, 0, "{}", s.name());
    }
    assert_eq!(
        of(&stats, Span::WalkRange).items,
        2 * cfg.sales + 2 * cfg.customers
    );
    // The open sorts what does not ascend, to refuse a repeated value; the
    // dense keys are held by their bounds, whose order needs no pass.
    assert!(of(&stats, Span::OrderSorted).count > 0);
    assert_eq!(of(&stats, Span::OrderIdentity).count, 0);

    let queried = recorded_queries(&cat, &READS_AND_JOINS);
    println!("the same catalog, reads and joins:");
    print!("{}", span::render());
    // An opened catalog holds no value → id map, and reads and joins build
    // none: they resolve through value orders. The joins reconcile a dense
    // key with a dense key by an offset, anything else by a merge.
    for stats in [&stats, &queried] {
        assert_eq!(of(stats, Span::InternMap).count, 0);
    }
    for s in [Span::RemapOffset, Span::RemapMerge] {
        assert!(of(&queried, s).count > 0, "{}", s.name());
    }

    let (_, stats) = recorded_open(&alone);
    println!("sales_wide.sale_id alone, open + fault + read:");
    print!("{}", span::render());
    // Its dictionary is a dense run and its segment a range: the open reads
    // no value and no present id, and derives its order without a pass.
    assert_eq!(of(&stats, Span::OpenDict).count, 1);
    assert_eq!(of(&stats, Span::OpenDict).items, 0);
    assert_eq!(of(&stats, Span::OpenSegMeta).items, 0);
    assert_eq!(of(&stats, Span::OrderIdentity).count, 0);
    assert_eq!(of(&stats, Span::OrderSorted).count, 0);
    assert_eq!(of(&stats, Span::WalkRange).items, cfg.sales);
    for p in [all, alone] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn a_decompose_merge_cycle_reports_its_per_chunk_spans() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    // The shape of the benchmark's `cycle_d10k`: 256 Ki rows, 10,000
    // entities, entity → detail, four 64 Ki-row segments.
    let rows = 256 << 10;
    let r = generate_table("R", &GenConfig::sweep_point(rows, 10_000));
    span::reset();
    span::set_recording(true);
    let spec = DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]);
    let parts = decompose(&r, &spec).unwrap();
    let keyed = MergeStrategy::KeyForeignKey {
        keyed: "T".to_string(),
    };
    let merged = merge(&parts.unchanged, &parts.changed, "R2", &keyed).unwrap();
    span::set_recording(false);
    let stats = span::snapshot();
    println!("DECOMPOSE + MERGE of a {rows}-row, 10,000-entity table:");
    print!("{}", span::render());
    assert_eq!(merged.output.rows(), rows);
    // One span per row chunk, each over every row once: the key is not
    // unique, so Property 2 is checked. The MERGE writes one output
    // segment of its one payload column per chunk, in the task that maps
    // the chunk's keys.
    for s in [Span::SmoDistinction, Span::SmoFdCheck, Span::SmoKeyFkWrite] {
        assert_eq!(of(&stats, s).count, 4, "{}", s.name());
        assert_eq!(of(&stats, s).items, rows, "{}", s.name());
    }
    println!(
        "smo.key_fk_write: {} per-segment writes",
        of(&stats, Span::SmoKeyFkWrite).count
    );
    for s in [Span::SealBitmap, Span::WalkBitmap] {
        assert!(of(&stats, s).count > 0, "{}", s.name());
    }

    // A unique key decodes no column for Property 2: `T` has one row per
    // entity, in one segment.
    span::reset();
    span::set_recording(true);
    let spec = DecomposeSpec::new("A", &["entity"], "B", &["entity", "detail"]);
    let again = decompose(&parts.changed, &spec).unwrap();
    span::set_recording(false);
    let stats = span::snapshot();
    assert_eq!(again.distinct_keys, 10_000);
    assert_eq!(of(&stats, Span::SmoDistinction).count, 1);
    assert_eq!(of(&stats, Span::SmoFdCheck).count, 0);
}

#[test]
fn a_served_join_reports_its_wire_spans() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = WarehouseConfig {
        sales: 1 << 16,
        customers: 10_000,
        regions: 50,
        seed: 1,
    };
    let cods = Cods::new();
    for t in [sales_fact(&cfg).renamed("recent"), star_customer_dim(&cfg)] {
        cods.catalog().create(t).unwrap();
    }
    let mut handle = Server::bind("127.0.0.1:0", Arc::new(cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let join = |client: &mut Client| {
        let keys = || vec!["cust_id".to_string()];
        let mut rows = 0;
        let summary = client
            .join_with("recent", "customer_dim", keys(), keys(), |_, batch| {
                rows += batch.len() as u64
            })
            .unwrap();
        assert_eq!(rows, summary.rows);
        summary
    };
    // One join to warm both ends, then one recorded.
    join(&mut client);
    let streamed = |client: &mut Client| client.metrics().unwrap().bytes_streamed;
    let before = streamed(&mut client);
    span::reset();
    span::set_recording(true);
    let summary = join(&mut client);
    span::set_recording(false);
    let stats = span::snapshot();
    let bytes = streamed(&mut client) - before;
    handle.shutdown();
    println!(
        "recent ⋈ customer_dim over loopback: {} rows in {} batches, {bytes} bytes",
        summary.rows, summary.batches
    );
    print!("{}", span::render());
    assert_eq!(summary.rows, cfg.sales);
    // One span per batch on each end, over every row once.
    for s in [Span::WireEncode, Span::WireDecode] {
        assert_eq!(of(&stats, s).count, summary.batches, "{}", s.name());
        assert_eq!(of(&stats, s).items, cfg.sales, "{}", s.name());
    }
}
