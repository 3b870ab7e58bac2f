//! Persistence across evolution: tables survive a save/load cycle at every
//! point of an evolution sequence, and the loaded catalog keeps evolving.

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_storage::persist::{read_catalog, save_catalog};
use cods_workload::GenConfig;
use std::sync::{Mutex, MutexGuard};

/// The segment cache's counters are process-wide, so every test here that
/// faults a segment in runs alone while one of them reads the counters.
static CACHE: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    CACHE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn evolved_catalog_round_trips_through_disk() {
    let _serial = serialized();
    let dir = std::env::temp_dir().join("cods_it_persist");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("evolved.catalog");

    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(2_000, 100),
        ))
        .unwrap();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    let s_tuples = cods.table("S").unwrap().tuple_multiset();
    let t_tuples = cods.table("T").unwrap().tuple_multiset();

    save_catalog(cods.catalog(), &path).unwrap();
    let loaded = read_catalog(&path).unwrap();
    assert_eq!(loaded.table_names(), vec!["S", "T"]);
    assert_eq!(loaded.get("S").unwrap().tuple_multiset(), s_tuples);
    assert_eq!(loaded.get("T").unwrap().tuple_multiset(), t_tuples);
    loaded.get("S").unwrap().check_invariants().unwrap();
    loaded.get("T").unwrap().check_invariants().unwrap();

    // The reloaded catalog must keep evolving correctly.
    let cods2 = Cods::with_catalog(loaded);
    cods2
        .plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(cods2.table("R").unwrap().rows(), 2_000);

    std::fs::remove_file(&path).ok();
}

/// Mixed-encoding catalogs persist: RLE columns round-trip through disk in
/// their own segment directories and keep evolving after reload.
#[test]
fn rle_encoded_catalog_round_trips_through_disk() {
    let _serial = serialized();
    use cods_storage::Encoding;
    let dir = std::env::temp_dir().join("cods_it_persist_rle");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rle.catalog");

    let cods = Cods::new();
    let base = cods_workload::generate_table("R", &GenConfig::sweep_point(2_000, 100));
    let clustered = base.cluster_by(&["entity"]).unwrap();
    let rle = clustered
        .map_columns(Some("entity"), |c| c.recode(Encoding::Rle))
        .unwrap();
    let tuples = rle.tuple_multiset();
    cods.catalog().create(rle).unwrap();
    save_catalog(cods.catalog(), &path).unwrap();

    let loaded = read_catalog(&path).unwrap();
    let r = loaded.get("R").unwrap();
    r.check_invariants().unwrap();
    assert_eq!(r.tuple_multiset(), tuples);
    let entity = r.column_by_name("entity").unwrap();
    assert!(entity.is_uniform(Encoding::Rle));
    assert!(entity.segment_count() >= 1);

    // The reloaded RLE table keeps evolving at data level.
    let cods2 = Cods::with_catalog(loaded);
    cods2
        .plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
        }])
        .unwrap()
        .execute()
        .unwrap();
    assert!(cods2
        .table("T")
        .unwrap()
        .column_by_name("entity")
        .unwrap()
        .is_uniform(Encoding::Rle));
    std::fs::remove_file(&path).ok();
}

/// Zone maps and encoding pins survive a catalog round trip and keep
/// driving pruned scans after reload. The file stores no zones: the reopened
/// columns derive them from their segment stats without faulting a payload.
#[test]
fn zones_and_pins_survive_catalog_round_trip() {
    use cods_query::Predicate;
    use cods_storage::{segment_cache, Encoding, RecodeScope, RecodeTarget};
    let _serial = serialized();
    let dir = std::env::temp_dir().join("cods_it_persist_zones");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zones.catalog");

    let cods = Cods::new();
    let base = cods_workload::generate_table("R", &GenConfig::sweep_point(3_000, 100));
    let clustered = base
        .cluster_by(&["entity"])
        .unwrap()
        .map_columns(Some("attr"), |c| {
            c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
        })
        .unwrap();
    let zones_before: Vec<Vec<cods_storage::Zone>> = clustered
        .columns()
        .iter()
        .map(|c| c.zones().to_vec())
        .collect();
    cods.catalog().create(clustered).unwrap();
    save_catalog(cods.catalog(), &path).unwrap();

    let loaded = read_catalog(&path).unwrap();
    let r = loaded.get("R").unwrap();
    let misses = segment_cache().stats().misses;
    for (col, before) in r.columns().iter().zip(&zones_before) {
        assert_eq!(col.zones(), before.as_slice(), "zones round-trip exactly");
    }
    assert_eq!(
        segment_cache().stats().misses,
        misses,
        "deriving zones faults no payload in"
    );
    r.check_invariants().unwrap();
    assert!(r.column_by_name("attr").unwrap().encoding_pinned());
    assert!(!r.column_by_name("entity").unwrap().encoding_pinned());

    // Pruned and exhaustive scans agree on the reloaded table.
    let pred = Predicate::ge("entity", 20i64).and(Predicate::lt("entity", 25i64));
    assert_eq!(
        cods_query::bitmap_scan::predicate_mask(&r, &pred).unwrap(),
        cods_query::bitmap_scan::predicate_mask_unpruned(&r, &pred).unwrap()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_load_then_evolve() {
    let _serial = serialized();
    use cods_storage::{load_str, LoadOptions, Schema, ValueType};
    let schema = Schema::build(
        &[
            ("employee", ValueType::Str),
            ("skill", ValueType::Str),
            ("address", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let csv = "\
Jones,Typing,425 Grant Ave
Jones,Shorthand,425 Grant Ave
Roberts,Light Cleaning,747 Industrial Way
Ellis,Alchemy,747 Industrial Way
Jones,Whittling,425 Grant Ave
Ellis,Juggling,747 Industrial Way
Harrison,Light Cleaning,425 Grant Ave
";
    let table = load_str("R", &schema, csv, &LoadOptions::default()).unwrap();
    let cods = Cods::new();
    cods.catalog().create(table).unwrap();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    assert_eq!(cods.table("T").unwrap().rows(), 4);
}

/// A save is a function of the content: two warehouses generated from one
/// seed and saved fresh store identical bytes — their dense keys recorded
/// by their bounds (format 13) like every other column — and two seeds
/// store different ones.
#[test]
fn two_same_seed_saves_store_identical_bytes() {
    use cods_storage::Catalog;
    use cods_workload::warehouse::{sales_fact, star_customer_dim, wide_sales, WarehouseConfig};
    let _serial = serialized();
    let dir = std::env::temp_dir().join(format!("cods_it_same_seed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let saved = |seed: u64, name: &str| {
        let cfg = WarehouseConfig {
            sales: 20_000,
            customers: 1_000,
            regions: 10,
            seed,
        };
        let cat = Catalog::new();
        for t in [wide_sales(&cfg), star_customer_dim(&cfg), sales_fact(&cfg)] {
            cat.create(t).unwrap();
        }
        let dense = cat
            .snapshot()
            .iter()
            .flat_map(|t| t.columns().to_vec())
            .filter(|c| c.dict().dense_first().is_some())
            .count();
        assert!(dense >= 2, "the sale and customer keys are dense");
        let path = dir.join(name);
        save_catalog(&cat, &path).unwrap();
        std::fs::read(&path).unwrap()
    };
    let (a, b, other) = (saved(7, "a.cods"), saved(7, "b.cods"), saved(8, "c.cods"));
    assert_eq!(a, b);
    assert_ne!(a, other);
    std::fs::remove_dir_all(&dir).ok();
}
