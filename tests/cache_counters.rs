//! Properties read off the process-global segment cache's counters
//! (`misses`, `decoded_bytes`, `resident_bytes`). The counters belong to
//! the process, so this binary holds nothing else and every test runs
//! under one mutex; properties a table can answer for itself
//! (`residency_counts`, `encoding_counts`, `payload_bytes`) are asserted
//! next to the code they belong to instead.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use cods_query::bitmap_scan::predicate_mask;
use cods_query::{join_stream, plan_join, tuple, Predicate};
use cods_storage::persist::{read_table, save_table};
use cods_storage::{segment_cache, Schema, Table, Value, ValueType};

static COUNTERS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cods_it_cache_counters_{}_{tag}.tbl",
        std::process::id()
    ))
}

fn int_table(name: &str, cols: [&str; 2], seg_rows: u64, rows: &[Vec<Value>]) -> Table {
    let schema =
        Schema::build(&[(cols[0], ValueType::Int), (cols[1], ValueType::Int)], &[]).unwrap();
    Table::from_rows_with_segment_rows(name, schema, rows, seg_rows).unwrap()
}

/// A lazy open decodes no payload byte, and a clustered range scan over
/// the demand-paged table then faults in exactly the segments the zone
/// tier lets through — one cache miss each, everything else stays on disk.
#[test]
fn pruned_scan_over_a_lazy_table_faults_exactly_the_zone_survivors() {
    const ROWS: u64 = 1 << 16;
    const SEG_ROWS: u64 = 1 << 10; // 64 segments per column
    const PER_KEY: u64 = 4; // clustered: key k holds rows 4k..4k+4
    let _g = serialized();
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            vec![
                Value::int((i / PER_KEY) as i64),
                Value::int((i.wrapping_mul(2_654_435_761) % 256) as i64),
            ]
        })
        .collect();
    let resident = int_table("C", ["k", "v"], SEG_ROWS, &rows);
    let path = scratch("zones");
    save_table(&resident, &path).unwrap();
    let cache = segment_cache();

    cache.reset_counters();
    let lazy = read_table(&path).unwrap();
    let opened = cache.stats();
    assert_eq!((opened.misses, opened.decoded_bytes), (0, 0));

    // k in [lo, hi) lives in rows [4·lo, 4·hi): segments 31, 32 and 33.
    let (lo, hi) = (8_000i64, 8_500i64);
    let (first, last) = (
        lo as u64 * PER_KEY / SEG_ROWS,
        (hi as u64 * PER_KEY - 1) / SEG_ROWS,
    );
    let survivors = last - first + 1;
    assert_eq!(survivors, 3);
    let pred = Predicate::ge("k", lo).and(Predicate::lt("k", hi));
    let mask = predicate_mask(&lazy, &pred).unwrap();
    let scanned = cache.stats();
    assert_eq!(
        scanned.misses, survivors,
        "a pruned scan faults the zone survivors and nothing else"
    );
    assert_eq!(mask, predicate_mask(&resident, &pred).unwrap());

    // Faulting the rest in decodes every payload: the scan paid for 3 of
    // the 128 segments, well under a tenth of the bytes.
    lazy.fault_in_all();
    let full = cache.stats();
    assert_eq!(full.misses, 2 * ROWS / SEG_ROWS);
    assert!(scanned.decoded_bytes > 0);
    assert!(scanned.decoded_bytes * 10 <= full.decoded_bytes);
    std::fs::remove_file(&path).ok();
}

/// A join whose build side does not fit the cache budget runs in several
/// partition passes, still returns the oracle's rows, and leaves no more
/// resident than the budget allows — the pass count and the gauge stay
/// honest when probe and build segments fault through a starved cache.
#[test]
fn starved_join_runs_multi_pass_and_ends_within_budget() {
    const BUDGET: u64 = 8 << 10;
    let _g = serialized();
    let probe_rows: Vec<Vec<Value>> = (0..20_000u64)
        .map(|i| {
            vec![
                Value::int((i.wrapping_mul(48_271) % (1_024 + 64)) as i64),
                Value::int((i % 97) as i64),
            ]
        })
        .collect();
    let dim_rows: Vec<Vec<Value>> = (0..1_024i64)
        .map(|i| vec![Value::int(i), Value::int(i * 3)])
        .collect();
    let mut want = tuple::hash_join(&probe_rows, &dim_rows, &[0], &[0]);
    want.sort();

    // Only saved-and-reopened segments count against the budget.
    let (lp, rp) = (scratch("probe"), scratch("dim"));
    save_table(&int_table("P", ["k", "v"], 2_048, &probe_rows), &lp).unwrap();
    save_table(&int_table("D", ["k", "w"], 256, &dim_rows), &rp).unwrap();
    let probe = Arc::new(read_table(&lp).unwrap());
    let dim = Arc::new(read_table(&rp).unwrap());

    let cache = segment_cache();
    cache.set_budget(BUDGET);
    let plan = plan_join(&probe, &dim, &[0], &[0], BUDGET);
    assert!(
        plan.partitions > 1,
        "{} estimated build bytes fit a {BUDGET}-byte budget",
        plan.est_build_bytes
    );
    // The tables outlive the join, so their segments stay charged to the
    // cache unless it evicts them.
    let mut got: Vec<_> = join_stream(probe.clone(), dim.clone(), &[0], &[0], &plan).collect();
    let stats = cache.stats();
    cache.set_budget(u64::MAX);
    got.sort();
    assert_eq!(got, want);
    assert!(
        stats.resident_bytes <= stats.budget,
        "join left {} resident bytes over the {} byte budget",
        stats.resident_bytes,
        stats.budget
    );
    std::fs::remove_file(&lp).ok();
    std::fs::remove_file(&rp).ok();
}
