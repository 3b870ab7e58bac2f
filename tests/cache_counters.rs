//! Properties read off the process-global segment cache's counters
//! (`misses`, `decoded_bytes`, `resident_bytes`). The counters belong to
//! the process, so this binary holds nothing else and every test runs
//! under one mutex; properties a table can answer for itself
//! (`residency_counts`, `encoding_counts`, `payload_bytes`) are asserted
//! next to the code they belong to instead.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use cods_query::bitmap_scan::predicate_mask;
use cods_query::{join_stream, plan_join, tuple, BuildSide, Predicate};
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

const SEG_ROWS: u64 = 1 << 10;
const PER_KEY: u64 = 4;

/// `rows` rows of M(k, v) in segments of 1,024: `k` clustered (key `i / 4`,
/// so segment `s` holds keys `256·s .. 256·(s+1)`), `v` scattered over 256
/// values present in every segment. Returns the resident table and its
/// lazily reopened twin; the counters are reset just before the open.
fn clustered_and_scattered(tag: &str, rows: u64) -> (Table, Table, PathBuf) {
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::int((i / PER_KEY) as i64),
                Value::int((i.wrapping_mul(2_654_435_761) % 256) as i64),
            ]
        })
        .collect();
    let resident = int_table("M", ["k", "v"], SEG_ROWS, &rows);
    let path = scratch(tag);
    save_table(&resident, &path).unwrap();
    segment_cache().reset_counters();
    let lazy = read_table(&path).unwrap();
    (resident, lazy, path)
}

/// A lazy open decodes no payload byte, and a clustered range scan over
/// the demand-paged table then faults in exactly the zone tier's survivors
/// that the range covers only partly — one cache miss each. A survivor the
/// range covers entirely is a one-fill from its resident stats; everything
/// else stays on disk.
#[test]
fn pruned_scan_over_a_lazy_table_faults_exactly_the_zone_survivors() {
    const ROWS: u64 = 1 << 16; // 64 segments per column
    let _g = serialized();
    let (resident, lazy, path) = clustered_and_scattered("zones", ROWS);
    let cache = segment_cache();
    let opened = cache.stats();
    assert_eq!((opened.misses, opened.decoded_bytes), (0, 0));

    // k in [lo, hi) lives in rows [4·lo, 4·hi): segments 31, 32 and 33.
    let (lo, hi) = (8_000i64, 8_500i64);
    let (first, last) = (
        lo as u64 * PER_KEY / SEG_ROWS,
        (hi as u64 * PER_KEY - 1) / SEG_ROWS,
    );
    assert_eq!((first, last), (31, 33));
    let pred = Predicate::ge("k", lo).and(Predicate::lt("k", hi));
    let mask = predicate_mask(&lazy, &pred).unwrap();
    let scanned = cache.stats();
    assert_eq!(
        scanned.misses, 2,
        "a pruned scan faults the partly covered zone survivors and nothing else"
    );
    // Segment 32 lies inside the range: all ones, and still on disk.
    assert!(!lazy.column(0).segments()[32].is_resident());
    assert_eq!(
        mask.rank1(33 * SEG_ROWS) - mask.rank1(32 * SEG_ROWS),
        SEG_ROWS
    );
    assert_eq!(mask, predicate_mask(&resident, &pred).unwrap());

    // Faulting the rest in decodes every payload: the scan paid for 2 of
    // the 128 segments, well under a tenth of the bytes.
    lazy.fault_in_all();
    let full = cache.stats();
    assert_eq!(full.misses, 2 * ROWS / SEG_ROWS);
    assert!(scanned.decoded_bytes > 0);
    assert!(scanned.decoded_bytes * 10 <= full.decoded_bytes);
    std::fs::remove_file(&path).ok();
}

/// Range-major evaluation pays for a segment once per query: an OR of
/// eight leaves on one column, under a budget that cannot hold that
/// column, faults each of its segments once — not once per leaf.
#[test]
fn eight_leaf_or_faults_each_segment_of_its_column_once() {
    let _g = serialized();
    let (resident, lazy, path) = clustered_and_scattered("or8", 8 * SEG_ROWS);
    let v = lazy.column_by_name("v").unwrap();
    let cache = segment_cache();
    // Room for one segment of `v`: every fault evicts the one before it.
    cache.set_budget(v.segments()[0].compressed_bytes() as u64);
    let pred = (1..8i64).fold(Predicate::eq("v", 0i64), |acc, c| {
        acc.or(Predicate::eq("v", 31 * c))
    });
    let mask = predicate_mask(&lazy, &pred);
    let stats = cache.stats();
    cache.set_budget(u64::MAX);
    assert_eq!(stats.misses, v.segment_count() as u64);
    assert!(stats.evictions > 0, "the budget must have been binding");
    assert_eq!(mask.unwrap(), predicate_mask(&resident, &pred).unwrap());
    std::fs::remove_file(&path).ok();
}

/// A side that comes out constant decides its AND / OR for that range, and
/// the other side's segment is never faulted.
#[test]
fn short_circuited_side_is_never_faulted() {
    let _g = serialized();
    let (resident, lazy, path) = clustered_and_scattered("short", 8 * SEG_ROWS);
    let cache = segment_cache();

    // k < 600: segments 0–1 satisfy entirely (metadata says so), segment 2
    // partly, 3–7 are zone-pruned — so `v` is read for ranges 0–2 only,
    // and `k`'s payload for range 2 only.
    let and = Predicate::lt("k", 600i64).and(Predicate::eq("v", 5i64));
    let mask = predicate_mask(&lazy, &and).unwrap();
    assert_eq!(cache.stats().misses, 3 + 1);
    assert_eq!(mask, predicate_mask(&resident, &and).unwrap());

    // The mirror: k >= 600 is all-ones on ranges 3–7, which decides the
    // OR there; `v` is read for ranges 0–2, `k` for range 2.
    let lazy = read_table(&path).unwrap();
    cache.reset_counters();
    let or = Predicate::ge("k", 600i64).or(Predicate::eq("v", 5i64));
    let mask = predicate_mask(&lazy, &or).unwrap();
    assert_eq!(cache.stats().misses, 3 + 1);
    assert_eq!(mask, predicate_mask(&resident, &or).unwrap());
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
    let mut got: Vec<_> = join_stream(probe.clone(), dim.clone(), &[0], &[0], &plan)
        .flat_map(|batch| batch.to_rows())
        .collect();
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

/// A single-pass join reads each probe segment once: the scan that streams
/// the probe side is the only decode of it, the key column included — one
/// cache touch (a miss here, the table was just opened) per probe
/// `(column, segment)`, and the build side, resident, touches nothing.
#[test]
fn single_pass_join_touches_each_probe_segment_once() {
    const ROWS: u64 = 1 << 14; // 16 segments per column
    let _g = serialized();
    let (resident, lazy, path) = clustered_and_scattered("join_touch", ROWS);
    let dim_rows: Vec<Vec<Value>> = (0..(ROWS / PER_KEY) as i64)
        .step_by(2)
        .map(|k| vec![Value::int(k), Value::int(k * 3)])
        .collect();
    let dim = Arc::new(int_table("D", ["k", "w"], 256, &dim_rows));
    let mut want = tuple::hash_join(&resident.to_rows(), &dim_rows, &[0], &[0]);
    want.sort();

    let probe = Arc::new(lazy);
    let mut plan = plan_join(&probe, &dim, &[0], &[0], u64::MAX);
    plan.build = BuildSide::Right;
    assert_eq!(plan.partitions, 1);
    let cache = segment_cache();
    let before = cache.stats();
    let mut got: Vec<_> = join_stream(probe.clone(), dim, &[0], &[0], &plan)
        .flat_map(|batch| batch.to_rows())
        .collect();
    let after = cache.stats();
    got.sort();
    assert_eq!(got, want);
    let segments: u64 = probe
        .columns()
        .iter()
        .map(|c| c.segment_count() as u64)
        .sum();
    assert_eq!(segments, 2 * ROWS / SEG_ROWS);
    let touches = (after.hits - before.hits) + (after.misses - before.misses);
    assert_eq!(touches, segments, "each probe (column, segment) once");
    assert_eq!(after.misses - before.misses, segments);
    std::fs::remove_file(&path).ok();
}
