//! Properties read off the process-global segment cache's counters
//! (`misses`, `decoded_bytes`, `resident_bytes`). The counters belong to
//! the process, so this binary holds nothing else and every test runs
//! under one mutex; properties a table can answer for itself
//! (`residency_counts`, `encoding_counts`, `payload_bytes`) are asserted
//! next to the code they belong to instead.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use cods_bitmap::Wah;
use cods_query::bitmap_scan::predicate_mask;
use cods_query::{
    aggregate_table_masked, join_stream, plan_join, tuple, AggOp, BuildSide, Predicate,
};
use cods_storage::persist::{read_catalog, read_table, save_catalog, save_table};
use cods_storage::{
    segment_cache, Catalog, Encoding, RecodeScope, RecodeTarget, Schema, Table, Value, ValueType,
};

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
/// column, reads each of its segments once — not once per leaf. The OR is
/// one id-set leaf of eight ids, so each read takes just those bitmaps
/// from disk: one miss per segment, no segment of the column made resident
/// and nothing evicted by the query, and under a tenth of the bytes that
/// faulting those segments in would decode.
#[test]
fn eight_leaf_or_faults_each_segment_of_its_column_once() {
    let _g = serialized();
    let (resident, lazy, path) = clustered_and_scattered("or8", 8 * SEG_ROWS);
    let v = lazy.column_by_name("v").unwrap();
    let cache = segment_cache();
    // Room for one segment of `v`: a fault would evict the one before it.
    // Setting it pages out what the save left resident; the query starts
    // after that.
    cache.set_budget(v.segments()[0].meta().bytes as u64);
    let before = cache.stats();
    let pred = (1..8i64).fold(Predicate::eq("v", 0i64), |acc, c| {
        acc.or(Predicate::eq("v", 31 * c))
    });
    let mask = predicate_mask(&lazy, &pred);
    let stats = cache.stats();
    cache.set_budget(u64::MAX);
    assert_eq!(stats.misses, v.segment_count() as u64);
    assert_eq!(
        stats.evictions, before.evictions,
        "the query faulted nothing in to evict"
    );
    assert!(
        v.segments().iter().all(|s| !s.is_resident()),
        "the reads left every segment of `v` on disk"
    );
    let whole_faults: u64 = v.segments().iter().map(|s| s.meta().bytes as u64).sum();
    assert!(stats.decoded_bytes > 0);
    assert!(
        stats.decoded_bytes * 10 <= whole_faults,
        "{} bytes read against {whole_faults} for whole faults",
        stats.decoded_bytes
    );
    assert_eq!(mask.unwrap(), predicate_mask(&resident, &pred).unwrap());
    std::fs::remove_file(&path).ok();
}

/// A same-column OR of equalities is one id-set leaf, decided per segment
/// from resident stats: an IN of the 256 keys that fill segment 3 makes it
/// a one-fill and every other segment a zone-pruned zero-fill, with no
/// fault at all (as separate leaves, each key would be partial there and
/// fault the segment); an IN of keys in segments 2 and 5 faults those two.
#[test]
fn a_folded_in_faults_only_the_segments_it_partly_covers() {
    let _g = serialized();
    let (resident, lazy, path) = clustered_and_scattered("in", 8 * SEG_ROWS);
    let cache = segment_cache();
    let any_key = |keys: &mut dyn Iterator<Item = i64>| {
        let first = Predicate::eq("k", keys.next().unwrap());
        keys.fold(first, |acc, k| acc.or(Predicate::eq("k", k)))
    };
    let keys_per_seg = (SEG_ROWS / PER_KEY) as i64;

    let whole = any_key(&mut (3 * keys_per_seg..4 * keys_per_seg));
    let mask = predicate_mask(&lazy, &whole).unwrap();
    assert_eq!(cache.stats().misses, 0, "the filled segment is a one-fill");
    assert_eq!(mask.count_ones(), SEG_ROWS);
    assert_eq!(
        mask.rank1(4 * SEG_ROWS) - mask.rank1(3 * SEG_ROWS),
        SEG_ROWS
    );
    assert_eq!(mask, predicate_mask(&resident, &whole).unwrap());

    let two = any_key(&mut [600, 1_300, 601, 600].into_iter());
    assert_eq!([600, 1_300].map(|k| k as u64 * PER_KEY / SEG_ROWS), [2, 5]);
    let mask = predicate_mask(&lazy, &two).unwrap();
    assert_eq!(cache.stats().misses, 2, "segments 2 and 5, nothing else");
    assert_eq!(mask.count_ones(), 3 * PER_KEY);
    assert_eq!(mask, predicate_mask(&resident, &two).unwrap());
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

/// A masked group-by reads each segment it needs once, however the mask
/// cuts it: over a lazily opened table, grouped by a bitmap or an RLE
/// column, with one or two grouping columns, under a mask leaving three
/// intervals in each of segments 0–2, sixteen in each of 3–5 and none in
/// 6–7, every (column, segment) the query reads is one cache miss and
/// none is touched twice.
#[test]
fn masked_group_by_faults_each_segment_it_reads_once() {
    const ROWS: u64 = 8 * SEG_ROWS;
    let _g = serialized();
    let (resident, _, path) = clustered_and_scattered("agg", ROWS);
    let selected = |r: u64| {
        let (seg, at) = (r / SEG_ROWS, r % SEG_ROWS);
        match seg {
            0..=2 => (10..20).contains(&at) || (100..150).contains(&at) || (500..510).contains(&at),
            3..=5 => at % 64 < 3,
            _ => false,
        }
    };
    let mask = Wah::from_sorted_positions((0..ROWS).filter(|&r| selected(r)), ROWS);
    assert_eq!(mask.count_intervals(), 3 * 3 + 3 * 16);
    let cache = segment_cache();
    for enc in [Encoding::Bitmap, Encoding::Rle] {
        let table = resident.map_columns(None, |c| c.recode(enc)).unwrap();
        save_table(&table, &path).unwrap();
        for (group_by, agg) in [(&[0][..], AggOp::Sum), (&[0, 1][..], AggOp::Count)] {
            let aggs = [(agg, 1, ValueType::Int)];
            let lazy = read_table(&path).unwrap();
            cache.reset_counters();
            let got = aggregate_table_masked(&lazy, group_by, &aggs, Some(&mask)).unwrap();
            let stats = cache.stats();
            assert_eq!(
                got,
                aggregate_table_masked(&table, group_by, &aggs, Some(&mask)).unwrap()
            );
            // Six segments hold a selected row; the query reads `k` and `v`
            // there.
            let what = format!("{enc} grouping by {group_by:?}");
            assert_eq!(stats.misses, 2 * 6, "{what}: one miss per segment read");
            assert_eq!(stats.hits, 0, "{what}: no segment read twice");
        }
    }
    std::fs::remove_file(&path).ok();
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

/// The (resident, on disk) segments of `t`'s column `k` after faulting it
/// in and sweeping the cache to an empty budget.
fn swept(t: &Table) -> (usize, usize) {
    let cache = segment_cache();
    let k = t.column_by_name("k").unwrap();
    k.fault_in_all();
    cache.set_budget(0);
    let counts = k.residency_counts();
    cache.set_budget(u64::MAX);
    counts
}

/// Sixteen-row runs of `k` in 4 × 64-row segments, `k` recoded RLE.
fn runs_table() -> Table {
    let rows: Vec<Vec<Value>> = (0..256)
        .map(|i| vec![Value::int(i / 16), Value::int(i)])
        .collect();
    int_table("R", ["k", "v"], 64, &rows)
        .map_columns(Some("k"), |c| c.recode(Encoding::Rle))
        .unwrap()
}

/// Recodes segment 0 of `t`'s column `k` to `target`.
fn recode_first(t: &Table, target: RecodeTarget) -> Table {
    t.map_columns(Some("k"), |c| {
        c.with_encoding(RecodeScope::Segments(0..1), target)
    })
    .unwrap()
}

/// Whether segment 0 of `k` is one slot in `a` and `b`.
fn share_first(a: &Table, b: &Table) -> bool {
    let k = |t: &Table| t.column_by_name("k").unwrap().segments()[0].clone();
    k(a).ptr_eq(&k(b))
}

/// A pin belongs to the column that set it, and it pins an encoding, not
/// a payload. COPY TABLE shares its source's segment slots (as earlier
/// table versions do), and a range recode that keeps a slot — the segment
/// is already in the target encoding, or the chooser agrees with it —
/// sets the pin of its own column only, and keeps sharing the slot. Over a
/// lazily opened 4 × 64-row table whose `k` (= row / 16) is RLE, an
/// eviction sweep after faulting `k` in pages every segment out, pinned or
/// not.
#[test]
fn a_range_recode_pins_only_the_slots_its_column_owns() {
    let _g = serialized();
    let path = scratch("pins");
    save_table(&runs_table(), &path).unwrap();
    let recode = recode_first;

    // R pins segment 0; its copy R2 hands that segment back to the chooser,
    // which keeps it RLE.
    let r = recode(&read_table(&path).unwrap(), RecodeTarget::To(Encoding::Rle));
    let r2 = recode(&r.renamed("R2"), RecodeTarget::Auto);
    assert!(r.column_by_name("k").unwrap().segment_pinned(0));
    assert!(!r2.column_by_name("k").unwrap().segment_pinned(0));
    assert!(share_first(&r, &r2), "the kept slot stays shared");
    assert_eq!(swept(&r), (0, 4), "a pin keeps nothing resident");
    assert_eq!(swept(&r2), (0, 4), "a pin keeps nothing resident");

    // The other way round: pinning the copy's segment leaves R's unpinned.
    let r = read_table(&path).unwrap();
    let r2 = recode(&r.renamed("R2"), RecodeTarget::To(Encoding::Rle));
    assert!(!r.column_by_name("k").unwrap().segment_pinned(0));
    assert!(r2.column_by_name("k").unwrap().segment_pinned(0));
    assert!(share_first(&r, &r2), "the kept slot stays shared");
    assert_eq!(swept(&r), (0, 4), "a pin keeps nothing resident");
    assert_eq!(swept(&r2), (0, 4), "a pin keeps nothing resident");
    std::fs::remove_file(&path).ok();
}

/// A pinned segment's payload is stored once. Saving a table and its copy
/// after the copy pinned a segment it shares writes a file no larger than
/// the same save before the pin — whether the shared slot is fresh or
/// lazily opened — and reopening that file keeps each table's pin its own
/// while the two share the slot again.
#[test]
fn a_repinned_payload_is_stored_once_and_reopens_with_its_own_pin() {
    let _g = serialized();
    for lazy in [false, true] {
        let tag = |t: &str| scratch(&format!("shared_pin_{lazy}_{t}"));
        let make = |t: &str| {
            let table = runs_table();
            if !lazy {
                return table;
            }
            save_table(&table, tag(t)).unwrap();
            read_table(tag(t)).unwrap()
        };
        let save = |r: &Table, r2: &Table, t: &str| {
            let cat = Catalog::new();
            cat.put(r.clone());
            cat.put(r2.clone());
            save_catalog(&cat, tag(t)).unwrap();
            std::fs::metadata(tag(t)).unwrap().len()
        };
        let r = make("src_before");
        let before = save(&r, &r.renamed("R2"), "before");
        let r = make("src_after");
        let r2 = recode_first(&r.renamed("R2"), RecodeTarget::To(Encoding::Rle));
        assert!(share_first(&r, &r2), "lazy={lazy}: the pin shares the slot");
        let after = save(&r, &r2, "after");
        assert!(
            after <= before,
            "lazy={lazy}: {after} bytes after the pin, {before} before"
        );

        let back = read_catalog(tag("after")).unwrap();
        let (r, r2) = (back.get("R").unwrap(), back.get("R2").unwrap());
        assert!(!r.column_by_name("k").unwrap().segment_pinned(0));
        assert!(r2.column_by_name("k").unwrap().segment_pinned(0));
        assert!(share_first(&r, &r2), "lazy={lazy}: reopened as one slot");
        assert_eq!(swept(&r), (0, 4), "lazy={lazy}: R pinned nothing");
        assert_eq!(
            swept(&r2),
            (0, 4),
            "lazy={lazy}: a pin keeps nothing resident"
        );
        for t in ["src_before", "src_after", "before", "after"] {
            std::fs::remove_file(tag(t)).ok();
        }
    }
}

/// A plan moves no data: planning a DECOMPOSE + MERGE chain over a lazily
/// opened catalog checks the whole chain without faulting a segment or
/// recording history; executing the plan is where the segments are read.
#[test]
fn planning_faults_nothing_and_execution_does() {
    const ROWS: u64 = 4 * SEG_ROWS;
    let _g = serialized();
    let rows: Vec<Vec<Value>> = (0..ROWS as i64)
        .map(|i| vec![Value::int(i / 4), Value::int(i % 13), Value::int(i / 4 % 7)])
        .collect();
    let schema = Schema::build(
        &[
            ("k", ValueType::Int),
            ("v", ValueType::Int),
            ("d", ValueType::Int),
        ],
        &[],
    )
    .unwrap();
    let cat = Catalog::new();
    cat.create(Table::from_rows_with_segment_rows("M", schema, &rows, SEG_ROWS).unwrap())
        .unwrap();
    let path = scratch("plan");
    save_catalog(&cat, &path).unwrap();
    let cache = segment_cache();
    cache.reset_counters();
    let cods = cods::Cods::with_catalog(read_catalog(&path).unwrap());
    let opened = cache.stats();
    let plan = cods
        .plan_script(
            "DECOMPOSE TABLE M INTO S (k, v), T (k, d)\n\
             MERGE TABLES S, T INTO M2",
        )
        .unwrap();
    let planned = cache.stats();
    assert_eq!(
        (planned.hits, planned.misses, planned.decoded_bytes),
        (opened.hits, opened.misses, opened.decoded_bytes),
        "planning touched a segment"
    );
    assert!(cods.history().is_empty());
    plan.execute().unwrap();
    let executed = cache.stats();
    assert!(
        executed.misses > planned.misses,
        "execution faults segments in"
    );
    assert!(executed.decoded_bytes > planned.decoded_bytes);
    assert_eq!(cods.history().len(), 2);
    assert_eq!(cods.table("M2").unwrap().rows(), ROWS);
    std::fs::remove_file(&path).ok();
}
