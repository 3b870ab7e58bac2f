//! Heap compaction (vacuum): append-save churn accretes dead payload bytes,
//! an explicit or automatic vacuum reclaims them, and the compacted file is
//! observationally identical — same tuples, same invariants, still
//! append-saveable afterwards.

use cods_query::bitmap_scan::predicate_mask;
use cods_query::Predicate;
use cods_storage::persist::{encode_table, read_catalog, save_catalog};
use cods_storage::{
    heap_stats, open_durable, set_auto_vacuum, vacuum_catalog, vacuum_file, wait_for_auto_vacuum,
    AutoVacuum, Catalog, Encoding, Schema, Table, Value, ValueType,
};
use std::path::PathBuf;
use std::sync::Mutex;

/// The auto-vacuum policy is process-global, and every test here reasons
/// about dead-heap bytes that a concurrently loosened policy could reclaim
/// from under it — so the whole file runs serialized.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cods_it_vacuum_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn table(name: &str, rows: i64) -> Table {
    let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(["red", "red", "blue", "green"][(i % 4) as usize]),
            ]
        })
        .collect();
    Table::from_rows_with_segment_rows(name, schema, &data, 64).unwrap()
}

/// Recode-and-save churn: every round transcodes the `v` column (fresh
/// payloads for all its segments), so each append-save strands the previous
/// round's payloads as dead heap.
fn churn(cat: &Catalog, path: &std::path::Path, rounds: usize) {
    for round in 0..rounds {
        let enc = if round.is_multiple_of(2) {
            Encoding::Rle
        } else {
            Encoding::Bitmap
        };
        let t = cat.get("a").unwrap();
        cat.put(t.with_column_encoding("v", enc).unwrap());
        save_catalog(cat, path).unwrap();
    }
}

#[test]
fn explicit_vacuum_reclaims_dead_heap_and_keeps_data() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("explicit");
    let path = dir.join("churned.catalog");

    let cat = Catalog::new();
    cat.create(table("a", 512)).unwrap();
    save_catalog(&cat, &path).unwrap();
    let want = cat.get("a").unwrap().tuple_multiset();

    churn(&cat, &path, 4);
    let before = heap_stats(&path).unwrap();
    assert!(before.dead_bytes > 0, "churn left no dead heap: {before:?}");
    assert_eq!(before.live_bytes + before.dead_bytes, before.heap_bytes);

    let report = vacuum_catalog(&cat, &path).unwrap();
    assert!(
        report.reclaimed_bytes() >= before.dead_bytes,
        "reclaimed {} < dead {}",
        report.reclaimed_bytes(),
        before.dead_bytes
    );
    assert!(report.segments > 0);

    // The compacted heap is exactly the live bytes — nothing dead remains.
    let after = heap_stats(&path).unwrap();
    assert_eq!(after.dead_bytes, 0, "{after:?}");
    assert_eq!(after.live_bytes, after.heap_bytes);
    assert_eq!(after.live_bytes, report.live_payload_bytes);
    assert!(after.file_bytes < before.file_bytes);

    // Data intact, from the rebound in-memory catalog and from a cold read.
    assert_eq!(cat.get("a").unwrap().tuple_multiset(), want);
    let cold = read_catalog(&path).unwrap();
    assert_eq!(cold.get("a").unwrap().tuple_multiset(), want);
    cold.get("a").unwrap().check_invariants().unwrap();

    // The rebound slots keep append-saves working at full reuse.
    churn(&cat, &path, 1);
    let again = read_catalog(&path).unwrap();
    assert_eq!(again.get("a").unwrap().tuple_multiset(), want);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn offline_vacuum_file_compacts_without_an_open_catalog() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("offline");
    let path = dir.join("cold.catalog");

    let cat = Catalog::new();
    cat.create(table("a", 512)).unwrap();
    save_catalog(&cat, &path).unwrap();
    churn(&cat, &path, 3);
    let want = cat.get("a").unwrap().tuple_multiset();
    drop(cat); // nothing in memory references the file any more
    let masks = || -> Vec<cods_bitmap::Wah> {
        let t = read_catalog(&path).unwrap().get("a").unwrap();
        [Predicate::eq("v", "blue"), Predicate::lt("k", 100i64)]
            .iter()
            .map(|p| predicate_mask(&t, p).unwrap())
            .collect()
    };
    let masks_before = masks();

    let before = heap_stats(&path).unwrap();
    assert!(before.dead_bytes > 0);
    let report = vacuum_file(&path).unwrap();
    assert!(report.reclaimed_bytes() >= before.dead_bytes);
    assert_eq!(heap_stats(&path).unwrap().dead_bytes, 0);
    // Compaction moves payloads, never rows: scans over the compacted
    // file return the very same masks.
    assert_eq!(masks(), masks_before);
    assert_eq!(
        read_catalog(&path)
            .unwrap()
            .get("a")
            .unwrap()
            .tuple_multiset(),
        want
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_stats_starts_fully_live_and_tracks_churn() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("stats");
    let path = dir.join("fresh.catalog");

    let cat = Catalog::new();
    cat.create(table("a", 256)).unwrap();
    save_catalog(&cat, &path).unwrap();
    let fresh = heap_stats(&path).unwrap();
    assert_eq!(fresh.dead_bytes, 0, "{fresh:?}");
    assert_eq!(fresh.live_bytes, fresh.heap_bytes);
    assert!(fresh.live_segments > 0);
    assert!(fresh.meta_bytes > 0);

    churn(&cat, &path, 1);
    let churned = heap_stats(&path).unwrap();
    assert!(churned.dead_bytes > 0);
    assert!(churned.heap_bytes > fresh.heap_bytes);
    assert!(churned.file_bytes > fresh.file_bytes);
    // Only `v`'s payloads were superseded; `k`'s are still the originals.
    assert!(churned.dead_bytes < churned.heap_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_vacuum_compacts_in_the_background() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("auto");
    let path = dir.join("auto.catalog");

    // Hair-trigger policy: any dead byte schedules a background compaction.
    set_auto_vacuum(Some(AutoVacuum {
        dead_ratio: 0.01,
        min_dead_bytes: 1,
    }));
    let result = std::panic::catch_unwind(|| {
        let cat = Catalog::new();
        cat.create(table("a", 512)).unwrap();
        save_catalog(&cat, &path).unwrap();
        let want = cat.get("a").unwrap().tuple_multiset();
        // Wait out each round's background compaction before the next save:
        // an inflight vacuum for the path dedupes later triggers, and this
        // test wants to observe every one of them landing.
        for enc in [Encoding::Rle, Encoding::Bitmap] {
            let t = cat.get("a").unwrap();
            cat.put(t.with_column_encoding("v", enc).unwrap());
            save_catalog(&cat, &path).unwrap();
            wait_for_auto_vacuum();
        }

        let stats = heap_stats(&path).unwrap();
        assert_eq!(
            stats.dead_bytes, 0,
            "background vacuum did not run: {stats:?}"
        );
        assert_eq!(cat.get("a").unwrap().tuple_multiset(), want);
        assert_eq!(
            read_catalog(&path)
                .unwrap()
                .get("a")
                .unwrap()
                .tuple_multiset(),
            want
        );
    });
    set_auto_vacuum(Some(AutoVacuum::default()));
    result.unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints that replace one small table beside a large unchanged one:
/// each overwrites the previous checkpoint's tail, so the file stops
/// growing after the second, and what stays dead is the small table's
/// first block and payloads — which a vacuum then reclaims, to the byte.
#[test]
fn checkpoints_beside_an_unchanged_table_leave_one_superseded_block() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("checkpoints");
    let path = dir.join("ckpt.catalog");

    let base = Catalog::new();
    base.create(table("fact", 4096)).unwrap();
    base.create(table("dim", 256)).unwrap();
    save_catalog(&base, &path).unwrap();
    drop(base);
    // The first `dim`'s payloads and block: its table image without the
    // preamble (6 bytes), its one-entry index (name length, "dim", offset,
    // length: 23 bytes) and the footer (12 bytes).
    let superseded = encode_table(&table("dim", 256)).len() as u64 - 6 - 23 - 12;

    let (cat, log, _r) = open_durable(&path).unwrap();
    let mut lens = Vec::new();
    for _ in 0..5 {
        // Same content, new table: every payload and the block are new.
        let (base, _) = cat.begin_evolution();
        cat.commit_evolution(base, &[], vec![std::sync::Arc::new(table("dim", 256))])
            .unwrap();
        log.checkpoint(&cat).unwrap();
        lens.push(std::fs::metadata(&path).unwrap().len());
    }
    assert!(lens[1..].iter().all(|&len| len == lens[1]), "{lens:?}");

    let stats = heap_stats(&path).unwrap();
    assert_eq!(stats.dead_bytes, superseded, "{stats:?}");
    assert_eq!(stats.live_bytes + stats.dead_bytes, stats.heap_bytes);
    assert_eq!(6 + stats.heap_bytes + stats.meta_bytes, stats.file_bytes);

    let report = vacuum_catalog(&cat, &path).unwrap();
    assert_eq!(report.reclaimed_bytes(), superseded);
    assert_eq!(heap_stats(&path).unwrap().dead_bytes, 0);
    drop((cat, log));
    let (back, _log, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, 0);
    for (name, rows) in [("fact", 4096), ("dim", 256)] {
        assert_eq!(
            back.get(name).unwrap().tuple_multiset(),
            table(name, rows).tuple_multiset()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
