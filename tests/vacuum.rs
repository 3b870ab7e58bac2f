//! Heap compaction (vacuum): append-save churn accretes dead payload bytes,
//! an explicit or automatic vacuum reclaims them, and the compacted file is
//! observationally identical — same tuples, same invariants, still
//! append-saveable afterwards.

use cods_query::bitmap_scan::predicate_mask;
use cods_query::Predicate;
use cods_storage::fault::{self, Mutation, Point};
use cods_storage::persist::{encode_table, read_catalog, save_catalog};
use cods_storage::{
    heap_stats, open_durable, set_auto_vacuum, vacuum_catalog, vacuum_file, wait_for_auto_vacuum,
    AutoVacuum, Catalog, Encoding, EncodingCounts, Schema, Table, Value, ValueType,
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

/// `rows` rows in 64-row segments: `k` holds each of `0..rows / 2` twice,
/// never twice in a row (0 1 0 1 2 3 2 3 …), so its segments are packed
/// with a payload of codes (a unique key would be a range, with none);
/// `v` cycles four strings.
fn table(name: &str, rows: i64) -> Table {
    let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i / 4 * 2 + i % 2),
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
        cat.put(t.map_columns(Some("v"), |c| c.recode(enc)).unwrap());
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

    // Hair-trigger policy: any dead byte makes the save compact the file.
    set_auto_vacuum(Some(AutoVacuum {
        dead_ratio: 0.01,
        min_dead_bytes: 1,
    }));
    let result = std::panic::catch_unwind(|| {
        let cat = Catalog::new();
        cat.create(table("a", 512)).unwrap();
        save_catalog(&cat, &path).unwrap();
        let want = cat.get("a").unwrap().tuple_multiset();
        // Each round's save compacts before it returns; the wait returns at
        // once.
        for enc in [Encoding::Rle, Encoding::Bitmap] {
            let t = cat.get("a").unwrap();
            cat.put(t.map_columns(Some("v"), |c| c.recode(enc)).unwrap());
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

/// Runs `body` under a policy that compacts at the first dead byte, and
/// restores the default policy even when `body` panics.
fn with_hair_trigger(body: impl FnOnce() + std::panic::UnwindSafe) {
    set_auto_vacuum(Some(AutoVacuum {
        dead_ratio: 0.01,
        min_dead_bytes: 1,
    }));
    let result = std::panic::catch_unwind(body);
    set_auto_vacuum(Some(AutoVacuum::default()));
    result.unwrap();
}

/// A catalog of one table with one 64-row segment per column and eight
/// distinct keys (so the sweeps' images stay small), saved to `path`.
fn saved_small(path: &std::path::Path) -> Catalog {
    let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..64)
        .map(|i| {
            vec![
                Value::Int(i / 8),
                Value::str(["red", "blue"][(i % 2) as usize]),
            ]
        })
        .collect();
    let cat = Catalog::new();
    cat.create(Table::from_rows_with_segment_rows("a", schema, &data, 64).unwrap())
        .unwrap();
    save_catalog(&cat, path).unwrap();
    cat
}

/// The save that crosses the hair trigger: `v` recoded to RLE strands its
/// bitmap payload as dead heap.
fn recode_v(cat: &Catalog) {
    let t = cat.get("a").unwrap();
    cat.put(
        t.map_columns(Some("v"), |c| c.recode(Encoding::Rle))
            .unwrap(),
    );
}

/// Segment counts per encoding of `v`: what tells the state before the
/// triggering save from the state after it.
fn v_encodings(cat: &Catalog) -> EncodingCounts {
    cat.get("a")
        .unwrap()
        .column_by_name("v")
        .unwrap()
        .encoding_counts()
}

/// The append-save that crosses the auto-vacuum threshold compacts the file
/// itself, in the caller's thread and before it returns: the save's trace
/// is the append (payload runs, sync, commit slot, sync, cut) followed by
/// the compaction's temp file, sync, rename and directory sync, and no dead
/// byte is left for anything to wait for.
#[test]
fn the_save_that_crosses_the_threshold_compacts_before_it_returns() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("inline");
    let path = dir.join("inline.catalog");
    with_hair_trigger(|| {
        let cat = saved_small(&path);
        let want = cat.get("a").unwrap().tuple_multiset();
        recode_v(&cat);
        let ((), _, trace) = fault::probe(|| save_catalog(&cat, &path).unwrap());
        let name = "inline.catalog".to_string();
        let tmp = format!("{name}.tmp.{}", std::process::id());
        let runs = trace.iter().take_while(|m| **m == Mutation::Write).count();
        assert!(runs > 0, "{trace:?}");
        let mut order = vec![Mutation::Write; runs];
        order.extend([
            Mutation::Sync,
            Mutation::Write,
            Mutation::Sync,
            Mutation::SetLen,
            Mutation::Create(tmp.clone()),
            Mutation::Write,
            Mutation::Sync,
            Mutation::Rename(tmp, name),
            Mutation::SyncDir,
        ]);
        assert_eq!(trace, order);
        let stats = heap_stats(&path).unwrap();
        assert_eq!(stats.dead_bytes, 0, "{stats:?}");
        assert_eq!(cat.get("a").unwrap().tuple_multiset(), want);
        let back = read_catalog(&path).unwrap();
        assert_eq!(back.get("a").unwrap().tuple_multiset(), want);
        assert_eq!(v_encodings(&back), EncodingCounts([0, 1, 0]));
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill, then fail, the triggering save at every unit of its append and of
/// its compaction. After a kill the file reopens to the old state or the
/// new one, and the reopen writes nothing. After a failure, an error means
/// the old state with nothing adopted, and success means the new state —
/// also when the failure hit the compaction, which must not fail the save
/// that already committed; either way the next save succeeds.
#[test]
fn crash_and_failure_sweeps_cover_the_auto_vacuum() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("sweeps");
    let path = dir.join("sweep.catalog");
    with_hair_trigger(|| {
        let want = saved_small(&path).get("a").unwrap().tuple_multiset();
        let pristine = std::fs::read(&path).unwrap();
        let (old, new) = (EncodingCounts([1, 0, 0]), EncodingCounts([0, 1, 0]));
        let evolve = || {
            // Overwrite in place: the bytes of the old state, whatever file
            // the last compaction renamed here.
            std::fs::write(&path, &pristine).unwrap();
            let cat = read_catalog(&path).unwrap();
            assert_eq!(v_encodings(&cat), old);
            recode_v(&cat);
            cat
        };
        let reopen = |budget: u64| -> EncodingCounts {
            let (got, _, trace) = fault::probe(|| read_catalog(&path));
            assert_eq!(trace, [], "budget {budget}: the open wrote");
            let got = got.unwrap_or_else(|e| panic!("budget {budget}: reopen failed: {e}"));
            assert_eq!(
                got.get("a").unwrap().tuple_multiset(),
                want,
                "budget {budget}"
            );
            v_encodings(&got)
        };

        let probe = evolve();
        let ((), total, trace) = fault::probe(|| save_catalog(&probe, &path).unwrap());
        assert!(trace.contains(&Mutation::SyncDir), "no compaction");
        drop(probe);

        let mut compaction_kills = 0;
        fault::sweep(
            "auto-vacuum save",
            Point::Kill,
            total,
            evolve,
            |cat| save_catalog(cat, &path),
            |budget, cat, res| {
                drop(cat);
                let got = reopen(budget);
                if res.is_ok() {
                    compaction_kills += 1;
                    assert_eq!(
                        got, new,
                        "budget {budget}/{total}: an Ok save left the old state"
                    );
                } else {
                    assert!(got == old || got == new, "budget {budget}/{total}: {got:?}");
                }
            },
        );
        assert!(compaction_kills > 0, "no kill point hit the compaction");
        println!("auto-vacuum save sweep: {compaction_kills} kill points in the compaction");

        let mut compaction_fails = 0;
        fault::sweep(
            "auto-vacuum save failure",
            Point::Fail,
            total,
            evolve,
            |cat| save_catalog(cat, &path),
            |budget, cat, res| {
                let got = reopen(budget);
                match res {
                    Ok(()) => {
                        compaction_fails += 1;
                        assert_eq!(got, new, "budget {budget}/{total}");
                    }
                    Err(_) => {
                        assert_eq!(got, old, "budget {budget}/{total}");
                        let a = cat.get("a").unwrap();
                        let v = a.column_by_name("v").unwrap();
                        assert!(
                            v.segments().iter().all(|s| s.backing_path().is_none()),
                            "budget {budget}/{total}: a failed save adopted fresh payloads"
                        );
                    }
                }
                save_catalog(&cat, &path).unwrap_or_else(|e| {
                    panic!("budget {budget}/{total}: the next save failed: {e}")
                });
                drop(cat);
                assert_eq!(reopen(budget), new, "budget {budget}/{total}");
            },
        );
        assert!(compaction_fails > 0, "no fail point hit the compaction");
        println!(
            "auto-vacuum save failure sweep: {compaction_fails} fail points in the compaction"
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints that replace one small table beside a large unchanged one.
/// The open keeps the first `dim`'s payloads bound, so nothing is free at
/// the first checkpoint; after it, each new `dim` goes first fit into what
/// the generation before the last one left (a new generation never
/// overlaps the committed one), and the file is cut after it. The file
/// stops growing at the second checkpoint and then alternates between two
/// lengths; what stays dead is the first `dim`'s payloads and block, less
/// what the last generation placed in that block's hole — and a vacuum
/// reclaims it to the byte.
#[test]
fn checkpoints_beside_an_unchanged_table_leave_one_superseded_block() {
    let _serial = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = dir("checkpoints");
    let path = dir.join("ckpt.catalog");
    let file_len = |path: &std::path::Path| std::fs::metadata(path).unwrap().len();

    let base = Catalog::new();
    base.create(table("fact", 4096)).unwrap();
    base.create(table("dim", 256)).unwrap();
    save_catalog(&base, &path).unwrap();
    drop(base);
    let first = file_len(&path);
    // The first `dim`'s payloads and block: its table image without the
    // preamble and the two commit slots (6 + 80 bytes) and its one-entry
    // index (name length, "dim", offset, length: 23 bytes).
    let superseded = encode_table(&table("dim", 256)).len() as u64 - 86 - 23;
    // The catalog's index: version, count, and the entries of "fact" and
    // "dim" (24 and 23 bytes).
    let index = 8 + 4 + 24 + 23;

    let (cat, log, _r) = open_durable(&path).unwrap();
    let mut lens = Vec::new();
    for _ in 0..5 {
        // Same content, new table: every payload and the block are new.
        let (base, _) = cat.begin_evolution();
        cat.commit_evolution(base, &[], vec![std::sync::Arc::new(table("dim", 256))])
            .unwrap();
        log.checkpoint(&cat).unwrap();
        lens.push(file_len(&path));
    }
    // The first checkpoint appends the new `dim` and the index whole. The
    // second puts all 400 bytes of payloads (`k`'s four packed ones of 40,
    // `v`'s four of 60) and the index into the hole the first `dim` left
    // (its payloads and its 2,142-byte block) and appends the rest, the
    // new block: 2,142 bytes. The third and fifth start where the first
    // index was, right after `fact`'s block, and put all eight payloads
    // (400 bytes) and the index into what the second left of that hole;
    // the fourth repeats the second's placement, appending past the
    // third's end.
    let (spill, in_hole) = (2_142, 4 * 40 + 240 + index);
    assert_eq!(
        lens,
        [
            first + superseded + index,
            first + superseded + index + spill,
            first + superseded - in_hole,
            first + superseded - in_hole + spill,
            first + superseded - in_hole,
        ],
        "{lens:?}"
    );

    let stats = heap_stats(&path).unwrap();
    assert_eq!(stats.dead_bytes, superseded - in_hole, "{stats:?}");
    assert_eq!(stats.live_bytes + stats.dead_bytes, stats.heap_bytes);
    assert_eq!(6 + stats.heap_bytes + stats.meta_bytes, stats.file_bytes);

    let report = vacuum_catalog(&cat, &path).unwrap();
    assert_eq!(report.reclaimed_bytes(), superseded - in_hole);
    assert_eq!(heap_stats(&path).unwrap().dead_bytes, 0);
    assert_eq!(file_len(&path), first);
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
