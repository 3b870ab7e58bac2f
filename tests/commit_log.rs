//! Integration tests of the SMO commit log: group commit batching,
//! end-to-end durability through the platform's script path, the vacuum
//! interaction (a heap rewrite must never strand a pending,
//! un-checkpointed commit record), and the counting gates: a commit appends
//! what it changed — the columns it reuses are named, not written again —
//! and a checkpoint writes what changed — an unchanged table's metadata
//! block is referenced, not re-encoded or journaled.

use cods::Cods;
use cods_storage::persist::{encode_table, save_catalog};
use cods_storage::{
    clog_path, fault, log_status, open_durable, Catalog, DurabilitySink, Schema, StorageError,
    Table, Value, ValueType,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cods_clog_it_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("t.catalog")
}

fn cleanup(path: &Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

fn tiny(name: &str, rows: i64) -> Table {
    let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(if i % 2 == 0 { "x" } else { "y" }),
            ]
        })
        .collect();
    Table::from_rows(name, schema, &data).unwrap()
}

/// What the directory of `path` holds, sorted.
fn files_beside(path: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn durable_put(cat: &Catalog, t: Table) -> Result<(), StorageError> {
    let (base, _) = cat.begin_evolution();
    cat.commit_evolution(base, &[], vec![Arc::new(t)])?;
    Ok(())
}

/// The group-commit contract, deterministically: records staged while no
/// leader is writing ride the *same* fsync. Three staged commits, one
/// wait — one fsync covers all three.
#[test]
fn staged_commits_share_one_group_fsync() {
    let path = scratch("group");
    let (_cat, log, _r) = open_durable(&path).unwrap();

    let _t1 = log.stage(1, &[], &[Arc::new(tiny("a", 8))]).unwrap();
    let _t2 = log.stage(2, &[], &[Arc::new(tiny("b", 8))]).unwrap();
    let t3 = log.stage(3, &[], &[Arc::new(tiny("c", 8))]).unwrap();
    log.wait(t3).unwrap();

    let stats = log.stats();
    assert_eq!(stats.commits, 3);
    assert_eq!(stats.fsyncs, 1, "one group fsync must cover the batch");
    assert_eq!(stats.max_batch, 3);
    assert_eq!(stats.pending_records, 3);

    // All three are sealed records: a reopen replays every one.
    let (cat2, _log2, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, 3);
    assert_eq!(cat2.table_names(), vec!["a", "b", "c"]);
    cleanup(&path);
}

/// Concurrent committers through the real optimistic-commit path: every
/// commit lands durably, order is version order, and the fsync count
/// never exceeds the commit count (group commit can only batch, never
/// add syncs).
#[test]
fn concurrent_commits_are_all_durable_and_batched() {
    let path = scratch("concurrent");
    let (cat, log, _r) = open_durable(&path).unwrap();
    let cat = Arc::new(cat);

    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;
    let mut handles = Vec::new();
    for th in 0..THREADS {
        let cat = Arc::clone(&cat);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let name = format!("t{th}_{i}");
                // Optimistic retry loop: concurrent commits conflict.
                loop {
                    let (base, _) = cat.begin_evolution();
                    match cat.commit_evolution(base, &[], vec![Arc::new(tiny(&name, 8))]) {
                        Ok(receipt) => {
                            assert!(receipt.durable);
                            break;
                        }
                        Err(StorageError::Conflict(_)) => continue,
                        Err(e) => panic!("commit failed: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = log.stats();
    assert_eq!(stats.commits, (THREADS * PER_THREAD) as u64);
    assert!(
        stats.fsyncs <= stats.commits,
        "group commit must never add fsyncs: {stats:?}"
    );
    assert!(stats.fsyncs >= 1);

    // Every acknowledged commit survives a reopen.
    let (cat2, _log2, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, (THREADS * PER_THREAD) as u64);
    for th in 0..THREADS {
        for i in 0..PER_THREAD {
            assert!(cat2.contains(&format!("t{th}_{i}")));
        }
    }
    cleanup(&path);
}

/// The platform end-to-end: a `Cods` built on a durably opened catalog
/// reports its script commits as durable, and a reopen replays them.
#[test]
fn platform_scripts_commit_durably_and_replay() {
    let path = scratch("platform");
    let (catalog, log, _r) = open_durable(&path).unwrap();
    let cods = Cods::with_catalog(catalog);
    cods.catalog().create(tiny("r", 16)).unwrap();

    let report = cods
        .run_script_with_retry(
            "COPY TABLE r TO r2\nADD COLUMN note str DEFAULT 'n/a' TO r2",
            &cods_storage::RetryPolicy::default(),
        )
        .unwrap();
    assert!(report.log.durable, "commit must be acknowledged durable");
    assert!(report.log.render().contains("(durable)"));
    assert!(log.stats().commits >= 1);

    let (cat2, _log2, replay) = open_durable(&path).unwrap();
    assert!(replay.replayed >= 1);
    // `r` was created outside the evolution path (not logged); `r2` came
    // from the logged commit and must replay with its evolved schema.
    let r2 = cat2.get("r2").unwrap();
    assert_eq!(r2.rows(), 16);
    assert!(r2.schema().index_of("note").is_ok());
    cleanup(&path);
}

/// Regression: a vacuum racing an un-checkpointed commit log. The pending
/// record carries a self-contained image, so compacting (and rebinding)
/// the catalog heap must neither strand nor corrupt it — replay after the
/// vacuum reproduces the exact acknowledged state.
#[test]
fn vacuum_with_pending_commit_log_preserves_replay() {
    let path = scratch("vacuum");
    let (cat, log, _r) = open_durable(&path).unwrap();

    // Checkpointed base: table `a` lives in the catalog file's heap.
    durable_put(&cat, tiny("a", 64)).unwrap();
    log.checkpoint(&cat).unwrap();

    // Pending, un-checkpointed commits: a new table and a replacement of
    // `a` (which turns the checkpointed `a` payloads into dead heap bytes
    // at the *next* checkpoint — and gives the vacuum live bytes to move).
    durable_put(&cat, tiny("b", 32)).unwrap();
    let (base, snap) = cat.begin_evolution();
    let evolved = snap.get("a").unwrap().renamed("a2");
    cat.commit_evolution(base, &["a".to_string()], vec![Arc::new(evolved)])
        .unwrap();
    let oracle_a2 = encode_table(&cat.get("a2").unwrap());
    let oracle_b = encode_table(&cat.get("b").unwrap());
    assert_eq!(log.stats().pending_records, 2);
    drop((cat, log));

    // Vacuum the catalog file while both records are still pending.
    cods_storage::vacuum_file(&path).unwrap();

    // Replay over the compacted heap must reproduce the acknowledged
    // state byte-for-byte (per-table images).
    let (cat2, log2, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, 2);
    assert_eq!(cat2.table_names(), vec!["a2", "b"]);
    assert_eq!(
        encode_table(&cat2.get("a2").unwrap()).as_slice(),
        oracle_a2.as_slice()
    );
    assert_eq!(
        encode_table(&cat2.get("b").unwrap()).as_slice(),
        oracle_b.as_slice()
    );

    // And the log is still fully functional: checkpoint folds the
    // replayed records into the compacted file.
    assert_eq!(log2.checkpoint(&cat2).unwrap(), 2);
    assert_eq!(log_status(&path).unwrap().records, 0);
    cleanup(&path);
}

/// A commit carrying an image over 1 MiB (100,000 distinct ints) survives a
/// full open → commit → reopen cycle byte for byte and checkpoints to a bare
/// header; the catalog is its file and its log at every step.
#[test]
fn a_large_image_round_trips_through_reopen() {
    let path = scratch("large");
    let two = ["t.catalog".to_string(), "t.catalog.clog".to_string()];
    let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..100_000).map(|i| vec![Value::Int(i * 7)]).collect();
    let (cat, _log, _r) = open_durable(&path).unwrap();
    durable_put(&cat, Table::from_rows("wide", schema, &data).unwrap()).unwrap();
    let oracle = encode_table(&cat.get("wide").unwrap());
    assert!(oracle.len() >= 1 << 20, "{} bytes", oracle.len());
    assert_eq!(files_beside(&path), two[1..]);
    drop(cat);

    let (cat2, log2, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, 1);
    assert_eq!(
        encode_table(&cat2.get("wide").unwrap()).as_slice(),
        oracle.as_slice()
    );
    log2.checkpoint(&cat2).unwrap();
    assert_eq!(log_status(&path).unwrap().records, 0);
    assert_eq!(std::fs::metadata(clog_path(&path)).unwrap().len(), 6);
    assert_eq!(files_beside(&path), two);
    cleanup(&path);
}

/// 65,536 rows: a unique `id`, a clustered `grp` (64 runs of 1,024) and a
/// `label` that `grp` determines.
fn wide() -> Table {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("grp", ValueType::Int),
            ("label", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let data: Vec<Vec<Value>> = (0..65_536i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i / 1024),
                Value::str(format!("g{}", i / 1024)),
            ]
        })
        .collect();
    Table::from_rows("t", schema, &data).unwrap()
}

/// The counting gate. Each SMO below is one durable script on a saved and
/// durably reopened catalog; what its record referenced, carried and wrote
/// is a count, repeats exactly, and is asserted with `==` — the image of
/// `t` alone is about a megabyte, so a record that restated one reused
/// column would fail the byte bound by three orders of magnitude.
#[test]
fn a_commit_appends_what_it_changed() {
    let path = scratch("counts");
    let base = Catalog::new();
    base.create(wide()).unwrap();
    save_catalog(&base, &path).unwrap();
    drop(base);
    let (catalog, log, _r) = open_durable(&path).unwrap();
    let cods = Cods::with_catalog(catalog);

    // (script, columns referenced, columns carried)
    let steps: [(&str, u64, u64); 9] = [
        ("RENAME TABLE t TO t1", 3, 0),
        ("COPY TABLE t1 TO t2", 3, 0),
        ("RENAME COLUMN label TO tag IN t2", 3, 0),
        ("DROP COLUMN tag FROM t2", 2, 0),
        // The default column is the one new thing.
        ("ADD COLUMN note str DEFAULT 'n/a' TO t2", 2, 1),
        // `grp` repeats: the changed side `g` is built (two columns), the
        // unchanged side `s` is two columns of `t1`.
        ("DECOMPOSE TABLE t1 INTO s (id, grp), g (grp, label)", 2, 2),
        // Key-FK: `s`'s columns carry over, `g`'s payload is gathered.
        ("MERGE TABLES s, g INTO t3", 2, 1),
        // `id` is a key of `t3`: both sides are column subsets.
        ("DECOMPOSE TABLE t3 INTO a (id, grp), b (id, label)", 4, 0),
        ("MERGE TABLES a, b INTO t4", 2, 1),
    ];
    let (mut referenced, mut carried) = (0, 0);
    let files = files_beside(&path);
    for (script, want_referenced, want_carried) in steps {
        let before = log.stats();
        let report = cods
            .run_script_with_retry(script, &cods_storage::RetryPolicy::default())
            .unwrap();
        assert!(report.log.durable, "{script}");
        let after = log.stats();
        assert_eq!(after.commits, before.commits + 1, "{script}: one record");
        assert_eq!(
            (
                after.columns_referenced - before.columns_referenced,
                after.columns_carried - before.columns_carried
            ),
            (want_referenced, want_carried),
            "{script}: (referenced, carried)"
        );
        let appended = after.bytes_appended - before.bytes_appended;
        assert_eq!(appended, after.log_bytes - before.log_bytes, "{script}");
        if want_carried == 0 {
            assert!(appended < 1024, "{script} appended {appended} bytes");
        }
        // No commit creates a file: the log is all it writes.
        assert_eq!(files_beside(&path), files, "{script}");
        referenced += want_referenced;
        carried += want_carried;
    }
    // Nine scripts cost less than one restated column would have.
    let stats = log.stats();
    assert_eq!(
        (stats.columns_referenced, stats.columns_carried),
        (referenced, carried)
    );
    assert!(stats.bytes_appended < 32 * 1024, "{stats:?}");
    let pending = log_status(&path).unwrap().pending;
    assert_eq!(pending.len(), steps.len());
    assert_eq!(
        pending
            .iter()
            .flat_map(|r| &r.puts)
            .map(|p| p.carried as u64)
            .sum::<u64>(),
        carried
    );

    // And the references resolve: the reopened catalog is the live one.
    let live = cods.catalog();
    let (reopened, _log2, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, steps.len() as u64);
    assert_eq!(reopened.table_names(), live.table_names());
    for name in live.table_names() {
        assert_eq!(
            encode_table(&reopened.get(&name).unwrap()).as_slice(),
            encode_table(&live.get(&name).unwrap()).as_slice(),
            "{name}"
        );
    }
    cleanup(&path);
}

/// A checkpoint writes what changed. Beside a large unchanged table, only a
/// small one is replaced between checkpoints: what each checkpoint costs —
/// the units the fault layer counts, one per byte written (journal and
/// file) plus one per syscall — stays within the small table's image plus
/// a constant for the first checkpoint (nothing of the old tail needs
/// journaling but its index), within twice that once the previous
/// checkpoint's block is the tail it overwrites, and does not move by a
/// single unit when the large table doubles.
#[test]
fn a_checkpoint_writes_only_what_changed() {
    let dim = |salt: i64| {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..64)
            .map(|i| vec![Value::Int(i), Value::Int((i + salt) % 7)])
            .collect();
        Table::from_rows("dim", schema, &rows).unwrap()
    };
    let image = encode_table(&dim(0)).len() as u64;
    let checkpoints = |fact_rows: i64| -> Vec<u64> {
        let path = scratch(&format!("only_changed_{fact_rows}"));
        let base = Catalog::new();
        base.create(tiny("fact", fact_rows)).unwrap();
        base.create(dim(0)).unwrap();
        save_catalog(&base, &path).unwrap();
        drop(base);
        let (cat, log, _r) = open_durable(&path).unwrap();
        let units = (1..4)
            .map(|salt| {
                durable_put(&cat, dim(salt)).unwrap();
                fault::arm(u64::MAX);
                log.checkpoint(&cat).unwrap();
                fault::disarm();
                fault::units()
            })
            .collect();
        assert_eq!(cat.get("dim").unwrap().to_rows(), dim(3).to_rows());
        drop((cat, log));
        let (cat, _log, _r) = open_durable(&path).unwrap();
        assert_eq!(
            cat.get("fact").unwrap().to_rows(),
            tiny("fact", fact_rows).to_rows()
        );
        cleanup(&path);
        units
    };
    let small = checkpoints(20_000);
    assert_eq!(small, checkpoints(40_000), "the large table is not written");
    let fact_image = encode_table(&tiny("fact", 20_000)).len() as u64;
    assert!(small[0] < image + 512, "{small:?} vs a {image}-byte image");
    for &units in &small[1..] {
        assert!(units < 2 * image + 512, "{small:?} vs a {image}-byte image");
    }
    assert!(
        image * 8 < fact_image,
        "the unchanged table is the large one"
    );
}
