//! Failure injection: corrupted persistence artifacts, malformed loads and
//! invalid operator sequences must surface typed errors — never panics, and
//! never silently wrong data.

use cods::{Cods, DecomposeSpec, EvolutionError, MergeStrategy, Smo};
use cods_query::bitmap_scan::predicate_mask;
use cods_query::{Predicate, Query, QueryOutput};
use cods_storage::fault::{self, Point};
use cods_storage::persist::{
    decode_table, encode_table, read_catalog, read_table, save_catalog, save_table,
};
use cods_storage::{
    clog_path, load_str, open_durable, Catalog, Encoding, LoadOptions, Schema, StorageError, Table,
    Value, ValueType,
};
use cods_workload::{figure1, GenConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

#[test]
fn corrupted_table_files_are_rejected() {
    let t = figure1::table_r();
    let bytes = encode_table(&t);

    // Truncation at any cut point must fail cleanly.
    for frac in [0.01, 0.3, 0.7, 0.99] {
        let cut = ((bytes.len() as f64) * frac) as usize;
        let sliced = bytes.slice(0..cut);
        assert!(decode_table(sliced).is_err(), "cut {frac} accepted");
    }

    // Flipping a byte either fails decode, surfaces as a typed corruption
    // error when the damaged segment faults in (v6 opens metadata-only, so
    // a payload flip is only seen on first touch), or round-trips to a
    // structurally valid table — it must never panic.
    for pos in [0usize, 4, 10, 60, bytes.len() / 2, bytes.len() - 2] {
        let mut corrupt = bytes.to_vec();
        corrupt[pos] ^= 0xFF;
        if let Ok(t) = decode_table(bytes::Bytes::from(corrupt)) {
            if t.check_invariants().is_ok() {
                t.to_rows();
            }
        }
    }
}

#[test]
fn unreadable_files_error() {
    assert!(matches!(
        read_table("/nonexistent/path/table.bin"),
        Err(StorageError::PersistError(_))
    ));
    let t = figure1::table_r();
    assert!(save_table(&t, "/nonexistent/dir/table.bin").is_err());
}

#[test]
fn malformed_csv_loads_fail_with_context() {
    let schema = Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
    for (text, needle) in [
        ("1,2\n3\n", "line 2"),
        ("1,2\nx,4\n", "line 2"),
        ("1,2,3\n", "expected 2 fields"),
    ] {
        let err = load_str("t", &schema, text, &LoadOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "{text:?} gave {err} (wanted {needle:?})"
        );
    }
}

#[test]
fn evolution_on_missing_tables_errors() {
    let cods = Cods::new();
    let err = cods
        .plan(vec![Smo::DecomposeTable {
            input: "ghost".into(),
            spec: DecomposeSpec::new("a", &["x"], "b", &["x", "y"]),
        }])
        .and_then(|p| p.execute());
    assert!(matches!(
        err,
        Err(EvolutionError::Storage(StorageError::UnknownTable(_)))
    ));
    let err = cods
        .plan(vec![Smo::MergeTables {
            left: "ghost".into(),
            right: "ghost2".into(),
            output: "out".into(),
            strategy: MergeStrategy::Auto,
        }])
        .and_then(|p| p.execute());
    assert!(err.is_err());
}

#[test]
fn merge_output_collision_keeps_inputs() {
    let cods = Cods::new();
    cods.catalog().create(figure1::table_r()).unwrap();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    // Output name collides with an existing table.
    let err = cods
        .plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "S".into(),
            strategy: MergeStrategy::Auto,
        }])
        .and_then(|p| p.execute());
    assert!(err.is_err());
    assert!(cods.catalog().contains("S"));
    assert!(cods.catalog().contains("T"));
}

#[test]
fn decompose_rejects_dropping_the_join_column() {
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(100, 10),
        ))
        .unwrap();
    // Outputs that do not overlap cannot re-join.
    let err = cods
        .plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("A", &["entity", "attr"], "B", &["detail"]),
        }])
        .and_then(|p| p.execute());
    assert!(matches!(err, Err(EvolutionError::LossyDecomposition(_))));
}

#[test]
fn unknown_columns_in_specs_error() {
    let cods = Cods::new();
    cods.catalog().create(figure1::table_r()).unwrap();
    let err = cods
        .plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["employee", "wages"], "T", &["employee", "address"]),
        }])
        .and_then(|p| p.execute());
    assert!(matches!(err, Err(EvolutionError::InvalidOperator(_))));
    let err = cods
        .plan(vec![Smo::DropColumn {
            table: "R".into(),
            column: "wages".into(),
        }])
        .and_then(|p| p.execute());
    assert!(matches!(
        err,
        Err(EvolutionError::Storage(StorageError::UnknownColumn(_)))
    ));
}

// ---------------------------------------------------------------------------
// Crash-point sweeps: simulate a power cut at every byte boundary of a save
// and assert the file always reopens to exactly the old or the new state.
// ---------------------------------------------------------------------------

/// A tiny table with mixed-cardinality columns so both bitmap and RLE
/// segments appear (16-row segments keep the sweep short).
fn tiny(name: &str, rows: i64) -> Table {
    let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(if i % 3 == 0 { "x" } else { "y" }),
            ]
        })
        .collect();
    Table::from_rows_with_segment_rows(name, schema, &data, 16).unwrap()
}

fn sweep_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cods_it_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

type Tuples = HashMap<Vec<Value>, u64>;

fn tuples(cat: &Catalog, table: &str) -> Tuples {
    cat.get(table).unwrap().tuple_multiset()
}

/// No segment of `table` is backed by the file: a save that failed adopted
/// none of its fresh payloads.
fn unadopted(cat: &Catalog, table: &str) -> bool {
    cat.get(table)
        .unwrap()
        .columns()
        .iter()
        .flat_map(|c| c.segments())
        .all(|s| s.backing_path().is_none())
}

/// Reopen = crash recovery: the newer valid slot names a whole state, never
/// an error, and opening writes nothing.
fn reopen(path: &Path, budget: u64, total: u64) -> Catalog {
    let (got, _, trace) = fault::probe(|| read_catalog(path));
    assert_eq!(trace, [], "budget {budget}/{total}: the open wrote");
    got.unwrap_or_else(|e| panic!("budget {budget}/{total}: reopen failed: {e}"))
}

/// Kill an append-save at every byte/syscall boundary. Whatever the crash
/// point, reopening the file must recover to exactly the committed old
/// state or the fully committed new state — never an error, never a blend —
/// and payloads of the failed save must stay un-adopted.
#[test]
fn crash_sweep_append_save_reopens_old_or_new() {
    let dir = sweep_dir("crash_append");
    let path = dir.join("sweep.catalog");

    // Old state: two tables, committed normally.
    let cat = Catalog::new();
    cat.create(tiny("a", 32)).unwrap();
    cat.create(tiny("c", 48)).unwrap();
    save_catalog(&cat, &path).unwrap();
    let old_a = tuples(&read_catalog(&path).unwrap(), "a");
    let want_c = tiny("c", 48).tuple_multiset();
    let pristine = std::fs::read(&path).unwrap();

    // The evolved save under test, from the pristine old file (overwritten
    // in place: same inode, so handles held by earlier opens stay
    // coherent): reopen from disk (so unchanged segments reuse their
    // extents, and the untouched `c` its block), recode a column (fresh
    // payloads for an existing table) and create a brand-new table (fresh
    // everything).
    let evolve = || -> Catalog {
        std::fs::write(&path, &pristine).unwrap();
        let cat = read_catalog(&path).unwrap();
        let a = cat.get("a").unwrap();
        cat.put(
            a.map_columns(Some("v"), |c| c.recode(Encoding::Rle))
                .unwrap(),
        );
        cat.create(tiny("b", 16)).unwrap();
        cat
    };

    // Probe run: count the crash points of one full save, and capture the
    // new state it commits.
    let probe = evolve();
    let ((), total, _) = fault::probe(|| save_catalog(&probe, &path).unwrap());
    assert!(total > 0, "append-save must pass through the fault layer");
    // Positive control for adopt-after-commit: the committed save adopted
    // the fresh table's payloads into the heap.
    assert!(probe
        .get("b")
        .unwrap()
        .columns()
        .iter()
        .flat_map(|c| c.segments())
        .filter(|s| !s.meta().is_range())
        .all(|s| s.backing_path().is_some()));
    let reopened = read_catalog(&path).unwrap();
    let new_a = tuples(&reopened, "a");
    let new_b = tuples(&reopened, "b");
    // The restores below put the old bytes back under the new layout's
    // extents. A live slot's extents are kept out of every later save's
    // overwritten tail, so the new layout's slots must be gone, or each
    // save would keep more of the file than the probe kept.
    drop((probe, reopened));

    fault::sweep(
        "append-save",
        Point::Kill,
        total,
        evolve,
        |cat| save_catalog(cat, &path),
        |budget, cat, res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: save survived the crash"
            );
            assert!(
                unadopted(&cat, "b"),
                "budget {budget}/{total}: failed save adopted fresh payloads"
            );
            let got = reopen(&path, budget, total);
            if got.contains("b") {
                assert_eq!(tuples(&got, "a"), new_a, "budget {budget}: new state torn");
                assert_eq!(tuples(&got, "b"), new_b, "budget {budget}: new state torn");
            } else {
                assert_eq!(tuples(&got, "a"), old_a, "budget {budget}: old state torn");
            }
            assert_eq!(
                tuples(&got, "c"),
                want_c,
                "budget {budget}: reused block torn"
            );
        },
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Fail an append-save with an I/O error the process survives — a short
/// write (ENOSPC) or a failed sync, set-len or slot write (EIO) — at every
/// unit of its mutations. Whatever the point, the save reports the error,
/// adopts nothing, and leaves the old slot standing: the file reopens to
/// the old state, and retrying the same catalog in the same process
/// commits the new one.
#[test]
fn failed_append_save_keeps_the_old_slot_and_a_retry_commits() {
    let dir = sweep_dir("fail_append");
    let path = dir.join("sweep.catalog");
    let cat = Catalog::new();
    cat.create(tiny("a", 32)).unwrap();
    cat.create(tiny("c", 48)).unwrap();
    save_catalog(&cat, &path).unwrap();
    drop(cat);
    let old_a = tuples(&read_catalog(&path).unwrap(), "a");
    let pristine = std::fs::read(&path).unwrap();
    let evolve = || -> Catalog {
        std::fs::write(&path, &pristine).unwrap();
        let cat = read_catalog(&path).unwrap();
        let a = cat.get("a").unwrap();
        cat.put(
            a.map_columns(Some("v"), |c| c.recode(Encoding::Rle))
                .unwrap(),
        );
        cat.create(tiny("b", 16)).unwrap();
        cat
    };
    let probe = evolve();
    let ((), total, _) = fault::probe(|| save_catalog(&probe, &path).unwrap());
    let new_a = tuples(&probe, "a");
    drop(probe);

    fault::sweep(
        "append-save failure",
        Point::Fail,
        total,
        evolve,
        |cat| save_catalog(cat, &path),
        |budget, cat, res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: the save did not fail"
            );
            assert!(
                unadopted(&cat, "b"),
                "budget {budget}/{total}: a failed save adopted fresh payloads"
            );
            let got = read_catalog(&path)
                .unwrap_or_else(|e| panic!("budget {budget}/{total}: reopen failed: {e}"));
            assert!(
                !got.contains("b"),
                "budget {budget}/{total}: not the old state"
            );
            assert_eq!(tuples(&got, "a"), old_a, "budget {budget}/{total}");
            drop(got);

            save_catalog(&cat, &path)
                .unwrap_or_else(|e| panic!("budget {budget}/{total}: the retry failed: {e}"));
            let got = read_catalog(&path).unwrap();
            assert_eq!(tuples(&got, "a"), new_a, "budget {budget}/{total}");
            assert_eq!(tuples(&got, "b"), tiny("b", 16).tuple_multiset());
            assert_eq!(tuples(&got, "c"), tiny("c", 48).tuple_multiset());
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill a first-ever save (the temp-file + rename rewrite path) at every
/// boundary: the target path must either not exist at all or be the
/// complete new file — a partial image must never land under the real name.
#[test]
fn crash_sweep_fresh_save_is_atomic() {
    let dir = sweep_dir("crash_fresh");
    let path = dir.join("fresh.catalog");
    let make = || {
        let cat = Catalog::new();
        cat.create(tiny("a", 32)).unwrap();
        cat
    };

    let ((), total, _) = fault::probe(|| save_catalog(&make(), &path).unwrap());
    assert!(total > 0);
    let want = tuples(&read_catalog(&path).unwrap(), "a");
    std::fs::remove_file(&path).unwrap();

    fault::sweep(
        "fresh-save",
        Point::Kill,
        total,
        make,
        |cat| save_catalog(cat, &path),
        |budget, _cat, res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: save survived the crash"
            );
            if path.exists() {
                // Rename happened: the file must be the complete new image.
                let got = read_catalog(&path).unwrap_or_else(|e| {
                    panic!("budget {budget}/{total}: partial file landed: {e}")
                });
                assert_eq!(tuples(&got, "a"), want);
                std::fs::remove_file(&path).unwrap();
            } else {
                assert!(matches!(
                    read_catalog(&path),
                    Err(StorageError::PersistError(_))
                ));
            }
        },
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Kill a full-rewrite save over an *existing* file (new content that shares
/// nothing with the old) at every boundary: the old file stays byte-intact
/// until the atomic rename, after which the new file is complete.
#[test]
fn crash_sweep_rewrite_over_existing_keeps_old_until_rename() {
    let dir = sweep_dir("crash_rewrite");
    let path = dir.join("rewrite.catalog");

    let old = Catalog::new();
    old.create(tiny("a", 32)).unwrap();
    save_catalog(&old, &path).unwrap();
    let old_a = tuples(&read_catalog(&path).unwrap(), "a");
    let pristine = std::fs::read(&path).unwrap();

    // Unrelated content: nothing references the target file, so the save
    // takes the rewrite path, not the append path.
    let make = || {
        let cat = Catalog::new();
        cat.create(tiny("c", 16)).unwrap();
        cat
    };
    let ((), total, _) = fault::probe(|| save_catalog(&make(), &path).unwrap());
    assert!(total > 0);
    let new_c = tuples(&read_catalog(&path).unwrap(), "c");

    fault::sweep(
        "rewrite",
        Point::Kill,
        total,
        || {
            std::fs::write(&path, &pristine).unwrap();
            make()
        },
        |cat| save_catalog(cat, &path),
        |budget, _cat, res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: save survived the crash"
            );
            let got = reopen(&path, budget, total);
            if got.contains("c") {
                assert_eq!(tuples(&got, "c"), new_c, "budget {budget}: new state torn");
            } else {
                assert_eq!(tuples(&got, "a"), old_a, "budget {budget}: old state torn");
            }
        },
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Everything the commit-log sweeps need to rewind one crash iteration:
/// the catalog file (if any) and the log.
struct DurableState {
    catalog: Option<Vec<u8>>,
    log: Vec<u8>,
}

fn capture_durable(path: &Path) -> DurableState {
    DurableState {
        catalog: std::fs::read(path).ok(),
        log: std::fs::read(clog_path(path)).unwrap(),
    }
}

fn restore_durable(path: &Path, s: &DurableState) {
    match &s.catalog {
        Some(bytes) => std::fs::write(path, bytes).unwrap(),
        None => {
            std::fs::remove_file(path).ok();
        }
    }
    let log = clog_path(path);
    std::fs::write(&log, &s.log).unwrap();
    std::fs::remove_file(log.with_extension("clog.tmp")).ok();
}

/// One evolution commit of `t` through the catalog's optimistic path —
/// the same route the planner's atomic commit takes.
fn durable_put(cat: &Catalog, t: Table) -> Result<(), StorageError> {
    let (base, _) = cat.begin_evolution();
    cat.commit_evolution(base, &[], vec![Arc::new(t)])?;
    Ok(())
}

/// The acknowledged prefix of the sweeps below — two commits, `a` and `b`,
/// fsynced and acked — as the files it left.
fn two_acked_commits(path: &Path) -> DurableState {
    let (cat, _log, _r) = open_durable(path).unwrap();
    durable_put(&cat, tiny("a", 32)).unwrap();
    durable_put(&cat, tiny("b", 16)).unwrap();
    drop(cat);
    capture_durable(path)
}

/// Both of those commits are in `got`, whole.
fn assert_acked(got: &Catalog, budget: u64) {
    for (name, rows) in [("a", 32), ("b", 16)] {
        let want = tiny(name, rows).tuple_multiset();
        assert_eq!(tuples(got, name), want, "budget {budget}: ack lost");
    }
}

/// Kill a durable commit (record append, group fsync) at
/// every byte/syscall boundary: every *acknowledged* commit must survive
/// the reopen, and the crashed commit — never acknowledged — may appear
/// only as its complete self, never torn.
#[test]
fn crash_sweep_commit_append_preserves_acknowledged_prefix() {
    let dir = sweep_dir("crash_clog_append");
    let path = dir.join("sweep.catalog");

    let state = two_acked_commits(&path);
    let want_c = tiny("c", 16).tuple_multiset();

    // Probe: count the crash points of one full durable commit.
    let (cat, _log, _r) = open_durable(&path).unwrap();
    let ((), total, _) = fault::probe(|| durable_put(&cat, tiny("c", 16)).unwrap());
    assert!(
        total > 0,
        "durable commit must pass through the fault layer"
    );
    drop(cat);

    fault::sweep(
        "commit-append",
        Point::Kill,
        total,
        || {
            restore_durable(&path, &state);
            open_durable(&path).unwrap()
        },
        |(cat, _, _)| durable_put(cat, tiny("c", 16)),
        |budget, (cat, log, replay), res| {
            assert_eq!(replay.replayed, 2, "budget {budget}: bad starting state");
            assert!(
                res.is_err(),
                "budget {budget}/{total}: commit survived the crash"
            );
            drop((cat, log));

            // Reopen = crash recovery. The acknowledged prefix must be
            // intact; the unacknowledged commit may have reached its commit
            // point (record fully on disk) or not — but never a torn
            // in-between.
            let (got, _log, _r) = open_durable(&path)
                .unwrap_or_else(|e| panic!("budget {budget}/{total}: recovery failed: {e}"));
            assert_acked(&got, budget);
            if got.contains("c") {
                assert_eq!(tuples(&got, "c"), want_c, "budget {budget}: torn commit");
            }
        },
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Kill a checkpoint (full save, log truncation) at every
/// boundary: whatever the crash point, the reopened catalog holds every
/// acknowledged commit — from the checkpoint or from the log (records the
/// checkpoint already covers are skipped by version).
#[test]
fn crash_sweep_checkpoint_keeps_every_acknowledged_commit() {
    let dir = sweep_dir("crash_clog_ckpt");
    let path = dir.join("sweep.catalog");

    let state = two_acked_commits(&path);

    let (cat, log, _r) = open_durable(&path).unwrap();
    let (_, total, _) = fault::probe(|| log.checkpoint(&cat).unwrap());
    assert!(total > 0, "checkpoint must pass through the fault layer");
    drop((cat, log));

    fault::sweep(
        "checkpoint",
        Point::Kill,
        total,
        || {
            restore_durable(&path, &state);
            open_durable(&path).unwrap()
        },
        |(cat, log, _)| log.checkpoint(cat),
        |budget, state, res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: checkpoint survived the crash"
            );
            drop(state);

            let (got, _log, _r) = open_durable(&path)
                .unwrap_or_else(|e| panic!("budget {budget}/{total}: recovery failed: {e}"));
            assert_acked(&got, budget);
        },
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Fail a checkpoint's save with an I/O error the process survives at
/// every unit of its mutations. The checkpoint reports the error and the
/// log is not poisoned: the file still holds the old checkpoint, the next
/// durable commit and the next checkpoint succeed, and a reopen holds every
/// acknowledged commit. (A failure in the log truncation that follows the
/// save poisons the log; that is outside this sweep.)
#[test]
fn failed_checkpoint_save_leaves_the_log_usable() {
    let dir = sweep_dir("fail_ckpt");
    let path = dir.join("sweep.catalog");
    let base = Catalog::new();
    base.create(tiny("a", 32)).unwrap();
    save_catalog(&base, &path).unwrap();
    drop(base);
    {
        let (cat, _log, _r) = open_durable(&path).unwrap();
        durable_put(&cat, tiny("b", 16)).unwrap();
    }
    let state = capture_durable(&path);

    let (cat, log, _r) = open_durable(&path).unwrap();
    let (_, units, trace) = fault::probe(|| log.checkpoint(&cat).unwrap());
    // The save's mutations, then the truncation's: the log cut to its
    // header and synced.
    assert_eq!(
        trace[trace.len() - 2..],
        [fault::Mutation::SetLen, fault::Mutation::Sync]
    );
    let save_units = units - 2;
    drop((cat, log));

    fault::sweep(
        "checkpoint-save failure",
        Point::Fail,
        save_units,
        || {
            restore_durable(&path, &state);
            open_durable(&path).unwrap()
        },
        |(cat, log, _)| log.checkpoint(cat),
        |budget, (cat, log, _), res| {
            assert!(
                res.is_err(),
                "budget {budget}/{save_units}: the checkpoint did not fail"
            );
            assert!(
                !read_catalog(&path).unwrap().contains("b"),
                "budget {budget}/{save_units}: the file is not the old checkpoint"
            );
            durable_put(&cat, tiny("c", 16)).unwrap_or_else(|e| {
                panic!("budget {budget}/{save_units}: the log is poisoned: {e}")
            });
            assert_eq!(
                log.checkpoint(&cat)
                    .unwrap_or_else(|e| panic!("budget {budget}/{save_units}: {e}")),
                2
            );
            drop((cat, log));
            let (got, _log, replay) = open_durable(&path).unwrap();
            assert_eq!(replay.replayed, 0, "budget {budget}/{save_units}");
            for (name, rows) in [("a", 32), ("b", 16), ("c", 16)] {
                assert_eq!(
                    tuples(&got, name),
                    tiny(name, rows).tuple_multiset(),
                    "budget {budget}/{save_units}: {name}"
                );
            }
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Column-reference records: a record may name columns of the state it
// applies to, so replaying it onto the wrong state is no longer harmless.
// ---------------------------------------------------------------------------

/// 32 rows, 16-row segments: a unique `id`, a `grp` that repeats and a
/// `label` that `grp` determines — `DECOMPOSE … (id, grp), (grp, label)`
/// builds its changed side, `COPY` and the unchanged side are all reuse.
fn dim(name: &str, salt: i64) -> Table {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("grp", ValueType::Int),
            ("label", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let data: Vec<Vec<Value>> = (0..32)
        .map(|i| {
            vec![
                Value::Int(i + salt),
                Value::Int(i % 4),
                Value::str(format!("g{}", i % 4 + salt)),
            ]
        })
        .collect();
    Table::from_rows_with_segment_rows(name, schema, &data, 16).unwrap()
}

/// A catalog file holding `dim("t", 0)`, opened durably behind a platform.
fn durable_dim(path: &Path) -> (Cods, cods_storage::CommitLog) {
    if !path.exists() {
        let base = Catalog::new();
        base.create(dim("t", 0)).unwrap();
        save_catalog(&base, path).unwrap();
    }
    let (catalog, log, _r) = open_durable(path).unwrap();
    (Cods::with_catalog(catalog), log)
}

fn script(cods: &Cods, text: &str) {
    let report = cods
        .run_script_with_retry(text, &cods_storage::RetryPolicy::default())
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    assert!(report.durable, "{text}");
}

/// Three records that all reuse columns: a copy (all references), a
/// decomposition (references the table it drops, carries its changed side)
/// and a key–FK merge (references one put of an earlier record, carries the
/// gathered payload).
const REFERENCE_SCRIPTS: [&str; 3] = [
    "COPY TABLE t TO t2",
    "DECOMPOSE TABLE t INTO s (id, grp), g (grp, label)",
    "MERGE TABLES s, g INTO m",
];

/// Every table's image, by name — the acknowledged state a reopen must
/// reproduce byte for byte.
fn images(cat: &Catalog) -> Vec<(String, Vec<u8>)> {
    cat.snapshot()
        .iter()
        .map(|t| (t.name().to_string(), encode_table(t).as_slice().to_vec()))
        .collect()
}

/// Kill a checkpoint at every boundary with three reference-carrying
/// records pending. At the points after the save's commit slot is written
/// and before the log is truncated, the records are present *and* covered:
/// they must be skipped — re-applying the `DECOMPOSE` would look for the
/// `t` it dropped. Whatever the point, the reopened catalog is the
/// acknowledged one, image for image.
#[test]
fn crash_sweep_checkpoint_with_reference_records_pending() {
    let dir = sweep_dir("crash_clog_refs");
    let path = dir.join("sweep.catalog");
    let (cods, log) = durable_dim(&path);
    for text in REFERENCE_SCRIPTS {
        script(&cods, text);
    }
    let stats = log.stats();
    assert!(stats.columns_referenced >= 7 && stats.columns_carried == 3);
    let want = images(cods.catalog());
    drop((cods, log));
    let state = capture_durable(&path);

    let (cods, log) = durable_dim(&path);
    let (_, total, _) = fault::probe(|| log.checkpoint(cods.catalog()).unwrap());
    drop((cods, log));

    let mut covered_points = 0;
    fault::sweep(
        "reference-record checkpoint",
        Point::Kill,
        total,
        || {
            restore_durable(&path, &state);
            durable_dim(&path)
        },
        |(cods, log)| log.checkpoint(cods.catalog()),
        |budget, state, res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: checkpoint survived the crash"
            );
            drop(state);

            let pending = cods_storage::log_status(&path).unwrap().records;
            let (got, _log, replay) = open_durable(&path)
                .unwrap_or_else(|e| panic!("budget {budget}/{total}: recovery failed: {e}"));
            assert_eq!(images(&got), want, "budget {budget}/{total}");
            if pending == 3 && replay.replayed == 0 {
                covered_points += 1;
            } else {
                assert_eq!(replay.replayed, pending, "budget {budget}/{total}");
            }
        },
    );
    println!(
        "reference-record checkpoint sweep: {covered_points} kill points \
         with the save committed and the log untruncated"
    );
    assert!(
        covered_points > 0,
        "the covered-records window was never hit"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Commits racing checkpoints from a second thread: each is either in a
/// checkpoint's snapshot or carried whole past it, so after the last
/// truncation — and a crash — every acknowledged one is there.
#[test]
fn commits_racing_checkpoints_survive_a_crash() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let dir = sweep_dir("clog_race");
    let path = dir.join("race.catalog");
    let (cods, log) = durable_dim(&path);
    let cods = Arc::new(cods);
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(std::sync::Barrier::new(2));

    let committer = {
        let (cods, done, start) = (Arc::clone(&cods), Arc::clone(&done), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for i in 0..40 {
                // All references, to the base or to an earlier racing commit.
                let from = if i == 0 {
                    "t".to_string()
                } else {
                    format!("c{}", i - 1)
                };
                script(&cods, &format!("COPY TABLE {from} TO c{i}"));
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    start.wait();
    let mut checkpoints = 0;
    while !done.load(Ordering::SeqCst) {
        log.checkpoint(cods.catalog()).unwrap();
        checkpoints += 1;
    }
    committer.join().unwrap();
    assert!(checkpoints > 0);
    let want = images(cods.catalog());
    drop((cods, log));

    let (got, _log, _replay) = open_durable(&path).unwrap();
    assert_eq!(got.len(), 41);
    assert_eq!(images(&got), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A table replaced past the log between two logged commits. The log never
/// saw the replacement, so the second commit must carry what it takes from
/// it; replay yields both commits' acknowledged tables and never hands one
/// a column of the other `t`. After a checkpoint the replacement is in the
/// file, and reuse of it is sound again.
#[test]
fn unlogged_replacement_between_logged_commits_replays_exactly() {
    let dir = sweep_dir("clog_unlogged");
    let path = dir.join("u.catalog");
    let (cods, log) = durable_dim(&path);
    script(&cods, "COPY TABLE t TO before");
    cods.catalog().put(dim("t", 100)); // same name, same shape, other data
    script(&cods, "COPY TABLE t TO after");
    assert_eq!(
        log.stats().columns_carried,
        3,
        "the new `t` is not in the view"
    );
    let (old_t, new_t) = (dim("t", 0).to_rows(), dim("t", 100).to_rows());
    drop((cods, log));

    let (cods, log) = durable_dim(&path);
    let cat = cods.catalog();
    assert_eq!(cat.get("before").unwrap().to_rows(), old_t);
    assert_eq!(cat.get("after").unwrap().to_rows(), new_t);
    assert_eq!(
        cat.get("t").unwrap().to_rows(),
        old_t,
        "the put was never logged"
    );

    cat.put(dim("t", 100));
    log.checkpoint(cat).unwrap();
    script(&cods, "COPY TABLE t TO later");
    assert_eq!(
        log.stats().columns_carried,
        0,
        "the file holds the new `t` now"
    );
    drop((cods, log));
    let (got, _log, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, 1);
    assert_eq!(got.get("later").unwrap().to_rows(), new_t);
    assert_eq!(got.get("t").unwrap().to_rows(), new_t);
    assert_eq!(got.get("before").unwrap().to_rows(), old_t);
    std::fs::remove_dir_all(&dir).ok();
}

/// A vacuum under reference-carrying records. References are by table and
/// column, not by heap offset, so a rebound heap cannot strand them —
/// offline (the file keeps its version, all three replay) or live (the
/// file takes the catalog's version, the three are covered and a fourth
/// still resolves).
#[test]
fn vacuum_under_reference_records_replays_exactly() {
    let dir = sweep_dir("clog_vacuum_refs");
    let path = dir.join("v.catalog");
    let (cods, log) = durable_dim(&path);
    for text in REFERENCE_SCRIPTS {
        script(&cods, text);
    }
    let want = images(cods.catalog());
    drop((cods, log));
    cods_storage::vacuum_file(&path).unwrap();
    let (got, _log, replay) = open_durable(&path).unwrap();
    assert_eq!(replay.replayed, 3);
    assert_eq!(images(&got), want);
    drop(got);

    let (cods, log) = durable_dim(&path);
    cods_storage::vacuum_catalog(cods.catalog(), &path).unwrap();
    script(&cods, "RENAME TABLE m TO m2");
    assert_eq!(log.stats().columns_carried, 0);
    let want = images(cods.catalog());
    drop((cods, log));
    let (got, _log, replay) = open_durable(&path).unwrap();
    assert_eq!(
        replay.replayed, 1,
        "the vacuumed file covers the first three"
    );
    assert_eq!(images(&got), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill *recovery itself* (torn-tail truncation) at every boundary: a crash during replay must leave the state re-openable
/// with the full acknowledged prefix — recovery is idempotent.
#[test]
fn crash_sweep_replay_recovery_is_idempotent() {
    let dir = sweep_dir("crash_clog_replay");
    let path = dir.join("sweep.catalog");

    // Model a crash mid-append: a torn half-record at the tail.
    let mut state = two_acked_commits(&path);
    state.log.extend_from_slice(&[0xAB; 11]);
    restore_durable(&path, &state);

    let ((_cat, _log, replay), total, _) = fault::probe(|| open_durable(&path).unwrap());
    assert!(replay.discarded_torn);
    assert!(total > 0, "recovery must pass through the fault layer");

    fault::sweep(
        "replay-recovery",
        Point::Kill,
        total,
        || restore_durable(&path, &state),
        |()| open_durable(&path),
        |budget, (), res| {
            assert!(
                res.is_err(),
                "budget {budget}/{total}: recovery survived the crash"
            );
            drop(res);

            let (got, _log, _r) = open_durable(&path)
                .unwrap_or_else(|e| panic!("budget {budget}/{total}: re-recovery failed: {e}"));
            assert_acked(&got, budget);
        },
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A file cut short under its committed slot's index (the slot names bytes
/// the file no longer holds) is unrecoverable — the reader must say so with
/// a typed [`StorageError::Corrupt`] carrying a recovery hint, not a panic
/// and not a generic decode error.
#[test]
fn torn_tail_without_journal_is_typed_corrupt_with_hint() {
    let dir = sweep_dir("torn_tail");
    let path = dir.join("torn.catalog");
    let cat = Catalog::new();
    cat.create(tiny("a", 32)).unwrap();
    save_catalog(&cat, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Cut inside the index, which a fresh image ends with, and before it.
    for cut in [
        bytes.len() - 1,
        bytes.len() - 5,
        bytes.len() - 13,
        bytes.len() - 40,
    ] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match read_catalog(&path) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.contains("torn tail"), "cut {cut}: {msg}");
                assert!(
                    msg.contains("restore the file from a copy"),
                    "cut {cut}: hint missing from {msg}"
                );
            }
            other => panic!("cut {cut}: wanted Corrupt, got {other:?}"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A payload that cannot be faulted in — here the file shrinks under the
/// open handle of a lazily opened table — fails the read with a typed
/// error on the served path (`predicate_mask` directly, and `Query::Count`,
/// `Query::Scan` and `Query::Join` over a catalog snapshot as a connection
/// thread runs them: the count fails as a whole, the two row streams at
/// the first batch that needs a payload); it must not panic the thread.
#[test]
fn truncated_file_under_a_lazy_table_fails_reads_with_a_typed_error() {
    let dir = sweep_dir("truncated_lazy");
    let pred = Predicate::eq("v", "x"); // some rows of every segment
    let truncate = |path: &Path| {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(8).unwrap();
    };

    let table_path = dir.join("t.tbl");
    // The unique key is a range, whose rows no truncation can take away;
    // recoded bitmap it has a payload for the operators' key reads to miss.
    let keyed = tiny("t", 64)
        .map_columns(Some("k"), |c| c.recode(Encoding::Bitmap))
        .unwrap();
    save_table(&keyed, &table_path).unwrap();
    let lazy = read_table(&table_path).unwrap();
    truncate(&table_path);
    assert!(matches!(
        predicate_mask(&lazy, &pred),
        Err(StorageError::PersistError(_))
    ));
    // The operators read their key columns through the same fallible
    // walker: DECOMPOSE's distinction and a key–FK MERGE's key table.
    let storage_error = |r: Result<(), EvolutionError>| {
        matches!(
            r,
            Err(EvolutionError::Storage(StorageError::PersistError(_)))
        )
    };
    let spec = DecomposeSpec::new("S", &["k"], "T", &["k", "v"]);
    assert!(storage_error(cods::decompose(&lazy, &spec).map(drop)));
    let key_fk = MergeStrategy::KeyForeignKey { keyed: "t".into() };
    assert!(storage_error(
        cods::merge(&lazy, &lazy, "m", &key_fk).map(drop)
    ));

    let catalog_path = dir.join("c.catalog");
    let cat = Catalog::new();
    cat.create(tiny("t", 64)).unwrap();
    save_catalog(&cat, &catalog_path).unwrap();
    let snapshot = read_catalog(&catalog_path).unwrap().snapshot_view();
    truncate(&catalog_path);
    let count = Query::Count {
        table: "t".into(),
        predicate: pred,
    };
    let resolved = count.resolve(&snapshot).unwrap();
    assert!(matches!(resolved.run(), Err(StorageError::PersistError(_))));

    // An unfiltered scan needs no payload for its mask and a join none for
    // its plan: both start, and fail where they first decode a segment.
    let scan = Query::Scan {
        table: "t".into(),
        predicate: Predicate::True,
        projection: None,
    };
    let join = Query::Join {
        left: "t".into(),
        right: "t".into(),
        left_keys: vec!["k".into()],
        right_keys: vec!["k".into()],
    };
    for query in [scan, join] {
        let QueryOutput::Rows { mut batches, .. } =
            query.resolve(&snapshot).unwrap().run().unwrap()
        else {
            panic!("{query:?} yields rows");
        };
        assert!(
            matches!(batches.next(), Some(Err(StorageError::PersistError(_)))),
            "{query:?}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
