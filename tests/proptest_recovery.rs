//! Differential property test of commit-log recovery: a random sequence of
//! SMO commits — fresh puts, and the evolutions whose records reuse columns
//! of earlier state (`RENAME`, `COPY TABLE`, `ADD`/`DROP`/`RENAME COLUMN`,
//! `DECOMPOSE`, `MERGE`) — with checkpoints at random positions, killed at a
//! random crash point (inside a commit or inside a checkpoint), must reopen
//! to a catalog **byte-identical** (per-table [`encode_table`]) to the
//! acknowledged-prefix oracle — an in-memory catalog that applied exactly
//! the commits the log acknowledged (plus, at most, the one in-flight
//! commit whose record reached the disk complete before the kill).
//!
//! A checkpoint re-encodes only the tables whose `Arc` differs from the one
//! the file's committed index holds, and references the others' blocks as
//! they are. A third property interleaves random evolutions with
//! checkpoints and restarts, and holds the file to the live catalog after
//! every checkpoint and every reopen: a reused block that went stale would
//! show there.
//!
//! CI runs this suite at `PROPTEST_CASES=512`.

use bytes::Bytes;
use cods::Cods;
use cods_storage::persist::{decode_catalog, encode_table};
use cods_storage::{
    fault, open_durable, Catalog, CommitLog, RetryPolicy, Schema, StorageError, Table, Value,
    ValueType,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One randomly chosen step: a catalog commit (SMO granularity) or a
/// checkpoint. Table operands are picked by index among the live tables,
/// names by number (`t0`…`t5`, extra columns `x0`…`x2`).
#[derive(Debug, Clone)]
enum Op {
    /// Put table `name` (create, or replace if it exists) with
    /// deterministic content derived from `(name, rows, salt)`: fresh
    /// columns, nothing to reuse. A few dozen rows make a frame of a
    /// kilobyte or two (an all-reference record is about 200 bytes),
    /// [`BIG_ROWS`] one well past 64 KiB — the line at which
    /// earlier log formats moved an image out of its record.
    Put { name: u8, rows: u16, salt: u8 },
    /// Drop the `idx`-th live table (no-op on an empty catalog).
    Drop { idx: u8 },
    /// Rename the `idx`-th live table to `to`: every column reused.
    Rename { idx: u8, to: u8 },
    /// `COPY TABLE`: every column reused, the source stays.
    Copy { idx: u8, to: u8 },
    /// `ADD COLUMN x<col> … DEFAULT`: one new column beside reused ones.
    AddColumn { idx: u8, col: u8 },
    /// `DROP COLUMN x<col>`: a narrower table of reused columns.
    DropColumn { idx: u8, col: u8 },
    /// `RENAME COLUMN x<col> TO x<to>`: reused columns, new schema.
    RenameColumn { idx: u8, col: u8, to: u8 },
    /// `DECOMPOSE … INTO t<a> (all but v), t<b> (g, v)`: references the
    /// table it drops, builds the changed side.
    Decompose { idx: u8, a: u8, b: u8 },
    /// `MERGE TABLES … INTO t<out>` of a `(…, g, …)` table and a `(g, v)`
    /// one: key–FK, one gathered column beside reused ones.
    Merge { left: u8, right: u8, out: u8 },
    /// Fold the log into the file (nothing to do for the oracle).
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The in-tree `prop_oneof!` picks arms uniformly, so arms are listed
    // more than once to weight them: puts three times (catalogs must grow
    // before they can evolve; one of the three is a big table, so a script
    // interleaves small and large frames with its checkpoints), and the two
    // ops that need an earlier op to have set them up — a merge needs a
    // decomposition's sides — twice.
    let put = |rows: std::ops::Range<u16>| {
        (0u8..6, rows, 0u8..4).prop_map(|(name, rows, salt)| Op::Put { name, rows, salt })
    };
    let decompose = || (0u8..6, 0u8..6, 0u8..6).prop_map(|(idx, a, b)| Op::Decompose { idx, a, b });
    let merge =
        || (0u8..6, 0u8..6, 0u8..6).prop_map(|(left, right, out)| Op::Merge { left, right, out });
    prop_oneof![
        put(1..40),
        put(1..40),
        put(BIG_ROWS..BIG_ROWS + 400),
        (0u8..6).prop_map(|idx| Op::Drop { idx }),
        (0u8..6, 0u8..6).prop_map(|(idx, to)| Op::Rename { idx, to }),
        (0u8..6, 0u8..6).prop_map(|(idx, to)| Op::Copy { idx, to }),
        (0u8..6, 0u8..3).prop_map(|(idx, col)| Op::AddColumn { idx, col }),
        (0u8..6, 0u8..3).prop_map(|(idx, col)| Op::DropColumn { idx, col }),
        (0u8..6, 0u8..3, 0u8..3).prop_map(|(idx, col, to)| Op::RenameColumn { idx, col, to }),
        decompose(),
        decompose(),
        merge(),
        merge(),
        (0u8..1).prop_map(|_| Op::Checkpoint),
    ]
}

fn table_name(n: u8) -> String {
    format!("t{n}")
}

/// Deterministic table content: both the durable run and the oracle build
/// the exact same bytes from the same op. `g` determines `v`, so the table
/// decomposes losslessly into `(k, g)` and `(g, v)`.
fn build_table(name: &str, rows: u16, salt: u8) -> Table {
    let schema = Schema::build(
        &[
            ("k", ValueType::Int),
            ("g", ValueType::Int),
            ("v", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    // A unique key, dense under salt 0 (a range segment and a dense
    // dictionary, stored by their bounds alone). A big put's key steps by
    // at least two, so its dictionary spells its values and the image stays
    // past 64 KiB.
    let step = salt as i64 + if rows < BIG_ROWS { 1 } else { 2 };
    let data: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let g = (i + salt as i64) % 3;
            vec![
                Value::Int(i * step),
                Value::Int(g),
                Value::str(if g == 0 { "x" } else { "yy" }),
            ]
        })
        .collect();
    Table::from_rows(name, schema, &data).unwrap()
}

/// Applies one op: a checkpoint through `log` (the oracle has none), a
/// `Put` straight through the optimistic commit path, everything else as
/// the SMO script a client would send. Whether an op applies at all is
/// decided from the snapshot alone — the same decision on both sides of
/// the differential, so prefixes stay aligned. Returns `Ok(false)` for the
/// ops that commit nothing.
fn apply(cods: &Cods, log: Option<&CommitLog>, op: &Op) -> Result<bool, StorageError> {
    let cat = cods.catalog();
    let (base, snap) = cat.begin_evolution();
    let names: Vec<String> = snap.keys().cloned().collect();
    let has = |t: &str, c: &str| snap[t].schema().contains(c);
    let fresh = |n: u8| !snap.contains_key(&table_name(n));
    // The `idx`-th of the live tables the op can apply to.
    let pick = |idx: u8, applies: &dyn Fn(&str) -> bool| -> Option<&String> {
        let eligible: Vec<&String> = names.iter().filter(|t| applies(t)).collect();
        (!eligible.is_empty()).then(|| eligible[idx as usize % eligible.len()])
    };
    let script =
        match op {
            Op::Checkpoint => {
                if let Some(log) = log {
                    log.checkpoint(cat)?;
                }
                return Ok(false);
            }
            Op::Put { name, rows, salt } => {
                let t = Arc::new(build_table(&table_name(*name), *rows, *salt));
                cat.commit_evolution(base, &[], vec![t])?;
                return Ok(true);
            }
            Op::Drop { idx } => pick(*idx, &|_| true).map(|t| format!("DROP TABLE {t}")),
            Op::Rename { idx, to } => pick(*idx, &|_| fresh(*to))
                .map(|t| format!("RENAME TABLE {t} TO {}", table_name(*to))),
            Op::Copy { idx, to } => pick(*idx, &|_| fresh(*to))
                .map(|t| format!("COPY TABLE {t} TO {}", table_name(*to))),
            Op::AddColumn { idx, col } => pick(*idx, &|t| !has(t, &format!("x{col}")))
                .map(|t| format!("ADD COLUMN x{col} int DEFAULT {col} TO {t}")),
            Op::DropColumn { idx, col } => pick(*idx, &|t| has(t, &format!("x{col}")))
                .map(|t| format!("DROP COLUMN x{col} FROM {t}")),
            Op::RenameColumn { idx, col, to } => pick(*idx, &|t| {
                has(t, &format!("x{col}")) && !has(t, &format!("x{to}"))
            })
            .map(|t| format!("RENAME COLUMN x{col} TO x{to} IN {t}")),
            Op::Decompose { idx, a, b } => pick(*idx, &|t| {
                a != b && fresh(*a) && fresh(*b) && ["k", "g", "v"].iter().all(|c| has(t, c))
            })
            .map(|t| {
                let rest: Vec<&str> = snap[t].schema().names();
                let rest: Vec<&str> = rest.into_iter().filter(|c| *c != "v").collect();
                format!(
                    "DECOMPOSE TABLE {t} INTO {} ({}), {} (g, v)",
                    table_name(*a),
                    rest.join(", "),
                    table_name(*b)
                )
            }),
            // A decomposition's two sides — of one table or of two: a key of
            // one may then be missing from the other, which makes it a general
            // mergence, still one deterministic commit.
            Op::Merge { left, right, out } => pick(*left, &|t| has(t, "g") && !has(t, "v"))
                .zip(pick(*right, &|t| snap[t].schema().names() == ["g", "v"]))
                .filter(|_| fresh(*out))
                .map(|(l, r)| format!("MERGE TABLES {l}, {r} INTO {}", table_name(*out))),
        };
    let Some(script) = script else {
        return Ok(false);
    };
    match cods.run_script_with_retry(&script, &RetryPolicy::no_backoff(1)) {
        Ok(_) => Ok(true),
        Err(cods::EvolutionError::Storage(e)) => Err(e),
        Err(e) => panic!("{script}: {e}"),
    }
}

/// Per-table byte comparison against an oracle catalog.
fn matches_oracle(got: &Catalog, oracle: &Catalog) -> bool {
    if got.table_names() != oracle.table_names() {
        return false;
    }
    got.table_names().iter().all(|name| {
        encode_table(&got.get(name).unwrap()).as_slice()
            == encode_table(&oracle.get(name).unwrap()).as_slice()
    })
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cods_prop_recovery_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("t.catalog")
}

/// Rows of a big `Put`: its three-column image is over 64 KiB.
const BIG_ROWS: u16 = 8000;

#[test]
fn big_puts_carry_an_image_past_64_kib() {
    assert!(encode_table(&build_table("t0", BIG_ROWS, 0)).len() > 64 * 1024);
    assert!(encode_table(&build_table("t0", 39, 3)).len() < 4096);
    // Small puts still reach the dense records.
    let small = build_table("t0", 39, 0);
    assert!(small.column(0).dict().is_dense());
    assert!(small.column(0).segments()[0].meta().is_range());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random commit sequence + random kill point: the reopened catalog is
    // byte-identical to the acknowledged prefix (or prefix + the one
    // complete-but-unacknowledged in-flight record).
    #[test]
    fn killed_commit_sequence_reopens_to_acknowledged_prefix(
        ops in prop::collection::vec(op_strategy(), 1..16),
        kill_permille in 0u64..1000,
    ) {
        // Probe: total crash points of the whole sequence.
        let probe_path = scratch();
        let (cat, log, _r) = open_durable(&probe_path).unwrap();
        let cods = Cods::with_catalog(cat);
        fault::arm(u64::MAX);
        for op in &ops {
            apply(&cods, Some(&log), op).unwrap();
        }
        fault::disarm();
        let total = fault::units();
        drop((cods, log));
        std::fs::remove_dir_all(probe_path.parent().unwrap()).ok();

        // Real run: kill at a random point inside the sequence.
        let path = scratch();
        let budget = total * kill_permille / 1000;
        let (cat, log, _r) = open_durable(&path).unwrap();
        let cods = Cods::with_catalog(cat);
        fault::arm(budget);
        let mut acknowledged = 0usize;
        for op in &ops {
            match apply(&cods, Some(&log), op) {
                Ok(_) => acknowledged += 1,
                Err(_) => break, // the modeled process died here
            }
        }
        fault::disarm();
        drop((cods, log));

        // Oracles: the acknowledged prefix, and (only when the kill hit
        // mid-commit) prefix + the in-flight commit — whose record may
        // have reached the disk complete before the fsync/ack was cut. A
        // kill inside a checkpoint changes neither: it commits nothing.
        let oracle_acked = Cods::new();
        for op in &ops[..acknowledged] {
            apply(&oracle_acked, None, op).unwrap();
        }
        let oracle_next = (acknowledged < ops.len()).then(|| {
            let oracle = Cods::new();
            for op in &ops[..=acknowledged] {
                apply(&oracle, None, op).unwrap();
            }
            oracle
        });

        // Recovery must never fail, and must land exactly on an oracle.
        let (got, _log, _replay) = open_durable(&path).unwrap();
        let ok = matches_oracle(&got, oracle_acked.catalog())
            || oracle_next.as_ref().is_some_and(|o| matches_oracle(&got, o.catalog()));
        prop_assert!(
            ok,
            "recovered catalog {:?} matches neither the {acknowledged}-commit \
             acknowledged oracle {:?} nor the in-flight oracle",
            got.table_names(),
            oracle_acked.catalog().table_names(),
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    // No kill at all: a clean close and reopen is always byte-identical.
    #[test]
    fn clean_reopen_is_byte_identical(
        ops in prop::collection::vec(op_strategy(), 1..16),
        checkpoint_at in 0usize..16,
    ) {
        let path = scratch();
        let (cat, log, _r) = open_durable(&path).unwrap();
        let cods = Cods::with_catalog(cat);
        let oracle = Cods::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&cods, Some(&log), op).unwrap();
            apply(&oracle, None, op).unwrap();
            // A mid-sequence checkpoint must not change the outcome:
            // later records replay on top of the saved base.
            if i == checkpoint_at {
                log.checkpoint(cods.catalog()).unwrap();
            }
        }
        drop((cods, log));
        let (got, _log, _replay) = open_durable(&path).unwrap();
        prop_assert!(matches_oracle(&got, oracle.catalog()));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    // Random evolutions, checkpoints and restarts, no kill. After every
    // checkpoint the file alone — decoded from its bytes, so nothing this
    // process remembers about it is consulted — holds the live catalog,
    // table image for table image; after a restart the reopened catalog
    // does, and the next checkpoints reuse its blocks.
    #[test]
    fn every_checkpoint_and_reopen_holds_the_live_catalog(
        steps in prop::collection::vec(
            (
                prop_oneof![
                    op_strategy(),
                    op_strategy(),
                    (0u8..1).prop_map(|_| Op::Checkpoint),
                ],
                0u8..3,
            ),
            1..24,
        ),
    ) {
        let path = scratch();
        let (cat, log, _r) = open_durable(&path).unwrap();
        let (mut cods, mut log) = (Cods::with_catalog(cat), log);
        for (op, restart) in &steps {
            apply(&cods, Some(&log), op).unwrap();
            if !matches!(op, Op::Checkpoint) {
                continue;
            }
            let file = decode_catalog(Bytes::from(std::fs::read(&path).unwrap())).unwrap();
            prop_assert!(matches_oracle(&file, cods.catalog()), "checkpoint after {op:?}");
            if *restart == 0 {
                let live = cods;
                drop(log);
                let (cat, reopened, replay) = open_durable(&path).unwrap();
                prop_assert_eq!(replay.replayed, 0);
                prop_assert!(matches_oracle(&cat, live.catalog()), "reopen");
                (cods, log) = (Cods::with_catalog(cat), reopened);
            }
        }
        let live = cods;
        drop(log);
        let (got, _log, _replay) = open_durable(&path).unwrap();
        prop_assert!(matches_oracle(&got, live.catalog()));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
