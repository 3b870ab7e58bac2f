//! Differential property tests of the demand-paged segment directory: a
//! random mixed-encoding table saved in format v6 and reopened lazily —
//! then starved by a tiny buffer-cache budget so segments page in and out
//! on every touch — must be indistinguishable from the fully-resident
//! original. Scan masks are byte-identical, row images match, and SMO
//! results agree after compaction and after committed evolution plans. A
//! same-column IN list of up to 64 present ids reads just their bitmaps
//! and leaves every bitmap segment paged out. A near-unique column's packed
//! segments go through the same starved cache.
//! Runs in CI's differential proptest job at `PROPTEST_CASES=512`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cods::{Cods, Smo};
use cods_query::bitmap_scan::{predicate_mask, predicate_mask_unpruned};
use cods_query::{CmpOp, Predicate};
use cods_storage::persist::{read_catalog, read_table, save_catalog, save_table};
use cods_storage::{
    segment_cache, Catalog, Encoding, RecodeScope, RecodeTarget, Schema, Table, Value, ValueType,
};
use proptest::prelude::*;

/// A per-process-unique scratch file so parallel test binaries and
/// successive proptest cases never collide.
fn temp(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cods_proptest_lazy_{}_{tag}_{n}.tbl",
        std::process::id()
    ))
}

/// Serializes the properties that set the process-wide cache budget, for
/// their whole run: none of them runs under a budget another one set or
/// reset, and the cache counters one reads move only by its own saves and
/// reads.
fn budget_lock() -> std::sync::MutexGuard<'static, ()> {
    static BUDGET: std::sync::Mutex<()> = std::sync::Mutex::new(());
    BUDGET.lock().unwrap_or_else(|e| e.into_inner())
}

/// Random table R(k, v): clustered-ish k so zones have something to prune,
/// scattered v with NULLs, random segment size.
fn base_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec((0i64..40, 0i64..12, 0u8..16), 1usize..300),
        4u64..64,
    )
        .prop_map(|(trips, seg_rows)| {
            let schema =
                Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
            let mut rows: Vec<Vec<Value>> = trips
                .into_iter()
                .map(|(k, v, null)| {
                    vec![
                        Value::int(k),
                        if null == 0 {
                            Value::Null
                        } else {
                            Value::int(v)
                        },
                    ]
                })
                .collect();
            rows.sort_by(|a, b| a[0].cmp(&b[0]));
            Table::from_rows_with_segment_rows("R", schema, &rows, seg_rows).unwrap()
        })
}

/// A random comparison or boolean combination over k and v, including
/// literals outside every value range and NULL literals.
fn pred() -> impl Strategy<Value = Predicate> {
    let cmp = (0usize..6, 0usize..2, -5i64..50, 0u8..12).prop_map(|(op, col, lit, null)| {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][op];
        Predicate::Compare {
            column: if col == 0 { "k" } else { "v" }.into(),
            op,
            literal: if null == 0 {
                Value::Null
            } else {
                Value::int(lit)
            },
        }
    });
    (prop::collection::vec(cmp, 1usize..4), 0usize..3).prop_map(|(cmps, shape)| {
        let mut it = cmps.into_iter();
        let first = it.next().unwrap();
        match shape {
            0 => first,
            1 => it.fold(first, |acc, c| acc.and(c)),
            _ => it.fold(first, |acc, c| acc.or(c)),
        }
    })
}

/// Random table R(k, v) whose `k` takes up to 120 distinct values, so an
/// IN list on it can name more than 64 present ids.
fn wide_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec((0i64..120, 0i64..12), 1usize..400),
        8u64..128,
    )
        .prop_map(|(pairs, seg_rows)| {
            let schema =
                Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
            let rows: Vec<Vec<Value>> = pairs
                .into_iter()
                .map(|(k, v)| vec![Value::int(k), Value::int(v)])
                .collect();
            // `k` in bitmap segments, where ingest would pack a near-unique
            // one: the selective read is a bitmap segment's.
            Table::from_rows_with_segment_rows("R", schema, &rows, seg_rows)
                .unwrap()
                .map_columns(Some("k"), |c| {
                    c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
                })
                .unwrap()
        })
}

/// The literals of a same-column IN list: 1–64 of them, or 65–80, drawn
/// from a span wider than `wide_table`'s `k`, so each list mixes values
/// the table holds with values it does not.
fn in_list() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        prop::collection::vec(-20i64..140, 1usize..65),
        prop::collection::vec(-20i64..140, 65usize..81),
    ]
}

/// Random table R(k, v) whose `k` is near-unique — up to 300 rows drawn
/// from 400 values, sorted or not — so ingest packs its segments; then
/// either as ingested or with each segment of `k` packed, bitmap or RLE by
/// two bits of a pattern.
fn near_unique_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec((0i64..400, 0i64..12), 1usize..300),
        any::<bool>(),
        4u64..64,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(mut pairs, sorted, seg_rows, mixed, pattern)| {
            if sorted {
                pairs.sort_unstable();
            }
            let schema =
                Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
            let rows: Vec<Vec<Value>> = pairs
                .into_iter()
                .map(|(k, v)| vec![Value::int(k), Value::int(v)])
                .collect();
            let t = Table::from_rows_with_segment_rows("R", schema, &rows, seg_rows).unwrap();
            if !mixed {
                return t;
            }
            t.map_columns(Some("k"), |c| {
                let mut out = c.clone();
                for i in 0..c.segment_count() {
                    let to = [
                        Encoding::Packed,
                        Encoding::Bitmap,
                        Encoding::Rle,
                        Encoding::Packed,
                    ][(pattern >> (2 * (i % 32)) & 3) as usize];
                    out =
                        out.with_encoding(RecodeScope::Segments(i..i + 1), RecodeTarget::To(to))?;
                }
                Ok(out)
            })
            .unwrap()
        })
}

/// Applies one of the per-column / per-segment encoding assignments so the
/// saved directory is genuinely heterogeneous.
fn encode_variant(table: Table, enc: usize, pattern: u64) -> Table {
    fn mix_column(t: &Table, name: &str, pattern: u64) -> Table {
        let mut out = t.clone();
        let segs = out.column_by_name(name).unwrap().segment_count();
        for i in 0..segs {
            if pattern & (1 << (i % 64)) != 0 {
                out = out
                    .map_columns(Some(name), |c| {
                        c.with_encoding(
                            RecodeScope::Segments(i..i + 1),
                            RecodeTarget::To(Encoding::Rle),
                        )
                    })
                    .unwrap();
            }
        }
        out
    }
    match enc {
        0 => table,
        1 => table
            .map_columns(None, |c| c.recode(Encoding::Rle))
            .unwrap(),
        2 => table
            .map_columns(Some("k"), |c| c.recode(Encoding::Rle))
            .unwrap(),
        3 => table
            .map_columns(Some("v"), |c| c.recode(Encoding::Rle))
            .unwrap(),
        4 => mix_column(&table, "k", pattern),
        _ => mix_column(
            &mix_column(&table, "k", pattern),
            "v",
            pattern.rotate_left(23),
        ),
    }
}

/// Saves `t` in format v6 and reopens it demand-paged, checking that the
/// reopen really was metadata-only. The caller owns (and removes) the file.
fn save_reopen(t: &Table, path: &PathBuf) -> Table {
    save_table(t, path).unwrap();
    let lazy = read_table(path).unwrap();
    let (resident, on_disk) = lazy.residency_counts();
    assert_eq!(resident, 0, "lazy open faulted payloads in");
    assert!(on_disk > 0 || t.rows() == 0);
    lazy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Scans, row images, invariants, and compaction over a lazily opened
    // table match the fully-resident oracle bit for bit, even when the
    // budget forces eviction churn between (and during) operations.
    #[test]
    fn lazy_scans_match_the_resident_oracle(
        table in base_table(),
        p in pred(),
        enc in 0usize..6,
        pattern in proptest::prelude::any::<u64>(),
        budget in 0u64..1500,
    ) {
        let _budget = budget_lock();
        let oracle = encode_variant(table, enc, pattern);
        let path = temp("scan");
        let lazy = save_reopen(&oracle, &path);

        // Starve the cache: a fresh (never-saved) oracle is never evicted,
        // but the lazy table's segments now page in and out constantly.
        segment_cache().set_budget(budget);

        // Pruned scans run the zone and present-id metadata tiers without
        // faulting; both pruned and exhaustive masks must agree with the
        // resident table.
        prop_assert_eq!(
            predicate_mask(&lazy, &p).unwrap(),
            predicate_mask(&oracle, &p).unwrap()
        );
        prop_assert_eq!(
            predicate_mask_unpruned(&lazy, &p).unwrap(),
            predicate_mask_unpruned(&oracle, &p).unwrap()
        );
        prop_assert_eq!(lazy.to_rows(), oracle.to_rows());
        lazy.check_invariants().unwrap();

        // Post-compaction: fragment the lazy directory through a
        // slice/concat chain, then compact — every segment is faulted
        // through the starved cache while being rewritten.
        let rows = oracle.rows();
        if rows >= 8 {
            let half = rows / 2;
            let cols: Vec<_> = lazy
                .columns()
                .iter()
                .map(|c| {
                    let acc = c.slice(0, half).unwrap().concat(&c.slice(half, rows).unwrap()).unwrap();
                    std::sync::Arc::new(acc.compacted().unwrap())
                })
                .collect();
            let rebuilt = Table::new("C", oracle.schema().clone(), cols).unwrap();
            rebuilt.check_invariants().unwrap();
            prop_assert_eq!(rebuilt.to_rows(), oracle.to_rows());
            prop_assert_eq!(
                predicate_mask(&rebuilt, &p).unwrap(),
                predicate_mask(&oracle, &p).unwrap()
            );
        }

        segment_cache().set_budget(u64::MAX);
        std::fs::remove_file(&path).ok();
    }

    // A same-column IN list (`k = a OR k = b OR …`, one id-set leaf) over
    // a lazily opened table matches the resident oracle bit for bit, at a
    // zero budget and at small ones. A leaf that names at most 64 ids
    // reads its bitmaps without faulting a segment in, so after it no
    // bitmap segment of `k` is resident; a wider one faults as before.
    #[test]
    fn lazy_in_lists_match_the_resident_oracle(
        oracle in wide_table(),
        list in in_list(),
        budget in prop_oneof![Just(0u64), 0u64..1500],
    ) {
        let _budget = budget_lock();
        let path = temp("in");
        let lazy = save_reopen(&oracle, &path);
        segment_cache().set_budget(budget);

        let eq = |v: i64| Predicate::eq("k", v);
        let pred = list[1..].iter().fold(eq(list[0]), |acc, &v| acc.or(eq(v)));
        // The lock makes these counters this read's alone.
        let before = segment_cache().stats();
        let mask = predicate_mask(&lazy, &pred).unwrap();
        let after = segment_cache().stats();
        prop_assert_eq!(mask, predicate_mask(&oracle, &pred).unwrap());
        let present: std::collections::BTreeSet<Value> =
            oracle.to_rows().into_iter().map(|r| r[0].clone()).collect();
        let named = list
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|&&v| present.contains(&Value::int(v)))
            .count();
        if named <= 64 {
            // Nothing faulted in: nothing resident, and nothing faulted in
            // and evicted again under a budget too small to keep it.
            let k = lazy.column_by_name("k").unwrap();
            prop_assert!(
                k.segments()
                    .iter()
                    .all(|s| s.meta().encoding != Encoding::Bitmap || !s.is_resident()),
                "a leaf of {} ids faulted a bitmap segment in",
                named
            );
            prop_assert_eq!(after.evictions, before.evictions);
        }
        prop_assert_eq!(
            predicate_mask_unpruned(&lazy, &pred).unwrap(),
            predicate_mask_unpruned(&oracle, &pred).unwrap()
        );

        segment_cache().set_budget(u64::MAX);
        std::fs::remove_file(&path).ok();
    }

    // Packed segments read through a starved cache — at a zero budget and
    // at small ones — match the resident oracle: a near-unique `k` under
    // an equality, an IN list either side of 64 ids, a range, a BETWEEN,
    // `Ne` and a conjunction with `v`, pruned and exhaustive; then every
    // row and the payload checks.
    #[test]
    fn lazy_packed_segments_match_the_resident_oracle(
        oracle in near_unique_table(),
        lits in prop::collection::vec(-5i64..410, 1usize..81),
        width in 0i64..80,
        budget in prop_oneof![Just(0u64), 0u64..1500],
    ) {
        let _budget = budget_lock();
        let path = temp("packed");
        let lazy = save_reopen(&oracle, &path);
        segment_cache().set_budget(budget);

        let eq = |v: i64| Predicate::eq("k", v);
        let first = lits[0];
        let preds = [
            eq(first),
            lits[1..].iter().fold(eq(first), |acc, &v| acc.or(eq(v))),
            Predicate::lt("k", first),
            Predicate::ge("k", first).and(Predicate::lt("k", first + width)),
            Predicate::Compare {
                column: "k".into(),
                op: CmpOp::Ne,
                literal: Value::int(first),
            },
            Predicate::lt("v", 6i64).and(eq(first).not()),
        ];
        for p in &preds {
            prop_assert_eq!(
                predicate_mask(&lazy, p).unwrap(),
                predicate_mask(&oracle, p).unwrap()
            );
            prop_assert_eq!(
                predicate_mask_unpruned(&lazy, p).unwrap(),
                predicate_mask_unpruned(&oracle, p).unwrap()
            );
        }
        prop_assert_eq!(lazy.to_rows(), oracle.to_rows());
        lazy.check_invariants().unwrap();

        segment_cache().set_budget(u64::MAX);
        std::fs::remove_file(&path).ok();
    }

    // A committed evolution plan (partition + union through the
    // validate-then-commit pipeline) over a lazily opened catalog produces
    // the same tables as over a fully-resident one, and re-saving the
    // evolved lazy catalog (the append path) round-trips.
    #[test]
    fn lazy_plan_commits_match_the_resident_oracle(
        table in base_table(),
        enc in 0usize..6,
        pattern in proptest::prelude::any::<u64>(),
        threshold in 0i64..40,
        budget in 0u64..1500,
    ) {
        let _budget = budget_lock();
        let oracle = encode_variant(table, enc, pattern);
        let path = temp("plan");

        let resident_cat = Catalog::new();
        resident_cat.create(oracle.clone()).unwrap();
        save_catalog(&resident_cat, &path).unwrap();
        let lazy_cat = read_catalog(&path).unwrap();

        segment_cache().set_budget(budget);

        let smos = || vec![
            Smo::PartitionTable {
                input: "R".into(),
                predicate: Predicate::lt("k", threshold),
                satisfying: "lo".into(),
                rest: "hi".into(),
            },
            Smo::UnionTables {
                left: "lo".into(),
                right: "hi".into(),
                output: "back".into(),
                drop_inputs: true,
            },
        ];
        let resident = Cods::with_catalog(resident_cat);
        resident.plan(smos()).unwrap().execute().unwrap();
        let lazy = Cods::with_catalog(lazy_cat);
        lazy.plan(smos()).unwrap().execute().unwrap();

        let want = resident.table("back").unwrap();
        let got = lazy.table("back").unwrap();
        got.check_invariants().unwrap();
        prop_assert_eq!(got.to_rows(), want.to_rows());

        // Append-save the evolved catalog over the same file and reopen:
        // the plan's outputs persist and still match the oracle.
        save_catalog(lazy.catalog(), &path).unwrap();
        let reread = read_catalog(&path).unwrap();
        prop_assert_eq!(reread.get("back").unwrap().to_rows(), want.to_rows());

        segment_cache().set_budget(u64::MAX);
        std::fs::remove_file(&path).ok();
    }
}
