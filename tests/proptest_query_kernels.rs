//! Differential property tests of the vectorized query kernels: random
//! mixed-encoding tables with NULLs are run through the dictionary-native
//! group-by and the partition-wise hash join, and the results must be
//! byte-identical (group-by) or multiset-identical (join) to the row-at-a-
//! time oracles in `cods_query::{agg::aggregate, tuple::hash_join}`. Each
//! case also replays against a demand-paged copy starved by a tiny buffer-
//! cache budget, so multi-pass join partitioning and run-stream faulting
//! both get exercised. Float columns hold dyadic rationals only, so sums
//! are exact and byte-comparable regardless of accumulation order. Forced
//! join plans (either build side, one to four partition passes, one- and
//! two-column keys) pin the id-indexed buckets' row order, and a grouping
//! column whose dictionary outgrows every batch pins the id-indexed group
//! slots under a fragmented mask. Runs in CI's differential proptest job
//! at `PROPTEST_CASES=512`, with fanned-out and serial kernels.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cods_bitmap::Wah;
use cods_query::join::partition_of;
use cods_query::{
    aggregate, aggregate_table, aggregate_table_masked, join_collect, join_stream, plan_join,
    predicate_mask, tuple, AggOp, BuildSide, CmpOp, Predicate,
};
use cods_storage::persist::{read_table, save_table};
use cods_storage::{
    segment_cache, Encoding, RecodeScope, RecodeTarget, Schema, Table, Value, ValueType,
};
use proptest::prelude::*;

/// A per-process-unique scratch file so parallel test binaries and
/// successive proptest cases never collide.
fn temp(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cods_proptest_kernels_{}_{tag}_{n}.tbl",
        std::process::id()
    ))
}

/// Fact table F(g, tag, k, f, v): two grouping columns (int and string),
/// a join key, a dyadic-rational float, and an int measure — every column
/// nullable. Rows are optionally sorted on `g` so RLE has long runs.
fn fact_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(
            ((0i64..6, 0u8..5, 0i64..20), (-64i64..64, 0i64..50, 0u8..32)),
            0usize..260,
        ),
        4u64..64,
        any::<bool>(),
    )
        .prop_map(|(trips, seg_rows, sorted)| {
            let schema = Schema::build(
                &[
                    ("g", ValueType::Int),
                    ("tag", ValueType::Str),
                    ("k", ValueType::Int),
                    ("f", ValueType::Float),
                    ("v", ValueType::Int),
                ],
                &[],
            )
            .unwrap();
            let mut rows: Vec<Vec<Value>> = trips
                .into_iter()
                .map(|((g, tag, k), (f, v, nulls))| {
                    let cell = |bit: u8, val: Value| {
                        if nulls & (1 << bit) == 0 {
                            val
                        } else {
                            Value::Null
                        }
                    };
                    vec![
                        cell(0, Value::int(g)),
                        cell(1, Value::str(format!("t{tag}"))),
                        cell(2, Value::int(k)),
                        // Eighths of small integers: exactly representable,
                        // and their sums are exact in any order.
                        cell(3, Value::float(f as f64 / 8.0)),
                        cell(4, Value::int(v)),
                    ]
                })
                .collect();
            if sorted {
                rows.sort_by(|a, b| a[0].cmp(&b[0]));
            }
            Table::from_rows_with_segment_rows("F", schema, &rows, seg_rows).unwrap()
        })
}

/// Dimension table D(k, m, label): join key (nullable, partially
/// overlapping F.k and with duplicates), a second key column for composite
/// joins, and a payload string.
fn dim_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec((0i64..25, 0i64..6, 0u8..8, 0u8..4), 0usize..40),
        3u64..32,
    )
        .prop_map(|(trips, seg_rows)| {
            let schema = Schema::build(
                &[
                    ("k", ValueType::Int),
                    ("m", ValueType::Int),
                    ("label", ValueType::Str),
                ],
                &[],
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = trips
                .into_iter()
                .map(|(k, m, label, null)| {
                    vec![
                        if null == 0 {
                            Value::Null
                        } else {
                            Value::int(k)
                        },
                        Value::int(m),
                        Value::str(format!("d{label}")),
                    ]
                })
                .collect();
            Table::from_rows_with_segment_rows("D", schema, &rows, seg_rows).unwrap()
        })
}

/// A random comparison or boolean combination over g / k / v, including
/// literals outside every value range and NULL literals.
fn pred() -> impl Strategy<Value = Predicate> {
    let cmp = (0usize..6, 0usize..3, -5i64..55, 0u8..12).prop_map(|(op, col, lit, null)| {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][op];
        Predicate::Compare {
            column: ["g", "k", "v"][col].into(),
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

/// Applies one of the per-column / per-segment encoding assignments so
/// run-stream kernels see genuinely heterogeneous segment directories.
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
            .map_columns(Some("g"), |c| c.recode(Encoding::Rle))
            .unwrap(),
        3 => mix_column(&table, "k", pattern),
        _ => mix_column(
            &mix_column(&table, "g", pattern),
            "v",
            pattern.rotate_left(23),
        ),
    }
}

/// Saves `t` and reopens it demand-paged (metadata only — payloads fault
/// in through the starved cache). The caller removes the file.
fn save_reopen(t: &Table, path: &PathBuf) -> Table {
    save_table(t, path).unwrap();
    let lazy = read_table(path).unwrap();
    let (resident, on_disk) = lazy.residency_counts();
    assert_eq!(resident, 0, "lazy open faulted payloads in");
    // Only an empty table, or one whose every segment is a range (no
    // payload), has nothing paged out.
    let ranges_only = lazy
        .columns()
        .iter()
        .flat_map(|c| c.segments())
        .all(|s| s.meta().is_range());
    assert!(on_disk > 0 || ranges_only);
    lazy
}

/// The grouping-column sets the group-by differential cycles through.
fn group_sets() -> [&'static [usize]; 4] {
    [&[0], &[1], &[0, 1], &[0, 1, 2]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The dictionary-native group-by kernel — id-indexed or tuple keys,
    // bitmap or RLE run streams, resident or cache-starved demand-paged —
    // returns byte-identical rows in byte-identical order to the row-at-a-
    // time `aggregate` oracle, with and without a pushed-down predicate
    // mask.
    #[test]
    fn columnar_group_by_matches_the_row_oracle(
        table in fact_table(),
        p in pred(),
        enc in 0usize..5,
        pattern in any::<u64>(),
        group_set in 0usize..4,
        budget in 0u64..1500,
    ) {
        let oracle = encode_variant(table, enc, pattern);
        let group_by = group_sets()[group_set];
        let aggs = [
            (AggOp::Count, 4, ValueType::Int),
            (AggOp::CountDistinct, 1, ValueType::Str),
            (AggOp::Sum, 4, ValueType::Int),
            (AggOp::Sum, 3, ValueType::Float),
            (AggOp::Min, 1, ValueType::Str),
            (AggOp::Max, 4, ValueType::Int),
        ];
        let rows = oracle.to_rows();

        // Row oracle: unmasked, and masked by per-row predicate evaluation
        // (independent of the bitmap-scan machinery).
        let want_all = aggregate(&rows, group_by, &aggs).unwrap();
        let compiled = p.compile(oracle.schema()).unwrap();
        let kept: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| compiled.eval(r))
            .cloned()
            .collect();
        let want_masked = aggregate(&kept, group_by, &aggs).unwrap();

        // Resident columnar kernel.
        prop_assert_eq!(&aggregate_table(&oracle, group_by, &aggs).unwrap(), &want_all);
        let mask = predicate_mask(&oracle, &p).unwrap();
        prop_assert_eq!(
            &aggregate_table_masked(&oracle, group_by, &aggs, Some(&mask)).unwrap(),
            &want_masked
        );

        // Demand-paged copy under a starved budget: every run stream
        // faults through the cache mid-aggregation.
        let path = temp("groupby");
        let lazy = save_reopen(&oracle, &path);
        segment_cache().set_budget(budget);
        prop_assert_eq!(&aggregate_table(&lazy, group_by, &aggs).unwrap(), &want_all);
        let lazy_mask = predicate_mask(&lazy, &p).unwrap();
        prop_assert_eq!(&lazy_mask, &mask);
        prop_assert_eq!(
            &aggregate_table_masked(&lazy, group_by, &aggs, Some(&lazy_mask)).unwrap(),
            &want_masked
        );
        segment_cache().set_budget(u64::MAX);
        std::fs::remove_file(&path).ok();
    }

    // The partition-wise hash join — single- and multi-pass, single and
    // composite keys, either build side — produces exactly the multiset of
    // rows the nested-loop `tuple::hash_join` oracle produces (NULL keys
    // join; dangling keys don't), and reproduces its row order verbatim on
    // the single-pass build-right plan.
    #[test]
    fn partitioned_hash_join_matches_the_row_oracle(
        fact in fact_table(),
        dim in dim_table(),
        enc in 0usize..5,
        pattern in any::<u64>(),
        composite in any::<bool>(),
        budget in 0u64..1500,
    ) {
        let left = encode_variant(fact, enc, pattern);
        let (lk, rk): (&[usize], &[usize]) = if composite {
            (&[2, 0], &[0, 1])
        } else {
            (&[2], &[0])
        };
        let want = tuple::hash_join(&left.to_rows(), &dim.to_rows(), lk, rk);
        let mut want_sorted = want.clone();
        want_sorted.sort();

        // Resident, default budget: the planner sees the full cache budget.
        let (l, r) = (Arc::new(left.clone()), Arc::new(dim.clone()));
        let (plan, got) = join_collect(&l, &r, lk, rk);
        if plan.partitions == 1 && plan.build == BuildSide::Right {
            prop_assert_eq!(&got, &want);
        }
        let mut got_sorted = got;
        got_sorted.sort();
        prop_assert_eq!(&got_sorted, &want_sorted);

        // Demand-paged copies under a starved budget: the byte guard now
        // forces multi-pass partitioning, and probe/build segments fault
        // through the cache between passes.
        let (lp, rp) = (temp("join_l"), temp("join_r"));
        let lazy_l = Arc::new(save_reopen(&left, &lp));
        let lazy_r = Arc::new(save_reopen(&dim, &rp));
        segment_cache().set_budget(budget);
        let (lazy_plan, lazy_got) = join_collect(&lazy_l, &lazy_r, lk, rk);
        prop_assert!(lazy_plan.partitions >= 1);
        let mut lazy_sorted = lazy_got;
        lazy_sorted.sort();
        prop_assert_eq!(&lazy_sorted, &want_sorted);
        segment_cache().set_budget(u64::MAX);
        std::fs::remove_file(&lp).ok();
        std::fs::remove_file(&rp).ok();
    }

    // Every plan, forced rather than chosen: build-right output is the
    // oracle's rows pass by pass — probe rows in table order, a key's
    // duplicate build rows in build-row order, NULL keys joined, dangling
    // keys dropped — so one pass is row-identical to the oracle; build-left
    // output is the oracle's multiset.
    #[test]
    fn forced_join_plans_match_the_row_oracle(
        fact in fact_table(),
        dim in dim_table(),
        enc in 0usize..5,
        pattern in any::<u64>(),
        composite in any::<bool>(),
        build_left in any::<bool>(),
        partitions in 1u32..5,
    ) {
        let left = encode_variant(fact, enc, pattern);
        let (lk, rk): (&[usize], &[usize]) = if composite {
            (&[2, 0], &[0, 1])
        } else {
            (&[2], &[0])
        };
        let want = tuple::hash_join(&left.to_rows(), &dim.to_rows(), lk, rk);
        let (l, r) = (Arc::new(left), Arc::new(dim));
        let mut plan = plan_join(&l, &r, lk, rk, u64::MAX);
        plan.build = if build_left { BuildSide::Left } else { BuildSide::Right };
        plan.partitions = partitions;
        let got: Vec<Vec<Value>> = join_stream(Arc::clone(&l), Arc::clone(&r), lk, rk, &plan)
            .flat_map(|batch| batch.to_rows())
            .collect();
        if build_left {
            let (mut got, mut want) = (got, want);
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        } else {
            // A matched row's left key columns hold its key.
            let pass_of = |row: &Vec<Value>| {
                let key: Vec<Value> = lk.iter().map(|&c| row[c].clone()).collect();
                partition_of(&r, rk, partitions, &key)
            };
            let expect: Vec<Vec<Value>> = (0..partitions)
                .flat_map(|pass| want.iter().filter(move |row| pass_of(row) == Some(pass)))
                .cloned()
                .collect();
            prop_assert_eq!(got, expect);
        }
    }

    // One grouping column whose dictionary is larger than any batch (tens
    // to hundreds of values over segments of at most 16 rows), bitmap, RLE
    // or mixed segments, under a mask that keeps a random half of the rows: the
    // id-indexed slots give byte-identical groups, in first-appearance
    // order, to the row oracle over the kept rows.
    #[test]
    fn one_column_group_by_over_a_wide_dictionary_matches_the_row_oracle(
        pairs in prop::collection::vec((0i64..400, -64i64..64, 0u8..6), 32usize..300),
        seg_rows in 4u64..16,
        keep in prop::collection::vec(any::<bool>(), 300),
        enc in 0usize..3,
        pattern in any::<u64>(),
    ) {
        let schema = Schema::build(&[("g", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = pairs
            .iter()
            .map(|&(g, v, null)| {
                let v = if null == 0 { Value::Null } else { Value::int(v) };
                vec![Value::int(g), v]
            })
            .collect();
        let table = Table::from_rows_with_segment_rows("W", schema, &rows, seg_rows).unwrap();
        let table = match enc {
            0 => table,
            1 => table.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap(),
            _ => {
                let mut mixed = table.clone();
                for i in 0..table.column(0).segment_count() {
                    if pattern & (1 << (i % 64)) != 0 {
                        mixed = mixed
                            .map_columns(Some("g"), |c| c.with_encoding(RecodeScope::Segments(i..i + 1), RecodeTarget::To(Encoding::Rle)))
                            .unwrap();
                    }
                }
                mixed
            }
        };
        let n = rows.len() as u64;
        let positions: Vec<u64> = (0..n).filter(|&r| keep[r as usize]).collect();
        let mask = Wah::from_sorted_positions(positions.iter().copied(), n);
        let kept: Vec<Vec<Value>> = positions.iter().map(|&r| rows[r as usize].clone()).collect();
        let aggs = [
            (AggOp::Count, 1, ValueType::Int),
            (AggOp::CountDistinct, 1, ValueType::Int),
            (AggOp::Sum, 1, ValueType::Int),
            (AggOp::Min, 1, ValueType::Int),
            (AggOp::Max, 1, ValueType::Int),
        ];
        prop_assert_eq!(
            aggregate_table_masked(&table, &[0], &aggs, Some(&mask)).unwrap(),
            aggregate(&kept, &[0], &aggs).unwrap()
        );
        prop_assert_eq!(
            aggregate_table(&table, &[0], &aggs).unwrap(),
            aggregate(&rows, &[0], &aggs).unwrap()
        );
    }
}
