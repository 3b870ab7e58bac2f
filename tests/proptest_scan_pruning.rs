//! Differential property tests of zone-map scan pruning: over random
//! tables — per-column *and* per-segment mixed encodings (randomly mixed
//! directories), post-SMO, post-compaction — and random predicates, the
//! pruned scan ([`predicate_mask`]) must be bit-identical to the
//! exhaustive scan ([`predicate_mask_unpruned`]) and to a row-level
//! evaluation oracle. Same-column `OR` chains of equalities, which the
//! evaluator folds into one id-set leaf, get an arm of their own, and so
//! does a near-unique column, whose segments ingest packs. Runs in CI's
//! differential proptest job at `PROPTEST_CASES=512`.

use cods::simple_ops::{partition_table, union_tables};
use cods_query::bitmap_scan::{predicate_mask, predicate_mask_unpruned};
use cods_query::{CmpOp, Predicate};
use cods_storage::{
    EncodedColumn, Encoding, RecodeScope, RecodeTarget, Schema, Table, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap()
}

/// Random rows of R(k, v): clustered-ish k (sorted with noise) so zones
/// have something to prune, scattered v with NULLs.
fn sorted_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec((0i64..40, 0i64..12, 0u8..16), 1usize..300).prop_map(|trips| {
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
        // Sort by k so segments get distinct value ranges (what zone
        // pruning exploits); v stays scattered.
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        rows
    })
}

/// [`sorted_rows`] as a table with a random segment size shared by both
/// columns (the directories agree, as for any loaded or saved table).
fn base_table() -> impl Strategy<Value = Table> {
    (sorted_rows(), 4u64..64).prop_map(|(rows, seg_rows)| {
        Table::from_rows_with_segment_rows("R", schema(), &rows, seg_rows).unwrap()
    })
}

/// A random predicate tree of depth ≤ 4 over k and v: `AND`/`OR`/`NOT`
/// mixes that repeat columns, all six operators (so `Ne`'s boolean-table
/// path too), literals outside every value range, NULL literals, and
/// fusable BETWEEN pairs on k.
fn pred() -> impl Strategy<Value = Predicate> {
    let leaf = (
        (0usize..6, 0usize..2, -5i64..50, 0u8..12),
        (0i64..20, 0u8..4),
    )
        .prop_map(|((op, col, lit, null), (width, between))| {
            if between == 0 {
                return Predicate::ge("k", lit).and(Predicate::lt("k", lit + width));
            }
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
    (
        prop::collection::vec(leaf, 16usize),
        prop::collection::vec(0u8..8, 15usize),
    )
        .prop_map(|(leaves, shapes)| {
            fn build(
                depth: u32,
                leaves: &mut std::vec::IntoIter<Predicate>,
                shapes: &mut std::vec::IntoIter<u8>,
            ) -> Predicate {
                let shape = if depth == 4 {
                    0
                } else {
                    shapes.next().unwrap()
                };
                let mut sub = || build(depth + 1, leaves, shapes);
                match shape {
                    0 | 1 => leaves.next().unwrap(),
                    2..=4 => {
                        let a = sub();
                        a.and(sub())
                    }
                    5 | 6 => {
                        let a = sub();
                        a.or(sub())
                    }
                    _ => sub().not(),
                }
            }
            build(0, &mut leaves.into_iter(), &mut shapes.into_iter())
        })
}

/// A same-column `OR` chain of 1–12 equalities (an IN), the way clients
/// build one: left-deep, right-deep or split at random points. Literals
/// repeat, include NULL, and fall outside every zone or the dictionary
/// (k holds 0..40, v 0..12 and NULL). The chain stands alone, under `NOT`,
/// inside an `AND` with a comparison on the other column, or ORed with an
/// equality on the other column.
fn in_pred() -> impl Strategy<Value = Predicate> {
    (
        (
            0usize..2,
            prop::collection::vec((-5i64..50, 0u8..12), 1usize..13),
        ),
        (0u8..3, any::<u64>(), 0u8..5, -5i64..50),
    )
        .prop_map(|((col, lits), (shape, splits, wrap, other))| {
            let (name, other_name) = if col == 0 { ("k", "v") } else { ("v", "k") };
            let mut eqs: Vec<Predicate> = lits
                .into_iter()
                .map(|(lit, null)| Predicate::Compare {
                    column: name.into(),
                    op: CmpOp::Eq,
                    literal: if null == 0 {
                        Value::Null
                    } else {
                        Value::int(lit)
                    },
                })
                .collect();
            fn mixed(mut eqs: Vec<Predicate>, splits: u64) -> Predicate {
                if eqs.len() == 1 {
                    return eqs.pop().unwrap();
                }
                let at = 1 + (splits % (eqs.len() as u64 - 1)) as usize;
                let right = eqs.split_off(at);
                let splits = splits.rotate_left(7) ^ 0x9e37_79b9;
                mixed(eqs, splits).or(mixed(right, splits.rotate_left(13)))
            }
            let chain = match shape {
                0 => {
                    let first = eqs.remove(0);
                    eqs.into_iter().fold(first, |acc, e| acc.or(e))
                }
                1 => {
                    let last = eqs.pop().unwrap();
                    eqs.into_iter().rev().fold(last, |acc, e| e.or(acc))
                }
                _ => mixed(eqs, splits),
            };
            match wrap {
                0 => chain,
                1 => chain.not(),
                2 => chain.and(Predicate::lt(other_name, other)),
                3 => Predicate::lt(other_name, other).and(chain.not()),
                // An equality on the other column: the OR does not fold.
                _ => chain.or(Predicate::eq(other_name, other)),
            }
        })
}

/// Recodes segments of the named column to RLE wherever `pattern` has a
/// set bit — a random per-segment encoding assignment producing a
/// genuinely mixed directory.
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

/// A near-unique column `u`: up to 300 rows drawn from 400 values (about
/// two rows in three distinct), sorted or not, with a random segment size,
/// and its segments as ingested (packed, or bitmap where a segment repeats
/// too much), all packed, or each one packed, bitmap or RLE by two bits of
/// a pattern.
fn near_unique_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(0i64..400, 1usize..300),
        any::<bool>(),
        4u64..64,
        0usize..3,
        any::<u64>(),
    )
        .prop_map(|(mut vals, sorted, seg_rows, enc, pattern)| {
            if sorted {
                vals.sort_unstable();
            }
            let schema = Schema::build(&[("u", ValueType::Int)], &[]).unwrap();
            let rows: Vec<Vec<Value>> = vals.into_iter().map(|v| vec![Value::int(v)]).collect();
            let t = Table::from_rows_with_segment_rows("N", schema, &rows, seg_rows).unwrap();
            match enc {
                0 => t,
                1 => t.map_columns(None, |c| c.recode(Encoding::Packed)).unwrap(),
                _ => t
                    .map_columns(None, |c| {
                        let mut out = c.clone();
                        for i in 0..c.segment_count() {
                            let to = [
                                Encoding::Packed,
                                Encoding::Bitmap,
                                Encoding::Rle,
                                Encoding::Packed,
                            ][(pattern >> (2 * (i % 32)) & 3) as usize];
                            out = out.with_encoding(
                                RecodeScope::Segments(i..i + 1),
                                RecodeTarget::To(to),
                            )?;
                        }
                        Ok(out)
                    })
                    .unwrap(),
            }
        })
}

/// A predicate on `u`: an equality, an IN chain of 1–64 or 65–100
/// literals, a range, a BETWEEN or `Ne`, possibly under `NOT`; literals
/// fall inside and outside the column's values.
fn near_unique_pred() -> impl Strategy<Value = Predicate> {
    (
        0u8..6,
        -5i64..410,
        prop_oneof![
            prop::collection::vec(-5i64..410, 1usize..65),
            prop::collection::vec(-5i64..410, 65usize..101),
        ],
        0i64..80,
        any::<bool>(),
    )
        .prop_map(|(kind, lit, list, width, negate)| {
            let p = match kind {
                0 => Predicate::eq("u", lit),
                1 => {
                    let eq = |v: i64| Predicate::eq("u", v);
                    list[1..].iter().fold(eq(list[0]), |acc, &v| acc.or(eq(v)))
                }
                2 => Predicate::lt("u", lit),
                3 => Predicate::ge("u", lit),
                4 => Predicate::ge("u", lit).and(Predicate::lt("u", lit + width)),
                _ => Predicate::Compare {
                    column: "u".into(),
                    op: CmpOp::Ne,
                    literal: Value::int(lit),
                },
            };
            if negate {
                p.not()
            } else {
                p
            }
        })
}

fn assert_masks_agree(t: &Table, p: &Predicate) {
    let pruned = predicate_mask(t, p).unwrap();
    let unpruned = predicate_mask_unpruned(t, p).unwrap();
    assert_eq!(pruned, unpruned, "pruned != exhaustive for {p:?}");
    let compiled = p.compile(t.schema()).unwrap();
    for (row, tuple) in t.to_rows().iter().enumerate() {
        assert_eq!(
            pruned.get(row as u64),
            compiled.eval(tuple),
            "row {row} for {p:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_scan_matches_exhaustive_on_mixed_encodings(
        table in base_table(),
        p in pred(),
        enc in 0usize..6,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        // The four per-column encoding combinations, plus randomly mixed
        // per-segment directories (one column, then both).
        let table = match enc {
            0 => table,
            1 => table.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap(),
            2 => table.map_columns(Some("k"), |c| c.recode(Encoding::Rle)).unwrap(),
            3 => table.map_columns(Some("v"), |c| c.recode(Encoding::Rle)).unwrap(),
            4 => mix_column(&table, "k", pattern),
            _ => mix_column(&mix_column(&table, "k", pattern), "v", pattern.rotate_left(23)),
        };
        table.check_invariants().unwrap();
        assert_masks_agree(&table, &p);
    }

    #[test]
    fn in_chains_match_exhaustive_and_oracle_on_mixed_encodings(
        table in base_table(),
        p in in_pred(),
        enc in 0usize..6,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        // A folded IN leaf against the same encodings as any predicate.
        let table = match enc {
            0 => table,
            1 => table.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap(),
            2 => table.map_columns(Some("k"), |c| c.recode(Encoding::Rle)).unwrap(),
            3 => table.map_columns(Some("v"), |c| c.recode(Encoding::Rle)).unwrap(),
            4 => mix_column(&table, "k", pattern),
            _ => mix_column(&mix_column(&table, "k", pattern), "v", pattern.rotate_left(23)),
        };
        assert_masks_agree(&table, &p);
    }

    #[test]
    fn pruned_scan_matches_exhaustive_after_smo_and_compaction(
        table in base_table(),
        p in pred(),
        threshold in 0i64..40,
        rle in 0usize..3,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        let table = match rle {
            1 => table.map_columns(None, |c| c.recode(Encoding::Rle)).unwrap(),
            // Randomly mixed directories go through the same SMO and
            // compaction machinery as the uniform ones.
            2 => mix_column(&table, "k", pattern),
            _ => table,
        };
        // Post-SMO: partition + union rebuilds every column through the
        // segment-parallel executors (zones re-derived from stats).
        let (sat, rest, _) =
            partition_table(&table, &Predicate::lt("k", threshold), "lo", "hi").unwrap();
        let (back, _) = union_tables(&sat, &rest, "back").unwrap();
        back.check_invariants().unwrap();
        assert_masks_agree(&back, &p);

        // Post-compaction: fragment the directory through a slice/concat
        // chain, then compact — the compacted column derives its zones
        // from its own segments' stats on first use.
        let rows = table.rows();
        if rows >= 8 {
            let quarter = rows / 4;
            let cols: Vec<_> = table
                .columns()
                .iter()
                .map(|c| {
                    let mut acc = c.slice(0, quarter).unwrap();
                    for piece in 1..4 {
                        let lo = piece * quarter;
                        let hi = if piece == 3 { rows } else { lo + quarter };
                        acc = acc.concat(&c.slice(lo, hi).unwrap()).unwrap();
                    }
                    Arc::new(acc.compacted().unwrap())
                })
                .collect();
            let rebuilt = Table::new("C", table.schema().clone(), cols).unwrap();
            rebuilt.check_invariants().unwrap();
            assert_eq!(rebuilt.to_rows(), table.to_rows());
            assert_masks_agree(&rebuilt, &p);
        }
    }

    #[test]
    fn near_unique_columns_match_exhaustive_and_oracle(
        table in near_unique_table(),
        p in near_unique_pred(),
    ) {
        table.check_invariants().unwrap();
        assert_masks_agree(&table, &p);
    }

    #[test]
    fn range_major_scan_matches_oracles_on_disagreeing_directories(
        rows in sorted_rows(),
        p in pred(),
        k_seg in 3u64..64,
        v_seg in 3u64..64,
        cut in 0u64..300,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        // Per-column segment sizes, and one extra boundary in v from a
        // slice/concat pair: the columns' directories share few boundaries
        // (the last row at the least), so a range spans several segments
        // of each column — the common-boundary fallback.
        let column = |i: usize, seg_rows: u64| {
            let values: Vec<Value> = rows.iter().map(|r| r[i].clone()).collect();
            EncodedColumn::from_values_with(ValueType::Int, &values, seg_rows).unwrap()
        };
        let (k, v) = (column(0, k_seg), column(1, v_seg));
        let cut = cut % (v.rows() + 1);
        let v = v.slice(0, cut).unwrap().concat(&v.slice(cut, v.rows()).unwrap()).unwrap();
        let table = Table::new("D", schema(), vec![Arc::new(k), Arc::new(v)]).unwrap();
        let table = mix_column(&mix_column(&table, "k", pattern), "v", pattern.rotate_left(23));
        table.check_invariants().unwrap();
        assert_eq!(table.to_rows(), rows);
        assert_masks_agree(&table, &p);
    }
}
