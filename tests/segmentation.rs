//! Segmented-column integration: the segment-parallel evolution operators
//! must produce results bit-identical to a single-segment (monolithic)
//! execution, agree with the query-level engine, and actually exercise
//! multi-segment directories.

use cods::simple_ops::{partition_table, union_tables};
use cods::{decompose, merge, merge_general, DecomposeSpec, MergeStrategy};
use cods_query::Predicate;
use cods_storage::{Encoding, Schema, Table, Value, ValueType};

const SEG: u64 = 128;
const MONO: u64 = 1 << 40;

fn r_rows(n: i64) -> Vec<Vec<Value>> {
    // entity → detail holds by construction; entities cluster in row ranges
    // so segments have distinct present-value sets.
    (0..n)
        .map(|i| {
            let entity = i / 100;
            vec![
                Value::int(entity),
                Value::int(i % 37),
                Value::int(entity * 7 % 5),
            ]
        })
        .collect()
}

fn r_schema() -> Schema {
    Schema::build(
        &[
            ("entity", ValueType::Int),
            ("attr", ValueType::Int),
            ("detail", ValueType::Int),
        ],
        &[],
    )
    .unwrap()
}

fn spec() -> DecomposeSpec {
    DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"])
}

#[test]
fn decompose_is_segmentation_invariant() {
    let rows = r_rows(5_000);
    let seg_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, SEG).unwrap();
    let mono_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, MONO).unwrap();
    assert!(
        seg_t.column(0).segment_count() > 1,
        "test must span segments"
    );
    assert_eq!(mono_t.column(0).segment_count(), 1);

    let a = decompose(&seg_t, &spec()).unwrap();
    let b = decompose(&mono_t, &spec()).unwrap();
    a.unchanged.check_invariants().unwrap();
    a.changed.check_invariants().unwrap();
    a.changed.verify_key().unwrap();
    assert_eq!(a.distinct_keys, b.distinct_keys);
    assert_eq!(a.unchanged.to_rows(), b.unchanged.to_rows());
    assert_eq!(a.changed.to_rows(), b.changed.to_rows());
    // Property 1 still holds under segmentation: reuse by reference.
    assert!(seg_t.shares_column_with(&a.unchanged, "entity"));
    assert!(seg_t.shares_column_with(&a.unchanged, "attr"));

    // Run-length encoded directories take the same operators: bit-identical
    // to the bitmap result, segmented and single-segment alike.
    let ra = decompose(&seg_t.recoded(Encoding::Rle).unwrap(), &spec()).unwrap();
    let rb = decompose(&mono_t.recoded(Encoding::Rle).unwrap(), &spec()).unwrap();
    assert_eq!(ra.distinct_keys, a.distinct_keys);
    assert_eq!(ra.changed.to_rows(), a.changed.to_rows());
    assert_eq!(rb.changed.to_rows(), ra.changed.to_rows());
}

#[test]
fn merge_is_segmentation_invariant() {
    let rows = r_rows(5_000);
    let seg_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, SEG).unwrap();
    let out = decompose(&seg_t, &spec()).unwrap();
    let (s, t) = (out.unchanged, out.changed);

    let kfk = merge(
        &s,
        &t,
        "R1",
        &MergeStrategy::KeyForeignKey { keyed: "T".into() },
    )
    .unwrap();
    kfk.output.check_invariants().unwrap();
    assert_eq!(kfk.output.tuple_multiset(), seg_t.tuple_multiset());

    let gen = merge_general(&s, &t, "R2", &["entity".into()]).unwrap();
    gen.output.check_invariants().unwrap();
    assert_eq!(gen.output.tuple_multiset(), seg_t.tuple_multiset());
}

#[test]
fn cross_engine_verify_on_segmented_input() {
    let rows = r_rows(3_000);
    let seg_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, SEG).unwrap();
    let out = decompose(&seg_t, &spec()).unwrap();
    // Data-level result re-joined must reproduce the original tuples.
    assert!(
        cods::verify::verify_lossless_round_trip(&seg_t, &out.unchanged, &out.changed).unwrap()
    );

    // Query-level (column engine) execution of the same decomposition must
    // agree table by table.
    let catalog = cods_storage::Catalog::new();
    catalog.create(seg_t.renamed("R")).unwrap();
    cods_query::decompose_column_level(
        &catalog,
        "R",
        "S2",
        &["entity", "attr"],
        "T2",
        &["entity", "detail"],
        &["entity"],
    )
    .unwrap();
    assert!(cods::verify::same_tuples(&catalog.get("S2").unwrap(), &out.unchanged).unwrap());
    assert!(cods::verify::same_tuples(&catalog.get("T2").unwrap(), &out.changed).unwrap());
}

#[test]
fn partition_union_round_trip_across_segments() {
    let rows = r_rows(4_000);
    let seg_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, SEG).unwrap();
    let (sat, rest, _) =
        partition_table(&seg_t, &Predicate::lt("entity", 13i64), "lo", "hi").unwrap();
    sat.check_invariants().unwrap();
    rest.check_invariants().unwrap();
    assert_eq!(sat.rows() + rest.rows(), seg_t.rows());
    let (back, _) = union_tables(&sat, &rest, "back").unwrap();
    back.check_invariants().unwrap();
    assert_eq!(back.tuple_multiset(), seg_t.tuple_multiset());
}

#[test]
fn union_shares_segments_of_both_inputs() {
    let rows = r_rows(1_000);
    let a = Table::from_rows_with_segment_rows("A", r_schema(), &rows, SEG).unwrap();
    let b = Table::from_rows_with_segment_rows("B", r_schema(), &rows, SEG).unwrap();
    let (u, _) = union_tables(&a, &b, "U").unwrap();
    u.check_invariants().unwrap();
    let ua = u.column(0);
    // The union's column directory reuses both inputs' segments by Arc —
    // appends never rewrite existing bitmaps.
    assert!(ua.segments()[0].ptr_eq(&a.column(0).segments()[0]));
    let a_segs = a.column(0).segment_count();
    assert!(ua.segments()[a_segs].ptr_eq(&b.column(0).segments()[0]));
}

/// A long UNION chain of small slices fragments the directory into
/// irregular tiny segments; after compaction every segment must land in
/// `[½·nominal, 2·nominal]` with results identical to the uncompacted
/// column — for both uniform encodings and for a randomly mixed directory
/// (whose compaction merge groups transcode).
#[test]
fn union_chain_fragmentation_is_repaired_by_compaction() {
    let rows = r_rows(4_000);
    let plain = Table::from_rows_with_segment_rows("R", r_schema(), &rows, SEG).unwrap();
    let mixed = {
        let mut t = plain.clone();
        let segs = t.column(0).segment_count();
        for i in (1..segs).step_by(2) {
            t = t
                .with_column_segment_range_encoding("entity", Encoding::Rle, i..i + 1)
                .unwrap();
        }
        t
    };
    assert_eq!(mixed.column(0).uniform_encoding(), None);
    let variants = [
        ("bitmap", plain.clone()),
        ("rle", plain.recoded(Encoding::Rle).unwrap()),
        ("mixed", mixed),
    ];
    for (encoding, base) in variants {
        // Chain 200 UNIONs of 20-row slices. Slicing goes through the raw
        // column API so the chain is maximally fragmenting; union_tables
        // itself already compacts behind the threshold trigger.
        let cols: Vec<_> = base.columns().to_vec();
        let mut acc: Vec<cods_storage::EncodedColumn> =
            cols.iter().map(|c| c.slice(0, 20)).collect();
        for i in 1..200 {
            let lo = (i * 20) % 3_900;
            for (a, c) in acc.iter_mut().zip(&cols) {
                *a = a.concat(&c.slice(lo, lo + 20)).unwrap();
            }
        }
        for col in &acc {
            assert_eq!(col.rows(), 4_000);
            assert!(
                col.needs_compaction(),
                "{encoding}: chain should fragment the directory ({} segments)",
                col.segment_count()
            );
            let compacted = col.compacted();
            compacted.check_invariants().unwrap();
            // Identical results...
            assert_eq!(compacted.values(), col.values());
            assert_eq!(compacted.dict(), col.dict());
            // ...and a healthy directory.
            let nominal = compacted.nominal_segment_rows();
            for size in compacted.segment_sizes() {
                assert!(
                    size >= nominal / 2 && size <= 2 * nominal,
                    "{encoding}: segment of {size} rows outside [{}, {}]",
                    nominal / 2,
                    2 * nominal
                );
            }
            assert!(!compacted.needs_compaction());
        }
        // The UNION operator's threshold trigger keeps directories healthy
        // without explicit compaction calls: chain table-level unions.
        let slice_tables: Vec<Table> = (0..100)
            .map(|i| {
                let lo = (i * 37) % 3_900;
                let cols = base
                    .columns()
                    .iter()
                    .map(|c| std::sync::Arc::new(c.slice(lo, lo + 20)))
                    .collect();
                Table::new("P", base.schema().clone(), cols).unwrap()
            })
            .collect();
        let mut acc_t = slice_tables[0].clone();
        for t in &slice_tables[1..] {
            let (u, _) = union_tables(&acc_t, t, "U").unwrap();
            acc_t = u;
        }
        assert_eq!(acc_t.rows(), 2_000);
        acc_t.check_invariants().unwrap();
        for col in acc_t.columns() {
            assert!(
                col.segment_count() <= 2 * (col.rows().div_ceil(SEG).max(1)) as usize,
                "{encoding}: union chain left {} segments for {} rows",
                col.segment_count(),
                col.rows()
            );
        }
        // The multiset survives the whole fragment-and-compact journey.
        let expect: Vec<Vec<Value>> = slice_tables.iter().flat_map(|t| t.to_rows()).collect();
        assert_eq!(acc_t.to_rows(), expect);
    }
}

#[test]
fn predicate_scan_prunes_but_stays_exact() {
    // Entities are clustered: entity k occupies rows 100k..100k+100, so a
    // point predicate's value ids live in one or two segments and every
    // other segment is pruned via stats.
    let rows = r_rows(4_000);
    let seg_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, SEG).unwrap();
    let mono_t = Table::from_rows_with_segment_rows("R", r_schema(), &rows, MONO).unwrap();
    for pred in [
        Predicate::eq("entity", 17i64),
        Predicate::lt("entity", 3i64),
        Predicate::eq("entity", 17i64).or(Predicate::eq("entity", 30i64)),
        Predicate::eq("entity", 9_999i64), // matches nothing anywhere
        Predicate::lt("attr", 30i64),      // matches in every segment
    ] {
        let a = cods_query::bitmap_scan::predicate_mask(&seg_t, &pred).unwrap();
        let b = cods_query::bitmap_scan::predicate_mask(&mono_t, &pred).unwrap();
        assert_eq!(a, b, "mask differs for {pred:?}");
    }
    let filtered =
        cods_query::bitmap_scan::filter_table(&seg_t, &Predicate::eq("entity", 17i64)).unwrap();
    filtered.check_invariants().unwrap();
    assert_eq!(filtered.rows(), 100);

    // Demand-paged, pruned segments stay on disk: entity 17 holds rows
    // 1700..1800, so the scan faults in segments 13 and 14 of one column.
    let path =
        std::env::temp_dir().join(format!("cods_it_segmentation_{}.tbl", std::process::id()));
    cods_storage::persist::save_table(&seg_t, &path).unwrap();
    let lazy = cods_storage::persist::read_table(&path).unwrap();
    assert_eq!(lazy.residency_counts().0, 0);
    let pred = Predicate::eq("entity", 17i64);
    assert_eq!(
        cods_query::bitmap_scan::predicate_mask(&lazy, &pred).unwrap(),
        cods_query::bitmap_scan::predicate_mask(&seg_t, &pred).unwrap()
    );
    assert_eq!(lazy.residency_counts().0, 2);
    std::fs::remove_file(&path).ok();
}
