//! The model test: one seeded stateful property whose oracle is the
//! paper's §2.4 claim — data-level evolution equals query-level evolution,
//! with a lossless join and the FDs preserved — checked through every layer
//! under it at once: plans, lazily opened segments under a starved buffer
//! cache, the commit log, checkpoints, vacuum and reopen.
//!
//! A case builds R(k, a, d) (k → d by construction; `a` near-unique, so
//! ingest packs it) and B(k, v) (NULLs in `v`) in one of four encoding mixes
//! (as ingested, all bitmap, all RLE, or bitmap/RLE/packed per segment),
//! commits them to a durable catalog and reopens it lazily: the system under
//! test (SUT). It then runs a random interleaving of steps on the SUT — an
//! SMO chain run as one plan; a read (count, scan, IN list, group-by or
//! join through `Query::resolve` → `run`, or a slice/concat/compact
//! rewrite); a checkpoint, a vacuum or a reopen through `open_durable`; a
//! buffer-cache budget of zero, a small one or none — with at most one kill
//! point (`fault::arm`) around one chain or checkpoint.
//!
//! A resident model, an in-memory catalog, applies each chain one
//! single-operator plan at a time and checks every DECOMPOSE and MERGE
//! against `cods_query::evolution`'s query-level evolution (the paper's M).
//! The assertions, by the word their messages start with:
//!
//! * **image** — after every step the SUT's catalog equals the model's byte
//!   for byte (`encode_table` per table): the same schemas, encodings,
//!   dictionaries and segment directories, read through the cache.
//! * **claim** — a DECOMPOSE's outputs equal M's as multisets, join back to
//!   the input, and the changed side holds one row per key; a MERGE's
//!   output equals M's.
//! * **plan** — a chain the model completes, the plan completes (committed
//!   puts ≤ staged puts, one history record per operator, and a chain of
//!   column operators plans as one node per operator); a chain the model
//!   rejects, the plan rejects, leaving the catalog bytes and the history
//!   as they were.
//! * **lazy** — every read equals the model's under the budget of the
//!   moment; pruned and unpruned masks equal the model's unpruned one; an IN
//!   list naming at most 64 present ids faults in no paged-out bitmap
//!   segment; a compaction through the cache keeps rows and masks; a reopen
//!   with nothing to replay decodes no payload.
//! * **snapshot** — a snapshot taken before a chain reads the old catalog
//!   after it.
//! * **crash** — after a kill, the reopened catalog is the old one or the
//!   new one, the new one if the chain was acknowledged; a killed
//!   checkpoint loses nothing.
//!
//! The buffer-cache budget is process-global, so this is the only test in
//! its binary. CI runs it at `PROPTEST_CASES=512`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cods::{parse_script, Cods, Smo};
use cods_query::bitmap_scan::{predicate_mask, predicate_mask_unpruned};
use cods_query::evolution::{decompose_column_level, merge_column_level};
use cods_query::{tuple, AggOp, CmpOp, Predicate, Query, QueryOutput};
use cods_storage::persist::encode_table;
use cods_storage::{
    fault, open_durable, segment_cache, vacuum_catalog, Catalog, CatalogSnapshot, CommitLog,
    EncodedColumn, Encoding, RecodeScope, RecodeTarget, Schema, SegSlot, Table, Value, ValueType,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

/// Small pools: collisions and chained reuse of names are the point.
const NAMES: [&str; 5] = ["R", "B", "t1", "t2", "t3"];
const COLS: [&str; 6] = ["k", "a", "d", "v", "x1", "x2"];

fn script(text: String) -> Vec<Smo> {
    parse_script(&text).unwrap()
}

/// DECOMPOSE `r` into `s (k, a)` and `t (k, d)`; swapped, into `s (k, d)`
/// and `t (k, a)`, where k rarely determines `a`, so the chain fails at
/// execution, not at validation.
fn decompose(r: &str, s: &str, t: &str, swap: bool) -> String {
    let (x, y) = if swap { ("d", "a") } else { ("a", "d") };
    format!("DECOMPOSE TABLE {r} INTO {s} (k, {x}), {t} (k, {y})\n")
}

/// One operator over the name pools (a UNION may drop its inputs, which
/// the statement language cannot say).
fn op() -> impl Strategy<Value = Smo> {
    let n = || (0usize..5).prop_map(|i| NAMES[i]);
    let c = || (0usize..6).prop_map(|i| COLS[i]);
    let text = prop_oneof![
        (n(), n()).prop_map(|(a, b)| format!("COPY TABLE {a} TO {b}")),
        (n(), n()).prop_map(|(a, b)| format!("RENAME TABLE {a} TO {b}")),
        n().prop_map(|a| format!("DROP TABLE {a}")),
        (n(), 0i64..40, n(), n())
            .prop_map(|(a, k, s, r)| format!("PARTITION TABLE {a} WHERE k < {k} INTO {s}, {r}")),
        (n(), n(), n(), any::<bool>()).prop_map(|(r, s, t, swap)| decompose(r, s, t, swap)),
        (n(), n(), n()).prop_map(|(a, b, o)| format!("MERGE TABLES {a}, {b} INTO {o}")),
        (n(), c(), -5i64..5).prop_map(|(t, c, v)| format!("ADD COLUMN {c} int DEFAULT {v} TO {t}")),
        (n(), c()).prop_map(|(t, c)| format!("DROP COLUMN {c} FROM {t}")),
        (n(), c(), c()).prop_map(|(t, a, b)| format!("RENAME COLUMN {a} TO {b} IN {t}")),
    ];
    let union = (n(), n(), n(), any::<bool>()).prop_map(|(l, r, o, drop_inputs)| {
        let (left, right, output) = (l.into(), r.into(), o.into());
        Smo::UnionTables {
            left,
            right,
            output,
            drop_inputs,
        }
    });
    prop_oneof![text.prop_map(|t| script(t).remove(0)), union]
}

fn is_column_op(smo: &Smo) -> bool {
    use Smo::{AddColumn, DropColumn, RenameColumn};
    matches!(
        smo,
        AddColumn { .. } | DropColumn { .. } | RenameColumn { .. }
    )
}

/// A chain: random operators; column operators on R alone (mostly on the
/// extra columns, after an add), cancelled adds and renames of renamed
/// columns included; or a DECOMPOSE of R into two free names whose sides
/// MERGE back into R and are dropped, then maybe another operator (one
/// round trip in four swaps the DECOMPOSE's sides, which fails on the FD
/// at execution unless k is unique).
fn chain() -> impl Strategy<Value = Vec<Smo>> {
    let c = || prop_oneof![4usize..6, 0usize..6].prop_map(|i| COLS[i]);
    let add =
        || (c(), -9i64..9).prop_map(|(c, v)| format!("ADD COLUMN {c} int DEFAULT {v} TO R\n"));
    let column_op = prop_oneof![
        add(),
        c().prop_map(|c| format!("DROP COLUMN {c} FROM R\n")),
        (c(), c()).prop_map(|(a, b)| format!("RENAME COLUMN {a} TO {b} IN R\n")),
    ];
    let trip = (2usize..5, 1usize..3, 0u8..4, vec(op(), 0..2));
    prop_oneof![
        vec(op(), 1..5),
        (add(), vec(column_op, 0..5)).prop_map(|(first, rest)| script(first + &rest.concat())),
        trip.prop_map(|(s, next, swap, rest)| {
            let (s, t) = (NAMES[s], NAMES[2 + (s - 2 + next) % 3]);
            let back = format!("MERGE TABLES {s}, {t} INTO R\nDROP TABLE {s}\nDROP TABLE {t}");
            let trip = script(decompose("R", s, t, swap == 0) + &back);
            trip.into_iter().chain(rest).collect()
        }),
    ]
}

/// A read, resolved against the table it lands on: its shape, two tables
/// by index; two columns by index; the comparisons of a predicate (`op`,
/// column, literal, NULL when 0) and how they combine (the first alone,
/// AND, OR, or the first negated AND the rest); an IN list (a present
/// value by index, or a literal).
type Read = (
    (u8, usize, usize),
    (usize, usize),
    (Vec<(usize, usize, i64, u8)>, u8),
    Vec<(bool, u16)>,
);

fn read() -> impl Strategy<Value = Read> {
    let cmp = (0usize..6, 0usize..8, -5i64..410, 0u8..12);
    (
        (0u8..6, 0usize..8, 0usize..8),
        (0usize..8, 0usize..8),
        (vec(cmp, 1..4), 0u8..4),
        vec((any::<bool>(), 0u16..420), 1..81),
    )
}

/// A buffer-cache budget: zero, a small one, or none.
fn budget() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..1500, Just(u64::MAX)]
}

#[derive(Clone, Debug)]
enum Step {
    Evolve(Vec<Smo>),
    Read(Read),
    Checkpoint,
    Vacuum,
    Reopen,
    Budget(u64),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        chain().prop_map(Step::Evolve),
        chain().prop_map(Step::Evolve),
        read().prop_map(Step::Read),
        read().prop_map(Step::Read),
        read().prop_map(Step::Read),
        Just(Step::Checkpoint),
        Just(Step::Vacuum),
        Just(Step::Reopen),
        budget().prop_map(Step::Budget),
    ]
}

/// The starting tables, as generated: R's `(k, a)` pairs, B's `(k, v)`
/// pairs (`v` NULL when 0), the rows per segment, an encoding mix per
/// table, and the per-segment pattern of the last mix.
type Tables = (Vec<(i64, i64)>, Vec<(i64, i64)>, u64, (u8, u8), u64);

/// One case: the starting tables and budget, the steps, and the step a
/// kill point lands in (if it is a chain or a checkpoint) with its depth in
/// ‰ of that step's filesystem units.
type Case = (Tables, u64, Vec<Step>, (usize, u64));

fn case() -> impl Strategy<Value = Case> {
    let r = vec((0i64..40, 0i64..400), 1..300);
    let b = vec((0i64..15, 0i64..12), 1..120);
    let tables = (r, b, 4u64..64, (0u8..4, 0u8..4), any::<u64>());
    (
        tables,
        budget(),
        vec(step(), 1..14),
        (0usize..14, 0u64..1000),
    )
}

/// R(k, a, d), sorted by k so zones prune, and B(k, v).
fn build((r, b, seg_rows, (r_mix, b_mix), pattern): &Tables) -> [Table; 2] {
    let table = |name, cols: &[&str], rows: Vec<Vec<Value>>, mix| {
        let cols: Vec<_> = cols.iter().map(|&c| (c, ValueType::Int)).collect();
        let schema = Schema::build(&cols, &[]).unwrap();
        let t = Table::from_rows_with_segment_rows(name, schema, &rows, *seg_rows).unwrap();
        t.map_columns(None, |c| match mix {
            0 => Ok(c.clone()),
            1 => c.recode(Encoding::Bitmap),
            2 => c.recode(Encoding::Rle),
            _ => (0..c.segment_count()).try_fold(c.clone(), |out, i| {
                use Encoding::{Bitmap, Packed, Rle};
                let to = [Packed, Bitmap, Rle, Bitmap][(pattern >> (2 * (i % 32)) & 3) as usize];
                out.with_encoding(RecodeScope::Segments(i..i + 1), RecodeTarget::To(to))
            }),
        })
        .unwrap()
    };
    let mut r: Vec<_> = r
        .iter()
        .map(|&(k, a)| [k, a, k * 7 % 5 + 1].map(Value::int).to_vec())
        .collect();
    r.sort();
    let v = |v| if v == 0 { Value::Null } else { Value::int(v) };
    let b = b.iter().map(|&(k, x)| vec![Value::int(k), v(x)]).collect();
    [
        table("R", &["k", "a", "d"], r, *r_mix),
        table("B", &["k", "v"], b, *b_mix),
    ]
}

/// What the cases reached, printed at the end: a check that never ran
/// proves nothing.
#[derive(Debug, Default)]
struct Seen {
    chains_committed: u64,
    chains_rejected: u64,
    chains_rejected_at_execution: u64,
    decomposes: u64,
    merges: u64,
    reads: u64,
    in_lists_over_paged_out_bitmaps: u64,
    kills: u64,
    reopens: u64,
}

/// A table's encoded bytes per name: the whole persisted state of a
/// catalog, schemas, encodings, dictionaries and segment directories alike.
type Image = Vec<(String, Vec<u8>)>;

fn image_of(snap: &CatalogSnapshot) -> Image {
    let bytes = |t: &Table| encode_table(t).as_slice().to_vec();
    snap.iter()
        .map(|(n, t)| (n.to_string(), bytes(t)))
        .collect()
}

fn image(cods: &Cods) -> Image {
    image_of(&cods.catalog().snapshot_view())
}

/// Asserts two images equal, naming the first table that differs.
fn assert_same(got: &Image, want: &Image, what: &str) {
    let names = |i: &Image| i.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "{what}: table names");
    for ((n, g), (_, w)) in got.iter().zip(want) {
        assert!(g == w, "{what}: table {n} differs");
    }
}

fn bag_of(rows: Vec<Vec<Value>>) -> BTreeMap<Vec<Value>, usize> {
    let mut bag = BTreeMap::new();
    for row in rows {
        *bag.entry(row).or_default() += 1;
    }
    bag
}

/// `t`'s rows projected onto `names`, as a multiset.
fn bag(t: &Table, names: &[&str]) -> BTreeMap<Vec<Value>, usize> {
    bag_of(t.to_rows_projected(names).unwrap())
}

/// The paper's claim for one DECOMPOSE of `input` into `s` (unchanged side)
/// and `t` (changed side).
fn check_decompose(input: &Table, s: &Table, t: &Table) {
    let sn = s.schema().names();
    let tn = t.schema().names();
    let rn = input.schema().names();
    let key: Vec<&str> = tn.iter().copied().filter(|c| sn.contains(c)).collect();
    let m = Catalog::new();
    m.create(input.renamed("in")).unwrap();
    decompose_column_level(&m, "in", "s", &sn, "t", &tn, &key).unwrap();
    let (ms, mt) = (m.get("s").unwrap(), m.get("t").unwrap());
    assert_eq!(bag(s, &sn), bag(&ms, &sn), "claim: S is M's");
    assert_eq!(bag(t, &tn), bag(&mt, &tn), "claim: T is M's");
    let at = |names: &[&str], cols: &[&str]| -> Vec<usize> {
        let at = |c: &&str| names.iter().position(|n| n == c).unwrap();
        cols.iter().map(at).collect()
    };
    let joined = tuple::hash_join(&s.to_rows(), &t.to_rows(), &at(&sn, &key), &at(&tn, &key));
    let mut layout = sn.clone();
    layout.extend(tn.iter().filter(|c| !key.contains(c)));
    let joined = bag_of(tuple::project(&joined, &at(&layout, &rn)));
    assert_eq!(joined, bag(input, &rn), "claim: S ⋈ T is the input");
    let keys = bag(t, &key).len() as u64;
    assert_eq!(keys, t.rows(), "claim: one T row per key");
}

/// The paper's claim for one MERGE of `left` and `right` into `out`.
fn check_merge(left: &Table, right: &Table, out: &Table) {
    let (ln, rn) = (left.schema().names(), right.schema().names());
    let key: Vec<&str> = ln.iter().copied().filter(|c| rn.contains(c)).collect();
    let m = Catalog::new();
    m.create(left.renamed("l")).unwrap();
    m.create(right.renamed("r")).unwrap();
    merge_column_level(&m, "l", "r", "o", &key).unwrap();
    let want = m.get("o").unwrap();
    let names = want.schema().names();
    let (mut got, mut cols) = (out.schema().names(), names.clone());
    got.sort_unstable();
    cols.sort_unstable();
    assert_eq!(got, cols, "claim: MERGE's columns");
    assert_eq!(bag(out, &names), bag(&want, &names), "claim: MERGE is M's");
}

/// The model's half of a chain: `smos` applied to a copy of `model`, one
/// single-operator plan at a time, every DECOMPOSE and MERGE checked
/// against M. `None` when an operator fails.
fn sequential(model: &Cods, smos: &[Smo], seen: &mut Seen) -> Option<Cods> {
    let trial = Cods::new();
    for t in model.catalog().snapshot() {
        trial.catalog().put((*t).clone());
    }
    for smo in smos {
        let get = |n: &str| trial.table(n).ok();
        let (a, b) = match smo {
            Smo::DecomposeTable { input, .. } => (get(input), None),
            Smo::MergeTables { left, right, .. } => (get(left), get(right)),
            _ => (None, None),
        };
        trial.plan(vec![smo.clone()]).ok()?.execute().ok()?;
        match smo {
            Smo::DecomposeTable { spec, .. } => {
                let (s, t) = (get(&spec.unchanged_name), get(&spec.changed_name));
                check_decompose(&a.unwrap(), &s.unwrap(), &t.unwrap());
                seen.decomposes += 1;
            }
            Smo::MergeTables { output, .. } => {
                check_merge(&a.unwrap(), &b.unwrap(), &get(output).unwrap());
                seen.merges += 1;
            }
            _ => {}
        }
    }
    Some(trial)
}

/// The durable catalog under test.
struct Sut {
    path: PathBuf,
    cods: Cods,
    log: CommitLog,
}

impl Sut {
    fn open(path: PathBuf) -> Sut {
        let (cat, log, replay) = open_durable(&path).unwrap();
        if replay.replayed == 0 {
            for t in cat.snapshot() {
                let resident = t.residency_counts().0;
                assert_eq!(resident, 0, "lazy: the reopen decoded a payload");
            }
        }
        let cods = Cods::with_catalog(cat);
        Sut { path, cods, log }
    }

    fn reopen(self) -> Sut {
        let path = self.path.clone();
        drop(self);
        Sut::open(path)
    }

    /// Runs `op` on the SUT; with a `depth`, killed at that ‰ of the
    /// filesystem units `op` takes on a copy of the SUT's files.
    fn run<R>(&self, depth: Option<u64>, op: impl Fn(&Cods, &CommitLog) -> R) -> R {
        if let Some(depth) = depth {
            let clog = |p: &Path| p.with_extension("catalog.clog");
            let copy = self.path.with_file_name("probe.catalog");
            std::fs::copy(&self.path, &copy).unwrap();
            std::fs::copy(clog(&self.path), clog(&copy)).ok();
            let (cat, log, _) = open_durable(&copy).unwrap();
            let cods = Cods::with_catalog(cat);
            let (_, units, _) = fault::probe(|| op(&cods, &log));
            drop((cods, log));
            std::fs::remove_file(clog(&copy)).ok();
            std::fs::remove_file(copy).ok();
            fault::arm(units * depth / 1000);
        }
        let result = op(&self.cods, &self.log);
        fault::disarm();
        result
    }
}

/// A query's answer as rows (`[rows, selected]` for a count), sorted
/// unless it is a count or a scan; an error as its text.
fn answer(q: &Query, snap: &CatalogSnapshot) -> Result<Vec<Vec<Value>>, String> {
    let resolved = q.resolve(snap).map_err(|e| e.to_string())?;
    let mut rows = match resolved.run().map_err(|e| e.to_string())? {
        QueryOutput::Count { rows, selected } => {
            vec![[rows, selected].map(|n| Value::int(n as i64)).to_vec()]
        }
        QueryOutput::Rows { batches, .. } => {
            let mut rows = Vec::new();
            for batch in batches {
                rows.extend(batch.map_err(|e| e.to_string())?.to_rows());
            }
            rows
        }
    };
    if !matches!(q, Query::Count { .. } | Query::Scan { .. }) {
        rows.sort();
    }
    Ok(rows)
}

/// One read on the SUT and the model, under the budget of the moment.
fn read_both(sut: &Sut, model: &Cods, r: &Read, budget: u64, seen: &mut Seen) {
    let ((shape, t1, t2), (c1, c2), (cmps, combine), list) = r;
    let names = model.catalog().table_names();
    if names.is_empty() {
        return;
    }
    let (table, other) = (&names[t1 % names.len()], &names[t2 % names.len()]);
    let (want, got) = (model.table(table).unwrap(), sut.cods.table(table).unwrap());
    let cols = want.schema().names();
    let (col, col2) = (cols[c1 % cols.len()], cols[c2 % cols.len()]);
    let mut cmps = cmps.iter().map(|&(op, c, x, n)| {
        use CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
        let literal = if n > 0 { Value::int(x) } else { Value::Null };
        let (column, op) = (cols[c % cols.len()].into(), [Eq, Ne, Lt, Le, Gt, Ge][op]);
        Predicate::Compare {
            column,
            op,
            literal,
        }
    });
    let first = cmps.next().unwrap();
    let p = match combine {
        0 => first,
        1 => cmps.fold(first, Predicate::and),
        2 => cmps.fold(first, Predicate::or),
        _ => cmps.fold(first.not(), Predicate::and),
    };
    let sut_snap = sut.cods.catalog().snapshot_view();
    let model_snap = model.catalog().snapshot_view();
    let ask = |q: Query| {
        let got = answer(&q, &sut_snap);
        assert_eq!(got, answer(&q, &model_snap), "lazy: {q:?}");
    };
    let oracle = predicate_mask_unpruned(&want, &p).unwrap();
    let (table, predicate) = (table.clone(), p.clone());
    match shape {
        0 => ask(Query::Count { table, predicate }),
        1 => ask(Query::Scan {
            table,
            predicate,
            projection: None,
        }),
        2 => {
            // A same-column IN list, one id-set leaf.
            let values = want
                .to_rows_projected(&[col])
                .unwrap()
                .into_iter()
                .flatten();
            let present: BTreeSet<Value> = values.filter(|v| !v.is_null()).collect();
            let values: Vec<&Value> = present.iter().collect();
            let value =
                |&(pick, x): &(bool, u16)| match values.get(x as usize % values.len().max(1)) {
                    Some(&v) if pick => v.clone(),
                    _ => Value::int(x as i64 - 5),
                };
            let list: Vec<Value> = list.iter().map(value).collect();
            let named: BTreeSet<&Value> = list.iter().filter(|v| present.contains(v)).collect();
            let eq = |v: &Value| Predicate::eq(col, v.clone());
            let predicate = list[1..].iter().fold(eq(&list[0]), |acc, v| acc.or(eq(v)));
            let segs = got.column_by_name(col).unwrap().segments();
            let out = |s: &SegSlot| s.meta().encoding == Encoding::Bitmap && !s.is_resident();
            let paged_out: Vec<bool> = segs.iter().map(out).collect();
            // With nothing else paged out, nothing may be faulted in and
            // evicted again.
            let only_bitmaps_out = segs.iter().all(|s| s.is_resident() || out(s));
            let before = segment_cache().stats().evictions;
            ask(Query::Count { table, predicate });
            if named.len() <= 64 && budget != u64::MAX && paged_out.contains(&true) {
                let n = named.len();
                let faulted = segs
                    .iter()
                    .zip(paged_out)
                    .any(|(s, out)| out && s.is_resident());
                assert!(!faulted, "lazy: {n} ids faulted a bitmap segment in");
                if only_bitmaps_out {
                    let evicted = segment_cache().stats().evictions - before;
                    assert_eq!(evicted, 0, "lazy: an IN list evicted");
                }
                seen.in_lists_over_paged_out_bitmaps += 1;
            }
        }
        3 => {
            use AggOp::{Count, CountDistinct, Max, Min, Sum};
            let aggs = [Count, CountDistinct, Sum, Min, Max].map(|op| (op, col2.to_string()));
            let group_by = vec![col.to_string()];
            ask(Query::GroupBy {
                table,
                predicate,
                group_by,
                aggs: aggs.to_vec(),
            })
        }
        4 => {
            let right = model.table(other).unwrap();
            let ocols = right.schema().names();
            let right_keys = vec![ocols[c2 % ocols.len()].to_string()];
            let (left, left_keys, right) = (table, vec![col.to_string()], other.clone());
            ask(Query::Join {
                left,
                right,
                left_keys,
                right_keys,
            })
        }
        _ if want.rows() >= 8 => {
            // Fragment every column through a slice/concat chain, then
            // compact it: each segment is read through the cache as it is
            // rewritten.
            let (rows, half) = (want.rows(), want.rows() / 2);
            let compact = |c: &Arc<EncodedColumn>| {
                let (lo, hi) = (c.slice(0, half).unwrap(), c.slice(half, rows).unwrap());
                Arc::new(lo.concat(&hi).unwrap().compacted().unwrap())
            };
            let cols = got.columns().iter().map(compact).collect();
            let rebuilt = Table::new("C", got.schema().clone(), cols).unwrap();
            rebuilt.check_invariants().unwrap();
            assert_eq!(rebuilt.to_rows(), want.to_rows(), "lazy: compacted rows");
            let mask = predicate_mask(&rebuilt, &p).unwrap();
            assert_eq!(mask, oracle, "lazy: compacted mask");
        }
        _ => {}
    }
    let pruned = predicate_mask(&got, &p).unwrap();
    assert_eq!(pruned, oracle, "lazy: pruned mask");
    let unpruned = predicate_mask_unpruned(&got, &p).unwrap();
    assert_eq!(unpruned, oracle, "lazy: unpruned mask");
    got.check_invariants().unwrap();
    seen.reads += 1;
}

/// A chain on the SUT as one plan, and on the model one operator at a time.
fn evolve(sut: Sut, model: &mut Cods, smos: &[Smo], kill: Option<u64>, seen: &mut Seen) -> Sut {
    let next = sequential(model, smos, seen);
    let old = image(model);
    let snap = sut.cods.catalog().snapshot_view();
    let history = sut.cods.history().len();
    let (validated, result) = sut.run(kill, |cods, _| {
        let plan = cods.plan(smos.to_vec());
        if let (Ok(plan), true) = (&plan, smos.iter().all(is_column_op)) {
            let nodes = plan.nodes().len();
            assert_eq!(nodes, smos.len(), "plan: one node per column operator");
        }
        (plan.is_ok(), plan.and_then(|p| p.execute()))
    });
    assert_same(&image_of(&snap), &old, "snapshot: taken before the chain");
    drop(snap);
    if kill.is_some() {
        seen.kills += 1;
        let sut = sut.reopen();
        let now = image(&sut.cods);
        if result.is_ok() || now != old {
            let next = next.expect("crash: the SUT moved to a catalog the model rejects");
            assert_same(
                &now,
                &image(&next),
                "crash: neither the old catalog nor the new",
            );
            *model = next;
        }
        return sut;
    }
    let (grew, now) = (sut.cods.history().len() - history, image(&sut.cods));
    match (result, next) {
        (Ok(report), Some(next)) => {
            let (committed, staged) = (report.committed_puts, report.staged_puts);
            assert!(committed <= staged, "plan: committed puts");
            assert_eq!(grew, smos.len(), "plan: history");
            *model = next;
            seen.chains_committed += 1;
        }
        (Err(_), None) => {
            assert_same(&now, &old, "plan: a failed chain changed the catalog");
            assert_eq!(grew, 0, "plan: a failed chain's history");
            seen.chains_rejected += 1;
            seen.chains_rejected_at_execution += u64::from(validated);
        }
        (result, _) => panic!("plan: {result:?} where the model disagrees"),
    }
    sut
}

/// Runs one case in a directory of its own.
fn run((tables, budget, steps, kill): &Case, n: u32, seen: &mut Seen) {
    let dir = std::env::temp_dir().join(format!("cods_model_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.catalog");
    // The model builds its own copies: a save makes the slots it writes
    // disk-backed and evictable, and the model stays resident.
    let mut model = Cods::new();
    for t in build(tables) {
        model.catalog().create(t).unwrap();
    }
    {
        let (cat, log, _) = open_durable(&path).unwrap();
        for t in build(tables) {
            let (base, _) = cat.begin_evolution();
            cat.commit_evolution(base, &[], vec![Arc::new(t)]).unwrap();
        }
        log.checkpoint(&cat).unwrap();
    }
    let mut sut = Sut::open(path);
    let mut budget = *budget;
    segment_cache().set_budget(budget);
    assert_same(&image(&sut.cods), &image(&model), "image: opened");
    for (i, step) in steps.iter().enumerate() {
        let kill = (i == kill.0).then_some(kill.1);
        sut = match step {
            Step::Evolve(smos) => evolve(sut, &mut model, smos, kill, seen),
            Step::Read(r) => {
                read_both(&sut, &model, r, budget, seen);
                sut
            }
            Step::Checkpoint => {
                let result = sut.run(kill, |cods, log| log.checkpoint(cods.catalog()));
                seen.kills += u64::from(kill.is_some());
                match kill {
                    None => result.map(|_| sut).unwrap(),
                    Some(_) => sut.reopen(),
                }
            }
            Step::Vacuum => {
                vacuum_catalog(sut.cods.catalog(), &sut.path).unwrap();
                sut
            }
            Step::Reopen => {
                seen.reopens += 1;
                sut.reopen()
            }
            Step::Budget(b) => {
                budget = *b;
                segment_cache().set_budget(budget);
                sut
            }
        };
        // After a kill, this is what says no commit was lost.
        let what = if kill.is_some() { "crash" } else { "image" };
        let what = format!("{what}: after step {i} ({step:?})");
        assert_same(&image(&sut.cods), &image(&model), &what);
    }
    segment_cache().set_budget(u64::MAX);
    drop(sut);
    std::fs::remove_dir_all(&dir).ok();
}

/// Prints the case being run if it fails, so it can be read and rerun.
struct OnFailure<'a>(u32, &'a Case);

impl Drop for OnFailure<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("model case {} failed: {:#?}", self.0, self.1);
        }
    }
}

#[test]
fn the_papers_claim_holds_through_every_layer() {
    let cases = ProptestConfig::with_cases(128).cases;
    let mut rng = TestRng::for_test("model::the_papers_claim_holds_through_every_layer");
    let mut seen = Seen::default();
    for n in 0..cases {
        let case = case().generate(&mut rng);
        let _report = OnFailure(n, &case);
        run(&case, n, &mut seen);
    }
    println!("model: {cases} cases, {seen:?}");
}
