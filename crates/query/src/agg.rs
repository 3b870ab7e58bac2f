//! Grouped aggregation: COUNT / SUM / MIN / MAX / COUNT DISTINCT, used by
//! the warehouse examples and exposed through
//! [`crate::query::Query::GroupBy`].
//!
//! Two evaluation strategies share one semantics:
//!
//! * [`aggregate`] — the row kernel, over already-materialized tuples
//!   (the test oracle and the query-level baselines). Group keys are
//!   interned into per-column dense ids so each distinct value is cloned
//!   once per column, not once per row, and accumulators live in a vector
//!   indexed by group.
//! * [`aggregate_table`] / [`aggregate_table_masked`] — the vectorized
//!   columnar kernel, directly over a column-store table (with an
//!   optional predicate mask pushed into the walk). No row is ever
//!   materialized. With one grouping column, a row's group slot is found
//!   by indexing an array by its dictionary id — no key is built and
//!   nothing is hashed. With several, group keys are composed from
//!   per-column dictionary ids ([`GroupKeySpace`] packs them into one
//!   `u64` when the id widths fit, else falls back to a compact composite
//!   tuple) and mapped to slots through a `splitmix64`-hashed map.
//!   The selection (the mask's one-intervals) is split once along the
//!   first grouping column's segments, one batch each
//!   ([`EncodedColumn::split_by_segment`]). A batch reads every column it
//!   needs through the column's selection walker, which faults each
//!   segment once however fragmented the mask is: aggregates consume
//!   maximal `(id, run length)` runs ([`EncodedColumn::try_runs_in`]) — so
//!   RLE-clustered input costs O(runs), not O(rows) — except where a
//!   one-column group-by meets a bitmap segment, whose decode yields one
//!   id per row anyway: that batch walks rows
//!   ([`EncodedColumn::try_ids_in`]). Batches fan out ([`crate::par`])
//!   with one ordered merge of the partial tables at the end.
//!
//! NULL handling follows the `valid: Option<…>` dual-path idiom
//! ([`validity`]): whether the dictionary holds a NULL is decided once,
//! outside the hot loop, and each NULL-skipping op (MIN/MAX/COUNT
//! DISTINCT) is instantiated in a branch-free all-valid flavor and a
//! null-checking flavor — the check itself runs per *run*, not per row.
//! SUM folds NULL into the per-id add table as 0, so it is branch-free in
//! both cases.

use crate::par;
use cods_bitmap::Wah;
use cods_storage::{EncodedColumn, Encoding, OrderedF64, StorageError, Table, Value, ValueType};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// An aggregate function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Number of rows in the group (NULLs included).
    Count,
    /// Number of distinct non-null values.
    CountDistinct,
    /// Sum of non-null numeric values.
    Sum,
    /// Minimum non-null value.
    Min,
    /// Maximum non-null value.
    Max,
}

impl AggOp {
    /// Result type of the aggregate over a column of type `input`.
    pub fn output_type(self, input: ValueType) -> ValueType {
        match self {
            AggOp::Count | AggOp::CountDistinct => ValueType::Int,
            AggOp::Sum => input,
            AggOp::Min | AggOp::Max => input,
        }
    }
}

/// Accumulator for one aggregate within one group (row kernel).
enum Acc {
    Count(u64),
    Distinct(HashSet<Value>),
    SumInt(i64),
    SumFloat(f64),
    MinMax(Option<Value>),
}

impl Acc {
    fn new(op: AggOp, ty: ValueType) -> Acc {
        match op {
            AggOp::Count => Acc::Count(0),
            AggOp::CountDistinct => Acc::Distinct(HashSet::new()),
            AggOp::Sum => match ty {
                ValueType::Float => Acc::SumFloat(0.0),
                _ => Acc::SumInt(0),
            },
            AggOp::Min | AggOp::Max => Acc::MinMax(None),
        }
    }

    fn update(&mut self, op: AggOp, v: &Value) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Distinct(set) => {
                if !v.is_null() {
                    set.insert(v.clone());
                }
            }
            Acc::SumInt(s) => {
                if let Value::Int(i) = v {
                    *s += i;
                }
            }
            Acc::SumFloat(s) => {
                if let Value::Float(OrderedF64(f)) = v {
                    *s += f;
                }
            }
            Acc::MinMax(cur) => {
                if v.is_null() {
                    return;
                }
                let better = match (op, cur.as_ref()) {
                    (_, None) => true,
                    (AggOp::Min, Some(c)) => v < c,
                    (AggOp::Max, Some(c)) => v > c,
                    _ => unreachable!(),
                };
                if better {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::int(n as i64),
            Acc::Distinct(set) => Value::int(set.len() as i64),
            Acc::SumInt(s) => Value::int(s),
            Acc::SumFloat(s) => Value::float(s),
            Acc::MinMax(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Groups `rows` by the columns at `group_by` and evaluates `aggs` (given as
/// `(op, input position, input type)`), returning one output row per group:
/// the group key columns followed by the aggregate values. Group order is
/// first-appearance.
///
/// Internally each grouping column interns its values into a local dense-id
/// dictionary, so the per-row key is a small id tuple: a distinct value is
/// cloned once per column (at first appearance), never once per row, and
/// the group key itself is stored exactly once.
pub fn aggregate(
    rows: &[Vec<Value>],
    group_by: &[usize],
    aggs: &[(AggOp, usize, ValueType)],
) -> Result<Vec<Vec<Value>>, StorageError> {
    let mut interners: Vec<HashMap<Value, u32>> = vec![HashMap::new(); group_by.len()];
    let mut lookup: HashMap<Box<[u32]>, u32> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    let mut key: Vec<u32> = Vec::with_capacity(group_by.len());
    for row in rows {
        key.clear();
        for (intern, &g) in interners.iter_mut().zip(group_by) {
            let id = match intern.get(&row[g]) {
                Some(&id) => id,
                // The only value clone: once per distinct value per column.
                None => {
                    let id = intern.len() as u32;
                    intern.insert(row[g].clone(), id);
                    id
                }
            };
            key.push(id);
        }
        let g = match lookup.get(key.as_slice()) {
            Some(&g) => g,
            // The only key allocation: once per group, not per row.
            None => {
                let g = order.len() as u32;
                lookup.insert(key.as_slice().into(), g);
                order.push(group_by.iter().map(|&c| row[c].clone()).collect());
                accs.push(aggs.iter().map(|&(op, _, ty)| Acc::new(op, ty)).collect());
                g
            }
        };
        for (acc, &(op, col, _)) in accs[g as usize].iter_mut().zip(aggs) {
            acc.update(op, &row[col]);
        }
    }
    let mut out = Vec::with_capacity(order.len());
    for (key, group_accs) in order.into_iter().zip(accs) {
        let mut row = key;
        row.extend(group_accs.into_iter().map(Acc::finish));
        out.push(row);
    }
    Ok(out)
}

/// The validity mask of one column: `None` when the dictionary holds no
/// NULL (every row is valid — the branch-free fast path), otherwise a
/// bitmap with bit *r* set when row *r* is non-null.
pub fn validity(col: &EncodedColumn) -> Option<Wah> {
    let null_id = col.dict().id_of(&Value::Null)?;
    Some(col.value_bitmap(null_id).not())
}

/// How the columnar kernel composes a group key from per-column
/// dictionary ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupKeySpace {
    /// The grouping columns' id widths sum to ≤ 64 bits: keys pack into a
    /// single `u64` (column *c*'s id lands at `shifts[c]`, `widths[c]`
    /// bits wide).
    Packed {
        /// Bit offset of each grouping column within the packed key.
        shifts: Vec<u32>,
        /// Bit width of each grouping column's id space.
        widths: Vec<u32>,
    },
    /// Too wide to pack: keys are compact boxed id tuples.
    Composite,
}

impl GroupKeySpace {
    /// Picks the key representation for grouping columns whose
    /// dictionaries have the given sizes: packed whenever the summed id
    /// widths fit 64 bits (the cost model prefers it — one integer hash
    /// and no allocation per group), composite otherwise.
    pub fn choose(dict_sizes: &[usize]) -> GroupKeySpace {
        if Self::total_bits(dict_sizes) > 64 {
            return GroupKeySpace::Composite;
        }
        let widths: Vec<u32> = dict_sizes.iter().map(|&n| bits_for(n)).collect();
        let mut shifts = Vec::with_capacity(widths.len());
        let mut at = 0u32;
        for &w in &widths {
            shifts.push(at);
            at += w;
        }
        GroupKeySpace::Packed { shifts, widths }
    }

    /// Summed id width in bits for the given dictionary sizes — the
    /// packed representation is feasible iff this is ≤ 64.
    pub fn total_bits(dict_sizes: &[usize]) -> u32 {
        dict_sizes.iter().map(|&n| bits_for(n)).sum()
    }
}

/// Bits needed to hold any id of a dictionary with `len` entries
/// (0 for a 0/1-entry dictionary: the id carries no information).
fn bits_for(len: usize) -> u32 {
    64 - (len.saturating_sub(1) as u64).leading_zeros()
}

/// The SplitMix64 finalizer: the one mixer behind every id-keyed map and
/// every join partition split.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes keys made of dictionary ids with `splitmix64` instead of
/// SipHash. The ids are dense integers this engine assigned, not bytes a
/// client chose, so the default hasher's collision resistance buys nothing
/// here, and a group-by or join probe pays for it once per run or row —
/// as do the SMO executors' multi-column key tables in `cods`.
/// Seeded apart from the join's partition split, which applies the same
/// mixer to the same keys: within one pass every key agrees on
/// `splitmix64(key) % partitions`.
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher(0x2545_F491_4F6C_DD1D)
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
}

/// The `BuildHasher` of every map keyed by dictionary ids.
pub(crate) type IdHash = BuildHasherDefault<IdHasher>;

/// Marks a dictionary id no row of the current batch has carried yet.
const UNSEEN: u32 = u32::MAX;

/// Maps a batch's group keys to dense slots, in first-appearance order.
trait GroupSlots<K> {
    /// The slot of `key`; a key not seen yet gets `fresh`.
    fn slot(&mut self, key: &K, fresh: u32) -> u32;
    /// Forgets `keys`, every key seen since the last reset, so the index
    /// can serve the next batch.
    fn reset(&mut self, keys: &[K]);

    /// A batch's key runs as slot runs, with the batch's keys in slot
    /// order; the index is left reset.
    fn group(&mut self, key_runs: Vec<(K, u64)>) -> (Vec<K>, Vec<(u32, u64)>) {
        let mut keys: Vec<K> = Vec::new();
        let mut grouped = Vec::with_capacity(key_runs.len());
        for (key, len) in key_runs {
            let fresh = keys.len() as u32;
            let g = self.slot(&key, fresh);
            if g == fresh {
                keys.push(key);
            }
            grouped.push((g, len));
        }
        self.reset(&keys);
        (keys, grouped)
    }
}

/// One grouping column: the slot of dictionary id `id` is `slot_of[id]`,
/// [`UNSEEN`] between batches. One is filled per worker and query, and
/// reset by walking the ids a batch touched.
struct IdSlots {
    slot_of: Vec<u32>,
}

impl GroupSlots<u32> for IdSlots {
    fn slot(&mut self, &id: &u32, fresh: u32) -> u32 {
        let slot = &mut self.slot_of[id as usize];
        if *slot == UNSEEN {
            *slot = fresh;
        }
        *slot
    }
    fn reset(&mut self, keys: &[u32]) {
        for &id in keys {
            self.slot_of[id as usize] = UNSEEN;
        }
    }

    /// A run's key is an id: its slot overwrites it in place.
    fn group(&mut self, mut runs: Vec<(u32, u64)>) -> (Vec<u32>, Vec<(u32, u64)>) {
        let keys = self.assign(runs.iter_mut().map(|(id, _)| id));
        (keys, runs)
    }
}

impl IdSlots {
    /// Overwrites every id with its slot and returns the ids in slot
    /// order; the index is left reset.
    fn assign<'a>(&mut self, ids: impl Iterator<Item = &'a mut u32>) -> Vec<u32> {
        let mut keys = Vec::new();
        for id in ids {
            let fresh = keys.len() as u32;
            let g = self.slot(id, fresh);
            if g == fresh {
                keys.push(*id);
            }
            *id = g;
        }
        self.reset(&keys);
        keys
    }
}

/// Several grouping columns: a map from composed key to slot.
impl<K: Eq + Hash + Clone> GroupSlots<K> for HashMap<K, u32, IdHash> {
    fn slot(&mut self, key: &K, fresh: u32) -> u32 {
        if let Some(&slot) = self.get(key) {
            return slot;
        }
        self.insert(key.clone(), fresh);
        fresh
    }
    fn reset(&mut self, _: &[K]) {
        self.clear();
    }
}

/// Per-aggregate read-only context, built once before the segment
/// fan-out and shared by every batch. Holds the per-id add tables (SUM),
/// the value-rank view (MIN/MAX — building it here also pre-warms the
/// dictionary's cached order before threads race for it), and the NULL
/// id when the dictionary has one; `null_id: None` selects the
/// branch-free all-valid loops.
enum AggCtx<'a> {
    Count,
    SumInt {
        add: Vec<i64>,
    },
    SumFloat {
        add: Vec<f64>,
    },
    MinMax {
        max: bool,
        /// `None` for an identity value order, where an id is its rank.
        ranks: Option<&'a [u32]>,
        null_id: Option<u32>,
    },
    Distinct {
        null_id: Option<u32>,
    },
}

impl<'a> AggCtx<'a> {
    fn new(op: AggOp, col: &'a EncodedColumn, ty: ValueType) -> AggCtx<'a> {
        let null_id = col.dict().id_of(&Value::Null);
        match op {
            AggOp::Count => AggCtx::Count,
            AggOp::CountDistinct => AggCtx::Distinct { null_id },
            AggOp::Sum => match ty {
                ValueType::Float => AggCtx::SumFloat {
                    add: col
                        .dict()
                        .values()
                        .iter()
                        .map(|v| match v {
                            Value::Float(OrderedF64(f)) => *f,
                            _ => 0.0,
                        })
                        .collect(),
                },
                _ => AggCtx::SumInt {
                    add: col
                        .dict()
                        .values()
                        .iter()
                        .map(|v| match v {
                            Value::Int(i) => *i,
                            _ => 0,
                        })
                        .collect(),
                },
            },
            AggOp::Min | AggOp::Max => AggCtx::MinMax {
                max: op == AggOp::Max,
                ranks: col.dict().value_order().rank_table(),
                null_id,
            },
        }
    }

    fn fresh(&self) -> PAcc {
        match self {
            AggCtx::Count => PAcc::Count(0),
            AggCtx::SumInt { .. } => PAcc::SumInt(0),
            AggCtx::SumFloat { .. } => PAcc::SumFloat(0.0),
            AggCtx::MinMax { .. } => PAcc::MinMax(None),
            AggCtx::Distinct { .. } => PAcc::Distinct(HashSet::new()),
        }
    }
}

/// Partial accumulator for one aggregate within one group: everything is
/// in dictionary-id space (MIN/MAX track the best *id*, COUNT DISTINCT a
/// set of ids) so partials merge and finish without value comparisons.
enum PAcc {
    Count(u64),
    SumInt(i64),
    SumFloat(f64),
    MinMax(Option<u32>),
    Distinct(HashSet<u32>),
}

impl PAcc {
    fn merge(&mut self, other: PAcc, ctx: &AggCtx<'_>) {
        match (self, other) {
            (PAcc::Count(a), PAcc::Count(b)) => *a += b,
            (PAcc::SumInt(a), PAcc::SumInt(b)) => *a = a.wrapping_add(b),
            (PAcc::SumFloat(a), PAcc::SumFloat(b)) => *a += b,
            (PAcc::MinMax(a), PAcc::MinMax(b)) => {
                let (max, ranks) = match ctx {
                    AggCtx::MinMax { max, ranks, .. } => (*max, *ranks),
                    _ => unreachable!("ctx mismatch"),
                };
                let rank = |id: u32| ranks.map_or(id, |ranks| ranks[id as usize]);
                if let Some(id) = b {
                    let better = match a {
                        None => true,
                        Some(cur) => {
                            if max {
                                rank(id) > rank(*cur)
                            } else {
                                rank(id) < rank(*cur)
                            }
                        }
                    };
                    if better {
                        *a = Some(id);
                    }
                }
            }
            (PAcc::Distinct(a), PAcc::Distinct(b)) => a.extend(b),
            _ => unreachable!("ctx mismatch"),
        }
    }

    fn finish(self, col: &EncodedColumn) -> Value {
        match self {
            PAcc::Count(n) => Value::int(n as i64),
            PAcc::SumInt(s) => Value::int(s),
            PAcc::SumFloat(s) => Value::float(s),
            PAcc::MinMax(best) => best.map_or(Value::Null, |id| col.dict().value(id).clone()),
            PAcc::Distinct(set) => Value::int(set.len() as i64),
        }
    }
}

/// One unit of the segment fan-out: the selected row intervals
/// (half-open, ascending, non-empty) that fall inside one segment of the
/// driving column.
struct BatchWork {
    sel: Vec<(u64, u64)>,
    /// The driving column's segment is run-length encoded: its runs are
    /// its payload, where a bitmap segment decodes one id per row.
    rle: bool,
}

/// Per-batch partial result: locally-grouped keys in first-appearance
/// order with one accumulator row per group (`accs[group][agg]`).
struct Partial<K> {
    keys: Vec<K>,
    accs: Vec<Vec<PAcc>>,
}

/// Zips per-column run streams (all covering `total` virtual rows) into
/// composed-key runs: each output run is the longest stretch on which
/// every column's id is constant. Output runs are maximal because each
/// input stream's runs are.
fn zip_key_runs<K>(
    col_runs: &[Vec<(u32, u64)>],
    total: u64,
    make_key: impl Fn(&[u32]) -> K,
) -> Vec<(K, u64)> {
    let k = col_runs.len();
    let mut out = Vec::new();
    let mut idx = vec![0usize; k];
    let mut used = vec![0u64; k];
    let mut ids = vec![0u32; k];
    let mut left = total;
    while left > 0 {
        let mut step = left;
        for c in 0..k {
            let (id, len) = col_runs[c][idx[c]];
            ids[c] = id;
            step = step.min(len - used[c]);
        }
        out.push((make_key(&ids), step));
        left -= step;
        for c in 0..k {
            used[c] += step;
            if used[c] == col_runs[c][idx[c]].1 {
                idx[c] += 1;
                used[c] = 0;
            }
        }
    }
    out
}

/// One batch's composed-key runs over the grouping columns `group_by`
/// (one run of the empty key when there are none).
fn key_runs<K>(
    t: &Table,
    group_by: &[usize],
    work: &BatchWork,
    make_key: impl Fn(&[u32]) -> K,
) -> Result<Vec<(K, u64)>, StorageError> {
    let total: u64 = work.sel.iter().map(|&(a, b)| b - a).sum();
    // Every column reads the same selection, so every run stream covers
    // the same `total` rows and they stay aligned.
    let col_runs = group_by
        .iter()
        .map(|&g| t.column(g).try_runs_in(&work.sel))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(zip_key_runs(&col_runs, total, make_key))
}

/// Walks two aligned run streams and emits the piecewise-constant
/// intersection: `f(group, id, len)` for every maximal stretch on which
/// both are constant.
fn merge_runs(groups: &[(u32, u64)], ids: &[(u32, u64)], mut f: impl FnMut(u32, u32, u64)) {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut gi, mut gj) = (0u64, 0u64);
    while i < groups.len() && j < ids.len() {
        let step = (groups[i].1 - gi).min(ids[j].1 - gj);
        f(groups[i].0, ids[j].0, step);
        gi += step;
        gj += step;
        if gi == groups[i].1 {
            i += 1;
            gi = 0;
        }
        if gj == ids[j].1 {
            j += 1;
            gj = 0;
        }
    }
}

/// A batch's rows in row order as `(group slot, value id, rows)` steps,
/// each step a stretch on which both are constant.
trait Steps {
    fn each(&self, f: impl FnMut(u32, u32, u64));
}

/// Slot runs merged with a column's id runs.
struct RunSteps<'a>(&'a [(u32, u64)], &'a [(u32, u64)]);

impl Steps for RunSteps<'_> {
    fn each(&self, f: impl FnMut(u32, u32, u64)) {
        merge_runs(self.0, self.1, f)
    }
}

/// A slot and a column's id per row.
struct RowSteps<'a>(&'a [u32], &'a [u32]);

impl Steps for RowSteps<'_> {
    fn each(&self, mut f: impl FnMut(u32, u32, u64)) {
        for (&g, &id) in self.0.iter().zip(self.1) {
            f(g, id, 1);
        }
    }
}

/// A batch's group side: the slot of every selected row, as runs or one
/// per row.
enum Grouped {
    Runs(Vec<(u32, u64)>),
    Rows(Vec<u32>),
}

/// Accumulates one aggregate over one batch. The NULL test and the
/// op dispatch are hoisted out here — each arm is a dedicated loop over
/// the `(group, id, rows)` steps, branch-free when `null_id` is `None`.
fn accumulate(ctx: &AggCtx<'_>, steps: &impl Steps, accs: &mut [Vec<PAcc>], agg: usize) {
    match ctx {
        AggCtx::Count => unreachable!("COUNT needs no column runs"),
        AggCtx::SumInt { add } => steps.each(|g, id, len| {
            if let PAcc::SumInt(s) = &mut accs[g as usize][agg] {
                *s = s.wrapping_add(add[id as usize].wrapping_mul(len as i64));
            }
        }),
        AggCtx::SumFloat { add } => steps.each(|g, id, len| {
            if let PAcc::SumFloat(s) = &mut accs[g as usize][agg] {
                *s += add[id as usize] * len as f64;
            }
        }),
        AggCtx::MinMax {
            max,
            ranks,
            null_id,
        } => match ranks {
            None => min_max(steps, accs, agg, *max, *null_id, |id| id),
            Some(ranks) => min_max(steps, accs, agg, *max, *null_id, |id| ranks[id as usize]),
        },
        AggCtx::Distinct { null_id } => {
            let mut insert = |g: u32, id: u32| {
                if let PAcc::Distinct(set) = &mut accs[g as usize][agg] {
                    set.insert(id);
                }
            };
            match null_id {
                None => steps.each(|g, id, _| insert(g, id)),
                Some(nid) => {
                    let nid = *nid;
                    steps.each(|g, id, _| {
                        if id != nid {
                            insert(g, id);
                        }
                    })
                }
            }
        }
    }
}

/// MIN/MAX over one batch: `rank` is the column's id → value-rank map,
/// resolved once per batch (the identity or one table), so the loop holds
/// no branch on the order's kind.
fn min_max(
    steps: &impl Steps,
    accs: &mut [Vec<PAcc>],
    agg: usize,
    max: bool,
    null_id: Option<u32>,
    rank: impl Fn(u32) -> u32,
) {
    let mut consider = |g: u32, id: u32| {
        if let PAcc::MinMax(best) = &mut accs[g as usize][agg] {
            let better = match best {
                None => true,
                Some(cur) => {
                    if max {
                        rank(id) > rank(*cur)
                    } else {
                        rank(id) < rank(*cur)
                    }
                }
            };
            if better {
                *best = Some(id);
            }
        }
    };
    match null_id {
        // All-valid: no test at all on the run loop.
        None => steps.each(|g, id, _| consider(g, id)),
        // One id comparison per run — not per row.
        Some(nid) => steps.each(|g, id, _| {
            if id != nid {
                consider(g, id);
            }
        }),
    }
}

/// Accumulates every aggregate of one batch whose selected rows fall into
/// the slots of `keys` as `grouped` says.
fn run_batch<K>(
    t: &Table,
    ctxs: &[AggCtx<'_>],
    aggs: &[(AggOp, usize, ValueType)],
    work: &BatchWork,
    keys: Vec<K>,
    grouped: Grouped,
) -> Result<Partial<K>, StorageError> {
    let mut accs: Vec<Vec<PAcc>> = (0..keys.len())
        .map(|_| ctxs.iter().map(AggCtx::fresh).collect())
        .collect();
    for (agg, (ctx, &(_, col, _))) in ctxs.iter().zip(aggs).enumerate() {
        let mut count = |g: u32, rows: u64| {
            if let PAcc::Count(n) = &mut accs[g as usize][agg] {
                *n += rows;
            }
        };
        match (ctx, &grouped) {
            (AggCtx::Count, Grouped::Runs(runs)) => runs.iter().for_each(|&(g, n)| count(g, n)),
            (AggCtx::Count, Grouped::Rows(rows)) => rows.iter().for_each(|&g| count(g, 1)),
            (_, Grouped::Runs(runs)) => {
                let ids = t.column(col).try_runs_in(&work.sel)?;
                accumulate(ctx, &RunSteps(runs, &ids), &mut accs, agg);
            }
            (_, Grouped::Rows(rows)) => {
                let ids = t.column(col).try_ids_in(&work.sel)?;
                accumulate(ctx, &RowSteps(rows, &ids), &mut accs, agg);
            }
        }
    }
    Ok(Partial { keys, accs })
}

/// Merges per-batch partials in batch order through a reset `slots`,
/// preserving global first-appearance group order.
fn merge_partials<K>(
    parts: Vec<Partial<K>>,
    ctxs: &[AggCtx<'_>],
    slots: &mut impl GroupSlots<K>,
) -> (Vec<K>, Vec<Vec<PAcc>>) {
    let mut keys: Vec<K> = Vec::new();
    let mut accs: Vec<Vec<PAcc>> = Vec::new();
    for part in parts {
        for (key, row) in part.keys.into_iter().zip(part.accs) {
            let fresh = keys.len() as u32;
            let g = slots.slot(&key, fresh);
            if g == fresh {
                keys.push(key);
                accs.push(row);
            } else {
                for (into, (from, ctx)) in
                    accs[g as usize].iter_mut().zip(row.into_iter().zip(ctxs))
                {
                    into.merge(from, ctx);
                }
            }
        }
    }
    (keys, accs)
}

/// Fan out, run, merge — generic over the key representation and its slot
/// index. `run` runs one batch with a slot index it leaves reset;
/// `new_slots` makes an empty one. Indexes are pooled, so each worker
/// fills one per query.
fn drive<K: Send, S: GroupSlots<K> + Send>(
    ctxs: &[AggCtx<'_>],
    batches: Vec<BatchWork>,
    run: impl Fn(&BatchWork, &mut S) -> Result<Partial<K>, StorageError> + Sync,
    new_slots: impl Fn() -> S + Sync,
) -> Result<(Vec<K>, Vec<Vec<PAcc>>), StorageError> {
    let mut pool = Vec::new();
    let parts = par::map_parallel_pooled(batches, &mut pool, &new_slots, |work, slots| {
        run(&work, slots)
    });
    let parts = parts.into_iter().collect::<Result<_, _>>()?;
    let mut slots = pool.pop().unwrap_or_else(new_slots);
    Ok(merge_partials(parts, ctxs, &mut slots))
}

/// Groups a column-store table by the columns at `group_by` and evaluates
/// `aggs` entirely on dictionary ids — the vectorized twin of
/// [`aggregate`], with identical output (same first-appearance group
/// order over the selected rows, same NULL semantics). `mask` restricts
/// the aggregation to its set rows (`None` = all rows): the predicate is
/// pushed into the walk instead of materializing a filtered table.
/// See the module docs for the kernel design.
pub fn aggregate_table_masked(
    t: &Table,
    group_by: &[usize],
    aggs: &[(AggOp, usize, ValueType)],
    mask: Option<&Wah>,
) -> Result<Vec<Vec<Value>>, StorageError> {
    let n = t.rows();
    let sel: Vec<(u64, u64)> = match mask {
        None => {
            if n > 0 {
                vec![(0, n)]
            } else {
                Vec::new()
            }
        }
        Some(m) => m.iter_intervals().map(|(s, len)| (s, s + len)).collect(),
    };
    if sel.is_empty() {
        return Ok(Vec::new());
    }
    // One batch per segment of the driving column holding a selected row:
    // zone-pruned or masked-out segments are skipped at metadata speed.
    let driving = t.column(group_by.first().copied().unwrap_or(0));
    let batches: Vec<BatchWork> = driving
        .split_by_segment(&sel)
        .into_iter()
        .map(|(seg, sel)| BatchWork {
            sel,
            rle: driving.segment_encoding(seg) == Encoding::Rle,
        })
        .collect();
    let ctxs: Vec<AggCtx<'_>> = aggs
        .iter()
        .map(|&(op, col, ty)| AggCtx::new(op, t.column(col), ty))
        .collect();
    let dict_sizes: Vec<usize> = group_by.iter().map(|&g| t.column(g).dict().len()).collect();
    let emit = |ids_of_key: &dyn Fn(usize, usize) -> u32, accs: Vec<Vec<PAcc>>| {
        let mut out = Vec::with_capacity(accs.len());
        for (g, row_accs) in accs.into_iter().enumerate() {
            let mut row: Vec<Value> = group_by
                .iter()
                .enumerate()
                .map(|(c, &col)| t.column(col).dict().value(ids_of_key(g, c)).clone())
                .collect();
            row.extend(
                row_accs
                    .into_iter()
                    .zip(aggs)
                    .map(|(acc, &(_, col, _))| acc.finish(t.column(col))),
            );
            out.push(row);
        }
        out
    };
    let ctxs = &ctxs;
    match (group_by, GroupKeySpace::choose(&dict_sizes)) {
        // One grouping column: a row's or a run's key is its dictionary
        // id, and the id indexes the slot array. A bitmap segment decodes
        // to one id per row, so its batch walks rows; an RLE segment's
        // runs are its payload, so its batch walks runs.
        (&[g], _) => {
            let (keys, accs) = drive(
                ctxs,
                batches,
                |work, slots: &mut IdSlots| {
                    let (keys, grouped) = if work.rle {
                        let (keys, runs) = slots.group(t.column(g).try_runs_in(&work.sel)?);
                        (keys, Grouped::Runs(runs))
                    } else {
                        let mut rows = t.column(g).try_ids_in(&work.sel)?;
                        (slots.assign(rows.iter_mut()), Grouped::Rows(rows))
                    };
                    run_batch(t, ctxs, aggs, work, keys, grouped)
                },
                || IdSlots {
                    slot_of: vec![UNSEEN; dict_sizes[0]],
                },
            )?;
            Ok(emit(&|g, _| keys[g], accs))
        }
        // Several grouping columns: composed-key runs, mapped to slots by
        // hash.
        (_, GroupKeySpace::Packed { shifts, widths }) => {
            let pack = |ids: &[u32]| -> u64 {
                ids.iter()
                    .zip(&shifts)
                    .fold(0u64, |k, (&id, &s)| k | (id as u64) << s)
            };
            let (keys, accs) = drive(
                ctxs,
                batches,
                |work, slots: &mut HashMap<u64, u32, IdHash>| {
                    let (keys, runs) = slots.group(key_runs(t, group_by, work, pack)?);
                    run_batch(t, ctxs, aggs, work, keys, Grouped::Runs(runs))
                },
                HashMap::default,
            )?;
            let unpack = |g: usize, c: usize| -> u32 {
                let w = widths[c];
                let mask = if w == 0 { 0 } else { (1u64 << w) - 1 };
                ((keys[g] >> shifts[c]) & mask) as u32
            };
            Ok(emit(&unpack, accs))
        }
        (_, GroupKeySpace::Composite) => {
            let make = |ids: &[u32]| -> Box<[u32]> { ids.into() };
            let (keys, accs) = drive(
                ctxs,
                batches,
                |work, slots: &mut HashMap<Box<[u32]>, u32, IdHash>| {
                    let (keys, runs) = slots.group(key_runs(t, group_by, work, make)?);
                    run_batch(t, ctxs, aggs, work, keys, Grouped::Runs(runs))
                },
                HashMap::default,
            )?;
            Ok(emit(&|g, c| keys[g][c], accs))
        }
    }
}

/// [`aggregate_table_masked`] over every row (no predicate mask).
pub fn aggregate_table(
    t: &Table,
    group_by: &[usize],
    aggs: &[(AggOp, usize, ValueType)],
) -> Result<Vec<Vec<Value>>, StorageError> {
    aggregate_table_masked(t, group_by, aggs, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::str("a"), Value::int(1)],
            vec![Value::str("b"), Value::int(10)],
            vec![Value::str("a"), Value::int(2)],
            vec![Value::str("a"), Value::int(2)],
            vec![Value::str("b"), Value::Null],
        ]
    }

    #[test]
    fn count_sum_min_max() {
        let out = aggregate(
            &rows(),
            &[0],
            &[
                (AggOp::Count, 1, ValueType::Int),
                (AggOp::Sum, 1, ValueType::Int),
                (AggOp::Min, 1, ValueType::Int),
                (AggOp::Max, 1, ValueType::Int),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            vec![
                Value::str("a"),
                Value::int(3),
                Value::int(5),
                Value::int(1),
                Value::int(2)
            ]
        );
        assert_eq!(
            out[1],
            vec![
                Value::str("b"),
                Value::int(2),
                Value::int(10),
                Value::int(10),
                Value::int(10)
            ]
        );
    }

    #[test]
    fn count_distinct_ignores_nulls() {
        let out = aggregate(&rows(), &[0], &[(AggOp::CountDistinct, 1, ValueType::Int)]).unwrap();
        assert_eq!(out[0][1], Value::int(2)); // a: {1, 2}
        assert_eq!(out[1][1], Value::int(1)); // b: {10}, NULL dropped
    }

    #[test]
    fn global_aggregate_empty_group_by() {
        let out = aggregate(&rows(), &[], &[(AggOp::Count, 0, ValueType::Str)]).unwrap();
        assert_eq!(out, vec![vec![Value::int(5)]]);
    }

    #[test]
    fn empty_input_no_groups() {
        let out = aggregate(&[], &[0], &[(AggOp::Count, 0, ValueType::Int)]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn float_sum() {
        let rows = vec![
            vec![Value::int(1), Value::float(0.5)],
            vec![Value::int(1), Value::float(1.25)],
        ];
        let out = aggregate(&rows, &[0], &[(AggOp::Sum, 1, ValueType::Float)]).unwrap();
        assert_eq!(out[0][1], Value::float(1.75));
    }

    #[test]
    fn min_max_of_all_nulls_is_null() {
        let rows = vec![vec![Value::int(1), Value::Null]];
        let out = aggregate(&rows, &[0], &[(AggOp::Min, 1, ValueType::Int)]).unwrap();
        assert_eq!(out[0][1], Value::Null);
    }

    #[test]
    fn output_types() {
        assert_eq!(AggOp::Count.output_type(ValueType::Str), ValueType::Int);
        assert_eq!(AggOp::Sum.output_type(ValueType::Float), ValueType::Float);
        assert_eq!(AggOp::Max.output_type(ValueType::Str), ValueType::Str);
    }

    #[test]
    fn key_space_packs_when_widths_fit() {
        match GroupKeySpace::choose(&[7, 300, 2]) {
            GroupKeySpace::Packed { shifts, widths } => {
                assert_eq!(widths, vec![3, 9, 1]);
                assert_eq!(shifts, vec![0, 3, 12]);
            }
            other => panic!("expected packed, got {other:?}"),
        }
        // 0/1-entry dictionaries contribute zero bits.
        assert_eq!(GroupKeySpace::total_bits(&[1, 1, 1]), 0);
        // Nine 256-entry (8-bit) columns = 72 bits: too wide.
        assert_eq!(GroupKeySpace::choose(&[256; 9]), GroupKeySpace::Composite);
    }

    use cods_storage::Schema;

    const ALL_OPS: [AggOp; 5] = [
        AggOp::Count,
        AggOp::CountDistinct,
        AggOp::Sum,
        AggOp::Min,
        AggOp::Max,
    ];

    /// Columnar and row kernels must agree exactly — groups in the same
    /// first-appearance order, identical values — over every op.
    fn assert_paths_agree(t: &Table, group_by: &[usize]) {
        for (col, ty) in [(1usize, ValueType::Int), (2, ValueType::Float)] {
            for op in ALL_OPS {
                let aggs = [(op, col, ty)];
                let columnar = aggregate_table(t, group_by, &aggs).unwrap();
                let by_rows = aggregate(&t.to_rows(), group_by, &aggs).unwrap();
                assert_eq!(columnar, by_rows, "{op:?} over column {col}");
            }
        }
    }

    fn table_with_nulls(nulls: bool) -> Table {
        let schema = Schema::build(
            &[
                ("g", ValueType::Str),
                ("x", ValueType::Int),
                ("f", ValueType::Float),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                vec![
                    Value::str(format!("g{}", i % 7)),
                    if nulls && i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::int((i * 13) % 40 - 20)
                    },
                    if nulls && i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::float(i as f64 / 8.0)
                    },
                ]
            })
            .collect();
        Table::from_rows_with_segment_rows("t", schema, &rows, 64).unwrap()
    }

    #[test]
    fn columnar_all_valid_path_matches_row_kernel() {
        // No NULL in any dictionary → validity is None → the branch-free
        // path runs for every op.
        let t = table_with_nulls(false);
        assert!(validity(t.column(1)).is_none());
        assert!(validity(t.column(2)).is_none());
        assert_paths_agree(&t, &[0]);
        assert_paths_agree(&t, &[]);
        assert_paths_agree(&t, &[0, 1]);
    }

    #[test]
    fn columnar_null_masked_path_matches_row_kernel() {
        let t = table_with_nulls(true);
        let valid = validity(t.column(1)).expect("column has NULLs");
        assert_eq!(valid.count_zeros(), 46, "one NULL every 11 rows");
        assert_paths_agree(&t, &[0]);
        assert_paths_agree(&t, &[]);
        assert_paths_agree(&t, &[0, 1]);
    }

    #[test]
    fn columnar_agrees_across_encodings() {
        let t = table_with_nulls(true);
        let rle = t
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        let mut mixed = t.clone();
        let segs = mixed.column(1).segment_count();
        for i in (0..segs).step_by(2) {
            mixed = mixed
                .map_columns(Some("x"), |c| {
                    c.with_encoding(
                        cods_storage::RecodeScope::Segments(i..i + 1),
                        cods_storage::RecodeTarget::To(cods_storage::Encoding::Rle),
                    )
                })
                .unwrap();
        }
        for t in [&rle, &mixed] {
            assert_paths_agree(t, &[0]);
        }
    }

    #[test]
    fn composite_key_path_matches_row_kernel() {
        // Grouping by the same 7-value column 30 times sums to >64 key
        // bits, forcing the composite representation through the same
        // kernel; the row oracle handles repeated group columns too.
        let t = table_with_nulls(true);
        let group_by: Vec<usize> = vec![0; 30];
        let sizes: Vec<usize> = group_by.iter().map(|&g| t.column(g).dict().len()).collect();
        assert_eq!(GroupKeySpace::choose(&sizes), GroupKeySpace::Composite);
        assert_paths_agree(&t, &group_by);
    }

    #[test]
    fn masked_aggregation_matches_filtered_row_oracle() {
        let t = table_with_nulls(true);
        let n = t.rows();
        // Every third row, plus a solid stretch: mixes short and long
        // intervals across batch boundaries.
        let positions: Vec<u64> = (0..n)
            .filter(|r| r % 3 == 0 || (100..180).contains(r))
            .collect();
        let mask = Wah::from_sorted_positions(positions.iter().copied(), n);
        let rows = t.to_rows();
        let selected: Vec<Vec<Value>> = positions
            .iter()
            .map(|&r| rows[r as usize].clone())
            .collect();
        for op in ALL_OPS {
            let aggs = [(op, 1usize, ValueType::Int)];
            assert_eq!(
                aggregate_table_masked(&t, &[0], &aggs, Some(&mask)).unwrap(),
                aggregate(&selected, &[0], &aggs).unwrap(),
                "{op:?}"
            );
        }
        // All-zero mask: no selected rows, no groups — even globally.
        let none = Wah::from_sorted_positions(std::iter::empty(), n);
        assert!(
            aggregate_table_masked(&t, &[], &[(AggOp::Count, 1, ValueType::Int)], Some(&none))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn columnar_empty_table_and_all_null_groups() {
        let schema = Schema::build(&[("g", ValueType::Int), ("x", ValueType::Int)], &[]).unwrap();
        let empty = Table::from_rows("e", schema.clone(), &[]).unwrap();
        assert!(
            aggregate_table(&empty, &[0], &[(AggOp::Sum, 1, ValueType::Int)])
                .unwrap()
                .is_empty()
        );
        assert!(
            aggregate_table(&empty, &[], &[(AggOp::Count, 0, ValueType::Int)])
                .unwrap()
                .is_empty()
        );
        // A group whose every input is NULL: MIN/MAX yield NULL, SUM 0,
        // COUNT DISTINCT 0 — exactly like the row kernel.
        let rows = vec![
            vec![Value::int(1), Value::Null],
            vec![Value::int(1), Value::Null],
            vec![Value::int(2), Value::int(5)],
        ];
        let t = Table::from_rows("t", schema, &rows).unwrap();
        for op in ALL_OPS {
            let aggs = [(op, 1usize, ValueType::Int)];
            assert_eq!(
                aggregate_table(&t, &[0], &aggs).unwrap(),
                aggregate(&t.to_rows(), &[0], &aggs).unwrap(),
                "{op:?}"
            );
        }
    }
}
