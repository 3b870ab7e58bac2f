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
//!   materialized: group keys are
//!   composed from per-column dictionary ids ([`GroupKeySpace`] packs
//!   them into one `u64` when the id widths fit, else falls back to a
//!   compact composite tuple), every aggregate consumes maximal
//!   `(id, run length)` runs straight off the segment payloads — so
//!   RLE-clustered input costs O(runs), not O(rows) — and segments fan
//!   out on the worker pool with one ordered merge of the partial tables
//!   at the end.
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
use cods_storage::{EncodedColumn, OrderedF64, StorageError, Table, Value, ValueType};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

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
    /// bits wide). One integer hash per run.
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
        ranks: &'a [u32],
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
                ranks: col.dict().value_order().ranks(),
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
                if let Some(id) = b {
                    let better = match a {
                        None => true,
                        Some(cur) => {
                            if max {
                                ranks[id as usize] > ranks[*cur as usize]
                            } else {
                                ranks[id as usize] < ranks[*cur as usize]
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
}

/// Per-batch partial result: locally-grouped keys in first-appearance
/// order with one accumulator row per group (`accs[group][agg]`).
struct Partial<K> {
    keys: Vec<K>,
    accs: Vec<Vec<PAcc>>,
}

fn push_run(out: &mut Vec<(u32, u64)>, id: u32, n: u64) {
    if n == 0 {
        return;
    }
    match out.last_mut() {
        Some((last, len)) if *last == id => *len += n,
        _ => out.push((id, n)),
    }
}

/// The maximal `(id, run)` stream of one column over the selected
/// intervals, with runs coalesced across interval gaps (selected rows are
/// logically concatenated). Every column of a batch uses the same `sel`,
/// so all streams cover the same virtual row count and stay aligned.
fn column_runs(col: &EncodedColumn, sel: &[(u64, u64)]) -> Vec<(u32, u64)> {
    if sel.len() == 1 {
        return col.runs_range(sel[0].0..sel[0].1);
    }
    let mut out = Vec::new();
    if sel.len() <= 8 {
        // Few intervals: per-interval run slices keep RLE input O(runs).
        for &(a, b) in sel {
            for (id, n) in col.runs_range(a..b) {
                push_run(&mut out, id, n);
            }
        }
    } else {
        // Fragmented mask: one contiguous decode, then gather. The mask
        // already made the work O(selected rows); avoid re-decoding the
        // segment once per interval.
        let lo = sel[0].0;
        let hi = sel[sel.len() - 1].1;
        let ids = col.ids_range(lo..hi);
        for &(a, b) in sel {
            for r in a..b {
                push_run(&mut out, ids[(r - lo) as usize], 1);
            }
        }
    }
    out
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

/// Accumulates one aggregate over one batch. The NULL test and the
/// op dispatch are hoisted out here — each arm is a dedicated loop over
/// the `(group, id, run)` stream, branch-free when `null_id` is `None`.
fn accumulate(
    ctx: &AggCtx<'_>,
    grouped: &[(u32, u64)],
    runs: &[(u32, u64)],
    accs: &mut [Vec<PAcc>],
    agg: usize,
) {
    match ctx {
        AggCtx::Count => unreachable!("COUNT needs no column runs"),
        AggCtx::SumInt { add } => merge_runs(grouped, runs, |g, id, len| {
            if let PAcc::SumInt(s) = &mut accs[g as usize][agg] {
                *s = s.wrapping_add(add[id as usize].wrapping_mul(len as i64));
            }
        }),
        AggCtx::SumFloat { add } => merge_runs(grouped, runs, |g, id, len| {
            if let PAcc::SumFloat(s) = &mut accs[g as usize][agg] {
                *s += add[id as usize] * len as f64;
            }
        }),
        AggCtx::MinMax {
            max,
            ranks,
            null_id,
        } => {
            let max = *max;
            let mut consider = |g: u32, id: u32| {
                if let PAcc::MinMax(best) = &mut accs[g as usize][agg] {
                    let better = match best {
                        None => true,
                        Some(cur) => {
                            if max {
                                ranks[id as usize] > ranks[*cur as usize]
                            } else {
                                ranks[id as usize] < ranks[*cur as usize]
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
                None => merge_runs(grouped, runs, |g, id, _| consider(g, id)),
                // One id comparison per run — not per row.
                Some(nid) => {
                    let nid = *nid;
                    merge_runs(grouped, runs, |g, id, _| {
                        if id != nid {
                            consider(g, id);
                        }
                    })
                }
            }
        }
        AggCtx::Distinct { null_id } => {
            let mut insert = |g: u32, id: u32| {
                if let PAcc::Distinct(set) = &mut accs[g as usize][agg] {
                    set.insert(id);
                }
            };
            match null_id {
                None => merge_runs(grouped, runs, |g, id, _| insert(g, id)),
                Some(nid) => {
                    let nid = *nid;
                    merge_runs(grouped, runs, |g, id, _| {
                        if id != nid {
                            insert(g, id);
                        }
                    })
                }
            }
        }
    }
}

/// Runs one batch: compose key runs, assign local group ids
/// (first-appearance), accumulate every aggregate over the run streams.
fn run_batch<K: Eq + Hash + Clone>(
    t: &Table,
    group_by: &[usize],
    ctxs: &[AggCtx<'_>],
    aggs: &[(AggOp, usize, ValueType)],
    work: &BatchWork,
    make_key: &(impl Fn(&[u32]) -> K + Sync),
) -> Partial<K> {
    let total: u64 = work.sel.iter().map(|&(a, b)| b - a).sum();
    let key_runs: Vec<(K, u64)> = if group_by.is_empty() {
        vec![(make_key(&[]), total)]
    } else {
        let col_runs: Vec<Vec<(u32, u64)>> = group_by
            .iter()
            .map(|&g| column_runs(t.column(g), &work.sel))
            .collect();
        zip_key_runs(&col_runs, total, make_key)
    };
    let mut lookup: HashMap<K, u32> = HashMap::new();
    let mut keys: Vec<K> = Vec::new();
    let mut accs: Vec<Vec<PAcc>> = Vec::new();
    let mut grouped: Vec<(u32, u64)> = Vec::with_capacity(key_runs.len());
    for (key, len) in key_runs {
        let g = match lookup.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let g = keys.len() as u32;
                keys.push(e.key().clone());
                accs.push(ctxs.iter().map(AggCtx::fresh).collect());
                e.insert(g);
                g
            }
        };
        grouped.push((g, len));
    }
    for (agg, (ctx, &(_, col, _))) in ctxs.iter().zip(aggs).enumerate() {
        if let AggCtx::Count = ctx {
            for &(g, len) in &grouped {
                if let PAcc::Count(n) = &mut accs[g as usize][agg] {
                    *n += len;
                }
            }
            continue;
        }
        let runs = column_runs(t.column(col), &work.sel);
        accumulate(ctx, &grouped, &runs, &mut accs, agg);
    }
    Partial { keys, accs }
}

/// Merges per-batch partials in batch order, preserving global
/// first-appearance group order.
fn merge_partials<K: Eq + Hash + Clone>(
    parts: Vec<Partial<K>>,
    ctxs: &[AggCtx<'_>],
) -> (Vec<K>, Vec<Vec<PAcc>>) {
    let mut lookup: HashMap<K, u32> = HashMap::new();
    let mut keys: Vec<K> = Vec::new();
    let mut accs: Vec<Vec<PAcc>> = Vec::new();
    for part in parts {
        for (key, row) in part.keys.into_iter().zip(part.accs) {
            match lookup.entry(key) {
                Entry::Occupied(e) => {
                    let g = *e.get() as usize;
                    for (into, (from, ctx)) in accs[g].iter_mut().zip(row.into_iter().zip(ctxs)) {
                        into.merge(from, ctx);
                    }
                }
                Entry::Vacant(e) => {
                    let g = keys.len() as u32;
                    keys.push(e.key().clone());
                    accs.push(row);
                    e.insert(g);
                }
            }
        }
    }
    (keys, accs)
}

/// Splits the selected intervals along the driving column's segment
/// directory: one [`BatchWork`] per segment with any selected row.
/// Zone-pruned or fully-masked-out segments never appear, so they are
/// skipped at metadata speed.
fn make_batches(t: &Table, drive: usize, sel: &[(u64, u64)]) -> Vec<BatchWork> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut start = 0u64;
    for slot in t.column(drive).segments() {
        let (lo, hi) = (start, start + slot.rows());
        start = hi;
        let mut cur = Vec::new();
        while i < sel.len() && sel[i].0 < hi {
            let a = sel[i].0.max(lo);
            let b = sel[i].1.min(hi);
            if a < b {
                cur.push((a, b));
            }
            if sel[i].1 <= hi {
                i += 1;
            } else {
                break;
            }
        }
        if !cur.is_empty() {
            out.push(BatchWork { sel: cur });
        }
    }
    out
}

/// Fan out, run, merge — generic over the key representation.
fn drive<K: Eq + Hash + Clone + Send>(
    t: &Table,
    group_by: &[usize],
    ctxs: &[AggCtx<'_>],
    aggs: &[(AggOp, usize, ValueType)],
    batches: Vec<BatchWork>,
    make_key: impl Fn(&[u32]) -> K + Sync,
) -> (Vec<K>, Vec<Vec<PAcc>>) {
    let parts = par::map_parallel(batches, |work| {
        run_batch(t, group_by, ctxs, aggs, &work, &make_key)
    });
    merge_partials(parts, ctxs)
}

/// Groups a column-store table by the columns at `group_by` and evaluates
/// `aggs` entirely on dictionary-id runs — the vectorized twin of
/// [`aggregate`], with identical output (same first-appearance group
/// order over the selected rows, same NULL semantics). `mask` restricts
/// the aggregation to its set rows (`None` = all rows): the predicate is
/// pushed into the run walk instead of materializing a filtered table.
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
    let drive_col = group_by.first().copied().unwrap_or(0);
    let batches = make_batches(t, drive_col, &sel);
    let ctxs: Vec<AggCtx<'_>> = aggs
        .iter()
        .map(|&(op, col, ty)| AggCtx::new(op, t.column(col), ty))
        .collect();
    let dict_sizes: Vec<usize> = group_by.iter().map(|&g| t.column(g).dict().len()).collect();
    let emit = |ids_of_key: &dyn Fn(usize, usize) -> u32, keys: usize, accs: Vec<Vec<PAcc>>| {
        let mut out = Vec::with_capacity(keys);
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
    match GroupKeySpace::choose(&dict_sizes) {
        GroupKeySpace::Packed { shifts, widths } => {
            let pack = |ids: &[u32]| -> u64 {
                ids.iter()
                    .zip(&shifts)
                    .fold(0u64, |k, (&id, &s)| k | (id as u64) << s)
            };
            let (keys, accs) = drive(t, group_by, &ctxs, aggs, batches, pack);
            let unpack = |g: usize, c: usize| -> u32 {
                let w = widths[c];
                let mask = if w == 0 { 0 } else { (1u64 << w) - 1 };
                ((keys[g] >> shifts[c]) & mask) as u32
            };
            Ok(emit(&unpack, keys.len(), accs))
        }
        GroupKeySpace::Composite => {
            let make = |ids: &[u32]| -> Box<[u32]> { ids.into() };
            let (keys, accs) = drive(t, group_by, &ctxs, aggs, batches, make);
            let index = |g: usize, c: usize| -> u32 { keys[g][c] };
            Ok(emit(&index, keys.len(), accs))
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
        let rle = t.recoded(cods_storage::Encoding::Rle).unwrap();
        let mut mixed = t.clone();
        let segs = mixed.column(1).segment_count();
        for i in (0..segs).step_by(2) {
            mixed = mixed
                .with_column_segment_range_encoding("x", cods_storage::Encoding::Rle, i..i + 1)
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
