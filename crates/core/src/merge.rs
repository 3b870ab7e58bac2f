//! **Data-level MERGE TABLES** (Section 2.5 of the paper).
//!
//! Two strategies, chosen by the shape of the join attributes:
//!
//! * **Key–foreign-key mergence** (§2.5.1) — the join attributes are the key
//!   of one input (`T`). The other input (`S`) is *reused wholesale*: its
//!   columns become the output's columns by reference. Only `T`'s payload
//!   attributes need new bitmaps, built in one sequential scan of `S`'s key
//!   ids; the scan works on dictionary ids and compressed bitmaps only.
//!   `T`'s rows are first indexed by key — with one join column an array
//!   indexed by `T`'s dictionary id — and building that key table is what
//!   proves `T` keyed: a key met twice stops it. `Auto` builds it once and
//!   the mergence uses it, so uniqueness is decided once and logged as the
//!   merge's first step. With one join column the scan is one load per
//!   row, `row_of[map[id]]`, and the id map costs nothing when `S` and `T`
//!   hold one dictionary, as a DECOMPOSE's outputs do. The scan runs one
//!   task per output segment, and each task writes that segment of every
//!   payload column from the keyed rows it just found — each row's id is
//!   gathered once and sealed once, with no whole-table row map between
//!   the scan and the writes.
//!
//! * **General mergence** (§2.5.2) — an arbitrary equi-join. A two-pass
//!   algorithm: pass 1 counts the occurrences `n1(v)`, `n2(v)` of every
//!   distinct join value in `S` and `T`; each value occupies `n1·n2`
//!   consecutive output rows (the output is *clustered by join value*), so
//!   the join-attribute bitmaps are emitted directly as fill runs. Pass 2
//!   places `S`-side payload values "in a consecutive way" (runs of length
//!   `n2`) and `T`-side payload values "in a non-consecutive way but with
//!   the same distance" (stride `n2`), again writing compressed bitmaps
//!   directly.

use crate::decompose::write_columns;
use crate::error::{EvolutionError, Result};
use cods_query::keys::{KeyIndex, NONE};
use cods_query::par::{map_parallel, map_parallel_pooled};
use cods_storage::span::{self, Span};
use cods_storage::{ColumnDef, EncodedColumn, Schema, SealScratch, SegSlot, StepLog, Table};
use std::sync::Arc;

/// In the one-column scan's array: the reusable id's value is missing from
/// the keyed side's dictionary.
const NO_VALUE: u32 = NONE;
/// In the one-column scan's array: the value is in the keyed side's
/// dictionary, but on no keyed row.
const NO_ROW: u32 = NONE - 1;

/// Strategy selection for MERGE TABLES.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Detect: if one side is unique on the join attributes, use key–FK
    /// mergence with that side as the keyed table (falling back to general
    /// mergence if a foreign-key value has no match); otherwise general.
    Auto,
    /// Force key–FK mergence; `keyed` names the input whose key is the join
    /// attribute set.
    KeyForeignKey {
        /// Name of the keyed (unique) input table.
        keyed: String,
    },
    /// Force the general two-pass algorithm.
    General,
}

/// Which algorithm actually ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UsedStrategy {
    /// §2.5.1 ran, reusing the non-keyed side's columns.
    KeyForeignKey,
    /// §2.5.2 ran.
    General,
}

/// Result of a mergence.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The joined output table.
    pub output: Table,
    /// Which algorithm ran.
    pub strategy: UsedStrategy,
    /// Step log.
    pub status: StepLog,
}

fn join_indices(schema: &Schema, join_cols: &[String]) -> Result<Vec<usize>> {
    join_cols.iter().map(|n| Ok(schema.index_of(n)?)).collect()
}

/// The inputs share at least one column, each of one type on both sides.
fn validate_join(left: &Table, right: &Table, join_cols: &[String]) -> Result<()> {
    if join_cols.is_empty() {
        return Err(EvolutionError::NoCommonColumns(format!(
            "{} and {}",
            left.name(),
            right.name()
        )));
    }
    for n in join_cols {
        let l = left.schema().column(n)?;
        let r = right.schema().column(n)?;
        if l.ty != r.ty {
            return Err(EvolutionError::InvalidOperator(format!(
                "join column {n:?} has type {} on one side and {} on the other",
                l.ty, r.ty
            )));
        }
    }
    Ok(())
}

/// The keyed side of a key–FK mergence indexed by key: key number `n` is
/// keyed row `n`. Building it decides uniqueness — `None` at the first key
/// met twice — so no separate pass proves the side keyed. Key numbers are
/// `u32` rows, so a table of [`NO_ROW`] rows or more is never keyed (a
/// unique one-column key has at most one row per dictionary id anyway). A
/// key segment that cannot be read is an error.
fn key_table(keyed: &Table, k_join: &[usize]) -> Result<Option<KeyIndex>> {
    let rows = keyed.rows() as usize;
    if rows >= NO_ROW as usize {
        return Ok(None);
    }
    let ids: Vec<Vec<u32>> = k_join
        .iter()
        .map(|&c| keyed.column(c).try_value_ids())
        .collect::<std::result::Result<_, _>>()?;
    let mut index = KeyIndex::new(keyed, k_join, rows);
    let mut key: Vec<u32> = vec![0; k_join.len()];
    for row in 0..rows {
        for (slot, c) in key.iter_mut().zip(&ids) {
            *slot = c[row];
        }
        if !index.intern(&key).1 {
            return Ok(None);
        }
    }
    Ok(Some(index))
}

/// [`key_table`] as a logged step: the first step of every key–FK attempt.
fn key_table_step(
    keyed: &Table,
    join_cols: &[String],
    log: &mut StepLog,
) -> Result<Option<KeyIndex>> {
    let k_join = join_indices(keyed.schema(), join_cols)?;
    let keys = key_table(keyed, &k_join)?;
    let step = if keys.is_some() {
        "build key table"
    } else {
        "build key table: not unique"
    };
    log.mark_items(step, keyed.rows());
    Ok(keys)
}

/// Output schema of a mergence: the reusable/left columns followed by the
/// other side's non-join columns.
fn merged_schema(left: &Schema, right: &Schema, join_cols: &[String]) -> Result<Schema> {
    let mut defs: Vec<ColumnDef> = left.columns().to_vec();
    for c in right.columns() {
        if !join_cols.contains(&c.name) {
            defs.push(c.clone());
        }
    }
    Schema::new(defs).map_err(EvolutionError::Storage)
}

// ---------------------------------------------------------------------
// §2.5.1 — key–foreign-key mergence
// ---------------------------------------------------------------------

/// Merges `reusable` (the side whose columns carry over) with `keyed` (the
/// side whose key is the join attribute set).
///
/// Fails with [`EvolutionError::ForeignKeyViolation`] if some join value of
/// `reusable` has no match in `keyed`, and with
/// [`EvolutionError::InvalidOperator`] if `keyed` is not actually unique on
/// the join attributes.
pub fn merge_key_fk(
    reusable: &Table,
    keyed: &Table,
    output_name: &str,
    join_cols: &[String],
) -> Result<MergeOutcome> {
    let mut log = StepLog::new();
    validate_join(reusable, keyed, join_cols)?;
    let Some(keys) = key_table_step(keyed, join_cols, &mut log)? else {
        return Err(EvolutionError::InvalidOperator(format!(
            "table {:?} is not unique on {:?}; use general mergence",
            keyed.name(),
            join_cols
        )));
    };
    let output = key_fk_with(reusable, keyed, output_name, join_cols, keys, &mut log)?;
    Ok(MergeOutcome {
        output,
        strategy: UsedStrategy::KeyForeignKey,
        status: log,
    })
}

/// §2.5.1 over an already built key table of `keyed`, logging into
/// `log`: one fan-out task per output segment maps that segment's rows of
/// `reusable` to keyed rows, stopping at the first row whose key is
/// missing, and seals the segment of every payload column from them. The
/// payload columns' ids are decoded once, before the fan-out.
fn key_fk_with(
    reusable: &Table,
    keyed: &Table,
    output_name: &str,
    join_cols: &[String],
    keys: KeyIndex,
    log: &mut StepLog,
) -> Result<Table> {
    let r_join = join_indices(reusable.schema(), join_cols)?;
    let k_join = join_indices(keyed.schema(), join_cols)?;

    // Dictionary-level id maps, one per join column: reusable id → keyed id
    // (`None` when the keyed side lacks the value). O(distinct values), and
    // no hashing: free when both columns hold one dictionary, as a
    // DECOMPOSE's outputs do, an offset between two dense int keys, one
    // merge of the two value orders otherwise.
    let maps: Vec<Vec<Option<u32>>> = r_join
        .iter()
        .zip(&k_join)
        .map(|(&rc, &kc)| reusable.column(rc).dict().remap_to(keyed.column(kc).dict()))
        .collect();
    // One join column: the id map and the key table compose into one array
    // indexed by the reusable side's id, so the scan is one load per row.
    let target_of_id: Option<Vec<u32>> = match &keys {
        KeyIndex::ById { number_of, .. } => Some(
            maps[0]
                .iter()
                .map(|m| match m.map(|kid| number_of[kid as usize]) {
                    None => NO_VALUE,
                    Some(NONE) => NO_ROW,
                    Some(row) => row,
                })
                .collect(),
        ),
        KeyIndex::ByTuple(_) => None,
    };
    log.mark("map join dictionaries");

    // The sequential scan of the reusable side and the payload build, in
    // one fan-out. The output row space is cut at the payload columns'
    // nominal segment size (one cut per distinct size, all rows each), and
    // each task decodes its rows' join ids, maps every row to the keyed
    // row providing its payload values — scanning its rows in order
    // against the shared id maps and key table — then gathers each payload
    // column's ids for those rows and seals that column's output segment.
    // Tasks are joined in order, and the first cut covers every row, so
    // the violation reported is the serial scan's first.
    let n = reusable.rows() as usize;
    let violation = |row: usize, missing: u32| {
        let what = if missing == NO_VALUE {
            "join value"
        } else {
            "join combination"
        };
        EvolutionError::ForeignKeyViolation(format!(
            "row {row} of {:?} has a {what} missing from {:?}",
            reusable.name(),
            keyed.name()
        ))
    };
    let payload: Vec<&EncodedColumn> = (0..keyed.arity())
        .filter(|i| !k_join.contains(i))
        .map(|i| keyed.column(i).as_ref())
        .collect();
    let payload_ids: Vec<Vec<u32>> = payload
        .iter()
        .map(|c| c.try_value_ids())
        .collect::<std::result::Result<_, _>>()?;
    let segment_rows = |c: &EncodedColumn| c.nominal_segment_rows().max(1) as usize;
    let mut cuts: Vec<usize> = payload.iter().map(|c| segment_rows(c)).collect();
    if cuts.is_empty() {
        cuts.push(segment_rows(reusable.column(r_join[0])));
    }
    cuts.sort_unstable();
    cuts.dedup();
    let cut_of: Vec<usize> = payload
        .iter()
        .map(|c| cuts.partition_point(|&rows| rows < segment_rows(c)))
        .collect();
    let tasks: Vec<(usize, usize)> = (0..cuts.len())
        .flat_map(|cut| (0..n).step_by(cuts[cut]).map(move |start| (cut, start)))
        .collect();
    let mut pool = Vec::new();
    let written = map_parallel_pooled(
        tasks,
        &mut pool,
        SealScratch::default,
        |(cut, start), scratch| {
            let end = (start + cuts[cut]).min(n);
            let mut span = span::enter(Span::SmoKeyFkWrite);
            span.items(|| (end - start) as u64);
            let sel = [(start as u64, end as u64)];
            let r_ids: Vec<Vec<u32>> = r_join
                .iter()
                .map(|&c| reusable.column(c).try_ids_in(&sel))
                .collect::<std::result::Result<_, _>>()?;
            let mut target: Vec<u32> = Vec::with_capacity(end - start);
            if let Some(target_of_id) = &target_of_id {
                for (row, &rid) in (start..end).zip(&r_ids[0]) {
                    let t = target_of_id[rid as usize];
                    if t >= NO_ROW {
                        return Err(violation(row, t));
                    }
                    target.push(t);
                }
            } else {
                let mut key: Vec<u32> = vec![0; r_join.len()];
                for (i, row) in (start..end).enumerate() {
                    for (slot, (ids, map)) in key.iter_mut().zip(r_ids.iter().zip(&maps)) {
                        *slot = map[ids[i] as usize].ok_or_else(|| violation(row, NO_VALUE))?;
                    }
                    target.push(keys.get(&key).ok_or_else(|| violation(row, NO_ROW))?);
                }
            }
            let mut gathered: Vec<u32> = Vec::with_capacity(end - start);
            let mut segments: Vec<(usize, SegSlot)> = Vec::new();
            for c in (0..payload.len()).filter(|&c| cut_of[c] == cut) {
                gathered.clear();
                gathered.extend(target.iter().map(|&t| payload_ids[c][t as usize]));
                segments.push((c, payload[c].seal_stream(&gathered, scratch)));
            }
            Ok(segments)
        },
    );
    let mut by_column: Vec<Vec<SegSlot>> = vec![Vec::new(); payload.len()];
    for task in written {
        for (c, seg) in task? {
            by_column[c].push(seg);
        }
    }
    let new_columns: Vec<Arc<EncodedColumn>> = payload
        .iter()
        .zip(by_column)
        .map(|(col, segs)| Ok(Arc::new(col.derived(segs)?)))
        .collect::<Result<_>>()?;
    log.mark_items("build payload bitmaps in one sequential scan", n as u64);

    // Output: reusable columns shared by reference + new payload columns.
    let schema = merged_schema(reusable.schema(), keyed.schema(), join_cols)?;
    let mut columns: Vec<Arc<EncodedColumn>> = reusable.columns().to_vec();
    columns.extend(new_columns);
    let output = Table::new(output_name, schema, columns).map_err(EvolutionError::Storage)?;
    log.mark("assemble output table");
    Ok(output)
}

// ---------------------------------------------------------------------
// §2.5.2 — general mergence
// ---------------------------------------------------------------------

/// Merges `left` and `right` on arbitrary (non-key) join attributes with the
/// two-pass algorithm. The output is clustered by join value.
pub fn merge_general(
    left: &Table,
    right: &Table,
    output_name: &str,
    join_cols: &[String],
) -> Result<MergeOutcome> {
    let mut log = StepLog::new();
    let output = general_with(left, right, output_name, join_cols, &mut log)?;
    Ok(MergeOutcome {
        output,
        strategy: UsedStrategy::General,
        status: log,
    })
}

/// §2.5.2, logging into `log`.
fn general_with(
    left: &Table,
    right: &Table,
    output_name: &str,
    join_cols: &[String],
    log: &mut StepLog,
) -> Result<Table> {
    validate_join(left, right, join_cols)?;
    let l_join = join_indices(left.schema(), join_cols)?;
    let r_join = join_indices(right.schema(), join_cols)?;

    // ---- Pass 1: occurrence counts of every distinct join combination ----
    // Left side grouping (combos live in left-id space).
    let l_ids: Vec<Vec<u32>> = l_join
        .iter()
        .map(|&c| left.column(c).try_value_ids())
        .collect::<std::result::Result<_, _>>()?;
    let l_rows = left.rows() as usize;
    let width = l_join.len();
    let mut combos = KeyIndex::new(left, &l_join, 0);
    let mut n1: Vec<u64> = Vec::new();
    let mut l_group: Vec<u32> = Vec::with_capacity(l_rows);
    let mut key: Vec<u32> = vec![0; width];
    for row in 0..l_rows {
        for (slot, c) in key.iter_mut().zip(&l_ids) {
            *slot = c[row];
        }
        let (g, fresh) = combos.intern(&key);
        if fresh {
            n1.push(0);
        }
        n1[g as usize] += 1;
        l_group.push(g);
    }
    let groups = n1.len();

    // Right side: map ids into left-id space, then into the same groups.
    let maps: Vec<Vec<Option<u32>>> = r_join
        .iter()
        .zip(&l_join)
        .map(|(&rc, &lc)| right.column(rc).dict().remap_to(left.column(lc).dict()))
        .collect();
    let r_ids: Vec<Vec<u32>> = r_join
        .iter()
        .map(|&c| right.column(c).try_value_ids())
        .collect::<std::result::Result<_, _>>()?;
    let r_rows = right.rows() as usize;
    const NO_GROUP: u32 = u32::MAX;
    let mut n2: Vec<u64> = vec![0; groups];
    let mut r_group: Vec<u32> = Vec::with_capacity(r_rows);
    'rows: for row in 0..r_rows {
        for (slot, (ids, map)) in key.iter_mut().zip(r_ids.iter().zip(&maps)) {
            match map[ids[row] as usize] {
                Some(mapped) => *slot = mapped,
                None => {
                    r_group.push(NO_GROUP);
                    continue 'rows;
                }
            }
        }
        match combos.get(&key) {
            Some(g) => {
                n2[g as usize] += 1;
                r_group.push(g);
            }
            None => r_group.push(NO_GROUP),
        }
    }
    log.mark_items("pass 1: count join occurrences", groups as u64);

    // Offsets: group g occupies rows [off[g], off[g] + n1[g] * n2[g]).
    let mut offsets: Vec<u64> = Vec::with_capacity(groups);
    let mut total: u64 = 0;
    for g in 0..groups {
        offsets.push(total);
        total += n1[g] * n2[g];
    }
    let active: Vec<usize> = (0..groups).filter(|&g| n1[g] > 0 && n2[g] > 0).collect();
    log.mark_items("cluster output by join value", active.len() as u64);

    // Bucket the matching rows of both sides per group.
    let mut s_rows: Vec<Vec<u64>> = vec![Vec::new(); groups];
    for (row, &g) in l_group.iter().enumerate() {
        if n2[g as usize] > 0 {
            s_rows[g as usize].push(row as u64);
        }
    }
    let mut t_rows: Vec<Vec<u64>> = vec![Vec::new(); groups];
    for (row, &g) in r_group.iter().enumerate() {
        if g != NO_GROUP && n1[g as usize] > 0 {
            t_rows[g as usize].push(row as u64);
        }
    }

    // ---- Pass 2: write every output column one output segment at a time ----
    // Join columns are pure fill runs; left payloads place values
    // consecutively (runs of n2); right payloads place values at stride n2
    // within each group. The output row space is cut at each column's
    // nominal segment size, and one fan-out task pushes one (column × output
    // segment)'s runs, clipped to its row range, and seals that segment —
    // exactly like the key-FK payload fan-out.
    #[derive(Clone, Copy)]
    enum OutCol {
        Join { pos_in_join: usize, lc: usize },
        LeftPayload { lc: usize },
        RightPayload { rc: usize },
    }
    let mut plan: Vec<OutCol> = Vec::with_capacity(left.arity() + right.arity() - join_cols.len());
    for lc in 0..left.arity() {
        match l_join.iter().position(|&j| j == lc) {
            Some(pos_in_join) => plan.push(OutCol::Join { pos_in_join, lc }),
            None => plan.push(OutCol::LeftPayload { lc }),
        }
    }
    for rc in 0..right.arity() {
        if !r_join.contains(&rc) {
            plan.push(OutCol::RightPayload { rc });
        }
    }
    let col_of = |task: &OutCol| -> &EncodedColumn {
        match *task {
            OutCol::Join { lc, .. } | OutCol::LeftPayload { lc } => left.column(lc),
            OutCol::RightPayload { rc } => right.column(rc),
        }
    };
    // Per-column preparation, itself one fan-out task per column: left
    // payloads materialize their dense id array once; right payloads
    // additionally gather each group's output-order ids once (a segment task
    // would otherwise regather them for every segment overlapping the
    // group).
    enum ColPrep {
        Join,
        Left(Vec<u32>),
        Right(Vec<Vec<u32>>),
    }
    let col_prep = map_parallel(plan.clone(), |task| {
        Ok(match task {
            OutCol::Join { .. } => ColPrep::Join,
            OutCol::LeftPayload { lc } => ColPrep::Left(left.column(lc).try_value_ids()?),
            OutCol::RightPayload { rc } => {
                let ids = right.column(rc).try_value_ids()?;
                let mut by_group: Vec<Vec<u32>> = vec![Vec::new(); groups];
                for &g in &active {
                    by_group[g] = t_rows[g].iter().map(|&r| ids[r as usize]).collect();
                }
                ColPrep::Right(by_group)
            }
        })
    });
    let col_prep: Vec<ColPrep> = col_prep.into_iter().collect::<Result<_>>()?;
    // Task list: (output column, output row range of one nominal segment).
    let mut tasks: Vec<(usize, (u64, u64))> = Vec::new();
    for (ci, task) in plan.iter().enumerate() {
        let step = col_of(task).nominal_segment_rows();
        let mut lo = 0u64;
        while lo < total {
            let hi = (lo + step).min(total);
            tasks.push((ci, (lo, hi)));
            lo = hi;
        }
    }
    let group_end = |g: usize| offsets[g] + n1[g] * n2[g];
    let n_tasks = tasks.len() as u64;
    let columns: Vec<&EncodedColumn> = plan.iter().map(col_of).collect();
    let out_columns = write_columns(&columns, tasks, |ci, (lo, hi), scratch| {
        let mut ids: Vec<u32> = Vec::with_capacity((hi - lo) as usize);
        // Group offsets ascend, so the groups overlapping [lo, hi) form a
        // contiguous span of `active`, found by binary search.
        let first = active.partition_point(|&g| group_end(g) <= lo);
        match (&plan[ci], &col_prep[ci]) {
            (OutCol::Join { pos_in_join, .. }, ColPrep::Join) => {
                for &g in &active[first..] {
                    if offsets[g] >= hi {
                        break;
                    }
                    let a = offsets[g].max(lo);
                    let b = group_end(g).min(hi);
                    let id = combos.keys()[g * width + *pos_in_join];
                    ids.resize(ids.len() + (b - a) as usize, id);
                }
            }
            (OutCol::LeftPayload { .. }, ColPrep::Left(left_ids)) => {
                for &g in &active[first..] {
                    let base = offsets[g];
                    if base >= hi {
                        break;
                    }
                    let n2g = n2[g];
                    // Skip the s-rows whose runs end before `lo`.
                    let i0 = (lo.saturating_sub(base) / n2g) as usize;
                    for (i, &srow) in s_rows[g].iter().enumerate().skip(i0) {
                        let row0 = base + i as u64 * n2g;
                        if row0 >= hi {
                            break;
                        }
                        let a = row0.max(lo);
                        let b = (row0 + n2g).min(hi);
                        ids.resize(ids.len() + (b - a) as usize, left_ids[srow as usize]);
                    }
                }
            }
            (OutCol::RightPayload { .. }, ColPrep::Right(by_group)) => {
                for &g in &active[first..] {
                    let base = offsets[g];
                    if base >= hi {
                        break;
                    }
                    let n2g = n2[g];
                    let group_ids = &by_group[g];
                    let i0 = lo.saturating_sub(base) / n2g;
                    for i in i0..n1[g] {
                        let row0 = base + i * n2g;
                        if row0 >= hi {
                            break;
                        }
                        let j0 = lo.saturating_sub(row0);
                        let j1 = n2g.min(hi - row0);
                        debug_assert_eq!(ids.len() as u64, row0 + j0 - lo);
                        ids.extend_from_slice(&group_ids[j0 as usize..j1 as usize]);
                    }
                }
            }
            _ => unreachable!("column preparation out of sync with the plan"),
        }
        debug_assert_eq!(ids.len() as u64, hi - lo);
        Ok(columns[ci].seal_stream(&ids, scratch))
    })?;
    log.mark_items(
        "pass 2: emit output columns (parallel per column x segment)",
        n_tasks,
    );

    let schema = merged_schema(left.schema(), right.schema(), join_cols)?;
    let output = Table::new(output_name, schema, out_columns).map_err(EvolutionError::Storage)?;
    log.mark_items("assemble output table", total);
    Ok(output)
}

// ---------------------------------------------------------------------
// Strategy dispatch
// ---------------------------------------------------------------------

/// Reorders a mergence output to the canonical left-first column layout
/// (left's columns, then right's non-join columns). `Auto` runs this after
/// every key–FK mergence; it moves columns only when the mergence reused
/// the *right* side, so the output schema is the same whichever input
/// turns out to be keyed: `Auto`'s output schema does not depend on the
/// data. A plan's dry run relies on that — over empty copies, `Auto`
/// always finds the right side keyed.
/// O(arity): columns are shared by reference.
fn reordered_left_first(
    out: MergeOutcome,
    left: &Schema,
    right: &Schema,
    join_cols: &[String],
) -> Result<MergeOutcome> {
    let desired = merged_schema(left, right, join_cols)?;
    if out.output.schema().names() == desired.names() {
        return Ok(out);
    }
    let columns = desired
        .columns()
        .iter()
        .map(|d| {
            let idx = out.output.schema().index_of(&d.name)?;
            Ok(Arc::clone(out.output.column(idx)))
        })
        .collect::<Result<Vec<_>>>()?;
    let output =
        Table::new(out.output.name(), desired, columns).map_err(EvolutionError::Storage)?;
    Ok(MergeOutcome { output, ..out })
}

/// Merges `left` and `right` into `output_name`, joining on their common
/// columns, with the given strategy.
///
/// `Auto` tries `right` as the keyed side, then `left`: building a side's
/// key table is what decides whether it is keyed, so the table it builds is
/// the one the mergence uses, and its status log starts with that build.
pub fn merge(
    left: &Table,
    right: &Table,
    output_name: &str,
    strategy: &MergeStrategy,
) -> Result<MergeOutcome> {
    let join_cols = crate::schema_tools::common_columns(left.schema(), right.schema());
    validate_join(left, right, &join_cols)?;
    match strategy {
        MergeStrategy::General => merge_general(left, right, output_name, &join_cols),
        MergeStrategy::KeyForeignKey { keyed } => {
            if keyed == right.name() {
                merge_key_fk(left, right, output_name, &join_cols)
            } else if keyed == left.name() {
                // Reuse right's columns; output schema order then differs
                // from left-first, which callers opting into this explicitly
                // accept.
                merge_key_fk(right, left, output_name, &join_cols)
            } else {
                Err(EvolutionError::InvalidOperator(format!(
                    "keyed table {keyed:?} is neither input"
                )))
            }
        }
        MergeStrategy::Auto => {
            let mut log = StepLog::new();
            for (reusable, keyed) in [(left, right), (right, left)] {
                let Some(keys) = key_table_step(keyed, &join_cols, &mut log)? else {
                    continue;
                };
                match key_fk_with(reusable, keyed, output_name, &join_cols, keys, &mut log) {
                    // A foreign-key value without a match: inner-join
                    // semantics need the general algorithm.
                    Err(EvolutionError::ForeignKeyViolation(_)) => {
                        log.mark("key-foreign-key scan: unmatched value");
                        break;
                    }
                    output => {
                        let out = MergeOutcome {
                            output: output?,
                            strategy: UsedStrategy::KeyForeignKey,
                            status: log,
                        };
                        return reordered_left_first(
                            out,
                            left.schema(),
                            right.schema(),
                            &join_cols,
                        );
                    }
                }
            }
            let output = general_with(left, right, output_name, &join_cols, &mut log)?;
            Ok(MergeOutcome {
                output,
                strategy: UsedStrategy::General,
                status: log,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Value, ValueType};
    use std::collections::HashMap;

    fn s_table() -> Table {
        let schema = Schema::build(
            &[("employee", ValueType::Str), ("skill", ValueType::Str)],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = [
            ("Jones", "Typing"),
            ("Jones", "Shorthand"),
            ("Roberts", "Light Cleaning"),
            ("Ellis", "Alchemy"),
            ("Jones", "Whittling"),
            ("Ellis", "Juggling"),
            ("Harrison", "Light Cleaning"),
        ]
        .iter()
        .map(|&(e, s)| vec![Value::str(e), Value::str(s)])
        .collect();
        Table::from_rows("S", schema, &rows).unwrap()
    }

    fn t_table() -> Table {
        let schema = Schema::build(
            &[("employee", ValueType::Str), ("address", ValueType::Str)],
            &["employee"],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = [
            ("Jones", "425 Grant Ave"),
            ("Roberts", "747 Industrial Way"),
            ("Ellis", "747 Industrial Way"),
            ("Harrison", "425 Grant Ave"),
        ]
        .iter()
        .map(|&(e, a)| vec![Value::str(e), Value::str(a)])
        .collect();
        Table::from_rows("T", schema, &rows).unwrap()
    }

    fn expected_r() -> Vec<Vec<Value>> {
        [
            ("Jones", "Typing", "425 Grant Ave"),
            ("Jones", "Shorthand", "425 Grant Ave"),
            ("Roberts", "Light Cleaning", "747 Industrial Way"),
            ("Ellis", "Alchemy", "747 Industrial Way"),
            ("Jones", "Whittling", "425 Grant Ave"),
            ("Ellis", "Juggling", "747 Industrial Way"),
            ("Harrison", "Light Cleaning", "425 Grant Ave"),
        ]
        .iter()
        .map(|&(e, s, a)| vec![Value::str(e), Value::str(s), Value::str(a)])
        .collect()
    }

    fn multiset(rows: Vec<Vec<Value>>) -> HashMap<Vec<Value>, u64> {
        let mut m = HashMap::new();
        for r in rows {
            *m.entry(r).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn key_fk_reconstructs_figure1() {
        let s = s_table();
        let t = t_table();
        let out = merge_key_fk(&s, &t, "R", &["employee".into()]).unwrap();
        assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
        out.output.check_invariants().unwrap();
        assert_eq!(out.output.rows(), 7);
        assert_eq!(
            out.output.schema().names(),
            vec!["employee", "skill", "address"]
        );
        // Row order is preserved from S, so exact row equality holds.
        assert_eq!(out.output.to_rows(), expected_r());
    }

    #[test]
    fn key_fk_reuses_s_columns() {
        let s = s_table();
        let t = t_table();
        let out = merge_key_fk(&s, &t, "R", &["employee".into()]).unwrap();
        assert!(s.shares_column_with(&out.output, "employee"));
        assert!(s.shares_column_with(&out.output, "skill"));
    }

    #[test]
    fn key_fk_rejects_non_unique_keyed_side() {
        let s = s_table();
        let err = merge_key_fk(&s, &s_table(), "R", &["employee".into()]);
        assert!(matches!(err, Err(EvolutionError::InvalidOperator(_))));
    }

    #[test]
    fn key_fk_detects_fk_violation() {
        let s = s_table();
        let schema = Schema::build(
            &[("employee", ValueType::Str), ("address", ValueType::Str)],
            &["employee"],
        )
        .unwrap();
        // Missing Harrison.
        let t = Table::from_rows(
            "T",
            schema,
            &[
                vec![Value::str("Jones"), Value::str("A")],
                vec![Value::str("Roberts"), Value::str("B")],
                vec![Value::str("Ellis"), Value::str("C")],
            ],
        )
        .unwrap();
        let err = merge_key_fk(&s, &t, "R", &["employee".into()]);
        assert!(matches!(err, Err(EvolutionError::ForeignKeyViolation(_))));
    }

    #[test]
    fn general_matches_key_fk_on_fk_data() {
        let s = s_table();
        let t = t_table();
        let fk = merge_key_fk(&s, &t, "R1", &["employee".into()]).unwrap();
        let gen = merge_general(&s, &t, "R2", &["employee".into()]).unwrap();
        gen.output.check_invariants().unwrap();
        assert_eq!(
            multiset(fk.output.to_rows()),
            multiset(gen.output.to_rows())
        );
    }

    #[test]
    fn general_handles_many_to_many() {
        let a = Table::from_rows(
            "A",
            Schema::build(&[("k", ValueType::Int), ("x", ValueType::Str)], &[]).unwrap(),
            &[
                vec![Value::int(1), Value::str("a1")],
                vec![Value::int(1), Value::str("a2")],
                vec![Value::int(2), Value::str("a3")],
                vec![Value::int(3), Value::str("a4")],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(&[("k", ValueType::Int), ("y", ValueType::Str)], &[]).unwrap(),
            &[
                vec![Value::int(1), Value::str("b1")],
                vec![Value::int(1), Value::str("b2")],
                vec![Value::int(1), Value::str("b3")],
                vec![Value::int(2), Value::str("b4")],
                vec![Value::int(9), Value::str("b5")],
            ],
        )
        .unwrap();
        let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
        out.output.check_invariants().unwrap();
        // k=1: 2×3 = 6 rows; k=2: 1×1 = 1 row; k=3 and k=9 unmatched.
        assert_eq!(out.output.rows(), 7);
        // Cross-check against a naive tuple join.
        let mut naive: Vec<Vec<Value>> = Vec::new();
        for ra in a.to_rows() {
            for rb in b.to_rows() {
                if ra[0] == rb[0] {
                    naive.push(vec![ra[0].clone(), ra[1].clone(), rb[1].clone()]);
                }
            }
        }
        assert_eq!(multiset(out.output.to_rows()), multiset(naive));
        // Output is clustered by join value: k column is sorted by group.
        let k_col: Vec<Value> = out.output.to_rows().iter().map(|r| r[0].clone()).collect();
        let mut seen = Vec::new();
        for v in k_col {
            if seen.last() != Some(&v) {
                assert!(!seen.contains(&v), "join values interleaved");
                seen.push(v);
            }
        }
    }

    #[test]
    fn general_composite_join() {
        let a = Table::from_rows(
            "A",
            Schema::build(
                &[
                    ("k1", ValueType::Int),
                    ("k2", ValueType::Str),
                    ("x", ValueType::Int),
                ],
                &[],
            )
            .unwrap(),
            &[
                vec![Value::int(1), Value::str("p"), Value::int(10)],
                vec![Value::int(1), Value::str("q"), Value::int(20)],
                vec![Value::int(1), Value::str("p"), Value::int(30)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(
                &[
                    ("k1", ValueType::Int),
                    ("k2", ValueType::Str),
                    ("y", ValueType::Int),
                ],
                &[],
            )
            .unwrap(),
            &[
                vec![Value::int(1), Value::str("p"), Value::int(100)],
                vec![Value::int(1), Value::str("r"), Value::int(200)],
            ],
        )
        .unwrap();
        let out = merge_general(&a, &b, "AB", &["k1".into(), "k2".into()]).unwrap();
        // Only (1, p) matches: 2 left rows × 1 right row.
        assert_eq!(out.output.rows(), 2);
        let m = multiset(out.output.to_rows());
        assert_eq!(
            m[&vec![
                Value::int(1),
                Value::str("p"),
                Value::int(10),
                Value::int(100)
            ]],
            1
        );
        assert_eq!(
            m[&vec![
                Value::int(1),
                Value::str("p"),
                Value::int(30),
                Value::int(100)
            ]],
            1
        );
    }

    #[test]
    fn auto_picks_key_fk_when_unique() {
        let s = s_table();
        let t = t_table();
        let out = merge(&s, &t, "R", &MergeStrategy::Auto).unwrap();
        assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
        assert_eq!(
            out.output.schema().names(),
            vec!["employee", "skill", "address"]
        );
        // Swapped inputs: left is unique → key-FK with right reusable, but
        // the output schema still comes out left-first, so Auto's schema is
        // predictable whichever side is keyed (the planner relies on it).
        let out = merge(&t, &s, "R2", &MergeStrategy::Auto).unwrap();
        assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
        assert_eq!(
            out.output.schema().names(),
            vec!["employee", "address", "skill"]
        );
    }

    #[test]
    fn auto_falls_back_to_general() {
        let a = Table::from_rows(
            "A",
            Schema::build(&[("k", ValueType::Int), ("x", ValueType::Int)], &[]).unwrap(),
            &[
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(20)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(&[("k", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap(),
            &[
                vec![Value::int(1), Value::int(100)],
                vec![Value::int(1), Value::int(200)],
            ],
        )
        .unwrap();
        let out = merge(&a, &b, "AB", &MergeStrategy::Auto).unwrap();
        assert_eq!(out.strategy, UsedStrategy::General);
        assert_eq!(out.output.rows(), 4);
    }

    #[test]
    fn auto_falls_back_on_fk_gap() {
        // Right side unique on k, but left has an unmatched key → auto must
        // degrade to general mergence (inner-join semantics) transparently.
        let a = Table::from_rows(
            "A",
            Schema::build(&[("k", ValueType::Int), ("x", ValueType::Int)], &[]).unwrap(),
            &[
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(2), Value::int(20)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(&[("k", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap(),
            &[vec![Value::int(1), Value::int(100)]],
        )
        .unwrap();
        let out = merge(&a, &b, "AB", &MergeStrategy::Auto).unwrap();
        assert_eq!(out.strategy, UsedStrategy::General);
        assert_eq!(out.output.rows(), 1);
    }

    #[test]
    fn no_common_columns_rejected() {
        let a = Table::from_rows(
            "A",
            Schema::build(&[("x", ValueType::Int)], &[]).unwrap(),
            &[vec![Value::int(1)]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(&[("y", ValueType::Int)], &[]).unwrap(),
            &[vec![Value::int(1)]],
        )
        .unwrap();
        assert!(matches!(
            merge(&a, &b, "AB", &MergeStrategy::Auto),
            Err(EvolutionError::NoCommonColumns(_))
        ));
    }

    #[test]
    fn join_type_mismatch_rejected() {
        let a = Table::from_rows(
            "A",
            Schema::build(&[("k", ValueType::Int)], &[]).unwrap(),
            &[vec![Value::int(1)]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(&[("k", ValueType::Str)], &[]).unwrap(),
            &[vec![Value::str("1")]],
        )
        .unwrap();
        assert!(matches!(
            merge(&a, &b, "AB", &MergeStrategy::Auto),
            Err(EvolutionError::InvalidOperator(_))
        ));
    }

    #[test]
    fn general_empty_result() {
        let a = Table::from_rows(
            "A",
            Schema::build(&[("k", ValueType::Int), ("x", ValueType::Int)], &[]).unwrap(),
            &[vec![Value::int(1), Value::int(10)]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            Schema::build(&[("k", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap(),
            &[vec![Value::int(2), Value::int(100)]],
        )
        .unwrap();
        let out = merge_general(&a, &b, "AB", &["k".into()]).unwrap();
        assert_eq!(out.output.rows(), 0);
        out.output.check_invariants().unwrap();
    }

    #[test]
    fn explicit_keyed_strategy() {
        let s = s_table();
        let t = t_table();
        let out = merge(
            &s,
            &t,
            "R",
            &MergeStrategy::KeyForeignKey { keyed: "T".into() },
        )
        .unwrap();
        assert_eq!(out.strategy, UsedStrategy::KeyForeignKey);
        let err = merge(
            &s,
            &t,
            "R2",
            &MergeStrategy::KeyForeignKey { keyed: "Z".into() },
        );
        assert!(err.is_err());
    }

    /// `rows` as an all-int table cut into 16-row segments.
    fn int_table(name: &str, cols: &[&str], rows: &[Vec<i64>]) -> Table {
        let defs: Vec<(&str, ValueType)> = cols.iter().map(|&c| (c, ValueType::Int)).collect();
        let schema = Schema::build(&defs, &[]).unwrap();
        let values: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| Value::int(v)).collect())
            .collect();
        Table::from_rows_with_segment_rows(name, schema, &values, 16).unwrap()
    }

    /// The first row of `s` whose key (its first `width` values) no row of
    /// `t` holds, and whether some key value is missing from `t`'s column
    /// altogether — what a serial scan of `s` reports.
    fn serial_fk_violation(s: &[Vec<i64>], t: &[Vec<i64>], width: usize) -> Option<String> {
        s.iter().enumerate().find_map(|(row, r)| {
            let key = &r[..width];
            if t.iter().any(|k| &k[..width] == key) {
                return None;
            }
            let by_value = (0..width).any(|c| t.iter().all(|k| k[c] != key[c]));
            let what = if by_value {
                "join value"
            } else {
                "join combination"
            };
            Some(format!(
                "row {row} of \"S\" has a {what} missing from \"T\""
            ))
        })
    }

    #[test]
    fn key_fk_across_segments_names_the_row_a_serial_scan_does() {
        // S(a, b, x) over four 16-row segments; T keyed on (a) or on
        // (a, b), with two payload columns. Each case breaks the foreign
        // key at chosen rows: forced key–FK mergence must name the row and
        // kind a serial scan names, and `Auto` must give general
        // mergence's output.
        let base: Vec<Vec<i64>> = (0..64i64).map(|i| vec![i * 5 % 11, i % 3, i]).collect();
        let one: Vec<Vec<i64>> = (0..11i64).map(|a| vec![a, a * 10 + 1, a % 4]).collect();
        let pairs: Vec<Vec<i64>> = (0..11i64)
            .flat_map(|a| (0..3i64).map(move |b| vec![a, b, a * 3 + b]))
            .collect();
        type Edit = fn(&mut Vec<Vec<i64>>, &mut Vec<Vec<i64>>);
        let cases: [(&str, usize, Edit); 7] = [
            ("no violation", 1, |_, _| {}),
            ("only the last segment", 1, |s, _| s[63][0] = 99),
            ("two segments", 1, |s, _| {
                s[20][0] = 99;
                s[40][0] = 98;
            }),
            ("a segment's first row", 1, |s, _| s[32][0] = 99),
            ("a key gone from the keyed side", 1, |s, t| {
                // Row 49's key, on no other row of S after row 48.
                let key = s[49][0];
                t.retain(|k| k[0] != key);
                s.iter_mut()
                    .take(48)
                    .filter(|r| r[0] == key)
                    .for_each(|r| r[0] = (key + 1) % 11);
            }),
            ("two columns, a combination", 2, |s, t| {
                let key = [s[33][0], s[33][1]];
                t.retain(|k| k[..2] != key);
                s[50][1] = 7;
            }),
            ("two columns, a value", 2, |s, _| s[17][1] = 7),
        ];
        for (what, width, edit) in cases {
            let mut s_rows = base.clone();
            let mut t_rows = if width == 1 {
                one.clone()
            } else {
                pairs.clone()
            };
            edit(&mut s_rows, &mut t_rows);
            let s = int_table("S", &["a", "b", "x"], &s_rows);
            let t_cols: &[&str] = if width == 1 {
                &["a", "y", "z"]
            } else {
                &["a", "b", "y"]
            };
            let t = int_table("T", t_cols, &t_rows);
            assert_eq!(s.column(0).segment_count(), 4, "{what}");
            let keyed = MergeStrategy::KeyForeignKey { keyed: "T".into() };
            let forced = merge(&s, &t, "R", &keyed);
            let auto = merge(&s, &t, "R", &MergeStrategy::Auto).unwrap();
            match serial_fk_violation(&s_rows, &t_rows, width) {
                Some(want) => {
                    let Err(EvolutionError::ForeignKeyViolation(got)) = forced else {
                        panic!("{what}: {forced:?}");
                    };
                    assert_eq!(got, want, "{what}");
                    let join: Vec<String> = t_cols[..width].iter().map(|c| c.to_string()).collect();
                    let general = merge_general(&s, &t, "R", &join).unwrap();
                    assert_eq!(auto.strategy, UsedStrategy::General, "{what}");
                    assert_eq!(auto.output.to_rows(), general.output.to_rows(), "{what}");
                }
                None => {
                    let out = forced.unwrap().output;
                    out.check_invariants().unwrap();
                    let want: Vec<Vec<Value>> = s_rows
                        .iter()
                        .map(|r| {
                            let k = t_rows.iter().find(|k| k[..width] == r[..width]).unwrap();
                            r.iter()
                                .chain(&k[width..])
                                .map(|&v| Value::int(v))
                                .collect()
                        })
                        .collect();
                    assert_eq!(out.to_rows(), want, "{what}");
                    assert_eq!(auto.strategy, UsedStrategy::KeyForeignKey, "{what}");
                    assert_eq!(auto.output.to_rows(), want, "{what}");
                }
            }
        }
    }
}
