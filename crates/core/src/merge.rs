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
//!   hold one dictionary, as a DECOMPOSE's outputs do.
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
use cods_bitmap::RleSeq;
use cods_query::keys::{KeyIndex, NONE};
use cods_query::par::map_parallel;
use cods_storage::{ColumnDef, EncodedColumn, Schema, StepLog, Table};
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
/// `log`.
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

    // Sequential scan of the reusable side: every row is mapped to the
    // keyed row providing its payload values. Parallelized per row chunk
    // (the key column's nominal segment size): each fan-out task scans its
    // range serially against the shared id maps and key table, and the
    // per-chunk results are spliced back in row order — bit-identical to
    // the serial scan, including which row reports a violation first
    // (chunks are joined in order, and each chunk scans its rows in
    // order).
    let r_ids: Vec<Vec<u32>> = r_join
        .iter()
        .map(|&c| reusable.column(c).try_value_ids())
        .collect::<std::result::Result<_, _>>()?;
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
    let chunk_rows =
        (reusable.column(r_join[0]).nominal_segment_rows().max(1) as usize).min(n.max(1));
    let starts: Vec<usize> = (0..n).step_by(chunk_rows).collect();
    let chunks: Vec<Result<Vec<u32>>> = map_parallel(starts, |start| {
        let end = (start + chunk_rows).min(n);
        let mut out: Vec<u32> = Vec::with_capacity(end - start);
        if let Some(target_of_id) = &target_of_id {
            for (row, &rid) in (start..end).zip(&r_ids[0][start..end]) {
                let t = target_of_id[rid as usize];
                if t >= NO_ROW {
                    return Err(violation(row, t));
                }
                out.push(t);
            }
            return Ok(out);
        }
        let mut key: Vec<u32> = vec![0; r_join.len()];
        for row in start..end {
            for (slot, (ids, map)) in key.iter_mut().zip(r_ids.iter().zip(&maps)) {
                *slot = map[ids[row] as usize].ok_or_else(|| violation(row, NO_VALUE))?;
            }
            out.push(keys.get(&key).ok_or_else(|| violation(row, NO_ROW))?);
        }
        Ok(out)
    });
    let mut target_row: Vec<u32> = Vec::with_capacity(n);
    for chunk in chunks {
        target_row.extend(chunk?);
    }
    drop(r_ids);
    log.mark_items("sequential scan (parallel per chunk)", n as u64);

    // Build the payload columns (keyed-side non-join attributes) directly
    // in compressed form over the reusable side's row space. Columns are
    // processed one at a time so only one dense id array is alive at once
    // (peak memory O(rows), not O(rows × payload columns)); within a
    // column, one task per output segment gathers that segment's ids and
    // seals it in the encoding the chooser picks for it.
    let payload_cols: Vec<usize> = (0..keyed.arity()).filter(|i| !k_join.contains(i)).collect();
    let mut new_columns: Vec<Arc<EncodedColumn>> = Vec::with_capacity(payload_cols.len());
    for &pc in &payload_cols {
        let col = keyed.column(pc).as_ref();
        let ids = col.try_value_ids()?;
        let step = col.nominal_segment_rows() as usize;
        let tasks: Vec<(usize, usize)> = (0..n).step_by(step).map(|start| (0, start)).collect();
        let written = write_columns(&[col], tasks, |_, start, scratch| {
            let end = (start + step).min(n);
            let seq = target_row[start..end].iter().map(|&t| ids[t as usize]);
            Ok(col.seal_stream(seq.collect(), scratch))
        })?;
        new_columns.extend(written);
    }
    drop(target_row);
    log.mark_items("build payload bitmaps", payload_cols.len() as u64);

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
        let mut seq = RleSeq::new();
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
                    seq.append_run(combos.keys()[g * width + *pos_in_join], b - a);
                }
            }
            (OutCol::LeftPayload { .. }, ColPrep::Left(ids)) => {
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
                        seq.append_run(ids[srow as usize], b - a);
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
                        for j in j0..j1 {
                            debug_assert_eq!(seq.len(), row0 + j - lo);
                            seq.push(group_ids[j as usize]);
                        }
                    }
                }
            }
            _ => unreachable!("column preparation out of sync with the plan"),
        }
        debug_assert_eq!(seq.len(), hi - lo);
        Ok(columns[ci].seal_stream(seq, scratch))
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
}
