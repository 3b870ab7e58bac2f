//! **Data-level DECOMPOSE TABLE** (Section 2.4 of the paper).
//!
//! A lossless-join decomposition of `R(A1…An)` into `S(A1…Ak, Ak+1…Am)` and
//! `T(A1…Ak, Am+1…An)`, where the common attributes `A1…Ak` are a key of `T`,
//! is executed entirely on the compressed representation:
//!
//! 1. **Reuse** — `S` is a column subset of `R`; its columns are shared by
//!    reference (Property 1: "the unchanged output table can be created right
//!    away using the existing columns in R without any data operation").
//! 2. **Distinction** — one pass over the key columns' value ids finds, for
//!    every distinct key combination, the position of its first occurrence
//!    in `R`. The result is a sorted tuple-position list. A single key
//!    column numbers its keys through an array indexed by dictionary id,
//!    whatever the dictionary's width; several go through one table over
//!    flat id tuples. No key is allocated on its own.
//! 3. **Bitmap filtering** — every `T` column is cut to that position list,
//!    one output segment at a time: each segment's selected rows are read
//!    as runs and sealed straight into `T`'s compressed segments
//!    (`EncodedColumn::try_write_positions`). No tuples are materialized,
//!    no value is touched, only ids, and no index needs rebuilding.
//!
//! Property 2 (the key functionally determines `T`'s other attributes, so
//! any representative row suffices) is optionally verified in the same pass.
//!
//! When distinction keeps every row, the common attributes are already a
//! key of `R`: `T` is a column subset as well, and shares its columns with
//! `R` exactly as `S` does — step 3 and the Property 2 pass are skipped.
//! Otherwise filtering keeps every key value, so `T`'s key column still
//! holds `R`'s key dictionary (the same shared handle as `S`'s): a MERGE of
//! `S` and `T` maps its join ids without hashing a value.

use crate::error::{EvolutionError, Result};
use crate::schema_tools::check_decomposition_shape;
use cods_query::keys::KeyIndex;
use cods_query::par::{map_parallel, map_parallel_pooled};
use cods_storage::{EncodedColumn, SealScratch, SegSlot, StepLog, StorageError, Table};
use std::sync::Arc;

/// Specification of a decomposition.
#[derive(Clone, Debug)]
pub struct DecomposeSpec {
    /// Name for the unchanged output (the side keeping all rows).
    pub unchanged_name: String,
    /// Columns of the unchanged output.
    pub unchanged_cols: Vec<String>,
    /// Name for the changed output (shrunk to one row per distinct key).
    pub changed_name: String,
    /// Columns of the changed output; the columns shared with
    /// `unchanged_cols` become its key.
    pub changed_cols: Vec<String>,
    /// Verify Property 2 (the FD key → rest) during the pass, failing with
    /// [`EvolutionError::FdViolation`] if the data would make the
    /// decomposition lossy. Costs one extra O(rows) id scan per changed
    /// non-key column.
    pub verify_fd: bool,
}

impl DecomposeSpec {
    /// Builds a spec with FD verification enabled.
    pub fn new(
        unchanged_name: impl Into<String>,
        unchanged_cols: &[&str],
        changed_name: impl Into<String>,
        changed_cols: &[&str],
    ) -> Self {
        DecomposeSpec {
            unchanged_name: unchanged_name.into(),
            unchanged_cols: unchanged_cols.iter().map(|s| s.to_string()).collect(),
            changed_name: changed_name.into(),
            changed_cols: changed_cols.iter().map(|s| s.to_string()).collect(),
            verify_fd: true,
        }
    }

    /// Disables FD verification (trusted input).
    pub fn trusted(mut self) -> Self {
        self.verify_fd = false;
        self
    }
}

/// Result of a decomposition.
#[derive(Clone, Debug)]
pub struct DecomposeOutcome {
    /// The unchanged output table (columns shared with the input).
    pub unchanged: Table,
    /// The changed output table (one row per distinct key).
    pub changed: Table,
    /// Number of distinct key combinations found by distinction.
    pub distinct_keys: u64,
    /// Step log.
    pub status: StepLog,
}

/// The *distinction* step: the sorted list of first-occurrence positions of
/// every distinct combination of `key_cols`, plus (when `group_of_row` is
/// requested) the key-group index of every row for FD verification.
///
/// Works purely on value ids — dictionary values are never touched — and
/// fans out per row chunk (the key column's nominal segment size): each
/// fan-out task numbers the distinct keys in its chunk, in local
/// first-occurrence order, through a `KeyIndex` it borrows from a
/// per-call pool and hands back cleared — with one key column an array
/// indexed by dictionary id, reset through the ids the chunk touched, so no
/// chunk pays for the whole dictionary. The partials (first offsets, and
/// the keys' ids flat) are merged in chunk order through one more index,
/// so group numbering and first-occurrence positions come out exactly as a
/// single sequential scan would produce them. A second fan-out rewrites
/// each chunk's local group ids to global ones. A key segment that cannot
/// be read is an error.
pub fn distinction(
    table: &Table,
    key_cols: &[usize],
    want_groups: bool,
) -> Result<(Vec<u64>, Option<Vec<u32>>)> {
    let rows = table.rows() as usize;
    if rows == 0 {
        return Ok((Vec::new(), want_groups.then(Vec::new)));
    }
    let id_cols: Vec<Vec<u32>> = key_cols
        .iter()
        .map(|&c| table.column(c).try_value_ids())
        .collect::<std::result::Result<_, _>>()?;
    let width = key_cols.len();
    let chunk_rows = (table.column(key_cols[0]).nominal_segment_rows().max(1) as usize).min(rows);
    let starts: Vec<usize> = (0..rows).step_by(chunk_rows).collect();

    // Per-chunk partials: the chunk's distinct keys in local first-occurrence
    // order — their first row offsets within the chunk, and their ids flat,
    // `width` per key — plus, when groups are requested, each row's local
    // group index.
    struct Partial {
        firsts: Vec<u32>,
        keys: Vec<u32>,
        local_groups: Option<Vec<u32>>,
    }
    let mut pool = Vec::new();
    let partials: Vec<Partial> = map_parallel_pooled(
        starts.clone(),
        &mut pool,
        || KeyIndex::new(table, key_cols, 0),
        |start, index| {
            let end = (start + chunk_rows).min(rows);
            let mut firsts: Vec<u32> = Vec::new();
            let mut local_groups: Option<Vec<u32>> =
                want_groups.then(|| Vec::with_capacity(end - start));
            let mut key: Vec<u32> = vec![0; width];
            for row in start..end {
                for (slot, c) in key.iter_mut().zip(&id_cols) {
                    *slot = c[row];
                }
                let (group, fresh) = index.intern(&key);
                if fresh {
                    firsts.push((row - start) as u32);
                }
                if let Some(g) = local_groups.as_mut() {
                    g.push(group);
                }
            }
            let keys = index.keys().to_vec();
            index.clear();
            Partial {
                firsts,
                keys,
                local_groups,
            }
        },
    );

    // Sequential merge over the partials only — O(distinct keys per
    // chunk), not O(rows): chunks are visited in row order, so the first
    // chunk containing a key fixes its global group id and position.
    let mut global = pool
        .pop()
        .unwrap_or_else(|| KeyIndex::new(table, key_cols, 0));
    let mut positions: Vec<u64> = Vec::new();
    let mut local_to_global: Vec<Vec<u32>> = Vec::with_capacity(partials.len());
    for (&start, partial) in starts.iter().zip(&partials) {
        let map = partial
            .firsts
            .iter()
            .zip(partial.keys.chunks_exact(width))
            .map(|(&off, key)| {
                let (group, fresh) = global.intern(key);
                if fresh {
                    positions.push(start as u64 + off as u64);
                }
                group
            })
            .collect();
        local_to_global.push(map);
    }

    // Second fan-out: rewrite each chunk's local groups through its
    // local → global map, then splice in chunk order.
    let groups = want_groups.then(|| {
        let tasks: Vec<(Partial, Vec<u32>)> = partials.into_iter().zip(local_to_global).collect();
        let rewritten = map_parallel(tasks, |(partial, map)| {
            partial
                .local_groups
                .expect("groups requested")
                .into_iter()
                .map(|lg| map[lg as usize])
                .collect::<Vec<u32>>()
        });
        let mut out = Vec::with_capacity(rows);
        for chunk in rewritten {
            out.extend_from_slice(&chunk);
        }
        out
    });
    Ok((positions, groups))
}

/// Bitmap-filters each column to `positions` (non-decreasing): cut at each
/// column's nominal segment size, one fan-out task per (column × output
/// segment) writes that segment from the rows its slice of `positions`
/// names ([`EncodedColumn::try_write_positions`]): DECOMPOSE's write side.
pub(crate) fn filter_columns_by_positions(
    columns: &[&EncodedColumn],
    positions: &[u64],
) -> Result<Vec<Arc<EncodedColumn>>> {
    let mut tasks = Vec::new();
    for (ci, col) in columns.iter().enumerate() {
        for slice in positions.chunks(col.nominal_segment_rows() as usize) {
            tasks.push((ci, slice));
        }
    }
    write_columns(columns, tasks, |ci, slice, scratch| {
        columns[ci].try_write_positions(slice, scratch)
    })
}

/// Mask-driven variant of [`filter_columns_by_positions`]: the mask's set
/// rows are cut into one selection per output segment
/// ([`EncodedColumn::cut_mask`], on the compressed form), so PARTITION
/// never materializes a whole-column position list.
pub(crate) fn filter_columns_by_mask(
    columns: &[&EncodedColumn],
    mask: &cods_bitmap::Wah,
) -> Result<Vec<Arc<EncodedColumn>>> {
    let mut tasks = Vec::new();
    for (ci, col) in columns.iter().enumerate() {
        for sel in col.cut_mask(mask) {
            tasks.push((ci, sel));
        }
    }
    write_columns(columns, tasks, |ci, sel, scratch| {
        columns[ci].try_write(&sel, None, scratch)
    })
}

/// The write side every operator shares: runs `write` as one fan-out task per
/// `(column index, output segment)` entry of `tasks`, each sealing one
/// segment with a pooled [`SealScratch`], then turns each column's
/// segments, in task order, into a column derived from its input
/// ([`EncodedColumn::derived`]). Tasks come in ascending (column, segment)
/// order and the map keeps it.
pub(crate) fn write_columns<S: Send>(
    columns: &[&EncodedColumn],
    tasks: Vec<(usize, S)>,
    write: impl Fn(usize, S, &mut SealScratch) -> std::result::Result<SegSlot, StorageError> + Sync,
) -> Result<Vec<Arc<EncodedColumn>>> {
    let mut pool = Vec::new();
    let written = map_parallel_pooled(
        tasks,
        &mut pool,
        SealScratch::default,
        |(ci, sel), scratch| (ci, write(ci, sel, scratch)),
    );
    let mut segments: Vec<Vec<SegSlot>> = vec![Vec::new(); columns.len()];
    for (ci, seg) in written {
        segments[ci].push(seg?);
    }
    Ok(columns
        .iter()
        .zip(segments)
        .map(|(col, segs)| Arc::new(col.derived(segs)))
        .collect())
}

/// Executes a data-level decomposition of `input`.
///
/// Schema keys of the outputs: the changed table is keyed by the common
/// columns; the unchanged table keeps no key declaration.
pub fn decompose(input: &Table, spec: &DecomposeSpec) -> Result<DecomposeOutcome> {
    let mut log = StepLog::new();

    // Shape validation (coverage, overlap, existence).
    let common =
        check_decomposition_shape(input.schema(), &spec.unchanged_cols, &spec.changed_cols)?;
    log.mark("validate decomposition shape");

    // Step 0 — reuse: the unchanged table shares the input's columns.
    let unchanged_names: Vec<&str> = spec.unchanged_cols.iter().map(String::as_str).collect();
    let unchanged_schema = input.schema().project(&unchanged_names, &[])?;
    let unchanged_columns: Vec<Arc<EncodedColumn>> = unchanged_names
        .iter()
        .map(|n| Ok(Arc::clone(input.column_by_name(n)?)))
        .collect::<Result<_>>()?;
    let unchanged = Table::new(&spec.unchanged_name, unchanged_schema, unchanged_columns)?;
    log.mark_items("reuse unchanged columns", unchanged.arity() as u64);

    // Step 1 — distinction over the common (key) columns.
    let key_idx: Vec<usize> = common
        .iter()
        .map(|n| Ok(input.schema().index_of(n)?))
        .collect::<Result<_>>()?;
    let (positions, groups) = distinction(input, &key_idx, spec.verify_fd)?;
    log.mark_items("distinction", positions.len() as u64);

    // Distinction kept every row: the common columns are already a key of
    // `R`, so the changed table is a column subset too. Property 2 holds
    // vacuously (every key group has one row) and nothing needs filtering.
    let key_is_unique = positions.len() as u64 == input.rows();

    // Property 2 — every row of a key group must agree with its
    // representative on the changed table's non-key columns.
    if let Some(groups) = groups.filter(|_| !key_is_unique) {
        for name in spec.changed_cols.iter().filter(|c| !common.contains(c)) {
            let ids = input.column_by_name(name)?.try_value_ids()?;
            let rep: Vec<u32> = positions.iter().map(|&p| ids[p as usize]).collect();
            for (row, &g) in groups.iter().enumerate() {
                if ids[row] != rep[g as usize] {
                    return Err(EvolutionError::FdViolation(format!(
                        "column {name:?} differs within key group at row {row}: \
                         the decomposition would lose data"
                    )));
                }
            }
        }
        log.mark("verify functional dependency");
    }

    let changed_names: Vec<&str> = spec.changed_cols.iter().map(String::as_str).collect();
    let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
    let changed_schema = input.schema().project(&changed_names, &common_refs)?;
    let changed_inputs: Vec<&Arc<EncodedColumn>> = changed_names
        .iter()
        .map(|n| Ok(input.column_by_name(n)?))
        .collect::<Result<_>>()?;
    let changed_columns = if key_is_unique {
        // Reuse, as for the unchanged side.
        log.mark_items("reuse changed columns", changed_inputs.len() as u64);
        changed_inputs.into_iter().map(Arc::clone).collect()
    } else {
        // Step 2 — bitmap filtering of every changed-side column, fanned
        // out as one task per (column × output segment): each task writes
        // one output segment from the rows its slice of the positions
        // names.
        let to_filter: Vec<&EncodedColumn> = changed_inputs.iter().map(|c| c.as_ref()).collect();
        let filtered = filter_columns_by_positions(&to_filter, &positions)?;
        log.mark_items(
            "bitmap filtering",
            (filtered.len() as u64) * positions.len() as u64,
        );
        filtered
    };
    let changed = Table::new(&spec.changed_name, changed_schema, changed_columns)?;

    Ok(DecomposeOutcome {
        unchanged,
        changed,
        distinct_keys: positions.len() as u64,
        status: log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn figure1() -> Table {
        let schema = Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = [
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
        .collect();
        Table::from_rows("R", schema, &rows).unwrap()
    }

    fn figure1_spec() -> DecomposeSpec {
        DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"])
    }

    #[test]
    fn figure1_decomposition() {
        let r = figure1();
        let out = decompose(&r, &figure1_spec()).unwrap();
        assert_eq!(out.unchanged.rows(), 7);
        assert_eq!(out.changed.rows(), 4);
        assert_eq!(out.distinct_keys, 4);
        out.unchanged.check_invariants().unwrap();
        out.changed.check_invariants().unwrap();
        out.changed.verify_key().unwrap();

        // T is exactly the employee → address mapping of Figure 1.
        let mut t_rows = out.changed.to_rows();
        t_rows.sort();
        assert_eq!(
            t_rows,
            vec![
                vec![Value::str("Ellis"), Value::str("747 Industrial Way")],
                vec![Value::str("Harrison"), Value::str("425 Grant Ave")],
                vec![Value::str("Jones"), Value::str("425 Grant Ave")],
                vec![Value::str("Roberts"), Value::str("747 Industrial Way")],
            ]
        );
    }

    #[test]
    fn unchanged_side_shares_columns_with_input() {
        let r = figure1();
        let out = decompose(&r, &figure1_spec()).unwrap();
        assert!(r.shares_column_with(&out.unchanged, "employee"));
        assert!(r.shares_column_with(&out.unchanged, "skill"));
    }

    #[test]
    fn changed_side_keeps_the_input_dictionaries() {
        // Filtering keeps every key value, and (by the FD) every value of
        // the changed side's other columns: both hold the input's
        // dictionaries, so a MERGE back maps its ids for free.
        let r = figure1();
        let out = decompose(&r, &figure1_spec()).unwrap();
        assert!(!r.shares_column_with(&out.changed, "employee"));
        for name in ["employee", "address"] {
            let input = r.column_by_name(name).unwrap().dict();
            assert!(out
                .changed
                .column_by_name(name)
                .unwrap()
                .dict()
                .same_as(input));
        }
        let key = |t: &Table| t.column_by_name("employee").unwrap().dict().clone();
        assert!(key(&out.unchanged).same_as(&key(&out.changed)));
    }

    #[test]
    fn unique_key_shares_the_changed_side_too() {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("region", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let rows = |ids: &[i64]| -> Vec<Vec<Value>> {
            ids.iter()
                .map(|&i| {
                    vec![
                        Value::int(i),
                        Value::str(format!("n{i}")),
                        Value::str(format!("r{}", i % 3)),
                    ]
                })
                .collect()
        };
        let spec = DecomposeSpec::new("S", &["id", "name"], "T", &["id", "region"]);

        // `id` is unique: T is a column subset of R, no filtering, no FD pass.
        let r = Table::from_rows("R", schema.clone(), &rows(&[0, 1, 2, 3, 4, 5, 6])).unwrap();
        let out = decompose(&r, &spec).unwrap();
        assert_eq!(out.distinct_keys, 7);
        for name in ["id", "region"] {
            assert!(r.shares_column_with(&out.changed, name), "{name}");
        }
        assert_eq!(out.changed.schema().key_names(), vec!["id"]);
        out.changed.verify_key().unwrap();
        assert_eq!(
            out.changed.to_rows(),
            r.to_rows_projected(&["id", "region"]).unwrap()
        );
        assert!(out.status.step("bitmap filtering").is_none());
        assert!(out.status.step("verify functional dependency").is_none());

        // One repeated key and T shrinks: its columns are built, not shared.
        let r = Table::from_rows("R", schema, &rows(&[0, 1, 2, 3, 4, 5, 0])).unwrap();
        let out = decompose(&r, &spec).unwrap();
        assert_eq!(out.changed.rows(), 6);
        for name in ["id", "region"] {
            assert!(!r.shares_column_with(&out.changed, name), "{name}");
        }
        assert!(out.status.step("bitmap filtering").is_some());
    }

    #[test]
    fn status_reports_paper_steps() {
        let r = figure1();
        let out = decompose(&r, &figure1_spec()).unwrap();
        assert!(out.status.step("distinction").is_some());
        assert!(out.status.step("bitmap filtering").is_some());
        assert_eq!(out.status.step("distinction").unwrap().items, Some(4));
    }

    #[test]
    fn fd_violation_detected() {
        // Same employee, two addresses → employee → address does not hold.
        let schema = Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let rows = vec![
            vec![Value::str("Jones"), Value::str("Typing"), Value::str("A")],
            vec![Value::str("Jones"), Value::str("Welding"), Value::str("B")],
        ];
        let r = Table::from_rows("R", schema, &rows).unwrap();
        let err = decompose(&r, &figure1_spec());
        assert!(matches!(err, Err(EvolutionError::FdViolation(_))));
        // Trusted mode silently takes the representative row.
        let out = decompose(&r, &figure1_spec().trusted()).unwrap();
        assert_eq!(out.changed.rows(), 1);
        assert_eq!(out.changed.row(0)[1], Value::str("A"));
    }

    #[test]
    fn composite_key_distinction() {
        let schema = Schema::build(
            &[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
            ],
            &[],
        )
        .unwrap();
        // (a, b) → c holds; 4 distinct (a, b) pairs.
        let rows: Vec<Vec<Value>> = [
            (1, 1, 10),
            (1, 2, 20),
            (2, 1, 30),
            (1, 1, 10),
            (2, 2, 40),
            (1, 2, 20),
        ]
        .iter()
        .map(|&(a, b, c)| vec![Value::int(a), Value::int(b), Value::int(c)])
        .collect();
        let r = Table::from_rows("R", schema, &rows).unwrap();
        let spec = DecomposeSpec::new("S", &["a", "b"], "T", &["a", "b", "c"]);
        let out = decompose(&r, &spec).unwrap();
        assert_eq!(out.distinct_keys, 4);
        assert_eq!(out.changed.rows(), 4);
        out.changed.verify_key().unwrap();
    }

    #[test]
    fn distinction_positions_are_first_occurrences() {
        let r = figure1();
        let (positions, groups) = distinction(&r, &[0], true).unwrap();
        assert_eq!(positions, vec![0, 2, 3, 6]); // Jones, Roberts, Ellis, Harrison
        let g = groups.unwrap();
        assert_eq!(g, vec![0, 0, 1, 2, 0, 2, 3]);
    }

    #[test]
    fn chunked_distinction_matches_single_chunk() {
        // Small segments force many parallel partial maps; the merged
        // result must be identical — positions, group numbering, and all —
        // to the single-chunk scan, for single and composite keys.
        let schema = Schema::build(
            &[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                vec![
                    Value::int(i * 7 % 23),
                    Value::int(i % 3),
                    Value::int(i * 11 % 9),
                ]
            })
            .collect();
        let chunked = Table::from_rows_with_segment_rows("R", schema.clone(), &rows, 16).unwrap();
        let mono = Table::from_rows_with_segment_rows("R", schema, &rows, 1 << 40).unwrap();
        assert!(chunked.column(0).segment_count() > 8);
        assert_eq!(mono.column(0).segment_count(), 1);
        for key_cols in [vec![0usize], vec![0, 1], vec![2, 1, 0]] {
            for want_groups in [false, true] {
                let (pc, gc) = distinction(&chunked, &key_cols, want_groups).unwrap();
                let (pm, gm) = distinction(&mono, &key_cols, want_groups).unwrap();
                assert_eq!(pc, pm, "positions differ for key {key_cols:?}");
                assert_eq!(gc, gm, "groups differ for key {key_cols:?}");
                assert!(pc.windows(2).all(|w| w[0] < w[1]), "positions sorted");
            }
        }
    }

    #[test]
    fn decompose_empty_table() {
        let schema = Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
        let r = Table::from_rows("R", schema, &[]).unwrap();
        let spec = DecomposeSpec::new("S", &["a"], "T", &["a", "b"]);
        let out = decompose(&r, &spec).unwrap();
        assert_eq!(out.unchanged.rows(), 0);
        assert_eq!(out.changed.rows(), 0);
    }
}
