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
//!    in `R`. The result is a sorted tuple-position list. The pass fans out
//!    per row chunk, each task reading its own chunk's key ids, and the
//!    chunks' keys are merged in chunk order. A single key column numbers
//!    its keys through an array indexed by dictionary id, whatever the
//!    dictionary's width; several go through one table over flat id
//!    tuples. No key is allocated on its own.
//! 3. **Bitmap filtering** — every `T` column is cut to that position list,
//!    one output segment at a time: each segment's selected rows are read
//!    as runs and sealed straight into `T`'s compressed segments
//!    (`EncodedColumn::try_write_positions`). No tuples are materialized,
//!    no value is touched, only ids, and no index needs rebuilding.
//!
//! Property 2 (the key functionally determines `T`'s other attributes, so
//! any representative row suffices) is optionally verified per chunk: each
//! chunk's rows are held to the chunk's *local* representatives (each
//! key's first row in the chunk), and those to the global ones in chunk
//! order, which finds exactly the first violating (column, row) a serial
//! scan finds. There is no whole-table array of each row's key group:
//! each chunk keeps its own rows' local key numbers until the check.
//!
//! When distinction keeps every row, the common attributes are already a
//! key of `R`: `T` is a column subset as well, and shares its columns with
//! `R` exactly as `S` does — step 3 and the Property 2 pass are skipped,
//! and no non-key column is read.
//! Otherwise filtering keeps every key value, so `T`'s key column still
//! holds `R`'s key dictionary (the same shared handle as `S`'s): a MERGE of
//! `S` and `T` maps its join ids without hashing a value.

use crate::error::{EvolutionError, Result};
use crate::schema_tools::check_decomposition_shape;
use cods_query::keys::KeyIndex;
use cods_query::par::{map_parallel, map_parallel_pooled};
use cods_storage::span::{self, Span};
use cods_storage::{EncodedColumn, SealScratch, SegSlot, StepLog, StorageError, Table};
use std::ops::Range;
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
    /// Verify Property 2 (the FD key → rest) after distinction, failing
    /// with [`EvolutionError::FdViolation`] if the data would make the
    /// decomposition lossy. Costs one extra O(rows) id scan per changed
    /// non-key column, and nothing when the key is unique.
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

/// What the *distinction* step found: the first-occurrence position of
/// every distinct key, and, per row chunk, what Property 2's check reads.
#[derive(Debug)]
pub struct Distinction {
    /// The first-occurrence position of every distinct key combination,
    /// ascending — so key number `g` is the `g`-th key met.
    pub positions: Vec<u64>,
    chunks: Vec<ChunkKeys>,
}

/// One row chunk's keys: the distinct keys it holds, in local
/// first-occurrence order.
#[derive(Debug)]
struct ChunkKeys {
    /// The chunk's rows.
    rows: Range<u64>,
    /// Each local key's first row, as an offset into the chunk.
    firsts: Vec<u32>,
    /// Each local key's global number.
    global: Vec<u32>,
    /// Each row's local key number, when kept for Property 2.
    groups: Option<Vec<u32>>,
}

/// The *distinction* step: the first-occurrence positions of every
/// distinct combination of `key_cols`, with each row's key kept per chunk
/// when `keep_groups` asks for Property 2's check
/// ([`Distinction::check_fd`]).
///
/// Works purely on value ids — dictionary values are never touched — and
/// fans out per row chunk (the key column's nominal segment size): each
/// fan-out task reads its chunk's key ids and numbers the distinct keys in
/// it, in local first-occurrence order, through a `KeyIndex` it borrows
/// from a per-call pool and hands back cleared — with one key column an
/// array indexed by dictionary id, reset through the ids the chunk touched,
/// so no chunk pays for the whole dictionary. The partials (first offsets,
/// and the keys' ids flat) are merged in chunk order through one more
/// index, so key numbering and first-occurrence positions come out exactly
/// as a single sequential scan would produce them. A key segment that
/// cannot be read is an error.
pub fn distinction(table: &Table, key_cols: &[usize], keep_groups: bool) -> Result<Distinction> {
    let rows = table.rows();
    if rows == 0 {
        return Ok(Distinction {
            positions: Vec::new(),
            chunks: Vec::new(),
        });
    }
    let width = key_cols.len();
    let chunk_rows = table
        .column(key_cols[0])
        .nominal_segment_rows()
        .clamp(1, rows);
    let chunks: Vec<Range<u64>> = (0..rows)
        .step_by(chunk_rows as usize)
        .map(|start| start..(start + chunk_rows).min(rows))
        .collect();

    // Per-chunk partials: the chunk's keys, and their ids flat, `width`
    // per key.
    let mut pool = Vec::new();
    let partials = map_parallel_pooled(
        chunks,
        &mut pool,
        || KeyIndex::new(table, key_cols, 0),
        |range, index| -> std::result::Result<(ChunkKeys, Vec<u32>), StorageError> {
            let mut span = span::enter(Span::SmoDistinction);
            span.items(|| range.end - range.start);
            let sel = [(range.start, range.end)];
            let id_cols: Vec<Vec<u32>> = key_cols
                .iter()
                .map(|&c| table.column(c).try_ids_in(&sel))
                .collect::<std::result::Result<_, _>>()?;
            let n = (range.end - range.start) as usize;
            let mut firsts: Vec<u32> = Vec::new();
            let mut groups: Option<Vec<u32>> = keep_groups.then(|| Vec::with_capacity(n));
            let mut key: Vec<u32> = vec![0; width];
            for row in 0..n {
                for (slot, c) in key.iter_mut().zip(&id_cols) {
                    *slot = c[row];
                }
                let (group, fresh) = index.intern(&key);
                if fresh {
                    firsts.push(row as u32);
                }
                if let Some(g) = groups.as_mut() {
                    g.push(group);
                }
            }
            let keys = index.keys().to_vec();
            index.clear();
            let chunk = ChunkKeys {
                rows: range,
                firsts,
                global: Vec::new(),
                groups,
            };
            Ok((chunk, keys))
        },
    );

    // Sequential merge over the partials only — O(distinct keys per
    // chunk), not O(rows): chunks are visited in row order, so the first
    // chunk containing a key fixes its global number and position.
    let mut global = pool
        .pop()
        .unwrap_or_else(|| KeyIndex::new(table, key_cols, 0));
    let mut positions: Vec<u64> = Vec::new();
    let mut chunks = Vec::with_capacity(partials.len());
    for partial in partials {
        let (mut chunk, keys) = partial?;
        chunk.global = chunk
            .firsts
            .iter()
            .zip(keys.chunks_exact(width))
            .map(|(&off, key)| {
                let (group, fresh) = global.intern(key);
                if fresh {
                    positions.push(chunk.rows.start + u64::from(off));
                }
                group
            })
            .collect();
        chunks.push(chunk);
    }
    Ok(Distinction { positions, chunks })
}

impl Distinction {
    /// Checks Property 2 — every row of a key group agrees with the
    /// group's representative, its first row, on each of `cols` — and
    /// returns the first violation: the first of `cols` any row breaks it
    /// in, and the first such row. One fan-out task per chunk reads the
    /// chunk's ids of `cols` and holds each row to its chunk's *local*
    /// representative (the key's first row in the chunk); the chunks'
    /// local representatives are then held to the global ones in chunk
    /// order. A row breaks the property exactly when it differs from its
    /// local representative or that representative differs from the
    /// global one — and then the representative, the key's first row in
    /// the chunk, breaks it too — so the first violation is exactly the
    /// one a serial scan of the whole column reports. A segment that
    /// cannot be read is an error.
    ///
    /// # Panics
    /// Panics when distinction did not keep the groups.
    pub fn check_fd(&self, table: &Table, cols: &[usize]) -> Result<Option<(usize, u64)>> {
        // Per chunk and column: the local representatives' ids and the
        // first row differing from its own.
        let checked = map_parallel(self.chunks.iter().collect(), |chunk: &ChunkKeys| {
            let mut span = span::enter(Span::SmoFdCheck);
            span.items(|| chunk.rows.end - chunk.rows.start);
            let groups = chunk.groups.as_ref().expect("distinction kept the groups");
            let sel = [(chunk.rows.start, chunk.rows.end)];
            cols.iter()
                .map(|&c| {
                    let ids = table.column(c).try_ids_in(&sel)?;
                    let reps: Vec<u32> = chunk.firsts.iter().map(|&f| ids[f as usize]).collect();
                    let bad = ids
                        .iter()
                        .zip(groups)
                        .position(|(&id, &g)| id != reps[g as usize]);
                    Ok((reps, bad))
                })
                .collect::<std::result::Result<Vec<_>, StorageError>>()
        });
        let mut reps: Vec<Vec<u32>> = vec![Vec::with_capacity(self.positions.len()); cols.len()];
        let mut first: Vec<Option<u64>> = vec![None; cols.len()];
        for (chunk, per_col) in self.chunks.iter().zip(checked) {
            for (k, (local, bad)) in per_col?.into_iter().enumerate() {
                if first[k].is_some() {
                    continue;
                }
                let mut row = bad.map(|b| b as u64);
                for ((&g, &rep), &off) in chunk.global.iter().zip(&local).zip(&chunk.firsts) {
                    let known = &mut reps[k];
                    if g as usize == known.len() {
                        known.push(rep);
                    } else if known[g as usize] != rep {
                        row = Some(row.map_or(u64::from(off), |r| r.min(u64::from(off))));
                    }
                }
                first[k] = row.map(|r| chunk.rows.start + r);
            }
        }
        Ok(first
            .into_iter()
            .enumerate()
            .find_map(|(k, row)| row.map(|r| (cols[k], r))))
    }
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
    columns
        .iter()
        .zip(segments)
        .map(|(col, segs)| Ok(Arc::new(col.derived(segs)?)))
        .collect()
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
    let keys = distinction(input, &key_idx, spec.verify_fd)?;
    log.mark_items("distinction", keys.positions.len() as u64);

    // Distinction kept every row: the common columns are already a key of
    // `R`, so the changed table is a column subset too. Property 2 holds
    // vacuously (every key group has one row) and nothing needs filtering.
    let key_is_unique = keys.positions.len() as u64 == input.rows();

    // Property 2 — every row of a key group must agree with its
    // representative on the changed table's non-key columns.
    if spec.verify_fd && !key_is_unique {
        let fd_idx: Vec<usize> = spec
            .changed_cols
            .iter()
            .filter(|c| !common.contains(c))
            .map(|n| Ok(input.schema().index_of(n)?))
            .collect::<Result<_>>()?;
        if let Some((col, row)) = keys.check_fd(input, &fd_idx)? {
            let name = &input.schema().columns()[col].name;
            return Err(EvolutionError::FdViolation(format!(
                "column {name:?} differs within key group at row {row}: \
                 the decomposition would lose data"
            )));
        }
        log.mark("verify functional dependency");
    }
    let positions = keys.positions;

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
        let keys = distinction(&r, &[0], true).unwrap();
        assert_eq!(keys.positions, vec![0, 2, 3, 6]); // Jones, Roberts, Ellis, Harrison
                                                      // employee → address holds; employee → skill breaks at Jones's
                                                      // second row.
        assert_eq!(keys.check_fd(&r, &[2]).unwrap(), None);
        assert_eq!(keys.check_fd(&r, &[2, 1]).unwrap(), Some((1, 1)));
    }

    #[test]
    fn chunked_distinction_matches_single_chunk() {
        // Small segments force many parallel partial maps; the merged
        // positions must be identical to the single-chunk scan's, for
        // single and composite keys.
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
            for keep_groups in [false, true] {
                let pc = distinction(&chunked, &key_cols, keep_groups)
                    .unwrap()
                    .positions;
                let pm = distinction(&mono, &key_cols, keep_groups)
                    .unwrap()
                    .positions;
                assert_eq!(pc, pm, "positions differ for key {key_cols:?}");
                assert!(pc.windows(2).all(|w| w[0] < w[1]), "positions sorted");
            }
        }
    }

    /// The first `(column, row)` of `fd` whose value differs from the one
    /// at its key's first row, scanning each column of `fd` in turn over
    /// every row: Property 2 checked serially over the whole table.
    fn serial_fd_violation(
        rows: &[Vec<i64>],
        key: &[usize],
        fd: &[usize],
    ) -> Option<(usize, usize)> {
        fd.iter().find_map(|&c| {
            let mut rep: std::collections::HashMap<Vec<i64>, i64> = Default::default();
            rows.iter().enumerate().find_map(|(r, row)| {
                let k = key.iter().map(|&i| row[i]).collect();
                (*rep.entry(k).or_insert(row[c]) != row[c]).then_some((c, r))
            })
        })
    }

    #[test]
    fn property_2_across_chunks_reports_what_a_serial_scan_does() {
        // R(a, b, c, d) over 16-row segments, with a → (c, d) by
        // construction, then values of c and d overwritten: a single
        // row, every row of one key in one chunk (the chunk agrees with
        // itself, but its first row of that key — its local
        // representative — differs from the global one), and seeded
        // scatters. DECOMPOSE must fail exactly when the serial scan finds
        // a violation, naming its column and row.
        let schema = Schema::build(
            &[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
                ("d", ValueType::Int),
            ],
            &[],
        )
        .unwrap();
        let names = ["a", "b", "c", "d"];
        let base: Vec<Vec<i64>> = (0..400i64)
            .map(|i| {
                let (a, b) = (i * 7 % 13, i % 2);
                vec![a, b, a * 3 + 1, a % 4]
            })
            .collect();
        type Edit = Box<dyn Fn(&mut Vec<Vec<i64>>)>;
        let mut cases: Vec<Edit> = vec![
            Box::new(|_| {}),
            Box::new(|t| t[200][3] += 100),
            // Key a = 5 throughout the fourth chunk (rows 48..64).
            Box::new(|t| {
                t[48..64]
                    .iter_mut()
                    .filter(|r| r[0] == 5)
                    .for_each(|r| r[2] += 100)
            }),
            // The same in d, and a later single row in c: c is named.
            Box::new(|t| {
                t[48..64]
                    .iter_mut()
                    .filter(|r| r[0] == 5)
                    .for_each(|r| r[3] += 100);
                t[300][2] += 1;
            }),
            // A local violation after a chunk-level one in the same chunk.
            Box::new(|t| {
                t[64..80]
                    .iter_mut()
                    .filter(|r| r[0] == 1)
                    .for_each(|r| r[3] += 100);
                t[79][3] += 1;
            }),
        ];
        for seed in 1..40u64 {
            cases.push(Box::new(move |t| {
                let mut x = seed;
                for _ in 0..(seed % 4) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let row = (x >> 33) as usize % t.len();
                    let col = 2 + (x >> 13) as usize % 2;
                    if x >> 7 & 1 == 1 {
                        // Every row of this row's key in its chunk.
                        let (chunk, key) = (row / 16 * 16, t[row][0]);
                        let end = (chunk + 16).min(t.len());
                        t[chunk..end]
                            .iter_mut()
                            .filter(|r| r[0] == key)
                            .for_each(|r| r[col] += 1);
                    } else {
                        t[row][col] += 1;
                    }
                }
            }));
        }
        let mut violations = 0;
        for (i, edit) in cases.iter().enumerate() {
            let mut rows = base.clone();
            edit(&mut rows);
            let values: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| r.iter().map(|&v| Value::int(v)).collect())
                .collect();
            let table =
                Table::from_rows_with_segment_rows("R", schema.clone(), &values, 16).unwrap();
            for key in [vec![0usize], vec![0, 1]] {
                let mut changed: Vec<&str> = key.iter().map(|&k| names[k]).collect();
                changed.extend(["c", "d"]);
                let spec = DecomposeSpec::new("S", &["a", "b"], "T", &changed);
                let got = decompose(&table, &spec);
                match serial_fd_violation(&rows, &key, &[2, 3]) {
                    None => assert!(got.is_ok(), "case {i}, key {key:?}: {:?}", got.err()),
                    Some((c, row)) => {
                        violations += 1;
                        let want = format!(
                            "column {:?} differs within key group at row {row}: \
                             the decomposition would lose data",
                            names[c]
                        );
                        match got {
                            Err(EvolutionError::FdViolation(m)) => {
                                assert_eq!(m, want, "case {i}, key {key:?}")
                            }
                            other => panic!("case {i}, key {key:?}: {other:?}"),
                        }
                    }
                }
            }
        }
        assert!(violations > 40, "{violations} violating cases");
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
