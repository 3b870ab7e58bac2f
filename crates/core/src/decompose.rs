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
//!    in `R`. The result is a sorted tuple-position list.
//! 3. **Bitmap filtering** — every bitmap of every `T` column is shrunk to
//!    that position list (`Wah::filter_positions`), producing `T`'s
//!    compressed bitmaps directly: no tuples are materialized, nothing is
//!    decompressed or re-compressed, and no index needs rebuilding.
//!
//! Property 2 (the key functionally determines `T`'s other attributes, so
//! any representative row suffices) is optionally verified in the same pass.
//!
//! When distinction keeps every row, the common attributes are already a
//! key of `R`: `T` is a column subset as well, and shares its columns with
//! `R` exactly as `S` does — step 3 and the Property 2 pass are skipped.

use crate::error::{EvolutionError, Result};
use crate::schema_tools::check_decomposition_shape;
use crate::status::{EvolutionStatus, StatusTracker};
use cods_query::par::map_parallel;
use cods_storage::{EncodedColumn, Table};
use std::collections::HashMap;
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
    pub status: EvolutionStatus,
}

/// The *distinction* step: the sorted list of first-occurrence positions of
/// every distinct combination of `key_cols`, plus (when `group_of_row` is
/// requested) the key-group index of every row for FD verification.
///
/// Works purely on value ids — dictionary values are never touched — and
/// fans out per row chunk (the key column's nominal segment size): each
/// pool task builds a *partial* map of the distinct keys in its chunk, in
/// local first-occurrence order, and the partials are merged in chunk order
/// so group numbering and first-occurrence positions come out exactly as a
/// single sequential scan would produce them. A second fan-out rewrites
/// each chunk's local group ids to global ones.
pub fn distinction(
    table: &Table,
    key_cols: &[usize],
    want_groups: bool,
) -> (Vec<u64>, Option<Vec<u32>>) {
    let rows = table.rows() as usize;
    if rows == 0 {
        return (Vec::new(), want_groups.then(Vec::new));
    }
    let id_cols: Vec<Vec<u32>> = key_cols
        .iter()
        .map(|&c| table.column(c).value_ids())
        .collect();
    let distinct = table.column(key_cols[0]).distinct_count();
    let chunk_rows = (table.column(key_cols[0]).nominal_segment_rows().max(1) as usize).min(rows);
    let starts: Vec<usize> = (0..rows).step_by(chunk_rows).collect();

    // Per-chunk partials: the chunk's distinct keys in local first-occurrence
    // order — (first row offset within the chunk, key ids) — plus, when
    // groups are requested, each row's local group index.
    struct Partial {
        firsts: Vec<(u32, Vec<u32>)>,
        local_groups: Option<Vec<u32>>,
    }
    let single = key_cols.len() == 1;
    // A dense per-chunk group table costs O(distinct) zeroing per chunk —
    // fine while the dictionary is small relative to a chunk, ruinous for
    // high-cardinality keys (distinct ≈ rows would make the fan-out
    // O(chunks × rows)); fall back to a hash map keyed by ids actually
    // seen, like `SegmentChunk::from_ids`.
    let dense = distinct as u64 <= (chunk_rows as u64).max(4096);
    let partials: Vec<Partial> = map_parallel(starts.clone(), |start| {
        let end = (start + chunk_rows).min(rows);
        let mut firsts: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut local_groups: Option<Vec<u32>> =
            want_groups.then(|| Vec::with_capacity(end - start));
        if single && dense {
            // Fast path: group identity is the single column's value id.
            let ids = &id_cols[0][start..end];
            let mut group_of_id: Vec<u32> = vec![u32::MAX; distinct];
            for (off, &id) in ids.iter().enumerate() {
                let slot = &mut group_of_id[id as usize];
                if *slot == u32::MAX {
                    *slot = firsts.len() as u32;
                    firsts.push((off as u32, vec![id]));
                }
                if let Some(g) = local_groups.as_mut() {
                    g.push(*slot);
                }
            }
        } else if single {
            let ids = &id_cols[0][start..end];
            let mut seen: HashMap<u32, u32> = HashMap::new();
            for (off, &id) in ids.iter().enumerate() {
                let next = seen.len() as u32;
                let group = *seen.entry(id).or_insert_with(|| {
                    firsts.push((off as u32, vec![id]));
                    next
                });
                if let Some(g) = local_groups.as_mut() {
                    g.push(group);
                }
            }
        } else {
            let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
            let mut key: Vec<u32> = vec![0; id_cols.len()];
            for row in start..end {
                for (slot, c) in key.iter_mut().zip(&id_cols) {
                    *slot = c[row];
                }
                // One clone per *miss* (new distinct key), not per row.
                let group = match seen.get(&key) {
                    Some(&g) => g,
                    None => {
                        let g = seen.len() as u32;
                        firsts.push(((row - start) as u32, key.clone()));
                        seen.insert(key.clone(), g);
                        g
                    }
                };
                if let Some(g) = local_groups.as_mut() {
                    g.push(group);
                }
            }
        }
        Partial {
            firsts,
            local_groups,
        }
    });

    // Sequential merge over the partial maps only — O(distinct keys per
    // chunk), not O(rows): chunks are visited in row order, so the first
    // chunk containing a key fixes its global group id and position.
    let mut positions: Vec<u64> = Vec::new();
    let mut local_to_global: Vec<Vec<u32>> = Vec::with_capacity(partials.len());
    if single {
        let mut group_of_id: Vec<u32> = vec![u32::MAX; distinct];
        for (&start, partial) in starts.iter().zip(&partials) {
            let mut map = Vec::with_capacity(partial.firsts.len());
            for (off, key) in &partial.firsts {
                let slot = &mut group_of_id[key[0] as usize];
                if *slot == u32::MAX {
                    *slot = positions.len() as u32;
                    positions.push(start as u64 + *off as u64);
                }
                map.push(*slot);
            }
            local_to_global.push(map);
        }
    } else {
        let mut seen: HashMap<&[u32], u32> = HashMap::new();
        for (&start, partial) in starts.iter().zip(&partials) {
            let mut map = Vec::with_capacity(partial.firsts.len());
            for (off, key) in &partial.firsts {
                let next = positions.len() as u32;
                let group = *seen.entry(key.as_slice()).or_insert_with(|| {
                    positions.push(start as u64 + *off as u64);
                    next
                });
                map.push(group);
            }
            local_to_global.push(map);
        }
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
    (positions, groups)
}

/// Bitmap-filters each column to `positions` with one pool task per
/// (column × segment) — both encodings fan out the same way; each task
/// produces a chunk in its column's encoding — then reassembles each
/// column's chunks into a fresh segment directory. Shared by DECOMPOSE and
/// PARTITION.
pub(crate) fn filter_columns_by_positions(
    columns: &[&EncodedColumn],
    positions: &[u64],
) -> Vec<Arc<EncodedColumn>> {
    // Task list: (column index, segment index, span of `positions`).
    let mut tasks = Vec::new();
    for (ci, col) in columns.iter().enumerate() {
        for (seg_idx, range) in col.position_spans(positions) {
            tasks.push((ci, seg_idx, range));
        }
    }
    let chunks = map_parallel(tasks, |(ci, seg_idx, range)| {
        (
            ci,
            columns[ci].filter_segment_chunk(seg_idx, &positions[range]),
        )
    });
    // Tasks were generated in ascending (column, segment) order and
    // map_parallel preserves order, so chunks splice back sequentially.
    let mut assemblers: Vec<cods_storage::EncodedAssembler> =
        columns.iter().map(|c| c.assembler()).collect();
    for (ci, chunk) in chunks {
        assemblers[ci].push_chunk(chunk);
    }
    columns
        .iter()
        .zip(assemblers)
        .map(|(col, asm)| Arc::new(col.from_assembler_compacting(asm)))
        .collect()
}

/// Mask-driven variant of [`filter_columns_by_positions`]: splits the
/// selection mask along each column's segment boundaries (compressed-form,
/// one pass) and fans out one task per (column × segment). Never
/// materializes a whole-column position list, so PARTITION's memory stays
/// O(segment) regardless of table size.
pub(crate) fn filter_columns_by_mask(
    columns: &[&EncodedColumn],
    mask: &cods_bitmap::Wah,
) -> Vec<Arc<EncodedColumn>> {
    let mut tasks = Vec::new();
    for (ci, col) in columns.iter().enumerate() {
        for (seg_idx, mask_seg) in col.split_mask(mask).into_iter().enumerate() {
            tasks.push((ci, seg_idx, mask_seg));
        }
    }
    let chunks = map_parallel(tasks, |(ci, seg_idx, mask_seg)| {
        (
            ci,
            columns[ci].filter_segment_mask_chunk(seg_idx, &mask_seg),
        )
    });
    let mut assemblers: Vec<cods_storage::EncodedAssembler> =
        columns.iter().map(|c| c.assembler()).collect();
    for (ci, chunk) in chunks {
        assemblers[ci].push_chunk(chunk);
    }
    columns
        .iter()
        .zip(assemblers)
        .map(|(col, asm)| Arc::new(col.from_assembler_compacting(asm)))
        .collect()
}

/// Executes a data-level decomposition of `input`.
///
/// Schema keys of the outputs: the changed table is keyed by the common
/// columns; the unchanged table keeps no key declaration.
pub fn decompose(input: &Table, spec: &DecomposeSpec) -> Result<DecomposeOutcome> {
    let mut tracker = StatusTracker::new();

    // Shape validation (coverage, overlap, existence).
    let common =
        check_decomposition_shape(input.schema(), &spec.unchanged_cols, &spec.changed_cols)?;
    tracker.step("validate decomposition shape");

    // Step 0 — reuse: the unchanged table shares the input's columns.
    let unchanged_names: Vec<&str> = spec.unchanged_cols.iter().map(String::as_str).collect();
    let unchanged_schema = input.schema().project(&unchanged_names, &[])?;
    let unchanged_columns: Vec<Arc<EncodedColumn>> = unchanged_names
        .iter()
        .map(|n| Ok(Arc::clone(input.column_by_name(n)?)))
        .collect::<Result<_>>()?;
    let unchanged = Table::new(&spec.unchanged_name, unchanged_schema, unchanged_columns)?;
    tracker.step_items("reuse unchanged columns", unchanged.arity() as u64);

    // Step 1 — distinction over the common (key) columns.
    let key_idx: Vec<usize> = common
        .iter()
        .map(|n| Ok(input.schema().index_of(n)?))
        .collect::<Result<_>>()?;
    let (positions, groups) = distinction(input, &key_idx, spec.verify_fd);
    tracker.step_items("distinction", positions.len() as u64);

    // Distinction kept every row: the common columns are already a key of
    // `R`, so the changed table is a column subset too. Property 2 holds
    // vacuously (every key group has one row) and nothing needs filtering.
    let key_is_unique = positions.len() as u64 == input.rows();

    // Property 2 — every row of a key group must agree with its
    // representative on the changed table's non-key columns.
    if let Some(groups) = groups.filter(|_| !key_is_unique) {
        for name in spec.changed_cols.iter().filter(|c| !common.contains(c)) {
            let ids = input.column_by_name(name)?.value_ids();
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
        tracker.step("verify functional dependency");
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
        tracker.step_items("reuse changed columns", changed_inputs.len() as u64);
        changed_inputs.into_iter().map(Arc::clone).collect()
    } else {
        // Step 2 — bitmap filtering of every changed-side column, fanned
        // out as one task per (column × input segment). Each task shrinks
        // one segment's bitmaps to the positions falling in its row range;
        // the chunks are then spliced back into segment directories per
        // column.
        let to_filter: Vec<&EncodedColumn> = changed_inputs.iter().map(|c| c.as_ref()).collect();
        let filtered = filter_columns_by_positions(&to_filter, &positions);
        tracker.step_items(
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
        status: tracker.finish(),
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
        let (positions, groups) = distinction(&r, &[0], true);
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
                let (pc, gc) = distinction(&chunked, &key_cols, want_groups);
                let (pm, gm) = distinction(&mono, &key_cols, want_groups);
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
