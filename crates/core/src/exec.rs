//! **Plan execution** — waves of independent operators over an in-memory
//! workspace, then one atomic catalog commit.
//!
//! The executor never touches the catalog while running: every node reads
//! input tables from (and writes output tables to) a workspace seeded with
//! the plan's snapshot. Intermediates therefore live only in memory, a
//! failing node anywhere aborts the whole plan with the catalog untouched,
//! and the final state lands through
//! [`Catalog::commit_evolution`](cods_storage::Catalog::commit_evolution)
//! in a single write-locked step — or not at all, if the catalog moved
//! since the snapshot ([`StorageError::Conflict`](cods_storage::StorageError)).

use crate::decompose::decompose;
use crate::error::{EvolutionError, Result};
use crate::merge::merge;
use crate::plan::{EvolutionPlan, PlanOp};
use crate::platform::ExecutionRecord;
use crate::simple_ops::{self, ColumnFill};
use crate::smo::Smo;
use crate::status::{EvolutionStatus, PlanLog, PlanStageLog, StatusTracker};
use cods_query::par::map_parallel;
use cods_storage::{ColumnDef, EncodedColumn, Schema, StorageError, Table};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The in-memory table namespace a plan executes against.
pub(crate) type Workspace = BTreeMap<String, Arc<Table>>;

/// The result of one executed plan.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Per-node execution records, in node order (also appended to the
    /// platform history, grouped under one plan id).
    pub records: Vec<ExecutionRecord>,
    /// Per-stage log: planning, waves, commit.
    pub log: PlanLog,
    /// Tables the nodes produced in total — what an eager one-at-a-time
    /// execution would have materialized into the catalog.
    pub staged_puts: usize,
    /// Tables actually written by the atomic commit.
    pub committed_puts: usize,
    /// Tables the atomic commit removed.
    pub committed_drops: usize,
    /// Intermediate tables that never entered the catalog.
    pub elided: Vec<String>,
}

/// What one node hands back: catalog-free mutations plus its status log.
struct NodeOutcome {
    drops: Vec<String>,
    puts: Vec<Table>,
    status: EvolutionStatus,
}

fn get(ws: &Workspace, name: &str) -> Result<Arc<Table>> {
    ws.get(name)
        .cloned()
        .ok_or_else(|| EvolutionError::Storage(StorageError::UnknownTable(name.to_string())))
}

fn run_smo(smo: &Smo, ws: &Workspace) -> Result<NodeOutcome> {
    let none = EvolutionStatus::default();
    match smo {
        Smo::CreateTable { name, schema } => Ok(NodeOutcome {
            drops: vec![],
            puts: vec![simple_ops::create_table(name, schema.clone())?],
            status: none,
        }),
        Smo::DropTable { name } => {
            get(ws, name)?;
            Ok(NodeOutcome {
                drops: vec![name.clone()],
                puts: vec![],
                status: none,
            })
        }
        Smo::RenameTable { from, to } => {
            let t = get(ws, from)?;
            Ok(NodeOutcome {
                drops: vec![from.clone()],
                puts: vec![t.renamed(to)],
                status: none,
            })
        }
        Smo::CopyTable { from, to } => {
            let t = get(ws, from)?;
            Ok(NodeOutcome {
                drops: vec![],
                puts: vec![t.renamed(to)],
                status: none,
            })
        }
        Smo::UnionTables {
            left,
            right,
            output,
            drop_inputs,
        } => {
            let l = get(ws, left)?;
            let r = get(ws, right)?;
            let (t, status) = simple_ops::union_tables(&l, &r, output)?;
            let mut drops = Vec::new();
            if *drop_inputs {
                drops.push(left.clone());
                if right != left {
                    drops.push(right.clone());
                }
            }
            Ok(NodeOutcome {
                drops,
                puts: vec![t],
                status,
            })
        }
        Smo::PartitionTable {
            input,
            predicate,
            satisfying,
            rest,
        } => {
            let t = get(ws, input)?;
            let (sat, others, status) =
                simple_ops::partition_table(&t, predicate, satisfying, rest)?;
            Ok(NodeOutcome {
                drops: vec![input.clone()],
                puts: vec![sat, others],
                status,
            })
        }
        Smo::DecomposeTable { input, spec } => {
            let t = get(ws, input)?;
            let out = decompose(&t, spec)?;
            Ok(NodeOutcome {
                drops: vec![input.clone()],
                puts: vec![out.unchanged, out.changed],
                status: out.status,
            })
        }
        Smo::MergeTables {
            left,
            right,
            output,
            strategy,
        } => {
            let l = get(ws, left)?;
            let r = get(ws, right)?;
            let out = merge(&l, &r, output, strategy)?;
            Ok(NodeOutcome {
                drops: vec![],
                puts: vec![out.output],
                status: out.status,
            })
        }
        Smo::AddColumn {
            table,
            column,
            fill,
        } => {
            let t = get(ws, table)?;
            let (out, status) = simple_ops::add_column(&t, column.clone(), fill)?;
            Ok(NodeOutcome {
                drops: vec![],
                puts: vec![out],
                status,
            })
        }
        Smo::DropColumn { table, column } => {
            let t = get(ws, table)?;
            let (out, status) = simple_ops::drop_column(&t, column)?;
            Ok(NodeOutcome {
                drops: vec![],
                puts: vec![out],
                status,
            })
        }
        Smo::RenameColumn { table, from, to } => {
            let t = get(ws, table)?;
            let (out, status) = simple_ops::rename_column(&t, from, to)?;
            Ok(NodeOutcome {
                drops: vec![],
                puts: vec![out],
                status,
            })
        }
    }
}

/// Where a fused output column comes from: carried over from the input
/// table, or built fresh by a surviving ADD COLUMN.
enum ColSource {
    Input(usize),
    Added { def: ColumnDef, fill: ColumnFill },
}

/// Runs a fused ADD / DROP / RENAME COLUMN chain as one per-table pass:
/// the net column set is computed first, then carried columns are shared
/// by reference and each *surviving* added column is built exactly once —
/// an add that a later drop cancels costs nothing. The schema (including
/// key-declaration behavior) comes out exactly as the sequential ops would
/// produce it.
fn run_fused(table: &str, ops: &[Smo], ws: &Workspace) -> Result<NodeOutcome> {
    let input = get(ws, table)?;
    let mut tracker = StatusTracker::new();

    // Net effect: the running schema goes through the same
    // `simple_ops::*_column_schema` appliers the sequential executors use
    // (one source of truth for validation, ordering, and key behavior),
    // while `entries` tracks where each surviving column's data comes
    // from. The two stay position-aligned: add appends, drop removes in
    // place, rename renames in place.
    let mut schema: Schema = input.schema().clone();
    let mut entries: Vec<ColSource> = (0..input.arity()).map(ColSource::Input).collect();
    let mut cancelled = 0u64;
    for op in ops {
        match op {
            Smo::AddColumn { column, fill, .. } => {
                schema = simple_ops::add_column_schema(&schema, column, fill)?;
                entries.push(ColSource::Added {
                    def: column.clone(),
                    fill: fill.clone(),
                });
            }
            Smo::DropColumn { column, .. } => {
                let idx = schema.index_of(column)?;
                schema = simple_ops::drop_column_schema(&schema, column)?;
                if matches!(entries[idx], ColSource::Added { .. }) {
                    cancelled += 1;
                }
                entries.remove(idx);
            }
            Smo::RenameColumn { from, to, .. } => {
                schema = simple_ops::rename_column_schema(&schema, from, to)?;
            }
            other => {
                return Err(EvolutionError::InvalidOperator(format!(
                    "non-column operator in fused pass: {other}"
                )));
            }
        }
    }
    tracker.step_items("net column plan", ops.len() as u64);

    let mut columns: Vec<Arc<EncodedColumn>> = Vec::with_capacity(entries.len());
    let mut built = 0u64;
    for src in &entries {
        match src {
            ColSource::Input(i) => columns.push(Arc::clone(input.column(*i))),
            ColSource::Added { def, fill } => {
                columns.push(Arc::new(simple_ops::build_fill_column(
                    input.rows(),
                    def,
                    fill,
                )?));
                built += 1;
            }
        }
    }
    tracker.step_items("build surviving added columns", built);
    if cancelled > 0 {
        tracker.step_items("cancelled add-then-drop columns", cancelled);
    }
    let out = Table::new(table, schema, columns).map_err(EvolutionError::Storage)?;
    tracker.step("assemble fused table");
    Ok(NodeOutcome {
        drops: vec![],
        puts: vec![out],
        status: tracker.finish(),
    })
}

fn run_node(op: &PlanOp, ws: &Workspace) -> Result<NodeOutcome> {
    match op {
        PlanOp::Single(smo) => run_smo(smo, ws),
        PlanOp::FusedColumns { table, ops } => run_fused(table, ops, ws),
    }
}

/// Executes `plan`: waves run concurrently on the shared pool, mutations
/// stage into the workspace, and the final state commits atomically.
pub(crate) fn run(plan: &EvolutionPlan<'_>) -> Result<PlanReport> {
    let t0 = Instant::now();
    let mut ws: Workspace = plan.snapshot.clone();
    let mut stages: Vec<PlanStageLog> = Vec::with_capacity(plan.waves.len());
    let mut records: Vec<ExecutionRecord> = Vec::with_capacity(plan.nodes.len());
    let mut record_slots: Vec<Option<ExecutionRecord>> = Vec::new();
    record_slots.resize_with(plan.nodes.len(), || None);
    let mut staged_puts = 0usize;

    for (wave_idx, wave) in plan.waves.iter().enumerate() {
        // Every node in a wave only reads tables produced by earlier waves,
        // so the whole wave runs against one immutable workspace.
        let outcomes = map_parallel(wave.clone(), |i| run_node(&plan.nodes[i].op, &ws));
        let mut stage = PlanStageLog {
            wave: wave_idx,
            operators: Vec::with_capacity(wave.len()),
        };
        for (&i, outcome) in wave.iter().zip(outcomes) {
            // First failure aborts the whole plan: the workspace is
            // discarded and the catalog was never touched.
            let outcome = outcome?;
            staged_puts += outcome.puts.len();
            for d in &outcome.drops {
                ws.remove(d);
            }
            for t in outcome.puts {
                ws.insert(t.name().to_string(), Arc::new(t));
            }
            let operator = plan.nodes[i].op.to_string();
            stage
                .operators
                .push((operator.clone(), outcome.status.clone()));
            record_slots[i] = Some(ExecutionRecord {
                operator,
                status: outcome.status,
                plan_id: None,
            });
        }
        stages.push(stage);
    }

    // Stage the diff against the snapshot and commit it in one step.
    let commit_start = Instant::now();
    let mut drops: Vec<String> = Vec::new();
    for name in plan.snapshot.keys() {
        if !ws.contains_key(name) {
            drops.push(name.clone());
        }
    }
    let mut puts: Vec<Arc<Table>> = Vec::new();
    for (name, t) in &ws {
        match plan.snapshot.get(name) {
            Some(old) if Arc::ptr_eq(old, t) => {}
            _ => puts.push(Arc::clone(t)),
        }
    }
    let committed_puts = puts.len();
    let committed_drops = drops.len();
    // A plan whose net diff is empty (e.g. an empty script) commits
    // nothing: no version bump, no spurious conflicts for other in-flight
    // snapshots.
    let mut durable = false;
    if !drops.is_empty() || !puts.is_empty() {
        let receipt = plan
            .cods
            .catalog()
            .commit_evolution(plan.base_version, &drops, puts)
            .map_err(EvolutionError::Storage)?;
        durable = receipt.durable;
    }
    let commit = commit_start.elapsed();

    for slot in record_slots {
        records.push(slot.expect("every node executed"));
    }
    Ok(PlanReport {
        records,
        log: PlanLog {
            planning: plan.planning,
            stages,
            commit,
            total: plan.planning + t0.elapsed(),
            durable,
        },
        staged_puts,
        committed_puts,
        committed_drops,
        elided: plan.elided_intermediates().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Cods;
    use cods_storage::{Value, ValueType};

    fn platform() -> Cods {
        let cods = Cods::new();
        let schema = Schema::build(
            &[
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("d", ValueType::Int),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::int(i % 5), Value::int(i), Value::int((i % 5) * 3)])
            .collect();
        cods.catalog()
            .create(Table::from_rows("R", schema, &rows).unwrap())
            .unwrap();
        cods
    }

    #[test]
    fn fused_pass_matches_sequential_ops() {
        let seq = platform();
        seq.execute_all(
            crate::parse_script(
                "ADD COLUMN x int DEFAULT 9 TO R\n\
             RENAME COLUMN x TO y IN R\n\
             ADD COLUMN gone str DEFAULT 'z' TO R\n\
             DROP COLUMN gone FROM R\n\
             DROP COLUMN a FROM R",
            )
            .unwrap(),
        )
        .unwrap();

        let fused = platform();
        let report = fused
            .plan_script(
                "ADD COLUMN x int DEFAULT 9 TO R\n\
                 RENAME COLUMN x TO y IN R\n\
                 ADD COLUMN gone str DEFAULT 'z' TO R\n\
                 DROP COLUMN gone FROM R\n\
                 DROP COLUMN a FROM R",
            )
            .unwrap()
            .execute()
            .unwrap();
        // One node, one staged table, and the cancelled add was never built.
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.staged_puts, 1);
        let status = &report.records[0].status;
        assert_eq!(
            status.step("build surviving added columns").unwrap().items,
            Some(1)
        );
        assert_eq!(
            status
                .step("cancelled add-then-drop columns")
                .unwrap()
                .items,
            Some(1)
        );

        let a = seq.table("R").unwrap();
        let b = fused.table("R").unwrap();
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.to_rows(), b.to_rows());
        // Carried columns are shared with the input, not copied.
        assert!(b.schema().names().contains(&"k"));
    }

    #[test]
    fn failing_wave_leaves_catalog_untouched() {
        let cods = platform();
        // Force an FD violation: a does not functionally depend on k, so
        // the decompose fails at run time (after the COPY already ran).
        let plan = cods
            .plan_script("COPY TABLE R TO KEEP\nDECOMPOSE TABLE R INTO S (k, d), T (k, a)")
            .unwrap();
        let err = plan.execute();
        assert!(matches!(err, Err(EvolutionError::FdViolation(_))));
        // Nothing committed — not even the COPY that succeeded in wave 0.
        assert_eq!(cods.catalog().table_names(), vec!["R"]);
        assert!(cods.history().is_empty());
    }

    #[test]
    fn concurrent_catalog_mutation_conflicts() {
        let cods = platform();
        let plan = cods.plan_script("COPY TABLE R TO R2").unwrap();
        cods.execute(Smo::AddColumn {
            table: "R".into(),
            column: ColumnDef::new("racer", ValueType::Int),
            fill: ColumnFill::Default(Value::int(0)),
        })
        .unwrap();
        let err = plan.execute();
        assert!(matches!(
            err,
            Err(EvolutionError::Storage(StorageError::Conflict(_)))
        ));
        assert!(!cods.catalog().contains("R2"));
    }

    #[test]
    fn commit_stages_only_the_final_state() {
        let cods = platform();
        let v0 = cods.catalog().version();
        let report = cods
            .plan_script(
                "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
                 MERGE TABLES S, T INTO R2\n\
                 DROP TABLE S\nDROP TABLE T",
            )
            .unwrap()
            .execute()
            .unwrap();
        // The nodes staged 3 tables, but only R2 lands (plus R's drop):
        // S and T never enter the catalog.
        assert_eq!(report.staged_puts, 3);
        assert_eq!(report.committed_puts, 1);
        assert_eq!(report.committed_drops, 1);
        assert_eq!(report.elided, vec!["S".to_string(), "T".to_string()]);
        assert_eq!(cods.catalog().table_names(), vec!["R2"]);
        // One version bump for the whole script.
        assert_eq!(cods.catalog().version(), v0 + 1);
        assert_eq!(report.log.stages.len(), 3);
    }
}
