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
//!
//! `run_smo`, which runs one operator, is also how a plan checks its
//! script before any of this: the same function over empty copies of the
//! tables the script reads (see [`crate::plan`]).

use crate::decompose::decompose;
use crate::error::{EvolutionError, Result};
use crate::merge::merge;
use crate::plan::EvolutionPlan;
use crate::platform::ExecutionRecord;
use crate::simple_ops;
use crate::smo::Smo;
use cods_query::par::map_parallel;
use cods_storage::{StepLog, StorageError, Table};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-memory table namespace a plan executes against.
pub(crate) type Workspace = BTreeMap<String, Arc<Table>>;

/// The result of one executed plan.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Per-node execution records, in node order (also appended to the
    /// platform history, grouped under one plan id).
    pub records: Vec<ExecutionRecord>,
    /// The plan's step log: "planning", one step per wave (its items are
    /// the wave's operators), then the commit.
    pub log: StepLog,
    /// `true` when the commit was acknowledged by a durability sink (the
    /// catalog's commit log fsynced it) rather than being memory-only.
    pub durable: bool,
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
pub(crate) struct NodeOutcome {
    drops: Vec<String>,
    puts: Vec<Table>,
    status: StepLog,
}

impl NodeOutcome {
    /// Applies the drops, then the puts, to `ws`. Returns the status log
    /// and the names the node wrote: its drops, then its puts.
    pub(crate) fn apply(self, ws: &mut Workspace) -> (StepLog, Vec<String>) {
        let mut written = self.drops;
        for d in &written {
            ws.remove(d);
        }
        for t in self.puts {
            written.push(t.name().to_string());
            ws.insert(t.name().to_string(), Arc::new(t));
        }
        (self.status, written)
    }
}

fn get(ws: &Workspace, name: &str) -> Result<Arc<Table>> {
    ws.get(name)
        .cloned()
        .ok_or_else(|| EvolutionError::Storage(StorageError::UnknownTable(name.to_string())))
}

fn absent(ws: &Workspace, name: &str) -> Result<()> {
    if ws.contains_key(name) {
        return Err(exists(name));
    }
    Ok(())
}

fn exists(name: &str) -> EvolutionError {
    EvolutionError::Storage(StorageError::TableExists(name.to_string()))
}

/// The two outputs of a PARTITION or DECOMPOSE differ, and each is absent
/// or replaces the input.
fn split_outputs(ws: &Workspace, input: &str, a: &str, b: &str) -> Result<()> {
    if a == b {
        return Err(exists(b));
    }
    for name in [a, b] {
        if name != input {
            absent(ws, name)?;
        }
    }
    Ok(())
}

/// Runs one operator against `ws`: its checks, then its work. It reads
/// only the tables [`Smo::inputs`] names. A plan calls it twice: once in
/// script order over empty copies of those tables, which checks the
/// script and yields each node's writes (see [`crate::plan`]), and once
/// per node in [`run`], over the data.
pub(crate) fn run_smo(smo: &Smo, ws: &Workspace) -> Result<NodeOutcome> {
    let none = StepLog::new();
    match smo {
        Smo::CreateTable { name, schema } => {
            absent(ws, name)?;
            Ok(NodeOutcome {
                drops: vec![],
                puts: vec![simple_ops::create_table(name, schema.clone())?],
                status: none,
            })
        }
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
            absent(ws, to)?;
            Ok(NodeOutcome {
                drops: vec![from.clone()],
                puts: vec![t.renamed(to)],
                status: none,
            })
        }
        Smo::CopyTable { from, to } => {
            let t = get(ws, from)?;
            absent(ws, to)?;
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
            // The output may replace an input, no other table. Checked
            // after the union, so an incompatible pair is reported first.
            if output != left && output != right {
                absent(ws, output)?;
            }
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
            // After the predicate resolved: an unknown column comes first.
            split_outputs(ws, input, satisfying, rest)?;
            Ok(NodeOutcome {
                drops: vec![input.clone()],
                puts: vec![sat, others],
                status,
            })
        }
        Smo::DecomposeTable { input, spec } => {
            let t = get(ws, input)?;
            split_outputs(ws, input, &spec.unchanged_name, &spec.changed_name)?;
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
            absent(ws, output)?;
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
            default,
        } => {
            let t = get(ws, table)?;
            let (out, status) = simple_ops::add_column(&t, column.clone(), default)?;
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

/// Executes `plan`: each wave's nodes run concurrently, mutations stage
/// into the workspace, and the final state commits atomically.
pub(crate) fn run(plan: &EvolutionPlan<'_>) -> Result<PlanReport> {
    // The time between planning and execution stays out of the log.
    let mut log = plan.log.clone();
    log.resume();
    let mut ws: Workspace = plan.snapshot.clone();
    let mut records: Vec<ExecutionRecord> = Vec::with_capacity(plan.nodes.len());
    let mut record_slots: Vec<Option<ExecutionRecord>> = Vec::new();
    record_slots.resize_with(plan.nodes.len(), || None);
    let mut staged_puts = 0usize;

    for (wave_idx, wave) in plan.waves.iter().enumerate() {
        // Every node in a wave only reads tables produced by earlier waves,
        // so the whole wave runs against one immutable workspace. Only a
        // node that moves rows outlasts the start of a helper thread (0.1–1
        // ms on a busy 2-core host; the others name, share or drop tables
        // and columns in microseconds), so a wave with at most one such
        // node runs on this thread.
        let run = |&i: &usize| run_smo(&plan.nodes[i].smo, &ws);
        let moving = wave.iter().filter(|&&i| plan.nodes[i].smo.moves_rows());
        let outcomes: Vec<Result<NodeOutcome>> = if moving.count() > 1 {
            map_parallel(wave.iter().collect(), run)
        } else {
            wave.iter().map(run).collect()
        };
        for (&i, outcome) in wave.iter().zip(outcomes) {
            // First failure aborts the whole plan: the workspace is
            // discarded and the catalog was never touched.
            let outcome = outcome?;
            staged_puts += outcome.puts.len();
            let (status, _) = outcome.apply(&mut ws);
            record_slots[i] = Some(ExecutionRecord {
                operator: plan.nodes[i].smo.to_string(),
                status,
                plan_id: None,
            });
        }
        log.mark_items(format!("wave {wave_idx}"), wave.len() as u64);
    }

    // Stage the diff against the snapshot and commit it in one step.
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
    let commit = if durable {
        "commit (durable)"
    } else {
        "commit"
    };
    log.mark(commit);

    for slot in record_slots {
        records.push(slot.expect("every node executed"));
    }
    Ok(PlanReport {
        records,
        log,
        durable,
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
    use cods_storage::{ColumnDef, Schema, Value, ValueType};
    use std::time::Duration;

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
        cods.plan(vec![Smo::AddColumn {
            table: "R".into(),
            column: ColumnDef::new("racer", ValueType::Int),
            default: Value::int(0),
        }])
        .unwrap()
        .execute()
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
        // The plan log: planning, one step per wave whose items are its
        // operators, then the commit; the steps tile the total.
        let steps: Vec<(&str, Option<u64>)> = report
            .log
            .steps
            .iter()
            .map(|s| (s.name.as_str(), s.items))
            .collect();
        assert_eq!(
            steps,
            vec![
                ("planning", None),
                ("wave 0", Some(1)),
                ("wave 1", Some(1)),
                ("wave 2", Some(2)),
                ("commit", None),
            ]
        );
        let logged: Duration = report.log.steps.iter().map(|s| s.elapsed).sum();
        assert_eq!(logged, report.log.total);
    }
}
