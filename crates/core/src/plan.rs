//! **Planned evolution** — the validate-then-commit execution surface.
//!
//! [`Cods::plan`](crate::Cods::plan) resolves and validates an *entire* SMO
//! script against one catalog snapshot before any data moves:
//!
//! 1. **Validate** — every operator is checked against a *shadow catalog*
//!    of predicted schemas (names, column existence and types, union
//!    compatibility, decomposition shape, join attributes), so a malformed
//!    statement anywhere in the script errors before any work runs.
//! 2. **Execute** — each operator is one node of a dependency DAG over
//!    table names (read-after-write, write-after-read, write-after-write),
//!    cut into waves; independent branches of each wave dispatch
//!    concurrently through the one fan-out (see [`crate::exec`]). Nodes
//!    run against an in-memory workspace, so intermediate tables consumed
//!    within the plan never enter the catalog.
//! 3. **Commit** — all catalog mutations are staged and applied in one
//!    atomic [`Catalog`](cods_storage::Catalog) transaction: a mid-script
//!    failure (an FD violation three operators in, say) leaves the catalog
//!    exactly as the snapshot saw it.

use crate::error::{EvolutionError, Result};
use crate::exec::{self, PlanReport};
use crate::merge;
use crate::platform::Cods;
use crate::schema_tools::check_decomposition_shape;
use crate::smo::Smo;
use cods_storage::{Schema, StepLog, StorageError, Table};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One node of the plan DAG.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// The operator the node executes.
    pub smo: Smo,
    /// Indices of the nodes this one must run after.
    pub deps: Vec<usize>,
    /// The execution wave (0 = no dependencies).
    pub wave: usize,
}

/// A validated, DAG-ordered evolution script bound to the catalog
/// snapshot it was planned against. Run it with
/// [`execute`](EvolutionPlan::execute); inspect it with
/// [`describe`](EvolutionPlan::describe).
pub struct EvolutionPlan<'c> {
    pub(crate) cods: &'c Cods,
    pub(crate) base_version: u64,
    pub(crate) snapshot: BTreeMap<String, Arc<Table>>,
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) waves: Vec<Vec<usize>>,
    /// The plan's step log so far: its one step, "planning".
    pub(crate) log: StepLog,
    /// Tables written during the plan that never reach the committed
    /// catalog (consumed by later operators).
    elided: Vec<String>,
}

/// The shadow effect of one operator: what it reads and writes, by name.
struct Effect {
    reads: Vec<String>,
    writes: Vec<String>,
}

#[derive(Default)]
struct NameState {
    last_writer: Option<usize>,
    readers: Vec<usize>,
}

fn unknown(name: &str) -> EvolutionError {
    EvolutionError::Storage(StorageError::UnknownTable(name.to_string()))
}

fn exists(name: &str) -> EvolutionError {
    EvolutionError::Storage(StorageError::TableExists(name.to_string()))
}

fn expect<'s>(shadow: &'s BTreeMap<String, Schema>, name: &str) -> Result<&'s Schema> {
    shadow.get(name).ok_or_else(|| unknown(name))
}

fn expect_absent(shadow: &BTreeMap<String, Schema>, name: &str) -> Result<()> {
    if shadow.contains_key(name) {
        return Err(exists(name));
    }
    Ok(())
}

/// Validates `smo` against the shadow catalog and applies its schema-level
/// effect, mirroring the runtime executors' checks and output schemas
/// exactly (including which operators preserve key declarations).
fn shadow_apply(shadow: &mut BTreeMap<String, Schema>, smo: &Smo) -> Result<Effect> {
    let eff = |reads: Vec<&str>, writes: Vec<&str>| Effect {
        reads: reads.into_iter().map(str::to_string).collect(),
        writes: writes.into_iter().map(str::to_string).collect(),
    };
    match smo {
        Smo::CreateTable { name, schema } => {
            expect_absent(shadow, name)?;
            shadow.insert(name.clone(), schema.clone());
            Ok(eff(vec![], vec![name]))
        }
        Smo::DropTable { name } => {
            expect(shadow, name)?;
            shadow.remove(name);
            Ok(eff(vec![], vec![name]))
        }
        Smo::RenameTable { from, to } => {
            let s = expect(shadow, from)?.clone();
            expect_absent(shadow, to)?;
            shadow.remove(from);
            shadow.insert(to.clone(), s);
            Ok(eff(vec![from], vec![from, to]))
        }
        Smo::CopyTable { from, to } => {
            let s = expect(shadow, from)?.clone();
            expect_absent(shadow, to)?;
            shadow.insert(to.clone(), s);
            Ok(eff(vec![from], vec![to]))
        }
        Smo::UnionTables {
            left,
            right,
            output,
            drop_inputs,
        } => {
            let l = expect(shadow, left)?.clone();
            let r = expect(shadow, right)?;
            if !l.union_compatible(r) {
                return Err(EvolutionError::InvalidOperator(format!(
                    "tables {left:?} and {right:?} are not union-compatible"
                )));
            }
            if shadow.contains_key(output) && output != left && output != right {
                return Err(exists(output));
            }
            let mut writes = vec![output.as_str()];
            if *drop_inputs {
                shadow.remove(left);
                shadow.remove(right);
                writes.push(left);
                if right != left {
                    writes.push(right);
                }
            }
            shadow.insert(output.clone(), Schema::new(l.columns().to_vec())?);
            Ok(eff(vec![left, right], writes))
        }
        Smo::PartitionTable {
            input,
            predicate,
            satisfying,
            rest,
        } => {
            let s = expect(shadow, input)?.clone();
            for c in predicate.columns() {
                s.column(c)?;
            }
            if satisfying == rest {
                return Err(exists(rest));
            }
            if satisfying != input {
                expect_absent(shadow, satisfying)?;
            }
            if rest != input {
                expect_absent(shadow, rest)?;
            }
            let out = Schema::new(s.columns().to_vec())?;
            shadow.remove(input);
            shadow.insert(satisfying.clone(), out.clone());
            shadow.insert(rest.clone(), out);
            Ok(eff(vec![input], vec![input, satisfying, rest]))
        }
        Smo::DecomposeTable { input, spec } => {
            let s = expect(shadow, input)?.clone();
            if spec.unchanged_name == spec.changed_name {
                return Err(exists(&spec.changed_name));
            }
            if spec.unchanged_name != *input {
                expect_absent(shadow, &spec.unchanged_name)?;
            }
            if spec.changed_name != *input {
                expect_absent(shadow, &spec.changed_name)?;
            }
            let common = check_decomposition_shape(&s, &spec.unchanged_cols, &spec.changed_cols)?;
            let unchanged_names: Vec<&str> =
                spec.unchanged_cols.iter().map(String::as_str).collect();
            let changed_names: Vec<&str> = spec.changed_cols.iter().map(String::as_str).collect();
            let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
            let unchanged = s.project(&unchanged_names, &[])?;
            let changed = s.project(&changed_names, &common_refs)?;
            shadow.remove(input);
            shadow.insert(spec.unchanged_name.clone(), unchanged);
            shadow.insert(spec.changed_name.clone(), changed);
            Ok(eff(
                vec![input],
                vec![input, &spec.unchanged_name, &spec.changed_name],
            ))
        }
        Smo::MergeTables {
            left,
            right,
            output,
            strategy,
        } => {
            let l = expect(shadow, left)?.clone();
            let r = expect(shadow, right)?.clone();
            if shadow.contains_key(output) {
                return Err(exists(output));
            }
            let join = crate::schema_tools::common_columns(&l, &r);
            if join.is_empty() {
                return Err(EvolutionError::NoCommonColumns(format!(
                    "{left} and {right}"
                )));
            }
            merge::validate_join_schemas(&l, &r, left, right, &join)?;
            let out = match strategy {
                crate::merge::MergeStrategy::KeyForeignKey { keyed } if keyed == left => {
                    merge::merged_schema(&r, &l, &join)?
                }
                crate::merge::MergeStrategy::KeyForeignKey { keyed }
                    if keyed != left && keyed != right =>
                {
                    return Err(EvolutionError::InvalidOperator(format!(
                        "keyed table {keyed:?} is neither input"
                    )));
                }
                _ => merge::merged_schema(&l, &r, &join)?,
            };
            shadow.insert(output.clone(), out);
            Ok(eff(vec![left, right], vec![output]))
        }
        // The column operators share their validation + schema logic with
        // the executor (`simple_ops::*_column_schema`), so the prediction
        // here is the run-time schema by construction.
        Smo::AddColumn {
            table,
            column,
            fill,
        } => {
            let s = expect(shadow, table)?.clone();
            shadow.insert(
                table.clone(),
                crate::simple_ops::add_column_schema(&s, column, fill)?,
            );
            Ok(eff(vec![table], vec![table]))
        }
        Smo::DropColumn { table, column } => {
            let s = expect(shadow, table)?.clone();
            shadow.insert(
                table.clone(),
                crate::simple_ops::drop_column_schema(&s, column)?,
            );
            Ok(eff(vec![table], vec![table]))
        }
        Smo::RenameColumn { table, from, to } => {
            let s = expect(shadow, table)?.clone();
            shadow.insert(
                table.clone(),
                crate::simple_ops::rename_column_schema(&s, from, to)?,
            );
            Ok(eff(vec![table], vec![table]))
        }
    }
}

impl<'c> EvolutionPlan<'c> {
    /// Validates and plans `smos` against a snapshot of `cods`'s catalog.
    pub(crate) fn new(cods: &'c Cods, smos: Vec<Smo>) -> Result<EvolutionPlan<'c>> {
        let mut log = StepLog::new();
        let (base_version, snapshot) = cods.catalog().begin_evolution();
        let mut shadow: BTreeMap<String, Schema> = snapshot
            .iter()
            .map(|(n, t)| (n.clone(), t.schema().clone()))
            .collect();

        let mut nodes: Vec<PlanNode> = Vec::with_capacity(smos.len());
        let mut names: HashMap<String, NameState> = HashMap::new();
        let mut written: BTreeSet<String> = BTreeSet::new();

        for smo in smos {
            let effect = shadow_apply(&mut shadow, &smo)?;
            written.extend(effect.writes.iter().cloned());

            // New node: read-after-write, then write-after-(read|write).
            let idx = nodes.len();
            let mut deps: BTreeSet<usize> = BTreeSet::new();
            for r in &effect.reads {
                let st = names.entry(r.clone()).or_default();
                if let Some(w) = st.last_writer {
                    deps.insert(w);
                }
                st.readers.push(idx);
            }
            for w in &effect.writes {
                let st = names.entry(w.clone()).or_default();
                // A node that writes the same name twice (PARTITION back
                // into its input, UNION into one of its inputs) must not
                // depend on itself.
                if let Some(lw) = st.last_writer.filter(|&lw| lw != idx) {
                    deps.insert(lw);
                }
                for &r in &st.readers {
                    if r != idx {
                        deps.insert(r);
                    }
                }
                st.last_writer = Some(idx);
                st.readers.clear();
            }
            nodes.push(PlanNode {
                smo,
                deps: deps.into_iter().collect(),
                wave: 0,
            });
        }

        // Waves: the length of the longest dependency chain to each node.
        for i in 0..nodes.len() {
            let wave = nodes[i]
                .deps
                .iter()
                .map(|&d| nodes[d].wave + 1)
                .max()
                .unwrap_or(0);
            nodes[i].wave = wave;
        }
        let n_waves = nodes.iter().map(|n| n.wave + 1).max().unwrap_or(0);
        let mut waves: Vec<Vec<usize>> = vec![Vec::new(); n_waves];
        for (i, n) in nodes.iter().enumerate() {
            waves[n.wave].push(i);
        }

        // Intermediates created and consumed within the plan never enter
        // the catalog (names that existed in the snapshot and end up gone
        // are ordinary drops, not elisions).
        let elided: Vec<String> = written
            .iter()
            .filter(|n| !shadow.contains_key(*n) && !snapshot.contains_key(*n))
            .cloned()
            .collect();

        log.mark("planning");
        Ok(EvolutionPlan {
            cods,
            base_version,
            snapshot,
            nodes,
            waves,
            log,
            elided,
        })
    }

    /// The plan's nodes, in script order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The execution waves: node indices grouped by dependency depth.
    pub fn waves(&self) -> &[Vec<usize>] {
        &self.waves
    }

    /// Tables produced during the plan that never reach the catalog.
    pub fn elided_intermediates(&self) -> &[String] {
        &self.elided
    }

    /// The catalog version the plan was validated against.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// Executes the plan: each wave's nodes run concurrently against an
    /// in-memory workspace, and on success every catalog mutation commits
    /// in one atomic transaction. Any failure — a data-dependent error in
    /// any node, or a [`StorageError::Conflict`] because the catalog moved
    /// since the plan was taken — leaves the catalog completely untouched.
    pub fn execute(&self) -> Result<PlanReport> {
        let mut report = exec::run(self)?;
        self.cods.record_plan(&mut report);
        Ok(report)
    }

    /// Renders the DAG and the staging summary — what the CLI `plan`
    /// command prints.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} node{} in {} wave{}, catalog version {}\n",
            self.nodes.len(),
            if self.nodes.len() == 1 { "" } else { "s" },
            self.waves.len(),
            if self.waves.len() == 1 { "" } else { "s" },
            self.base_version,
        ));
        for (w, wave) in self.waves.iter().enumerate() {
            out.push_str(&format!("wave {w}:\n"));
            for &i in wave {
                let node = &self.nodes[i];
                if node.deps.is_empty() {
                    out.push_str(&format!("  [{i}] {}\n", node.smo));
                } else {
                    let deps: Vec<String> = node.deps.iter().map(|d| format!("{d}")).collect();
                    out.push_str(&format!(
                        "  [{i}] {}  (after {})\n",
                        node.smo,
                        deps.join(", ")
                    ));
                }
            }
        }
        if self.elided.is_empty() {
            out.push_str("no intermediate tables elided\n");
        } else {
            out.push_str(&format!(
                "elided intermediates (never enter the catalog): {}\n",
                self.elided.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::DecomposeSpec;
    use crate::simple_ops::ColumnFill;
    use cods_storage::{ColumnDef, Value, ValueType};

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
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::int(i % 4), Value::int(i), Value::int((i % 4) * 10)])
            .collect();
        cods.catalog()
            .create(Table::from_rows("R", schema, &rows).unwrap())
            .unwrap();
        cods
    }

    #[test]
    fn validation_rejects_before_any_work() {
        let cods = platform();
        // Third statement references a column the second one dropped.
        let err = cods
            .plan_script("COPY TABLE R TO R2\nDROP COLUMN a FROM R2\nRENAME COLUMN a TO b IN R2");
        assert!(err.is_err());
        assert_eq!(cods.catalog().table_names(), vec!["R"]);
    }

    #[test]
    fn reader_between_column_ops_blocks_fusion() {
        let cods = platform();
        let plan = cods
            .plan_script(
                "ADD COLUMN x int DEFAULT 0 TO R\n\
                 COPY TABLE R TO R2\n\
                 DROP COLUMN x FROM R",
            )
            .unwrap();
        // The copy reads the intermediate version, so the drop cannot fuse
        // with the add; it depends on both the writer and the reader.
        assert_eq!(plan.nodes().len(), 3);
        assert_eq!(plan.nodes()[2].deps, vec![0, 1]);
    }

    #[test]
    fn independent_branches_share_a_wave() {
        let cods = platform();
        cods.plan(vec![Smo::CopyTable {
            from: "R".into(),
            to: "Q".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        let plan = cods
            .plan(vec![
                Smo::DecomposeTable {
                    input: "R".into(),
                    spec: DecomposeSpec::new("S", &["k", "a"], "T", &["k", "d"]),
                },
                Smo::AddColumn {
                    table: "Q".into(),
                    column: ColumnDef::new("extra", ValueType::Int),
                    fill: ColumnFill::Default(Value::int(7)),
                },
                Smo::MergeTables {
                    left: "S".into(),
                    right: "T".into(),
                    output: "R2".into(),
                    strategy: crate::merge::MergeStrategy::Auto,
                },
            ])
            .unwrap();
        assert_eq!(plan.waves().len(), 2);
        assert_eq!(plan.waves()[0], vec![0, 1]);
        assert_eq!(plan.waves()[1], vec![2]);
        assert_eq!(plan.nodes()[2].deps, vec![0]);
    }

    #[test]
    fn elided_intermediates_are_reported() {
        let cods = platform();
        let plan = cods
            .plan_script(
                "PARTITION TABLE R WHERE k < 2 INTO lo, hi\n\
                 UNION TABLES lo, hi INTO R\n\
                 DROP TABLE lo\nDROP TABLE hi",
            )
            .unwrap();
        assert_eq!(
            plan.elided_intermediates(),
            &["hi".to_string(), "lo".to_string()]
        );
    }

    #[test]
    fn double_write_of_one_name_is_not_a_self_dependency() {
        let cods = platform();
        // PARTITION writes R (drop) and R (satisfying output): one node,
        // one wave, no self-edge, no phantom empty stage.
        let plan = cods
            .plan_script("PARTITION TABLE R WHERE k < 2 INTO R, rest")
            .unwrap();
        assert_eq!(plan.nodes().len(), 1);
        assert!(
            plan.nodes()[0].deps.is_empty(),
            "{:?}",
            plan.nodes()[0].deps
        );
        assert_eq!(plan.waves(), &[vec![0]]);
        let report = plan.execute().unwrap();
        // planning, one wave, commit
        assert_eq!(report.log.steps.len(), 3);
        assert!(cods.catalog().contains("R") && cods.catalog().contains("rest"));
    }

    #[test]
    fn shadow_tracks_schema_through_the_chain() {
        let cods = platform();
        // Decompose, then operate on the *predicted* outputs: valid only if
        // the shadow catalog carries the projected schemas forward.
        let plan = cods
            .plan_script(
                "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
                 RENAME COLUMN a TO attr IN S\n\
                 MERGE TABLES S, T INTO R2",
            )
            .unwrap();
        assert_eq!(plan.nodes().len(), 3);
        // Renaming the join column away must be caught at plan time: the
        // predicted schemas of S and T then share no column.
        let err = cods.plan_script(
            "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
             RENAME COLUMN k TO key2 IN T\n\
             MERGE TABLES S, T INTO R2",
        );
        assert!(matches!(err, Err(EvolutionError::NoCommonColumns(_))));
        assert_eq!(cods.catalog().table_names(), vec!["R"]);
    }
}
