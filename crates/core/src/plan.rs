//! **Planned evolution** — the validate-then-commit execution surface.
//!
//! [`Cods::plan`](crate::Cods::plan) resolves and validates an *entire* SMO
//! script against one catalog snapshot before any data moves:
//!
//! 1. **Validate** — a *dry run*: every operator runs, in script order,
//!    through its own executor (`exec::run_smo`) over a workspace in
//!    which each table the script reads is an empty copy. The executors'
//!    own checks (names, columns and types, union compatibility,
//!    decomposition shape, join attributes) therefore refuse a malformed
//!    statement anywhere in the script before any data moves, and each
//!    operator sees the schemas the earlier ones produced — the run-time
//!    schemas, made by the same code. Only what the data decides (a
//!    functional dependency, a foreign key, a forced key's uniqueness) is
//!    left for execution.
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

use crate::error::Result;
use crate::exec::{self, PlanReport, Workspace};
use crate::platform::Cods;
use crate::simple_ops::create_table;
use crate::smo::Smo;
use cods_storage::{StepLog, Table};
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

#[derive(Default)]
struct NameState {
    last_writer: Option<usize>,
    readers: Vec<usize>,
}

impl<'c> EvolutionPlan<'c> {
    /// Validates and plans `smos` against a snapshot of `cods`'s catalog.
    pub(crate) fn new(cods: &'c Cods, smos: Vec<Smo>) -> Result<EvolutionPlan<'c>> {
        let mut log = StepLog::new();
        let (base_version, snapshot) = cods.catalog().begin_evolution();
        // The dry run's workspace: the snapshot, every table the script
        // reads replaced by an empty copy. The other tables are there for
        // the name checks only; no operator fetches them.
        let mut dry: Workspace = snapshot.clone();
        for name in smos.iter().flat_map(Smo::inputs) {
            if let Some(t) = snapshot.get(name) {
                let empty = create_table(name, t.schema().clone())?;
                dry.insert(name.to_string(), Arc::new(empty));
            }
        }

        let mut nodes: Vec<PlanNode> = Vec::with_capacity(smos.len());
        let mut names: HashMap<String, NameState> = HashMap::new();
        let mut written: BTreeSet<String> = BTreeSet::new();

        for smo in smos {
            let (_, writes) = exec::run_smo(&smo, &dry)?.apply(&mut dry);
            written.extend(writes.iter().cloned());

            // New node: read-after-write, then write-after-(read|write).
            let idx = nodes.len();
            let mut deps: BTreeSet<usize> = BTreeSet::new();
            for r in smo.inputs() {
                let st = names.entry(r.to_string()).or_default();
                if let Some(w) = st.last_writer {
                    deps.insert(w);
                }
                st.readers.push(idx);
            }
            for w in writes {
                let st = names.entry(w).or_default();
                // A node that writes the same name twice (PARTITION back
                // into its input, UNION into one of its inputs) or reads
                // what it writes (DROP TABLE) must not depend on itself.
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
            .filter(|n| !dry.contains_key(*n) && !snapshot.contains_key(*n))
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
    /// any node, or a
    /// [`StorageError::Conflict`](cods_storage::StorageError::Conflict)
    /// because the catalog moved since the plan was taken — leaves the
    /// catalog completely untouched.
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
    use crate::error::EvolutionError;
    use cods_storage::{ColumnDef, Schema, Value, ValueType};

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
                    default: Value::int(7),
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
    fn dry_run_tracks_schema_through_the_chain() {
        let cods = platform();
        // Decompose, then operate on its outputs: valid only if the dry
        // run carries the projected schemas forward.
        let plan = cods
            .plan_script(
                "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
                 RENAME COLUMN a TO attr IN S\n\
                 MERGE TABLES S, T INTO R2",
            )
            .unwrap();
        assert_eq!(plan.nodes().len(), 3);
        // Renaming the join column away must be caught at plan time: the
        // dry run's S and T then share no column.
        let err = cods.plan_script(
            "DECOMPOSE TABLE R INTO S (k, a), T (k, d)\n\
             RENAME COLUMN k TO key2 IN T\n\
             MERGE TABLES S, T INTO R2",
        );
        assert!(matches!(err, Err(EvolutionError::NoCommonColumns(_))));
        assert_eq!(cods.catalog().table_names(), vec!["R"]);
    }
}
