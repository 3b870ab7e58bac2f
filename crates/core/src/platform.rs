//! The CODS platform: a catalog plus the SMO execution surface, with the
//! execution history / status log the demo exposes (Section 3).
//!
//! The primary surface is **planned** execution — [`Cods::plan`] /
//! [`Cods::plan_script`] validate a whole script up front, run its
//! independent operators in parallel waves, and commit atomically (see
//! [`crate::plan`]). A single operator is a one-element plan.

use crate::error::Result;
use crate::exec::PlanReport;
use crate::plan::EvolutionPlan;
use crate::smo::Smo;
use cods_storage::{Catalog, RetryPolicy, StepLog, Table};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One executed operator with its status log.
#[derive(Clone, Debug)]
pub struct ExecutionRecord {
    /// Rendered operator (e.g. `DECOMPOSE TABLE R INTO S (…), T (…)`).
    pub operator: String,
    /// Step log with timings.
    pub status: StepLog,
    /// The plan execution this record belongs to; records sharing an id
    /// were committed by the same atomic plan. `cods history` groups by it.
    pub plan_id: Option<u64>,
}

/// The CODS platform instance.
///
/// ```
/// use cods::{Cods, Smo, DecomposeSpec};
/// use cods_storage::{Schema, Table, Value, ValueType};
///
/// let cods = Cods::new();
/// let schema = Schema::build(
///     &[("employee", ValueType::Str), ("skill", ValueType::Str),
///       ("address", ValueType::Str)], &[]).unwrap();
/// let rows = vec![
///     vec![Value::str("Jones"), Value::str("Typing"), Value::str("425 Grant Ave")],
///     vec![Value::str("Jones"), Value::str("Shorthand"), Value::str("425 Grant Ave")],
/// ];
/// cods.catalog().create(Table::from_rows("R", schema, &rows).unwrap()).unwrap();
///
/// cods.plan(vec![Smo::DecomposeTable {
///     input: "R".into(),
///     spec: DecomposeSpec::new("S", &["employee", "skill"],
///                              "T", &["employee", "address"]),
/// }]).unwrap().execute().unwrap();
/// assert!(cods.catalog().contains("S"));
/// assert!(cods.catalog().contains("T"));
/// assert!(!cods.catalog().contains("R")); // input replaced by outputs
/// ```
#[derive(Default)]
pub struct Cods {
    catalog: Catalog,
    history: Mutex<Vec<ExecutionRecord>>,
    plan_seq: AtomicU64,
}

impl Cods {
    /// Creates a platform with an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a platform around an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Self {
        Cods {
            catalog,
            history: Mutex::new(Vec::new()),
            plan_seq: AtomicU64::new(0),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The execution history.
    pub fn history(&self) -> Vec<ExecutionRecord> {
        self.history.lock().clone()
    }

    /// Stamps a finished plan's records with a fresh plan id and appends
    /// them to the history, keeping each plan's records contiguous.
    pub(crate) fn record_plan(&self, report: &mut PlanReport) {
        let id = self.plan_seq.fetch_add(1, Ordering::Relaxed);
        for rec in &mut report.records {
            rec.plan_id = Some(id);
        }
        self.history.lock().extend(report.records.iter().cloned());
    }

    /// Fetches a table snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.catalog.get(name)?)
    }

    /// Plans a sequence of operators: the whole chain is resolved and
    /// validated against one catalog snapshot (names, schemas,
    /// decomposition shapes, join attributes — errors surface before any
    /// work) and arranged into a dependency DAG. Execute the
    /// returned [`EvolutionPlan`] with
    /// [`execute`](EvolutionPlan::execute) for parallel, all-or-nothing
    /// application.
    pub fn plan(&self, smos: Vec<Smo>) -> Result<EvolutionPlan<'_>> {
        EvolutionPlan::new(self, smos)
    }

    /// Parses an SMO script (see [`crate::parser`]) and plans it — the
    /// validate-then-commit path behind the CLI's `run` and `plan`
    /// commands.
    pub fn plan_script(&self, text: &str) -> Result<EvolutionPlan<'_>> {
        self.plan(crate::parser::parse_script(text)?)
    }

    /// Plans and executes a whole SMO script atomically, retrying the
    /// plan-validate-execute-commit cycle with bounded backoff when a
    /// concurrent writer wins the optimistic commit race. This is the
    /// serving layer's script surface: many sessions submit scripts
    /// against one catalog and conflicts resolve by re-planning rather
    /// than surfacing raw [`StorageError::Conflict`](cods_storage::StorageError::Conflict) — which is still
    /// returned once `policy.max_attempts` is exhausted.
    ///
    /// Parse and validation errors are deterministic and surface
    /// immediately, without consuming retry attempts.
    pub fn run_script_with_retry(&self, text: &str, policy: &RetryPolicy) -> Result<PlanReport> {
        let smos = crate::parser::parse_script(text)?;
        policy.run(|_| self.plan(smos.clone())?.execute())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::DecomposeSpec;
    use crate::merge::MergeStrategy;
    use cods_query::pred::Predicate;
    use cods_storage::{ColumnDef, Schema, Value, ValueType};

    fn platform_with_figure1() -> Cods {
        let cods = Cods::new();
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
        cods.catalog()
            .create(Table::from_rows("R", schema, &rows).unwrap())
            .unwrap();
        cods
    }

    fn figure1_decompose() -> Smo {
        Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["employee", "skill"], "T", &["employee", "address"]),
        }
    }

    #[test]
    fn decompose_then_merge_round_trip() {
        let cods = platform_with_figure1();
        let original = cods.table("R").unwrap().tuple_multiset();
        cods.plan(vec![figure1_decompose()])
            .unwrap()
            .execute()
            .unwrap();
        assert!(!cods.catalog().contains("R"));
        cods.plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("R").unwrap().tuple_multiset(), original);
        assert_eq!(cods.history().len(), 2);
        assert!(cods.history()[0].operator.starts_with("DECOMPOSE"));
    }

    #[test]
    fn create_rename_copy_drop() {
        let cods = Cods::new();
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        cods.plan(vec![Smo::CreateTable {
            name: "t".into(),
            schema,
        }])
        .unwrap()
        .execute()
        .unwrap();
        cods.plan(vec![Smo::CopyTable {
            from: "t".into(),
            to: "t2".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        cods.plan(vec![Smo::RenameTable {
            from: "t2".into(),
            to: "t3".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        cods.plan(vec![Smo::DropTable { name: "t".into() }])
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(cods.catalog().table_names(), vec!["t3"]);
        assert_eq!(cods.history().len(), 4);
    }

    #[test]
    fn partition_then_union_round_trip() {
        let cods = platform_with_figure1();
        let original = cods.table("R").unwrap().tuple_multiset();
        cods.plan(vec![Smo::PartitionTable {
            input: "R".into(),
            predicate: Predicate::eq("address", "425 Grant Ave"),
            satisfying: "grant".into(),
            rest: "industrial".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("grant").unwrap().rows(), 4);
        assert_eq!(cods.table("industrial").unwrap().rows(), 3);
        cods.plan(vec![Smo::UnionTables {
            left: "grant".into(),
            right: "industrial".into(),
            output: "R".into(),
            drop_inputs: true,
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("R").unwrap().tuple_multiset(), original);
        assert_eq!(cods.catalog().len(), 1);
    }

    #[test]
    fn column_smos() {
        let cods = platform_with_figure1();
        cods.plan(vec![Smo::AddColumn {
            table: "R".into(),
            column: ColumnDef::new("country", ValueType::Str),
            default: Value::str("US"),
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("R").unwrap().arity(), 4);
        cods.plan(vec![Smo::RenameColumn {
            table: "R".into(),
            from: "country".into(),
            to: "nation".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert!(cods.table("R").unwrap().schema().contains("nation"));
        cods.plan(vec![Smo::DropColumn {
            table: "R".into(),
            column: "nation".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(cods.table("R").unwrap().arity(), 3);
    }

    #[test]
    fn run_script_with_retry_survives_contention() {
        use std::sync::Arc;
        let cods = Arc::new(platform_with_figure1());
        let policy = RetryPolicy::no_backoff(16).with_seed(7);
        // Hammer the catalog from a rival thread while the script path
        // commits; every conflict must be absorbed by re-planning.
        let rival = {
            let cods = Arc::clone(&cods);
            std::thread::spawn(move || {
                for i in 0..24 {
                    cods.run_script_with_retry(
                        &format!("CREATE TABLE noise_{i} (x int)"),
                        &RetryPolicy::default(),
                    )
                    .unwrap();
                }
            })
        };
        let report = cods
            .run_script_with_retry(
                "DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)",
                &policy,
            )
            .unwrap();
        rival.join().unwrap();
        assert_eq!(report.records.len(), 1);
        assert!(cods.catalog().contains("S"));
        assert!(cods.catalog().contains("T"));
        assert!(!cods.catalog().contains("R"));
        // Parse errors are deterministic: no retries, immediate surface.
        assert!(cods.run_script_with_retry("FROBNICATE y", &policy).is_err());
    }

    #[test]
    fn output_collisions_are_rejected() {
        let cods = platform_with_figure1();
        cods.plan(vec![Smo::CopyTable {
            from: "R".into(),
            to: "S".into(),
        }])
        .unwrap()
        .execute()
        .unwrap();
        // Decompose wants to create "S" which exists.
        let err = cods
            .plan(vec![figure1_decompose()])
            .and_then(|p| p.execute());
        assert!(err.is_err());
        // The input R must be untouched after the failure.
        assert!(cods.catalog().contains("R"));
    }

    #[test]
    fn merge_keeps_inputs() {
        let cods = platform_with_figure1();
        cods.plan(vec![figure1_decompose()])
            .unwrap()
            .execute()
            .unwrap();
        cods.plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])
        .unwrap()
        .execute()
        .unwrap();
        assert!(cods.catalog().contains("S"));
        assert!(cods.catalog().contains("T"));
        assert!(cods.catalog().contains("R"));
    }
}
