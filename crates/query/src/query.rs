//! The one read request of the platform. A [`Query`] is one of the four
//! read shapes every front end, the wire protocol and the benchmark carry
//! (count, scan, group-by, join); it is parsed once ([`crate::text`] or the
//! wire codec), resolved once against a catalog snapshot
//! ([`Query::resolve`]: names → positions, output columns, key arity) and
//! then either run once ([`ResolvedQuery::run`]) or explained
//! ([`ResolvedQuery::explain`]). The local shell, the connect REPL and the
//! server all go through these three functions.

use crate::agg::{aggregate_table_masked, AggOp};
use crate::bitmap_scan::predicate_mask;
use crate::cost::{groupby_ranking, predicate_selectivity};
use crate::join::{join_stream, plan_join};
use crate::pred::Predicate;
use crate::rowset::RowSet;
use crate::stream::ScanStream;
use cods_storage::{segment_cache, CatalogSnapshot, StorageError, Table, Value, ValueType};
use std::fmt::Write as _;
use std::sync::Arc;

/// A read request — field for field the four data-plane wire commands.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Count predicate-satisfying rows without producing them.
    Count {
        /// Table name.
        table: String,
        /// Row filter.
        predicate: Predicate,
    },
    /// Selected, projected rows of one table, in segment-aligned batches.
    Scan {
        /// Table name.
        table: String,
        /// Row filter.
        predicate: Predicate,
        /// Projected column names in output order; `None` = all columns.
        projection: Option<Vec<String>>,
    },
    /// Grouped aggregation over the predicate-selected rows (the predicate
    /// is pushed into the kernel as a WAH mask, never materialized).
    GroupBy {
        /// Table name.
        table: String,
        /// Row filter applied before grouping.
        predicate: Predicate,
        /// Grouping column names (empty = one global group).
        group_by: Vec<String>,
        /// Aggregate expressions as `(op, input column)` pairs.
        aggs: Vec<(AggOp, String)>,
    },
    /// Partition-wise hash equi-join of two tables; output = left columns
    /// ++ right non-key columns.
    Join {
        /// Left table name.
        left: String,
        /// Right table name.
        right: String,
        /// Join key column names on the left, paired positionally with
        /// `right_keys`.
        left_keys: Vec<String>,
        /// Join key column names on the right.
        right_keys: Vec<String>,
    },
}

/// Why a [`Query`] could not be resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// An unknown table or column, or another storage-level failure.
    Storage(StorageError),
    /// The two key lists of a join differ in length.
    KeyArity,
    /// The query's output has no columns (a scan projected to nothing, a
    /// group-by with neither grouping column nor aggregate): its rows
    /// would carry nothing, and a batch without columns carries no rows.
    NoColumns,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "{e}"),
            QueryError::KeyArity => write!(f, "join key lists differ in length"),
            QueryError::NoColumns => write!(f, "the query selects no output column"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// A query with every name resolved against one catalog snapshot. Holding
/// it holds the table versions it reads alive.
pub struct ResolvedQuery {
    columns: Vec<(String, ValueType)>,
    shape: Shape,
}

/// Tables, predicate and column positions per shape, in [`Query`]'s field
/// order; aggregates as `(op, input position, input type)`.
enum Shape {
    Count(Arc<Table>, Predicate),
    Scan(Arc<Table>, Predicate, Vec<usize>),
    GroupBy(
        Arc<Table>,
        Predicate,
        Vec<usize>,
        Vec<(AggOp, usize, ValueType)>,
    ),
    Join(Arc<Table>, Arc<Table>, Vec<usize>, Vec<usize>),
}

/// Non-empty row batches, produced on demand. A batch that needed a
/// paged-out segment which could not be faulted back in is that typed
/// error instead, and ends the stream.
pub type Batches = Box<dyn Iterator<Item = Result<RowSet, StorageError>>>;

/// What running a query yields.
pub enum QueryOutput {
    /// Answer to [`Query::Count`].
    Count {
        /// Rows in the table.
        rows: u64,
        /// Rows satisfying the predicate.
        selected: u64,
    },
    /// Answer to the three row-producing shapes.
    Rows {
        /// `(name, type)` per output column.
        columns: Vec<(String, ValueType)>,
        /// Total rows the batches will carry, when known before the first
        /// one is produced (a join's match count is not).
        total: Option<u64>,
        /// The rows: segment-aligned batches for a scan, batches of
        /// [`STREAM_BATCH_ROWS`] for a group-by or a join.
        batches: Batches,
    },
}

/// Rows per batch of a group-by or join result.
pub const STREAM_BATCH_ROWS: usize = 4096;

/// Wraps an aggregate's rows of `arity` values in plain-column batches of
/// [`STREAM_BATCH_ROWS`] (the last one shorter, none empty), moving the
/// values.
fn chunked(arity: usize, rows: Vec<Vec<Value>>) -> Batches {
    let mut rows = rows.into_iter();
    Box::new(std::iter::from_fn(move || {
        let batch = RowSet::from_rows(arity, rows.by_ref().take(STREAM_BATCH_ROWS));
        (!batch.is_empty()).then_some(Ok(batch))
    }))
}

fn positions(t: &Table, names: &[String]) -> Result<Vec<usize>, StorageError> {
    names.iter().map(|n| t.schema().index_of(n)).collect()
}

fn column_at(t: &Table, i: usize) -> (String, ValueType) {
    let def = &t.schema().columns()[i];
    (def.name.clone(), def.ty)
}

impl Query {
    /// Resolves every table and column name against `snapshot` and derives
    /// the output columns — the only place a group-by's or a join's output
    /// schema is computed.
    pub fn resolve(&self, snapshot: &CatalogSnapshot) -> Result<ResolvedQuery, QueryError> {
        let checked = |t: &Table, p: &Predicate| -> Result<Predicate, StorageError> {
            for column in p.columns() {
                t.schema().index_of(column)?;
            }
            Ok(p.clone())
        };
        let (columns, shape) = match self {
            Query::Count { table, predicate } => {
                let t = snapshot.get(table)?;
                let predicate = checked(&t, predicate)?;
                (Vec::new(), Shape::Count(t, predicate))
            }
            Query::Scan {
                table,
                predicate,
                projection,
            } => {
                let t = snapshot.get(table)?;
                let projection = match projection {
                    None => (0..t.arity()).collect(),
                    Some(names) => positions(&t, names)?,
                };
                let predicate = checked(&t, predicate)?;
                let columns = projection.iter().map(|&i| column_at(&t, i)).collect();
                (columns, Shape::Scan(t, predicate, projection))
            }
            Query::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            } => {
                let t = snapshot.get(table)?;
                let group_by = positions(&t, group_by)?;
                let mut columns: Vec<_> = group_by.iter().map(|&g| column_at(&t, g)).collect();
                let mut specs = Vec::with_capacity(aggs.len());
                for (op, col) in aggs {
                    let i = t.schema().index_of(col)?;
                    let (name, ty) = column_at(&t, i);
                    specs.push((*op, i, ty));
                    columns.push((format!("{op:?}({name})").to_lowercase(), op.output_type(ty)));
                }
                let predicate = checked(&t, predicate)?;
                (columns, Shape::GroupBy(t, predicate, group_by, specs))
            }
            Query::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let (l, r) = (snapshot.get(left)?, snapshot.get(right)?);
                let (lk, rk) = (positions(&l, left_keys)?, positions(&r, right_keys)?);
                if lk.len() != rk.len() {
                    return Err(QueryError::KeyArity);
                }
                let right_rest = (0..r.arity()).filter(|i| !rk.contains(i));
                let columns = (0..l.arity())
                    .map(|i| column_at(&l, i))
                    .chain(right_rest.map(|i| column_at(&r, i)))
                    .collect();
                (columns, Shape::Join(l, r, lk, rk))
            }
        };
        if columns.is_empty() && !matches!(shape, Shape::Count(..)) {
            return Err(QueryError::NoColumns);
        }
        Ok(ResolvedQuery { columns, shape })
    }
}

impl ResolvedQuery {
    /// `(name, type)` per output column (empty for a count).
    pub fn columns(&self) -> &[(String, ValueType)] {
        &self.columns
    }

    /// Runs the query on the compressed representation: the predicate
    /// becomes a WAH mask (pushed into the group-by kernel, never
    /// materialized), and the join is planned here against the live
    /// buffer-cache budget.
    pub fn run(self) -> Result<QueryOutput, StorageError> {
        let columns = self.columns;
        let rows = |total, batches| QueryOutput::Rows {
            columns,
            total,
            batches,
        };
        Ok(match self.shape {
            Shape::Count(t, predicate) => QueryOutput::Count {
                rows: t.rows(),
                selected: predicate_mask(&t, &predicate)?.count_ones(),
            },
            Shape::Scan(t, predicate, projection) => {
                let mut stream = ScanStream::with_projection(t, &predicate, projection)?;
                let total = stream.total_selected();
                let batches = std::iter::from_fn(move || stream.try_next().transpose());
                rows(
                    Some(total),
                    Box::new(batches.map(|b| b.map(|batch| batch.rows))),
                )
            }
            Shape::GroupBy(t, predicate, group_by, aggs) => {
                let mask = match &predicate {
                    Predicate::True => None,
                    p => Some(predicate_mask(&t, p)?),
                };
                let groups = aggregate_table_masked(&t, &group_by, &aggs, mask.as_ref())?;
                let arity = group_by.len() + aggs.len();
                rows(Some(groups.len() as u64), chunked(arity, groups))
            }
            Shape::Join(l, r, lk, rk) => {
                let plan = plan_join(&l, &r, &lk, &rk, segment_cache().stats().budget);
                let mut stream = join_stream(l, r, &lk, &rk, &plan);
                rows(
                    None,
                    Box::new(std::iter::from_fn(move || stream.try_next().transpose())),
                )
            }
        })
    }

    /// Renders the query with its output columns, row estimates from
    /// resident segment metadata (no payload is faulted), and the cost
    /// model's ranked strategy alternatives — group-by key representation,
    /// join build side and partition passes — the rejected options listed
    /// under the chosen one.
    pub fn explain(&self) -> String {
        let names = |t: &Table, idx: &[usize]| -> String {
            let all = t.schema().names();
            idx.iter().map(|&i| all[i]).collect::<Vec<_>>().join(", ")
        };
        let outputs: Vec<&str> = self.columns.iter().map(|(n, _)| n.as_str()).collect();
        let mut out = String::new();
        // The first line: what runs, what comes out, how many rows (at
        // most `cap`) of `t` pass `p`. Returns `p`'s selectivity.
        let mut head = |what: String, t: &Table, p: &Predicate, cap: f64| -> f64 {
            let sel = predicate_selectivity(t, p);
            let filter = match p {
                Predicate::True => String::new(),
                p => format!(" where {p:?} (selectivity {sel:.3})"),
            };
            let est = (t.rows() as f64 * sel).min(cap);
            let outputs = outputs.join(", ");
            let _ = writeln!(out, "{what} -> [{outputs}]{filter}  ~{est:.0} rows");
            sel
        };
        match &self.shape {
            Shape::Count(t, p) => {
                head(format!("Count {}", t.name()), t, p, f64::INFINITY);
            }
            Shape::Scan(t, p, _) => {
                head(format!("Scan {}", t.name()), t, p, f64::INFINITY);
            }
            Shape::GroupBy(t, p, group_by, _) => {
                let what = format!("GroupBy {} by [{}]", t.name(), names(t, group_by));
                let groups = group_by.iter().map(|&g| t.column(g).dict().len() as f64);
                let sel = head(what, t, p, groups.product::<f64>().max(1.0));
                indent(&mut out, &groupby_ranking(t, group_by, sel).describe());
            }
            Shape::Join(l, r, lk, rk) => {
                let keys = format!("{} = {}", names(l, lk), names(r, rk));
                let what = format!("Join {} with {} on {keys}", l.name(), r.name());
                let larger = if l.rows() >= r.rows() { l } else { r };
                head(what, larger, &Predicate::True, f64::INFINITY);
                let plan = plan_join(l, r, lk, rk, segment_cache().stats().budget);
                indent(&mut out, &plan.ranking.describe());
                let budget = match plan.budget_bytes {
                    u64::MAX => "unlimited".to_string(),
                    b => b.to_string(),
                };
                let (passes, bytes) = (plan.partitions, plan.est_build_bytes);
                let sizing = format!("partitions={passes} est_build_bytes={bytes} budget={budget}");
                indent(&mut out, &sizing);
            }
        }
        out
    }
}

fn indent(out: &mut String, block: &str) {
    for line in block.lines() {
        let _ = writeln!(out, "    {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agg, tuple};
    use cods_storage::{Catalog, Schema};

    /// The Figure 1 rows as `R`, and a `T(name, team)` to join against.
    fn snapshot() -> CatalogSnapshot {
        let cat = Catalog::new();
        let strs = |names: &[&str]| {
            let cols: Vec<_> = names.iter().map(|n| (*n, ValueType::Str)).collect();
            Schema::build(&cols, &[]).unwrap()
        };
        let rows = |data: &[&[&str]]| -> Vec<Vec<Value>> {
            data.iter()
                .map(|r| r.iter().map(|v| Value::str(*v)).collect())
                .collect()
        };
        let r = rows(&[
            &["Jones", "Typing", "425 Grant Ave"],
            &["Jones", "Shorthand", "425 Grant Ave"],
            &["Ellis", "Alchemy", "747 Industrial Way"],
        ]);
        let t = rows(&[&["Jones", "ops"], &["Ellis", "lab"], &["Nobody", "void"]]);
        let r = Table::from_rows("R", strs(&["employee", "skill", "address"]), &r).unwrap();
        cat.create(r).unwrap();
        cat.create(Table::from_rows("T", strs(&["name", "team"]), &t).unwrap())
            .unwrap();
        cat.snapshot_view()
    }

    fn run(query: &Query, snapshot: &CatalogSnapshot) -> (Vec<String>, Vec<Vec<Value>>) {
        match query.resolve(snapshot).unwrap().run().unwrap() {
            QueryOutput::Rows {
                columns, batches, ..
            } => (
                columns.into_iter().map(|(n, _)| n).collect(),
                batches.flat_map(|b| b.unwrap().to_rows()).collect(),
            ),
            QueryOutput::Count { .. } => panic!("not a row query"),
        }
    }

    fn skills_per_employee(predicate: Predicate) -> Query {
        Query::GroupBy {
            table: "R".into(),
            predicate,
            group_by: vec!["employee".into()],
            aggs: vec![(AggOp::Count, "skill".into())],
        }
    }

    #[test]
    fn group_by_counts_skills_per_employee() {
        let (names, mut rows) = run(&skills_per_employee(Predicate::True), &snapshot());
        assert_eq!(names, ["employee", "count(skill)"]);
        rows.sort();
        assert_eq!(
            rows,
            [
                vec![Value::str("Ellis"), Value::int(1)],
                vec![Value::str("Jones"), Value::int(2)]
            ]
        );
    }

    #[test]
    fn group_by_under_a_predicate_matches_the_row_kernel_over_filtered_rows() {
        let snap = snapshot();
        let pred = Predicate::eq("employee", "Jones");
        let (_, pushed) = run(&skills_per_employee(pred.clone()), &snap);
        let r = snap.get("R").unwrap();
        let compiled = pred.compile(r.schema()).unwrap();
        let filtered: Vec<_> = r
            .to_rows()
            .into_iter()
            .filter(|row| compiled.eval(row))
            .collect();
        let oracle = agg::aggregate(&filtered, &[0], &[(AggOp::Count, 1, ValueType::Str)]).unwrap();
        assert_eq!(pushed, oracle);
        assert_eq!(pushed, [vec![Value::str("Jones"), Value::int(2)]]);
    }

    #[test]
    fn join_matches_the_row_oracle_multiset() {
        let snap = snapshot();
        let join = Query::Join {
            left: "R".into(),
            right: "T".into(),
            left_keys: vec!["employee".into()],
            right_keys: vec!["name".into()],
        };
        let (names, mut rows) = run(&join, &snap);
        assert_eq!(names, ["employee", "skill", "address", "team"]);
        let (r, t) = (snap.get("R").unwrap(), snap.get("T").unwrap());
        let mut oracle = tuple::hash_join(&r.to_rows(), &t.to_rows(), &[0], &[0]);
        rows.sort();
        oracle.sort();
        assert_eq!(rows, oracle);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn scan_and_count_agree_on_the_selection() {
        let snap = snapshot();
        let predicate = Predicate::eq("employee", "Jones");
        let scan = Query::Scan {
            table: "R".into(),
            predicate: predicate.clone(),
            projection: Some(vec!["skill".into()]),
        };
        let (names, rows) = run(&scan, &snap);
        assert_eq!(names, ["skill"]);
        assert_eq!(
            rows,
            [vec![Value::str("Typing")], vec![Value::str("Shorthand")]]
        );
        let count = Query::Count {
            table: "R".into(),
            predicate,
        };
        let resolved = count.resolve(&snap).unwrap();
        assert!(resolved.columns().is_empty());
        assert!(matches!(
            resolved.run().unwrap(),
            QueryOutput::Count {
                rows: 3,
                selected: 2
            }
        ));
    }

    #[test]
    fn resolve_types_unknown_names_and_key_arity() {
        let snap = snapshot();
        let err = |q: Query| q.resolve(&snap).err().unwrap();
        let count = |table: &str, predicate| Query::Count {
            table: table.into(),
            predicate,
        };
        assert_eq!(
            err(count("nope", Predicate::True)),
            QueryError::Storage(StorageError::UnknownTable("nope".into()))
        );
        assert_eq!(
            err(count("R", Predicate::eq("zip", 1i64))),
            QueryError::Storage(StorageError::UnknownColumn("zip".into()))
        );
        let join = Query::Join {
            left: "R".into(),
            right: "T".into(),
            left_keys: vec!["employee".into(), "skill".into()],
            right_keys: vec!["name".into()],
        };
        assert_eq!(err(join), QueryError::KeyArity);
        // Output without columns: nothing a row could carry.
        let scan = Query::Scan {
            table: "R".into(),
            predicate: Predicate::True,
            projection: Some(vec![]),
        };
        assert_eq!(err(scan), QueryError::NoColumns);
        let group_by = Query::GroupBy {
            table: "R".into(),
            predicate: Predicate::True,
            group_by: vec![],
            aggs: vec![],
        };
        assert_eq!(err(group_by), QueryError::NoColumns);
    }

    #[test]
    fn explain_ranks_kernel_strategies_and_names_the_output_columns() {
        let snap = snapshot();
        let group_by = skills_per_employee(Predicate::eq("employee", "Jones"));
        let resolved = group_by.resolve(&snap).unwrap();
        let text = resolved.explain();
        assert!(text.starts_with("GroupBy R by [employee]"), "{text}");
        assert!(text.contains("selectivity 0.667"), "{text}");
        assert!(text.contains("group-by strategy"), "{text}");
        assert!(text.contains("keys=packed-u64"), "{text}");
        assert!(text.contains("x "), "rejected options listed: {text}");
        let join = Query::Join {
            left: "R".into(),
            right: "T".into(),
            left_keys: vec!["employee".into()],
            right_keys: vec!["name".into()],
        };
        let resolved = join.resolve(&snap).unwrap();
        let text = resolved.explain();
        assert!(text.contains("join build side"), "{text}");
        assert!(text.contains("partitions="), "{text}");
        let outputs = "-> [employee, skill, address, team]";
        assert!(text.contains(outputs), "{text}");
    }
}
