//! `evolve_resident`: the paper's experiment. One caller thread runs SMO
//! scripts on resident sweep tables and reads every output back; nothing in
//! the window touches the disk, the server, or the commit log.

use crate::data::{sweep_tables, Scale, SweepTable};
use crate::host::{self, median};
use crate::record::Recorder;
use crate::run::{put, LayerCounters, Metrics, Workload};
use cods::{decompose, merge, parse_script, Cods, DecomposeSpec, MergeStrategy};
use cods_query::{
    aggregate_table_masked, decompose_column_level, merge_column_level, predicate_mask, AggOp,
    Predicate,
};
use cods_storage::{persist, Catalog, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Point reads after every script. Their latency is read off as a low
/// quantile, so a script's reads cover enough distinct keys that the
/// quantile is a property of the table, not of the keys one seed drew.
const POINT_READS_PER_SCRIPT: usize = 32;
/// Interleaved rounds of data-level (D) and query-level (M) evolution
/// behind the Figure 3 ratios.
const FIG3_ROUNDS: usize = 3;

/// One script of the pass and the reads that check its output.
struct Step {
    class: &'static str,
    script: String,
    /// Index of the sweep table the script rewrites and the reads hit.
    table: usize,
    /// Op class of the point reads. Reads of one script's output are one
    /// class: a read costs what the bitmaps it touches weigh, which differs
    /// by table and by the operator that last laid the table out, so a
    /// median pooled over scripts would sit on the boundary between two.
    read_class: &'static str,
    point_keys: Vec<(i64, u64)>,
}

pub struct EvolveResident {
    cods: Cods,
    tables: Vec<SweepTable>,
    steps: Vec<Step>,
    rows: u64,
    dir: PathBuf,
}

fn cycle_script(name: &str) -> String {
    format!(
        "DECOMPOSE TABLE {name} INTO S (entity, attr), T (entity, detail)\n\
         MERGE TABLES S, T INTO {name}\nDROP TABLE S\nDROP TABLE T"
    )
}

impl Workload for EvolveResident {
    fn set_up(name: &str, seed: u64, scale: &Scale, root: &Path) -> Self {
        let tables = sweep_tables(seed, scale);
        let cods = Cods::new();
        for t in &tables {
            cods.catalog()
                .create(t.table.clone())
                .expect("fresh catalog");
        }
        let mid = &tables[1];
        let reshape = format!(
            "PARTITION TABLE {n} WHERE entity < {half} INTO lo, hi\nUNION TABLES lo, hi INTO {n}\n\
             DROP TABLE lo\nDROP TABLE hi",
            n = mid.name,
            half = mid.distinct / 2
        );
        let columns = format!(
            "ADD COLUMN note int DEFAULT 0 TO {n}\nRENAME COLUMN note TO memo IN {n}\n\
             DROP COLUMN memo FROM {n}",
            n = tables[0].name
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0F5);
        let mut step = |class, read_class, script, table: usize| {
            let t: &SweepTable = &tables[table];
            let point_keys = (0..POINT_READS_PER_SCRIPT)
                .map(|_| {
                    let k = rng.random_range(0..t.distinct);
                    (k as i64, t.entity_rows[k as usize] as u64)
                })
                .collect();
            Step {
                class,
                script,
                table,
                read_class,
                point_keys,
            }
        };
        let steps = vec![
            step("cycle_d100", "point_d100", cycle_script(tables[0].name), 0),
            step("cycle_d10k", "point", cycle_script(tables[1].name), 1),
            step(
                "cycle_d100k",
                "point_d100k",
                cycle_script(tables[2].name),
                2,
            ),
            step("reshape", "point_reshaped", reshape, 1),
            step("columns", "point_columns", columns, 0),
        ];
        let dir = root.join(format!("{name}-{}", std::process::id()));
        EvolveResident {
            cods,
            tables,
            steps,
            rows: scale.sweep_rows,
            dir,
        }
    }

    fn pass(&mut self, rec: &mut Recorder) -> u64 {
        for step in &self.steps {
            let sweep = &self.tables[step.table];
            let op = rec.begin_op(step.class);
            let span = rec.begin_span("core.plan_script", &op);
            let plan = self.cods.plan_script(&step.script);
            rec.end_span(span, &[]);
            let span = rec.begin_span("core.execute", &op);
            let done = plan.and_then(|p| p.execute());
            rec.end_span(span, &[("rows", self.rows)]);
            let verdict = done.map_err(|e| e.to_string()).and_then(|_| {
                let t = self.cods.table(sweep.name).map_err(|e| e.to_string())?;
                (t.rows() == self.rows && t.arity() == 3)
                    .then_some(())
                    .ok_or(format!("{} is {} x {}", sweep.name, t.rows(), t.arity()))
            });
            rec.end_op(op, None, verdict);

            let Ok(t) = self.cods.table(sweep.name) else {
                continue;
            };
            for &(key, expect) in &step.point_keys {
                let op = rec.begin_op(step.read_class);
                let span = rec.begin_span("query.predicate_mask", &op);
                let got = predicate_mask(&t, &Predicate::eq("entity", key)).map(|m| m.count_ones());
                rec.end_span(span, &[("selected", expect)]);
                let verdict = match got {
                    Ok(n) if n == expect => Ok(()),
                    Ok(n) => Err(format!("entity = {key}: {n} rows, expected {expect}")),
                    Err(e) => Err(e.to_string()),
                };
                rec.end_op(op, None, verdict);
            }
            let op = rec.begin_op("group_digest");
            let span = rec.begin_span("query.aggregate", &op);
            let got = group_by_detail(&t);
            rec.end_span(span, &[("groups", sweep.by_detail.len() as u64)]);
            let verdict = match got {
                Ok(g) if g == sweep.by_detail => Ok(()),
                Ok(g) => Err(format!(
                    "{} groups, expected {}",
                    g.len(),
                    sweep.by_detail.len()
                )),
                Err(e) => Err(e),
            };
            rec.end_op(op, None, verdict);
        }
        (self.steps.len() * (POINT_READS_PER_SCRIPT + 2)) as u64
    }

    fn tear_down(self) {}

    fn evolve_class(&self) -> &'static str {
        "cycle_d10k"
    }

    fn op_digest(&self) -> u64 {
        self.steps.iter().fold(host::FNV_SEED, |h, s| {
            let h = host::fnv1a(h, s.script.as_bytes());
            s.point_keys
                .iter()
                .fold(h, |h, (k, _)| host::fnv1a(h, &k.to_le_bytes()))
        })
    }

    fn data_dir(&self) -> Option<&Path> {
        None
    }

    fn counters(&mut self) -> LayerCounters {
        LayerCounters::default()
    }

    fn persist_times(&self) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn finish(self, rec: &mut Recorder, out: &mut Metrics) -> (u64, u64) {
        if rec.tracing() {
            self.core_probes(rec, out);
        }
        // Space: one save of the final catalog, made after the window.
        std::fs::create_dir_all(&self.dir).expect("data directory");
        let file = self.dir.join("resident.cods");
        let t = Instant::now();
        let saved = persist::save_catalog(self.cods.catalog(), &file);
        let save_s = t.elapsed().as_secs_f64();
        let stored = host::dir_bytes(&self.dir);
        if rec.tracing() {
            put(out, "storage.save_catalog_s", save_s, 1);
            let t = Instant::now();
            let reopened = persist::read_catalog(&file);
            put(out, "storage.open_s", t.elapsed().as_secs_f64(), 1);
            if let Err(e) = reopened {
                rec.first_failure.get_or_insert(format!("reopen: {e}"));
            }
        }
        if let Err(e) = saved {
            rec.first_failure
                .get_or_insert(format!("save_catalog: {e}"));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        (stored, self.tables.len() as u64 * self.rows * 24)
    }
}

/// `detail -> (rows, sum(attr))` through the columnar group-by kernel.
fn group_by_detail(t: &Table) -> Result<BTreeMap<i64, (i64, i64)>, String> {
    let idx = |n: &str| t.schema().index_of(n).map_err(|e| e.to_string());
    let (detail, attr) = (idx("detail")?, idx("attr")?);
    let rows = aggregate_table_masked(
        t,
        &[detail],
        &[
            (AggOp::Count, attr, ValueType::Int),
            (AggOp::Sum, attr, ValueType::Int),
        ],
        None,
    )
    .map_err(|e| e.to_string())?;
    rows.into_iter()
        .map(|r| match r.as_slice() {
            [Value::Int(d), Value::Int(n), Value::Int(s)] => Ok((*d, (*n, *s))),
            other => Err(format!("unexpected group row {other:?}")),
        })
        .collect()
}

impl EvolveResident {
    /// The `core` layer from outside: direct `decompose` / `merge` calls,
    /// planning without executing, and the paper's D-versus-M ratio.
    fn core_probes(&self, rec: &Recorder, out: &mut Metrics) {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let spec = DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]);
        let (mut d_dec_10k, mut d_mer_10k) = (Vec::new(), Vec::new());
        let (mut m_dec, mut m_mer) = (Vec::new(), Vec::new());
        for sweep in &self.tables {
            let r = self.cods.table(sweep.name).expect("sweep table");
            let (mut dec, mut mer) = (Vec::new(), Vec::new());
            for _ in 0..FIG3_ROUNDS {
                let t = Instant::now();
                let parts = decompose(&r, &spec).expect("lossless by construction");
                dec.push(ms(t));
                let t = Instant::now();
                let whole = merge(&parts.unchanged, &parts.changed, "R", &MergeStrategy::Auto);
                mer.push(ms(t));
                std::hint::black_box(whole.expect("merge of a decomposition").output);
                if sweep.label == "d10k" {
                    // System M: the same evolution at query level, on the
                    // same column store, interleaved with D.
                    let cat = Catalog::new();
                    cat.create(r.renamed("R")).expect("fresh catalog");
                    let t = Instant::now();
                    decompose_column_level(
                        &cat,
                        "R",
                        "S",
                        &["entity", "attr"],
                        "T",
                        &["entity", "detail"],
                        &["entity"],
                    )
                    .expect("query-level decompose");
                    m_dec.push(ms(t));
                    let t = Instant::now();
                    merge_column_level(&cat, "S", "T", "R2", &["entity"])
                        .expect("query-level merge");
                    m_mer.push(ms(t));
                }
            }
            put(
                out,
                &format!("core.decompose_ms.{}", sweep.label),
                median(&dec),
                dec.len(),
            );
            put(
                out,
                &format!("core.merge_ms.{}", sweep.label),
                median(&mer),
                mer.len(),
            );
            if sweep.label == "d10k" {
                (d_dec_10k, d_mer_10k) = (dec, mer);
            }
        }
        put(
            out,
            "core.fig3a_speedup_vs_m.d10k",
            host::ratio(median(&m_dec), median(&d_dec_10k)),
            m_dec.len(),
        );
        put(
            out,
            "core.fig3b_speedup_vs_m.d10k",
            host::ratio(median(&m_mer), median(&d_mer_10k)),
            m_mer.len(),
        );

        let script = &self.steps[1].script;
        let plan_us: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                let smos = parse_script(script).expect("the pass's own script");
                std::hint::black_box(self.cods.plan(smos).expect("plans").nodes().len());
                ms(t) * 1e3
            })
            .collect();
        put(out, "core.parse_plan_us", median(&plan_us), plan_us.len());
        let cycle = rec.samples("cycle_d10k");
        put(
            out,
            "core.exec_overhead_ms.d10k",
            median(cycle) - median(&d_dec_10k) - median(&d_mer_10k),
            cycle.len(),
        );
        crate::probes::encode_table(&self.tables[0].table, out);
        let reshape = rec.samples("reshape");
        put(out, "core.reshape_ms", median(reshape), reshape.len());
    }
}
