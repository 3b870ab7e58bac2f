//! Workload adaptation: evolve the schema when the workload changes
//! (Scenario 2 of the paper's introduction).
//!
//! Schema 1 (one wide table `R(entity, attr, detail)`) favors queries: no
//! join. But it stores each entity's `detail` redundantly, once per row, so
//! an update-intensive phase pays to rewrite a 200k-row column. Schema 2
//! (`S(entity, attr)` + `T(entity, detail)`) shrinks the update surface to
//! one row per entity. Because CODS makes the evolution itself nearly free,
//! the schema can follow the workload: this example runs a query phase on
//! schema 1, decomposes when updates arrive, measures the update savings,
//! and merges back when queries return.
//!
//! ```text
//! cargo run --release --example workload_adaptation
//! ```

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_query::{filter_table, join_collect, tuple, Predicate, ScanStream};
use cods_storage::{EncodedColumn, Table, Value};
use cods_workload::GenConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: u64 = 200_000;
const DISTINCT: u64 = 5_000;

/// The hot query: distinct details of rows with a given attr — one
/// filtered, projected scan on the wide schema; a filter, a join and a
/// projection on the decomposed one.
fn hot_query(cods: &Cods, wide: bool, skill: i64) -> usize {
    let with_skill = Predicate::eq("attr", skill);
    let details = if wide {
        let r = cods.table("R").unwrap();
        ScanStream::new(r, &with_skill, Some(&["detail".to_string()]))
            .unwrap()
            .collect_rows()
    } else {
        let s = Arc::new(filter_table(&cods.table("S").unwrap(), &with_skill).unwrap());
        let t = cods.table("T").unwrap();
        let key = |t: &Table| vec![t.schema().index_of("entity").unwrap()];
        let (_, joined) = join_collect(&s, &t, &key(&s), &key(&t));
        // Output = S's columns, then T's non-key columns: detail is last.
        tuple::project(&joined, &[s.arity()])
    };
    tuple::distinct(details).len()
}

/// Updates the `detail` of every entity below `threshold` in `table` —
/// the cost is a rebuild of the detail column, proportional to the number
/// of rows *physically holding* that column.
fn update_details(table: &Table, threshold: i64) -> (Table, Duration) {
    let t0 = Instant::now();
    let entity_idx = table.schema().index_of("entity").unwrap();
    let detail_idx = table.schema().index_of("detail").unwrap();
    let entities = table.column(entity_idx).values();
    let mut details = table.column(detail_idx).values();
    for (e, d) in entities.iter().zip(details.iter_mut()) {
        if let Value::Int(id) = e {
            if *id < threshold {
                *d = Value::int(9_999_999 + *id);
            }
        }
    }
    let new_col = Arc::new(
        EncodedColumn::from_values(table.schema().columns()[detail_idx].ty, &details).unwrap(),
    );
    let mut cols = table.columns().to_vec();
    cols[detail_idx] = new_col;
    let updated = Table::new(table.name(), table.schema().clone(), cols).unwrap();
    (updated, t0.elapsed())
}

fn main() {
    println!("generating R: {ROWS} rows, {DISTINCT} distinct entities");
    let table = cods_workload::generate_table("R", &GenConfig::sweep_point(ROWS, DISTINCT));
    let cods = Cods::new();
    cods.catalog().create(table).unwrap();

    // Phase 1 — query-intensive on schema 1.
    let t0 = Instant::now();
    let total: usize = (0..20).map(|s| hot_query(&cods, true, s)).sum();
    println!(
        "phase 1 (schema 1): 20 hot queries in {:.1} ms ({total} result rows, no joins)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Phase 2 — the workload turns update-intensive. First measure what the
    // update costs on schema 1.
    let (_, wide_update) = update_details(&cods.table("R").unwrap(), 500);
    println!(
        "\nphase 2: update details of 500 entities ON SCHEMA 1: {:.1} ms \
         (rebuilds a {ROWS}-row column, each detail stored ~{} times)",
        wide_update.as_secs_f64() * 1e3,
        ROWS / DISTINCT
    );

    // Adapt: decompose to schema 2 (data level — cheap).
    let t0 = Instant::now();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    println!(
        "evolve to schema 2 with CODS: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Queries are still answerable on schema 2 (with a join) and the
    // decomposition must not have changed any answer.
    let t0 = Instant::now();
    let total2: usize = (0..20).map(|s| hot_query(&cods, false, s)).sum();
    println!(
        "hot queries on schema 2 (join required): {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(total, total2, "decomposition must not change query answers");

    let (updated_t, narrow_update) = update_details(&cods.table("T").unwrap(), 500);
    cods.catalog().put(updated_t);
    println!(
        "same update ON SCHEMA 2: {:.1} ms (rebuilds a {DISTINCT}-row column — \
         {:.0}x less work)",
        narrow_update.as_secs_f64() * 1e3,
        wide_update.as_secs_f64() / narrow_update.as_secs_f64().max(1e-9)
    );

    // Phase 3 — queries dominate again: merge back.
    let t0 = Instant::now();
    cods.plan(vec![Smo::MergeTables {
        left: "S".into(),
        right: "T".into(),
        output: "R".into(),
        strategy: MergeStrategy::Auto,
    }])
    .unwrap()
    .execute()
    .unwrap();
    println!(
        "\nphase 3: evolve back to schema 1 with CODS: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
    let t0 = Instant::now();
    let total3: usize = (0..20).map(|s| hot_query(&cods, true, s)).sum();
    println!(
        "hot queries on schema 1 again: {:.1} ms ({total3} rows)",
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "\nthe evolution cost (tens of ms) is far below one update round's savings — \
         with CODS the schema can simply follow the workload"
    );
}
