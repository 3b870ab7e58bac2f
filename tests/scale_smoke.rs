//! Moderate-scale smoke tests: the full evolution stack at tens of
//! thousands of rows (kept debug-build friendly; the release-mode `fig3`
//! harness covers millions).

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_query::Predicate;
use cods_workload::{Distribution, GenConfig};

#[test]
fn fifty_k_row_full_cycle() {
    let mut cfg = GenConfig::sweep_point(50_000, 2_000);
    cfg.distribution = Distribution::Zipf(0.8);
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table("R", &cfg))
        .unwrap();
    let original = cods.table("R").unwrap().tuple_multiset();

    // Partition → union → decompose → merge, ending where we started.
    cods.plan(vec![Smo::PartitionTable {
        input: "R".into(),
        predicate: Predicate::lt("entity", 1_000i64),
        satisfying: "lo".into(),
        rest: "hi".into(),
    }])
    .unwrap()
    .execute()
    .unwrap();
    cods.plan(vec![Smo::UnionTables {
        left: "lo".into(),
        right: "hi".into(),
        output: "R".into(),
        drop_inputs: true,
    }])
    .unwrap()
    .execute()
    .unwrap();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
    }])
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
    assert_eq!(cods.table("R").unwrap().tuple_multiset(), original);

    // Evolution status must have been recorded for the data-moving SMOs.
    let history = cods.history();
    assert_eq!(history.len(), 4);
    assert!(history.iter().any(|r| r.operator.starts_with("DECOMPOSE")));
}

#[test]
fn high_cardinality_decompose_is_not_quadratic() {
    // All-distinct keys at 50k rows: completes quickly only if the adaptive
    // id-gather path is in effect (the naive per-bitmap path would do
    // 2.5 × 10^9 position probes here).
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(50_000, 50_000),
        ))
        .unwrap();
    let start = std::time::Instant::now();
    cods.plan(vec![Smo::DecomposeTable {
        input: "R".into(),
        spec: DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]),
    }])
    .unwrap()
    .execute()
    .unwrap();
    assert_eq!(cods.table("T").unwrap().rows(), 50_000);
    // Generous bound (debug build): quadratic behaviour would take minutes.
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "decomposition took {:?}",
        start.elapsed()
    );
}
