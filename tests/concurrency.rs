//! Concurrency: the catalog is a shared, thread-safe namespace of immutable
//! tables — readers running during evolution always see a consistent
//! snapshot (either the pre- or the post-evolution tables, never a torn
//! state).

use cods::{Cods, DecomposeSpec, MergeStrategy, Smo};
use cods_workload::GenConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn readers_see_consistent_snapshots_during_evolution() {
    let cods = Arc::new(Cods::new());
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(20_000, 500),
        ))
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Readers hammer the catalog while the writer evolves repeatedly.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let cods = Arc::clone(&cods);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Whatever exists must be internally consistent.
                for name in cods.catalog().table_names() {
                    if let Ok(t) = cods.table(&name) {
                        t.check_invariants().unwrap();
                        observed += t.rows();
                    }
                }
            }
            observed
        }));
    }

    for cycle in 0..5 {
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
        cods.plan(vec![Smo::DropTable { name: "S".into() }])
            .unwrap()
            .execute()
            .unwrap();
        cods.plan(vec![Smo::DropTable { name: "T".into() }])
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(cods.table("R").unwrap().rows(), 20_000, "cycle {cycle}");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let observed = r.join().expect("reader panicked");
        assert!(observed > 0, "reader never saw data");
    }
}

#[test]
fn snapshots_outlive_drops() {
    // A snapshot taken before DROP TABLE stays fully readable (immutability
    // + Arc): evolution never invalidates readers.
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(1_000, 50),
        ))
        .unwrap();
    let snapshot = cods.table("R").unwrap();
    cods.plan(vec![Smo::DropTable { name: "R".into() }])
        .unwrap()
        .execute()
        .unwrap();
    assert!(cods.table("R").is_err());
    snapshot.check_invariants().unwrap();
    assert_eq!(snapshot.rows(), 1_000);
    assert_eq!(snapshot.to_rows().len(), 1_000);
}
