//! Compression tour: how encoding choices interact with evolution.
//!
//! Builds the evaluation table, shows per-column WAH statistics, clusters it
//! (data-level gather), re-encodes the sorted key column as RLE (the paper's
//! "run length encoding for sorted columns"), and runs a grouped aggregation
//! through the query engine to show the whole stack cooperating.
//!
//! ```text
//! cargo run --release --example compression_tour
//! ```

use cods_query::{AggOp, Predicate, Query, QueryOutput};
use cods_storage::{Catalog, TableStats};
use cods_workload::GenConfig;

fn main() {
    let rows = 200_000;
    let distinct = 1_000;
    println!("generating R: {rows} rows, {distinct} distinct entities\n");
    let table = cods_workload::generate_table("R", &GenConfig::sweep_point(rows, distinct));

    // 1. Storage statistics of the unclustered table.
    let stats = TableStats::of(&table);
    println!("unclustered (insertion order):");
    println!(
        "  {:<8} {:>9} {:>14} {:>14} {:>8}",
        "column", "distinct", "WAH bytes", "plain vxr", "ratio"
    );
    for (def, c) in table.schema().columns().iter().zip(&stats.columns) {
        println!(
            "  {:<8} {:>9} {:>14} {:>14} {:>7.1}x",
            def.name, c.distinct, c.payload_bytes, c.plain_matrix_bytes, c.compression_ratio
        );
    }

    // 2. Cluster by the key column: every value's bitmap becomes one run.
    //    cluster_by auto-encodes through the adaptive chooser (the sorted
    //    entity column flips to RLE by itself); force bitmap back here so
    //    the WAH-vs-WAH shrinkage is visible, then show the RLE step
    //    explicitly below.
    let auto = table.cluster_by(&["entity"]).unwrap();
    println!(
        "\nafter cluster_by, the chooser picked: {}",
        auto.schema()
            .columns()
            .iter()
            .zip(auto.columns())
            .map(|(d, c)| match c.uniform_encoding() {
                Some(e) => format!("{}={}", d.name, e),
                None => format!("{}={}", d.name, c.encoding_counts()),
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    let clustered = auto
        .map_columns(None, |c| c.recode(cods_storage::Encoding::Bitmap))
        .unwrap();
    let cstats = TableStats::of(&clustered);
    println!("\nclustered by entity:");
    for (def, c) in clustered.schema().columns().iter().zip(&cstats.columns) {
        println!("  {:<8} WAH bytes {:>12}", def.name, c.payload_bytes);
    }
    let before = stats.columns[0].payload_bytes;
    let after = cstats.columns[0].payload_bytes;
    println!(
        "  entity column shrank {:.1}x ({} → {} bytes)",
        before as f64 / after as f64,
        before,
        after
    );

    // 3. The sorted column as RLE — the encoding the paper reserves for
    //    sorted columns.
    let rle = clustered
        .column_by_name("entity")
        .unwrap()
        .recode(cods_storage::Encoding::Rle)
        .unwrap();
    println!(
        "\nRLE re-encoding of the sorted entity column: {} runs, {} bytes (WAH: {} bytes)",
        rle.run_count(),
        rle.payload_bytes(),
        after
    );

    // 4. A grouped aggregate over the clustered table: rows per entity range.
    let catalog = Catalog::new();
    catalog.create(clustered).unwrap();
    let query = Query::GroupBy {
        table: "R".into(),
        predicate: Predicate::True,
        group_by: vec!["detail".into()],
        aggs: vec![
            (AggOp::Count, "entity".into()),
            (AggOp::CountDistinct, "entity".into()),
            (AggOp::Min, "attr".into()),
            (AggOp::Max, "attr".into()),
        ],
    };
    let resolved = query.resolve(&catalog.snapshot_view()).unwrap();
    let QueryOutput::Rows {
        columns, batches, ..
    } = resolved.run().unwrap()
    else {
        unreachable!("a group-by yields rows");
    };
    let rows: Vec<_> = batches
        .flat_map(|batch| batch.expect("a resident table").to_rows())
        .collect();
    println!("\nper-detail report ({} groups):", rows.len());
    let names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
    println!("  {}", names.join(" | "));
    for row in rows.iter().take(5) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }
    if rows.len() > 5 {
        println!("  … ({} more groups)", rows.len() - 5);
    }
}
