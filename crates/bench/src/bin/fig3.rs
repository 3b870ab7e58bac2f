//! `fig3` — regenerates the paper's evaluation.
//!
//! ```text
//! fig3 [decompose|merge|smos|ablation|all] [--rows N] [--distinct a,b,c] [--repeat K]
//! ```
//!
//! * `decompose` — Figure 3(a): decomposition time vs. #distinct values for
//!   D (CODS), C, C+I, S, M.
//! * `merge` — Figure 3(b): mergence time vs. #distinct values for D, C,
//!   C+I, M.
//! * `smos` — per-operator timing for the whole Table 1 catalogue.
//! * `ablation` — design-choice ablations (WAH vs. plain filtering, FD
//!   verification cost, key-FK vs. general mergence, compression ratio).
//!
//! Row count defaults to 1,000,000; pass `--rows 10000000` for the paper's
//! full scale.

#![forbid(unsafe_code)]

use cods::{decompose, merge_general, merge_key_fk, Cods, MergeStrategy, Smo};
use cods_bench::*;
use cods_bitmap::PlainBitmap;
use cods_query::Predicate;
use cods_storage::{
    ColumnDef, Encoding, RecodeScope, RecodeTarget, Table, TableStats, Value, ValueType,
};
use cods_workload::gen::r_schema;
use cods_workload::{GenConfig, SweepSpec, System};
use std::time::{Duration, Instant};

struct Args {
    command: String,
    rows: u64,
    distinct: Option<Vec<u64>>,
    repeat: usize,
    systems: Option<Vec<System>>,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        rows: 1_000_000,
        distinct: None,
        repeat: 3,
        systems: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "decompose" | "merge" | "smos" | "ablation" | "all" => args.command = a,
            "--rows" => {
                args.rows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rows needs a number");
            }
            "--distinct" => {
                let list = it.next().expect("--distinct needs a,b,c");
                args.distinct = Some(
                    list.split(',')
                        .map(|s| s.trim().parse().expect("distinct values are numbers"))
                        .collect(),
                );
            }
            "--systems" => {
                let list = it.next().expect("--systems needs D,C,C+I,S,M");
                args.systems = Some(
                    list.split(',')
                        .map(|s| match s.trim() {
                            "D" => System::Cods,
                            "C" => System::CommercialRow,
                            "C+I" => System::CommercialRowIndexed,
                            "S" => System::SqliteLike,
                            "M" => System::ColumnQueryLevel,
                            other => panic!("unknown system {other:?}"),
                        })
                        .collect(),
                );
            }
            "--repeat" => {
                args.repeat = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeat needs a number");
            }
            "--help" | "-h" => {
                println!("fig3 [decompose|merge|smos|ablation|all] [--rows N] [--distinct a,b,c] [--repeat K] [--systems D,C,C+I,S,M]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:9.3}s")
    } else if s >= 1e-3 {
        format!("{:8.3}ms", s * 1e3)
    } else {
        format!("{:8.1}us", s * 1e6)
    }
}

fn sweep(args: &Args) -> Vec<u64> {
    args.distinct
        .clone()
        .unwrap_or_else(|| SweepSpec::scaled(args.rows).distinct_values)
}

fn figure3a(args: &Args) {
    println!("\n=== Figure 3(a): Decomposition — time vs. #distinct values ===");
    println!(
        "rows = {}, repeat = {} (D/M medians; row stores single-shot)\n",
        args.rows, args.repeat
    );
    let default_systems = System::decomposition_systems().to_vec();
    let systems: Vec<System> = args.systems.clone().unwrap_or(default_systems);
    let systems = &systems[..];
    print!("{:>10}", "#distinct");
    for s in systems {
        print!("{:>12}", s.label());
    }
    println!();
    for &d in &sweep(args) {
        let rows = cods_workload::generate_rows(&GenConfig::sweep_point(args.rows, d));
        let table = Table::from_rows("R", r_schema(), &rows).unwrap();
        print!("{d:>10}");
        for &sys in systems {
            let reps = match sys {
                System::SqliteLike => 1,
                _ => args.repeat,
            };
            let times: Vec<Duration> = (0..reps)
                .map(|_| time_decompose(sys, &rows, Some(&table)))
                .collect();
            print!("{:>12}", fmt_dur(median_duration(times)));
        }
        println!();
    }
    println!("\n(shape check: D orders of magnitude below every query-level system;");
    println!(" S slowest, C+I above C, M between D and the row stores)");
}

fn figure3b(args: &Args) {
    println!("\n=== Figure 3(b): Mergence — time vs. #distinct values ===");
    println!("rows = {}, repeat = {}\n", args.rows, args.repeat);
    let default_systems = System::mergence_systems().to_vec();
    let systems: Vec<System> = args
        .systems
        .clone()
        .map(|v| v.into_iter().filter(|s| *s != System::SqliteLike).collect())
        .unwrap_or(default_systems);
    let systems = &systems[..];
    print!("{:>10}", "#distinct");
    for s in systems {
        print!("{:>12}", s.label());
    }
    println!();
    for &d in &sweep(args) {
        let rows = cods_workload::generate_rows(&GenConfig::sweep_point(args.rows, d));
        let (s_rows, t_rows) = decomposed_rows(&rows);
        let s_table = Table::from_rows("S", s_schema(), &s_rows).unwrap();
        let t_table = Table::from_rows("T", t_schema(), &t_rows).unwrap();
        print!("{d:>10}");
        for &sys in systems {
            let reps = match sys {
                System::SqliteLike => 1,
                _ => args.repeat,
            };
            let times: Vec<Duration> = (0..reps)
                .map(|_| time_merge(sys, &s_rows, &t_rows, Some(&s_table), Some(&t_table)))
                .collect();
            print!("{:>12}", fmt_dur(median_duration(times)));
        }
        println!();
    }
}

fn smo_catalogue(args: &Args) {
    let rows_n = args.rows.min(200_000);
    println!("\n=== Table 1 operator catalogue — data-level timings ===");
    println!("rows = {rows_n}\n");
    let cfg = GenConfig::sweep_point(rows_n, 1_000.min(rows_n));
    let base = cods_workload::generate_table("R", &cfg);

    let run = |name: &str, f: &mut dyn FnMut() -> cods::Result<cods::PlanReport>| {
        let start = Instant::now();
        f().unwrap();
        println!("  {name:<18} {}", fmt_dur(start.elapsed()));
    };

    // CREATE / COPY / RENAME / DROP TABLE.
    let cods = Cods::new();
    cods.catalog().create(base.renamed("R")).unwrap();
    run("CREATE TABLE", &mut || {
        cods.plan(vec![Smo::CreateTable {
            name: "fresh".into(),
            schema: r_schema(),
        }])?
        .execute()
    });
    run("COPY TABLE", &mut || {
        cods.plan(vec![Smo::CopyTable {
            from: "R".into(),
            to: "R_copy".into(),
        }])?
        .execute()
    });
    run("RENAME TABLE", &mut || {
        cods.plan(vec![Smo::RenameTable {
            from: "R_copy".into(),
            to: "R_copy2".into(),
        }])?
        .execute()
    });
    run("DROP TABLE", &mut || {
        cods.plan(vec![Smo::DropTable {
            name: "R_copy2".into(),
        }])?
        .execute()
    });

    // Column SMOs.
    run("ADD COLUMN", &mut || {
        cods.plan(vec![Smo::AddColumn {
            table: "R".into(),
            column: ColumnDef::new("flag", ValueType::Int),
            default: Value::int(0),
        }])?
        .execute()
    });
    run("RENAME COLUMN", &mut || {
        cods.plan(vec![Smo::RenameColumn {
            table: "R".into(),
            from: "flag".into(),
            to: "flag2".into(),
        }])?
        .execute()
    });
    run("DROP COLUMN", &mut || {
        cods.plan(vec![Smo::DropColumn {
            table: "R".into(),
            column: "flag2".into(),
        }])?
        .execute()
    });

    // PARTITION / UNION.
    run("PARTITION TABLE", &mut || {
        cods.plan(vec![Smo::PartitionTable {
            input: "R".into(),
            predicate: Predicate::lt("entity", (cfg.distinct_entities / 2) as i64),
            satisfying: "R_lo".into(),
            rest: "R_hi".into(),
        }])?
        .execute()
    });
    run("UNION TABLES", &mut || {
        cods.plan(vec![Smo::UnionTables {
            left: "R_lo".into(),
            right: "R_hi".into(),
            output: "R".into(),
            drop_inputs: true,
        }])?
        .execute()
    });

    // DECOMPOSE / MERGE.
    run("DECOMPOSE TABLE", &mut || {
        cods.plan(vec![Smo::DecomposeTable {
            input: "R".into(),
            spec: experiment_spec(false),
        }])?
        .execute()
    });
    run("MERGE TABLES", &mut || {
        cods.plan(vec![Smo::MergeTables {
            left: "S".into(),
            right: "T".into(),
            output: "R".into(),
            strategy: MergeStrategy::Auto,
        }])?
        .execute()
    });
}

fn ablations(args: &Args) {
    let rows_n = args.rows.min(500_000);
    println!("\n=== Ablations ===");
    println!("rows = {rows_n}\n");
    let cfg = GenConfig::sweep_point(rows_n, 10_000.min(rows_n / 2).max(2));
    let table = cods_workload::generate_table("R", &cfg);

    // (1) FD verification cost in decomposition.
    let t0 = Instant::now();
    decompose(&table, &experiment_spec(false)).unwrap();
    let trusted = t0.elapsed();
    let t0 = Instant::now();
    decompose(&table, &experiment_spec(true)).unwrap();
    let verified = t0.elapsed();
    println!("  decompose (trusted)      {}", fmt_dur(trusted));
    println!("  decompose (FD verified)  {}", fmt_dur(verified));

    // (2) key-FK vs. general mergence on identical inputs.
    let out = decompose(&table, &experiment_spec(false)).unwrap();
    let (s, t) = (out.unchanged, out.changed);
    let t0 = Instant::now();
    merge_key_fk(&s, &t, "R1", &["entity".into()]).unwrap();
    let kfk = t0.elapsed();
    let t0 = Instant::now();
    merge_general(&s, &t, "R2", &["entity".into()]).unwrap();
    let general = t0.elapsed();
    println!("  merge (key-foreign key)  {}", fmt_dur(kfk));
    println!("  merge (general 2-pass)   {}", fmt_dur(general));

    // (3) WAH bitmap filtering vs. naive uncompressed gather.
    let col = table.column_by_name("entity").unwrap();
    let bm = &col.value_bitmap(0);
    let positions: Vec<u64> = (0..table.rows()).step_by(7).collect();
    let t0 = Instant::now();
    let filtered = bm.filter_positions(&positions);
    let wah_time = t0.elapsed();
    let plain = PlainBitmap::from_wah(bm);
    let t0 = Instant::now();
    let plain_filtered = plain.filter_positions(&positions);
    let plain_time = t0.elapsed();
    assert_eq!(filtered.count_ones(), plain_filtered.count_ones());
    println!("  bitmap filter (WAH)      {}", fmt_dur(wah_time));
    println!("  bitmap filter (plain)    {}", fmt_dur(plain_time));

    // (4) clustering + encoding: unclustered WAH vs. clustered WAH vs. RLE.
    {
        // Pin bitmap so the timed cluster_by is the pure sort+gather —
        // the adaptive chooser skips pinned columns, keeping this
        // figure's WAH-vs-WAH comparison and its sort-cost number free of
        // chooser/re-encode time.
        let unclustered = cods_workload::generate_table(
            "R",
            &GenConfig::sweep_point(rows_n, 1_000.min(rows_n / 2).max(2)),
        )
        .map_columns(None, |c| {
            c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
        })
        .unwrap();
        let t0 = Instant::now();
        let clustered = unclustered.cluster_by(&["entity"]).unwrap();
        let cluster_time = t0.elapsed();
        let col_u = unclustered.column_by_name("entity").unwrap();
        let col_c = clustered.column_by_name("entity").unwrap();
        let rle = col_c.recode(Encoding::Rle).unwrap();
        println!(
            "\n  clustering (rows = {rows_n}, sort cost {}):",
            fmt_dur(cluster_time)
        );
        println!(
            "  entity column, unclustered WAH: {:>10} bytes",
            col_u.payload_bytes()
        );
        println!(
            "  entity column, clustered WAH:   {:>10} bytes",
            col_c.payload_bytes()
        );
        println!(
            "  entity column, clustered RLE:   {:>10} bytes ({} runs)",
            rle.payload_bytes(),
            rle.run_count()
        );
    }

    // (5) compression ratio vs. #distinct values.
    println!("\n  compression (rows = {rows_n}):");
    println!(
        "  {:>10} {:>14} {:>14} {:>8}",
        "#distinct", "WAH bytes", "plain vxr", "ratio"
    );
    for d in [100u64, 1_000, 10_000] {
        if d > rows_n {
            break;
        }
        let t = cods_workload::generate_table("R", &GenConfig::sweep_point(rows_n, d));
        let stats = TableStats::of(&t);
        let c = &stats.columns[0];
        println!(
            "  {:>10} {:>14} {:>14} {:>7.1}x",
            d, c.payload_bytes, c.plain_matrix_bytes, c.compression_ratio
        );
    }
}

/// One untimed pass of every system at small scale, so the first measured
/// configuration does not absorb allocator / page-cache warmup.
fn warmup() {
    let rows = cods_workload::generate_rows(&GenConfig::sweep_point(5_000, 100));
    let table = Table::from_rows("R", r_schema(), &rows).unwrap();
    for &sys in System::decomposition_systems() {
        let _ = time_decompose(sys, &rows, Some(&table));
    }
    let (s_rows, t_rows) = decomposed_rows(&rows);
    for &sys in System::mergence_systems() {
        let _ = time_merge(sys, &s_rows, &t_rows, None, None);
    }
}

fn main() {
    let args = parse_args();
    println!("CODS evaluation harness (paper scale: rows = 10,000,000)");
    warmup();
    match args.command.as_str() {
        "decompose" => figure3a(&args),
        "merge" => figure3b(&args),
        "smos" => smo_catalogue(&args),
        "ablation" => ablations(&args),
        "all" => {
            figure3a(&args);
            figure3b(&args);
            smo_catalogue(&args);
            ablations(&args);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}
