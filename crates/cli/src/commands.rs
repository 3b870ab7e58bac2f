//! The command language of the CODS shells. Both shells — the local one
//! over a [`Cods`] platform and `cods connect` over a [`Client`](cods_server::Client) — accept
//! the same statements through [`run_statement`]: a bare SMO statement,
//! `run <file.smo>` and the four reads (`count`, `scan`, `agg`, `join`).
//! [`run_command`] adds the local shell's meta commands.

use cods::Cods;
use cods_query::{parse_query, Query, QueryOutput, RowSet};
use cods_server::{QueryReply, ScanSummary};
use cods_storage::persist::{read_catalog, save_catalog};
use cods_storage::{
    load_file, render_stats, segment_cache, EncodedColumn, Encoding, LoadOptions, RecodeScope,
    RecodeTarget, Schema, ValueType,
};
use cods_workload::figure1;
use std::io::{BufRead, Write};

/// Result of running one command line.
pub enum Outcome {
    /// Keep reading commands.
    Continue,
    /// Exit the shell.
    Quit,
}

/// The help text of both shells (the local part mirrors the buttons of
/// the demo UI in Figure 4).
pub const HELP: &str = "\
statements (both shells):
  CREATE TABLE t (id int, name str, KEY id) | DROP TABLE t | RENAME TABLE a TO b
  COPY TABLE a TO b | UNION TABLES a, b INTO c | MERGE TABLES s, t INTO r
  PARTITION TABLE t WHERE <predicate> INTO sat, rest
  DECOMPOSE TABLE r INTO s (a, b), t (a, c)
  ADD COLUMN c int DEFAULT 0 TO t | DROP COLUMN c FROM t | RENAME COLUMN a TO b IN t
  run <file.smo>                                   plan + execute an SMO script atomically
                                                   (validated up front; all-or-nothing commit)
  count <table> [where <predicate>]                predicate-selected row count
  scan <table> [select <c1,c2>] [where <predicate>]  stream selected rows
  agg <table> by <c1,c2|-> <op:col,…> [where <predicate>]
                                                   group-by; ops: count distinct sum min max
  join <left> <right> on <lcol=rcol,…>             partition-wise hash join
  stats <table>                                    storage statistics: per-segment encodings,
                                                   value ranges, run/distinct ratios, chooser picks,
                                                   cache residency, dead bytes per backing file
  predicate: <col> <op> <literal> under NOT, AND, OR; op: = != < <= > >=;
             'quoted' literals are strings, unquoted ones int, float, bool, else string
local shell only:
  explain <count|scan|agg|join statement>          output columns, row estimates from resident
                                                   segment metadata, a group-by's key table, and
                                                   a join's build side with the one rejected
  load <table> <file.csv> <name:type,...>          create and bulk-load from CSV
  demo                                             load the paper's Figure 1 table R
  tables                                           list tables
  display <table> [limit]                          show rows
  cache [<bytes>|unlimited]                        show buffer-cache telemetry, or set the
                                                   byte budget (suffixes k/m/g)
  recode <table> <col|*> <enc|auto> [a..b]         re-encode a column (or all) in place;
                                                   enc = rle/bitmap/packed pins, auto hands
                                                   back to the chooser; a..b = a segment range
  plan <file.smo>                                  validate a script and print its DAG,
                                                   one node per operator, and elided intermediates
  history                                          executed SMOs with timings, grouped per plan
  save <file> | open <file>                        persist / restore the catalog (open is
                                                   lazy; re-saving appends only what changed)
  vacuum <file>                                    compact a saved catalog's payload heap
                                                   (re-open afterwards to pick it up)
  wal <file>                                       durability status of a saved catalog:
                                                   committed slot and commit log
cods connect only:
  ping | refresh | metrics                         liveness, re-pin the session snapshot,
                                                   server counters plus the `cache` lines
help | quit
";

/// Per-batch callback of a read: (output columns, batch rows). The local
/// back end hands over the kernel's batch as it is — cells are read through
/// its dictionaries; the remote one wraps what the wire decoder built.
pub type BatchFn<'a> = dyn FnMut(&[(String, ValueType)], &RowSet) + 'a;

/// What a shell runs the shared statements against: the local platform or
/// a server connection. Errors are the text the shell prints.
pub trait Backend {
    /// Plans and commits SMO script text atomically; returns the report
    /// to print.
    fn script(&mut self, text: &str) -> Result<String, String>;
    /// Runs one read, handing each row batch to `on_batch` as it is
    /// produced.
    fn query(&mut self, query: Query, on_batch: &mut BatchFn<'_>) -> Result<QueryReply, String>;
}

impl Backend for Cods {
    /// The whole script goes through the planner: validated up front,
    /// committed atomically, the catalog untouched by any failure. The
    /// report is the demo's "Data Evolution Status" log.
    fn script(&mut self, text: &str) -> Result<String, String> {
        let plan = self.plan_script(text).map_err(|e| e.to_string())?;
        let report = plan.execute().map_err(|e| e.to_string())?;
        let mut text = String::new();
        for rec in &report.records {
            text += &format!("{}\n{}", rec.operator, rec.status.render());
        }
        Ok(format!(
            "{text}{} operator(s) committed ({} put(s), {} drop(s), {} intermediate(s) elided); \
             catalog v{}",
            report.records.len(),
            report.committed_puts,
            report.committed_drops,
            report.elided.len(),
            self.catalog().version()
        ))
    }

    fn query(&mut self, query: Query, on_batch: &mut BatchFn<'_>) -> Result<QueryReply, String> {
        let snapshot = self.catalog().snapshot_view();
        let resolved = query.resolve(&snapshot).map_err(|e| e.to_string())?;
        Ok(match resolved.run().map_err(|e| e.to_string())? {
            QueryOutput::Count { rows, selected } => {
                QueryReply::Count((rows, selected, snapshot.version()))
            }
            QueryOutput::Rows {
                columns,
                total,
                batches,
            } => {
                let (mut sent, mut rows) = (0, 0);
                for batch in batches {
                    let batch = batch.map_err(|e| e.to_string())?;
                    sent += 1;
                    rows += batch.len() as u64;
                    on_batch(&columns, &batch);
                }
                QueryReply::Rows(ScanSummary {
                    columns,
                    total_rows: total.unwrap_or(rows),
                    batches: sent,
                    rows,
                })
            }
        })
    }
}

/// Runs one statement of the language both shells share: a read, `run
/// <file.smo>`, or — anything else — a bare SMO statement.
pub fn run_statement(
    backend: &mut impl Backend,
    line: &str,
    out: &mut impl Write,
) -> Result<(), String> {
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let report = match verb.to_ascii_lowercase().as_str() {
        "count" | "scan" | "agg" | "join" => {
            let mut print = |columns: &[(String, ValueType)], rows: &RowSet| {
                for r in 0..rows.len() {
                    let cells: Vec<String> = columns
                        .iter()
                        .enumerate()
                        .map(|(c, (name, _))| format!("{name}={}", rows.cell(r, c)))
                        .collect();
                    writeln!(out, "  {}", cells.join(", ")).ok();
                }
            };
            match backend.query(parse_query(line)?, &mut print)? {
                QueryReply::Count((rows, selected, version)) => {
                    format!("{selected} of {rows} rows satisfy (catalog v{version})")
                }
                QueryReply::Rows(s) => format!("{} row(s) in {} batch(es)", s.rows, s.batches),
            }
        }
        "run" => {
            let file = rest.trim();
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            backend.script(&text)?
        }
        _ => backend.script(line)?,
    };
    writeln!(out, "{report}").ok();
    Ok(())
}

/// The read-eval-print loop of both shells: one command per line, blank
/// lines and `#` comments skipped, failures printed as `error:` lines.
/// Returns how many lines failed.
pub fn repl<W: Write>(
    prompt: &str,
    input: impl BufRead,
    out: &mut W,
    interactive: bool,
    mut run: impl FnMut(&str, &mut W) -> Result<Outcome, String>,
) -> usize {
    let mut failed = 0;
    let show_prompt = |out: &mut W| {
        if interactive {
            write!(out, "{prompt}").ok();
            out.flush().ok();
        }
    };
    show_prompt(out);
    for line in input.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if !line.is_empty() && !line.starts_with('#') {
            match run(line, out) {
                Ok(Outcome::Quit) => break,
                Ok(Outcome::Continue) => {}
                Err(msg) => {
                    failed += 1;
                    writeln!(out, "error: {msg}").ok();
                }
            }
        }
        show_prompt(out);
    }
    failed
}

fn parse_schema(spec: &str) -> Result<Schema, String> {
    let mut cols = Vec::new();
    for part in spec.split(',') {
        let (name, ty) = part
            .split_once(':')
            .ok_or_else(|| format!("column spec {part:?} must be name:type"))?;
        cols.push((
            name.trim(),
            cods::parser::parse_type(ty.trim()).map_err(|e| e.to_string())?,
        ));
    }
    Schema::build(&cols, &[]).map_err(|e| e.to_string())
}

/// Renders the `cache` command's telemetry: the process-wide buffer
/// cache's counters, as every surface prints them.
pub fn render_cache() -> String {
    format!("{}\n", segment_cache().stats())
}

/// Parses the `cache` command's byte-budget argument: a plain byte count
/// or one with a binary k/m/g suffix, or `unlimited`.
fn parse_budget(spec: &str) -> Result<u64, String> {
    if spec == "unlimited" {
        return Ok(u64::MAX);
    }
    let (digits, unit) = match spec.as_bytes().last() {
        Some(b'k' | b'K') => (&spec[..spec.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&spec[..spec.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&spec[..spec.len() - 1], 1u64 << 30),
        _ => (spec, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad byte budget {spec:?} (use e.g. 4096, 64m, unlimited)"))?;
    n.checked_mul(unit)
        .ok_or_else(|| format!("byte budget {spec:?} overflows"))
}

/// Parses the `recode` command's optional segment-range argument
/// (`from..to`, segment indices, end exclusive).
fn parse_segment_range(spec: &str) -> Result<std::ops::Range<usize>, String> {
    let (from, to) = spec
        .split_once("..")
        .ok_or_else(|| format!("segment range {spec:?} must be from..to"))?;
    let from: usize = from
        .trim()
        .parse()
        .map_err(|_| format!("bad range start {from:?}"))?;
    let to: usize = to
        .trim()
        .parse()
        .map_err(|_| format!("bad range end {to:?}"))?;
    Ok(from..to)
}

/// Executes one local-shell command line: a meta command, or — anything
/// else — a shared statement ([`run_statement`]) against the platform.
pub fn run_command(cods: &mut Cods, line: &str, out: &mut impl Write) -> Result<Outcome, String> {
    let mut parts = line.split_whitespace();
    let Some(cmd) = parts.next() else {
        return Ok(Outcome::Continue);
    };
    let args: Vec<&str> = parts.collect();
    match cmd {
        "help" => {
            write!(out, "{HELP}").ok();
        }
        "quit" | "exit" => return Ok(Outcome::Quit),
        "demo" => {
            cods.catalog()
                .create(figure1::table_r())
                .map_err(|e| e.to_string())?;
            writeln!(out, "loaded Figure 1 table R (7 rows)").ok();
        }
        "tables" => {
            for name in cods.catalog().table_names() {
                let t = cods.table(&name).map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "  {name}: {} rows, columns [{}]",
                    t.rows(),
                    t.schema().names().join(", ")
                )
                .ok();
            }
        }
        "load" => {
            let [name, file, spec] = args.as_slice() else {
                return Err("usage: load <table> <file.csv> <name:type,...>".into());
            };
            let schema = parse_schema(spec)?;
            let t = load_file(name, &schema, file, &LoadOptions::default())
                .map_err(|e| e.to_string())?;
            let rows = t.rows();
            cods.catalog().create(t).map_err(|e| e.to_string())?;
            writeln!(out, "loaded {rows} rows into {name}").ok();
        }
        "display" => {
            let Some(name) = args.first() else {
                return Err("usage: display <table> [limit]".into());
            };
            let limit: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
            let t = cods.table(name).map_err(|e| e.to_string())?;
            writeln!(out, "{}", t.schema().names().join(" | ")).ok();
            for i in 0..t.rows().min(limit) {
                let cells: Vec<String> = t.row(i).iter().map(|v| v.to_string()).collect();
                writeln!(out, "{}", cells.join(" | ")).ok();
            }
            if t.rows() > limit {
                writeln!(out, "… ({} more rows)", t.rows() - limit).ok();
            }
        }
        "stats" => {
            let Some(name) = args.first() else {
                return Err("usage: stats <table>".into());
            };
            let t = cods.table(name).map_err(|e| e.to_string())?;
            write!(out, "{}", render_stats(name, &t)).ok();
        }
        "cache" => match args.as_slice() {
            [] => {
                write!(out, "{}", render_cache()).ok();
            }
            [spec] => {
                let budget = parse_budget(spec)?;
                segment_cache().set_budget(budget);
                if budget == u64::MAX {
                    writeln!(out, "buffer cache budget: unlimited").ok();
                } else {
                    writeln!(out, "buffer cache budget: {budget} bytes").ok();
                }
            }
            _ => return Err("usage: cache [<bytes>|unlimited]".into()),
        },
        "recode" => {
            let (name, col, enc, scope) = match args.as_slice() {
                [name, col, enc] => (name, col, enc, RecodeScope::Column),
                [name, col, enc, range] => (
                    name,
                    col,
                    enc,
                    RecodeScope::Segments(parse_segment_range(range)?),
                ),
                _ => {
                    return Err(
                        "usage: recode <table> <col|*> <rle|bitmap|packed|auto> [from..to]".into(),
                    )
                }
            };
            let t = cods.table(name).map_err(|e| e.to_string())?;
            if *col == "*" && scope != RecodeScope::Column {
                return Err("segment ranges need a named column, not *".into());
            }
            let target = match *enc {
                "auto" => RecodeTarget::Auto,
                "rle" => RecodeTarget::To(Encoding::Rle),
                "bitmap" => RecodeTarget::To(Encoding::Bitmap),
                "packed" => RecodeTarget::To(Encoding::Packed),
                other => {
                    return Err(format!(
                        "unknown encoding {other:?} (use rle/bitmap/packed/auto)"
                    ))
                }
            };
            let only = (*col != "*").then_some(*col);
            let changed = t
                .map_columns(only, |c| c.with_encoding(scope.clone(), target))
                .map_err(|e| e.to_string())?;
            let mixed = |c: &EncodedColumn| c.encoding_counts().to_string();
            let done = match (&scope, target) {
                (RecodeScope::Column, RecodeTarget::To(e)) => format!("to {e} (pinned)"),
                (RecodeScope::Segments(r), RecodeTarget::To(e)) => {
                    format!("segments {}..{} to {e} (pinned)", r.start, r.end)
                }
                (RecodeScope::Segments(r), RecodeTarget::Auto) => {
                    let c = changed.column_by_name(col).map_err(|e| e.to_string())?;
                    format!(
                        "segments {}..{} by chooser: now {}",
                        r.start,
                        r.end,
                        mixed(c)
                    )
                }
                (RecodeScope::Column, RecodeTarget::Auto) => {
                    let picks: Vec<String> = changed
                        .schema()
                        .names()
                        .iter()
                        .zip(changed.columns())
                        .filter(|(n, _)| only.is_none_or(|col| **n == col))
                        .map(|(n, c)| match c.uniform_encoding() {
                            Some(e) => format!("{n}={e}"),
                            None => format!("{n}={}", mixed(c)),
                        })
                        .collect();
                    format!("by chooser: {}", picks.join(", "))
                }
            };
            cods.catalog().put(changed);
            writeln!(out, "recoded {name}.{col} {done}").ok();
        }
        "plan" => {
            let [file] = args.as_slice() else {
                return Err("usage: plan <script.smo>".into());
            };
            let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
            let plan = cods.plan_script(&text).map_err(|e| e.to_string())?;
            write!(out, "{}", plan.describe()).ok();
        }
        "history" => {
            // Records of one plan are contiguous and share a plan id;
            // multi-operator plans print grouped under one header.
            let hist = cods.history();
            let mut i = 0;
            while i < hist.len() {
                let id = hist[i].plan_id;
                let mut j = i + 1;
                while id.is_some() && j < hist.len() && hist[j].plan_id == id {
                    j += 1;
                }
                if j - i > 1 {
                    writeln!(
                        out,
                        "  plan #{} ({} operators, atomic commit):",
                        id.expect("grouped records carry a plan id"),
                        j - i
                    )
                    .ok();
                    for rec in &hist[i..j] {
                        writeln!(
                            out,
                            "    {:<58} {:>9.3} ms",
                            rec.operator,
                            rec.status.total.as_secs_f64() * 1e3
                        )
                        .ok();
                    }
                } else {
                    writeln!(
                        out,
                        "  {:<60} {:>9.3} ms",
                        hist[i].operator,
                        hist[i].status.total.as_secs_f64() * 1e3
                    )
                    .ok();
                }
                i = j;
            }
        }
        "save" => {
            let [file] = args.as_slice() else {
                return Err("usage: save <file>".into());
            };
            save_catalog(cods.catalog(), file).map_err(|e| e.to_string())?;
            writeln!(out, "saved catalog to {file}").ok();
        }
        "open" => {
            let [file] = args.as_slice() else {
                return Err("usage: open <file>".into());
            };
            let catalog = read_catalog(file).map_err(|e| e.to_string())?;
            *cods = Cods::with_catalog(catalog);
            writeln!(out, "opened catalog from {file}").ok();
        }
        "wal" => {
            let [file] = args.as_slice() else {
                return Err("usage: wal <file>".into());
            };
            let path = std::path::Path::new(file);
            let committed = match cods_storage::persist::committed_slot(path) {
                Ok((generation, slot)) => format!("generation {generation} in slot {slot}"),
                Err(_) if !path.exists() => "none (no table file yet)".to_string(),
                Err(e) => e.to_string(),
            };
            writeln!(out, "committed: {committed}").ok();
            let s = cods_storage::log_status(path).map_err(|e| e.to_string())?;
            if !s.exists {
                writeln!(out, "commit log: none (catalog not opened durably)").ok();
            } else {
                writeln!(
                    out,
                    "commit log: {} record(s) pending checkpoint, {} valid bytes{}",
                    s.records,
                    s.valid_bytes,
                    if s.torn_bytes > 0 {
                        format!(" (+{} torn tail bytes, discarded on open)", s.torn_bytes)
                    } else {
                        String::new()
                    }
                )
                .ok();
                for r in &s.pending {
                    let puts: Vec<String> = r
                        .puts
                        .iter()
                        .map(|p| {
                            format!(
                                "{} ({} referenced, {} carried, {} bytes)",
                                p.table, p.referenced, p.carried, p.carried_bytes
                            )
                        })
                        .collect();
                    writeln!(
                        out,
                        "  v{}: drops [{}], puts [{}]",
                        r.version,
                        r.drops.join(", "),
                        puts.join(", ")
                    )
                    .ok();
                }
            }
        }
        "vacuum" => {
            let [file] = args.as_slice() else {
                return Err("usage: vacuum <file>".into());
            };
            let report = cods_storage::vacuum_file(file).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "vacuumed {file}: {} -> {} bytes ({} reclaimed; {} live payload bytes across {} segments)",
                report.before_bytes,
                report.after_bytes,
                report.reclaimed_bytes(),
                report.live_payload_bytes,
                report.segments
            ).ok();
        }
        "explain" => {
            let query = parse_query(line["explain".len()..].trim())?;
            let snapshot = cods.catalog().snapshot_view();
            let resolved = query.resolve(&snapshot).map_err(|e| e.to_string())?;
            write!(out, "{}", resolved.explain()).ok();
        }
        _ => run_statement(cods, line, out)?,
    }
    Ok(Outcome::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::EncodingCounts;

    fn shell() -> Cods {
        Cods::new()
    }

    /// Runs one line, which must succeed, and returns what it printed.
    fn run(cods: &mut Cods, line: &str) -> String {
        let mut out = Vec::new();
        if let Err(e) = run_command(cods, line, &mut out) {
            panic!("{line:?} failed: {e}");
        }
        String::from_utf8(out).unwrap()
    }

    /// Runs one line, which must fail, and returns the error text.
    fn fails(cods: &mut Cods, line: &str) -> String {
        match run_command(cods, line, &mut Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("{line:?} must fail"),
        }
    }

    #[test]
    fn wal_lists_what_each_pending_record_holds() {
        let dir = std::env::temp_dir().join(format!("cods_cli_wal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.cods");
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));
        let (catalog, _log, _replay) = cods_storage::open_durable(&file).unwrap();
        let mut durable = Cods::with_catalog(catalog);
        run(&mut durable, "RENAME TABLE R TO R2");
        run(&mut durable, "ADD COLUMN note str DEFAULT 'n/a' TO R2");
        let text = run(&mut durable, &format!("wal {}", file.display()));
        assert!(text.contains("committed: generation 1 in slot 0"), "{text}");
        assert!(text.contains("2 record(s) pending checkpoint"), "{text}");
        assert!(
            text.contains("drops [R], puts [R2 (3 referenced, 0 carried, 0 bytes)]"),
            "{text}"
        );
        assert!(
            text.contains("puts [R2 (3 referenced, 1 carried, "),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_prints_estimates_rankings_and_the_columns_a_run_reports() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, "COPY TABLE R TO R2");
        let text = run(&mut cods, "explain agg R by employee count:skill");
        assert!(text.contains("-> [employee, count(skill)]"), "{text}");
        assert!(text.contains("\n    keys: id-indexed, 4 slots\n"), "{text}");
        let text = run(&mut cods, "explain agg R by employee,skill count:address");
        assert!(text.contains("\n    keys: hashed 2-id tuples\n"), "{text}");
        let ran = run(&mut cods, "agg R by employee count:skill");
        assert!(ran.contains("employee=Jones, count(skill)=3"), "{ran}");
        let text = run(
            &mut cods,
            "explain agg R by - count:skill where employee = Jones",
        );
        assert!(text.contains("selectivity 0.429"), "{text}");
        let text = run(&mut cods, "explain join R R2 on employee=employee");
        assert!(text.contains("join build side"), "{text}");
        let text = run(
            &mut cods,
            "explain scan R select skill where employee != Jones",
        );
        assert!(text.starts_with("Scan R -> [skill] where"), "{text}");
        assert!(text.contains("~4 rows"), "{text}");
        fails(&mut cods, "explain agg");
        fails(&mut cods, "explain join R R2 on employee");
        fails(&mut cods, "explain agg R by employee bogus:skill");
        assert_eq!(
            fails(&mut cods, "explain count nope"),
            "unknown table: nope"
        );
        // Explaining evolution is not a thing.
        fails(&mut cods, "explain DROP TABLE R");
    }

    #[test]
    fn demo_decompose_merge_flow() {
        let mut cods = shell();
        assert!(run(&mut cods, "demo").contains("7 rows"));
        let status = run(
            &mut cods,
            "DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)",
        );
        // The demo's status panel: the operator, its steps, the commit.
        assert!(status.contains("DECOMPOSE TABLE R INTO S"), "{status}");
        assert!(status.contains("total:"), "{status}");
        assert!(status.contains("1 operator(s) committed"), "{status}");
        assert!(cods.catalog().contains("S"));
        assert_eq!(cods.table("T").unwrap().rows(), 4);
        run(&mut cods, "merge tables S, T into R2");
        assert_eq!(cods.table("R2").unwrap().rows(), 7);
        assert_eq!(cods.history().len(), 2);
        let tables = run(&mut cods, "tables");
        assert!(tables.contains("R2: 7 rows, columns [employee, skill, address]"));
        assert_eq!(
            fails(&mut cods, "NONSENSE"),
            "invalid operator: line 1: unrecognized statement \"NONSENSE\""
        );
    }

    #[test]
    fn table_and_column_statements() {
        let mut cods = shell();
        run(&mut cods, "CREATE TABLE t (id int, name str, KEY id)");
        assert!(cods.catalog().contains("t"));
        run(&mut cods, "ADD COLUMN dept str DEFAULT eng TO t");
        assert!(cods.table("t").unwrap().schema().contains("dept"));
        run(&mut cods, "RENAME COLUMN dept TO division IN t");
        assert!(cods.table("t").unwrap().schema().contains("division"));
        run(&mut cods, "DROP COLUMN division FROM t");
        assert_eq!(cods.table("t").unwrap().arity(), 2);
        run(&mut cods, "COPY TABLE t TO t2");
        run(&mut cods, "RENAME TABLE t2 TO t3");
        run(&mut cods, "DROP TABLE t3");
        assert_eq!(cods.catalog().table_names(), vec!["t"]);
    }

    #[test]
    fn stats_tells_range_segments_from_packed_ones() {
        use cods_storage::{Schema, Table, Value, ValueType};
        // `k` is unique (three range segments); `p` holds each value twice,
        // never twice in a row (packed, with codes).
        let schema = Schema::build(&[("k", ValueType::Int), ("p", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| vec![Value::int(i), Value::int(i / 4 * 2 + i % 2)])
            .collect();
        let t = Table::from_rows_with_segment_rows("u", schema, &rows, 128).unwrap();
        let out = render_stats("u", &t);
        let line = |col: &str| {
            out.lines()
                .find(|l| l.trim_start().starts_with(col))
                .unwrap_or_else(|| panic!("no {col} line: {out}"))
                .to_string()
        };
        assert!(
            line("k ").contains("enc=packed  [3\u{d7}range]"),
            "stats: {out}"
        );
        assert!(line("k ").contains("payload=0B ratio=inf"), "stats: {out}");
        assert!(line("p ").contains("enc=packed "), "stats: {out}");
        assert!(!line("p ").contains("ratio=inf"), "stats: {out}");
        assert!(!line("p ").contains("range]"), "stats: {out}");
    }

    #[test]
    fn recode_and_stats_report_rle_segments() {
        let mut cods = shell();
        run(&mut cods, "demo");
        // Bitmap columns report their segment directory...
        let t = cods.table("R").unwrap();
        let before = render_stats("R", &t);
        assert!(before.contains("enc=bitmap"), "stats: {before}");
        assert!(before.contains("segments=1"), "stats: {before}");
        assert!(!before.contains("enc=rle"), "stats: {before}");
        // ...and after recoding, RLE columns report theirs too (the old
        // stats path simply had no RLE columns to count).
        run(&mut cods, "recode R skill rle");
        let t = cods.table("R").unwrap();
        let after = render_stats("R", &t);
        assert!(after.contains("enc=rle"), "stats: {after}");
        assert_eq!(
            after.matches("segments=1").count(),
            3,
            "RLE column must report its segment count: {after}"
        );
        assert!(t
            .column_by_name("skill")
            .unwrap()
            .is_uniform(cods_storage::Encoding::Rle));
        // Whole-table recode and round trip back.
        run(&mut cods, "recode R * rle");
        assert!(cods
            .table("R")
            .unwrap()
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Rle)));
        run(&mut cods, "recode R * bitmap");
        assert!(cods
            .table("R")
            .unwrap()
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Bitmap)));
        assert_eq!(cods.table("R").unwrap().rows(), 7);
        // Bad arguments are rejected.
        fails(&mut cods, "recode R skill zigzag");
        fails(&mut cods, "recode missing skill rle");
    }

    #[test]
    fn stats_report_zones_ratios_and_chooser_pick() {
        let mut cods = shell();
        run(&mut cods, "demo");
        let t = cods.table("R").unwrap();
        let out = render_stats("R", &t);
        // Value range folded from the zone maps.
        assert!(out.contains("range=[Ellis .. Roberts]"), "stats: {out}");
        // Run/distinct ratios and the chooser's pick are reported per
        // column; nothing is pinned yet.
        assert!(out.contains("runs="), "stats: {out}");
        assert!(out.contains("run/distinct="), "stats: {out}");
        assert!(out.contains("chooser="), "stats: {out}");
        assert!(!out.contains("(pinned)"), "stats: {out}");

        // An explicit recode pins and is reported as such; the chooser
        // line flags the disagreement when its pick differs.
        run(&mut cods, "recode R skill rle");
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(out.contains("enc=rle     (pinned)"), "stats: {out}");

        // `recode ... auto` hands the column back to the per-segment
        // chooser: pin cleared and every segment matches the chooser's own
        // pick for it.
        run(&mut cods, "recode R skill auto");
        let t = cods.table("R").unwrap();
        let col = t.column_by_name("skill").unwrap();
        assert!(!col.encoding_pinned());
        assert!((0..col.segment_count())
            .all(|i| col.segment_encoding(i) == col.segments()[i].meta().choose_encoding()));
        // Whole-table auto brings every segment to the chooser's pick, so
        // no stats line flags a pending re-encode any more.
        run(&mut cods, "recode R * auto");
        let t = cods.table("R").unwrap();
        assert!(t.columns().iter().all(|c| !c.encoding_pinned()
            && (0..c.segment_count()).all(|i| c.segment_pinned(i)
                || c.segment_encoding(i) == c.segments()[i].meta().choose_encoding())));
        let out = render_stats("R", &t);
        assert!(!out.contains("would re-encode"), "stats: {out}");
    }

    #[test]
    fn recode_segment_range_form_mixes_and_pins() {
        let mut cods = shell();
        run(&mut cods, "demo");
        // The demo table has one segment per column: range 0..1 recodes and
        // pins that single segment without touching the column-level pin.
        run(&mut cods, "recode R skill rle 0..1");
        let t = cods.table("R").unwrap();
        let col = t.column_by_name("skill").unwrap();
        assert!(col.is_uniform(cods_storage::Encoding::Rle));
        assert!(!col.encoding_pinned(), "range recode is not a column pin");
        assert!(col.segment_pinned(0), "range recode pins its segments");
        let out = render_stats("R", &t);
        assert!(out.contains("(1\u{d7}pinned)"), "stats: {out}");
        // `auto` over the range clears the pin and re-applies the chooser.
        run(&mut cods, "recode R skill auto 0..1");
        let t = cods.table("R").unwrap();
        let col = t.column_by_name("skill").unwrap();
        assert!(!col.segment_pinned(0));
        assert_eq!(
            col.segment_encoding(0),
            col.segments()[0].meta().choose_encoding()
        );
        // Bad ranges and `*` with a range are rejected.
        fails(&mut cods, "recode R skill rle 5..9");
        fails(&mut cods, "recode R skill rle 1");
        fails(&mut cods, "recode R * rle 0..1");
    }

    #[test]
    fn stats_show_a_range_pin_under_a_column_pin() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, "recode R * bitmap");
        run(&mut cods, "recode R skill rle 0..1");
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(
            out.contains("enc=rle     (pinned, 1\u{d7}pinned)"),
            "stats: {out}"
        );
        // The other columns carry the column pin alone.
        assert_eq!(
            out.matches("enc=bitmap  (pinned) ").count(),
            2,
            "stats: {out}"
        );
    }

    #[test]
    fn stats_report_mixed_directory_histogram() {
        // A multi-segment table loaded through the CLI, with half of one
        // column's segments recoded RLE: stats must show the histogram.
        let dir = std::env::temp_dir().join("cods_cli_mixed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mixed.csv");
        let csv: String = (0..400).map(|i| format!("{}\n", i / 50)).collect();
        std::fs::write(&file, csv).unwrap();
        let mut cods = shell();
        run(&mut cods, &format!("load t {} k:int", file.display()));
        // Re-segment small enough to get several segments.
        let small = cods.table("t").unwrap().to_rows();
        let schema = cods.table("t").unwrap().schema().clone();
        let resegmented =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &small, 100).unwrap();
        cods.catalog().put(resegmented);
        run(&mut cods, "recode t k rle 0..2");
        let t = cods.table("t").unwrap();
        assert_eq!(t.column(0).encoding_counts(), EncodingCounts([2, 2, 0]));
        let out = render_stats("t", &t);
        assert!(out.contains("enc=2\u{d7}bitmap/2\u{d7}rle"), "stats: {out}");
        assert!(out.contains("(2\u{d7}pinned)"), "stats: {out}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn partition_and_union_statements_and_the_reads_that_check_them() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(
            &mut cods,
            "PARTITION TABLE R WHERE employee = Jones INTO jones, others",
        );
        let count = run(&mut cods, "count jones");
        assert!(count.starts_with("3 of 3 rows satisfy"), "{count}");
        let scan = run(
            &mut cods,
            "scan others select employee where skill = 'Alchemy'",
        );
        assert_eq!(scan, "  employee=Ellis\n1 row(s) in 1 batch(es)\n");
        run(&mut cods, "UNION TABLES jones, others INTO R");
        assert_eq!(cods.table("R").unwrap().rows(), 7);
        let join = run(&mut cods, "join jones others on skill=skill");
        assert!(join.ends_with("0 row(s) in 0 batch(es)\n"), "{join}");
        assert_eq!(fails(&mut cods, "scan R select zip"), "unknown column: zip");
        assert_eq!(
            fails(&mut cods, "join jones others on employee=employee,skill"),
            "bad key pair at \"skill\", want lcol=rcol"
        );
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut cods = shell();
        assert!(fails(&mut cods, "display nope").contains("unknown table: nope"));
        fails(&mut cods, "load");
        fails(&mut cods, "frobnicate");
        fails(&mut cods, "run /nonexistent/script.smo");
        // Empty lines are no-ops.
        assert_eq!(run(&mut cods, ""), "");
        assert!(matches!(
            run_command(&mut cods, "quit", &mut Vec::new()).unwrap(),
            Outcome::Quit
        ));
    }

    #[test]
    fn repl_counts_failed_lines_and_prints_them_as_errors() {
        let mut cods = shell();
        let script = "demo\n# a comment\n\ncount R\ncount nope\nfrobnicate\nquit\ncount nope\n";
        let mut out = Vec::new();
        let failed = repl("cods> ", script.as_bytes(), &mut out, false, |line, out| {
            run_command(&mut cods, line, out)
        });
        let out = String::from_utf8(out).unwrap();
        assert_eq!(failed, 2, "{out}");
        assert!(out.contains("7 of 7 rows satisfy"), "{out}");
        assert!(out.contains("error: unknown table: nope\n"), "{out}");
        assert_eq!(
            out.matches("error:").count(),
            2,
            "nothing runs after quit: {out}"
        );
        assert!(
            !out.contains("cods> "),
            "no prompt unless interactive: {out}"
        );
    }

    #[test]
    fn run_command_goes_through_the_atomic_plan_path() {
        let dir = std::env::temp_dir().join("cods_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A valid script executes end to end with one atomic commit.
        let ok = dir.join("ok.smo");
        std::fs::write(
            &ok,
            "DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)\n\
             MERGE TABLES S, T INTO R2\n",
        )
        .unwrap();
        let mut cods = shell();
        run(&mut cods, "demo");
        let v0 = cods.catalog().version();
        run(&mut cods, &format!("run {}", ok.display()));
        assert!(cods.catalog().contains("R2"));
        assert_eq!(cods.catalog().version(), v0 + 1, "one atomic commit");

        // Regression: a script failing mid-way (the second statement's
        // output name collides with an existing table) must leave the
        // catalog exactly as it was — no partial mutation.
        let bad = dir.join("bad.smo");
        std::fs::write(
            &bad,
            "COPY TABLE R2 TO R3\nRENAME TABLE R3 TO S\nDROP TABLE R2\nDROP TABLE missing\n",
        )
        .unwrap();
        let names_before = cods.catalog().table_names();
        let v1 = cods.catalog().version();
        fails(&mut cods, &format!("run {}", bad.display()));
        assert_eq!(cods.catalog().table_names(), names_before);
        assert_eq!(cods.catalog().version(), v1);

        std::fs::remove_file(&ok).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn plan_command_prints_dag_and_fusion() {
        let dir = std::env::temp_dir().join("cods_cli_plan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("script.smo");
        std::fs::write(
            &file,
            "ADD COLUMN dept str DEFAULT eng TO R\nDROP COLUMN dept FROM R\n",
        )
        .unwrap();
        let mut cods = shell();
        run(&mut cods, "demo");
        // `plan` only validates and prints; nothing executes.
        let described = run(&mut cods, &format!("plan {}", file.display()));
        // One node per column operator, and no fusion line.
        assert!(described.contains("plan: 2 nodes"), "{described}");
        assert!(
            described.contains("[0] ADD COLUMN dept TO R"),
            "{described}"
        );
        assert!(
            described.contains("[1] DROP COLUMN dept FROM R"),
            "{described}"
        );
        assert!(!described.contains("fusion:"), "{described}");
        assert_eq!(cods.table("R").unwrap().arity(), 3);
        assert!(cods.history().is_empty());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn history_groups_plan_records() {
        let mut cods = shell();
        run(&mut cods, "demo");
        let report = cods
            .plan_script("COPY TABLE R TO A\nCOPY TABLE R TO B")
            .unwrap()
            .execute()
            .unwrap();
        let id = report.records[0].plan_id.unwrap();
        assert!(report.records.iter().all(|r| r.plan_id == Some(id)));
        run(&mut cods, "DROP TABLE A");
        let hist = cods.history();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].plan_id, hist[1].plan_id);
        assert_ne!(hist[2].plan_id, hist[0].plan_id);
        let shown = run(&mut cods, "history");
        assert!(shown.contains("(2 operators, atomic commit):"), "{shown}");
        assert_eq!(shown.matches(" ms").count(), 3, "{shown}");
    }

    /// `text` with every `<spaces><digits>.<3 digits> ms` replaced by
    /// ` <t> ms`: the timings and the padding their width decides.
    fn untimed(text: &str) -> String {
        let mut out = String::new();
        let mut rest = text;
        while let Some(at) = rest.find(" ms") {
            let (head, tail) = rest.split_at(at);
            let lead = head.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.');
            let timed = match head[lead.len()..].split_once('.') {
                Some((int, frac)) => !int.is_empty() && frac.len() == 3 && !frac.contains('.'),
                None => false,
            };
            if timed {
                out.push_str(lead.trim_end_matches(' '));
                out.push_str(" <t>");
            } else {
                out.push_str(head);
            }
            out.push_str(" ms");
            rest = &tail[" ms".len()..];
        }
        out + rest
    }

    #[test]
    fn operator_logs_and_history_keep_their_form() {
        let file = std::env::temp_dir().join(format!("cods_cli_pin_{}.smo", std::process::id()));
        std::fs::write(
            &file,
            "DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)\n\
             MERGE TABLES S, T INTO R2\n\
             ADD COLUMN note str DEFAULT 'n/a' TO R2\n",
        )
        .unwrap();
        let mut cods = shell();
        run(&mut cods, "demo");
        let ran = untimed(&run(&mut cods, &format!("run {}", file.display())));
        std::fs::remove_file(&file).ok();
        let shown = untimed(&run(&mut cods, "history"));
        assert_eq!(
            ran,
            "\
DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)
  validate decomposition shape: <t> ms
  reuse unchanged columns (2 items): <t> ms
  distinction (4 items): <t> ms
  verify functional dependency: <t> ms
  bitmap filtering (8 items): <t> ms
  total: <t> ms
MERGE TABLES S, T INTO R2
  build key table (4 items): <t> ms
  map join dictionaries: <t> ms
  sequential scan (parallel per chunk) (7 items): <t> ms
  build payload bitmaps (1 items): <t> ms
  assemble output table: <t> ms
  total: <t> ms
ADD COLUMN note TO R2
  build new column: <t> ms
  attach column: <t> ms
  total: <t> ms
3 operator(s) committed (3 put(s), 1 drop(s), 0 intermediate(s) elided); catalog v2
"
        );
        assert_eq!(
            shown,
            "  plan #0 (3 operators, atomic commit):
    DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address) <t> ms
    MERGE TABLES S, T INTO R2 <t> ms
    ADD COLUMN note TO R2 <t> ms
"
        );
    }

    /// Serialises the tests that set or observe the process-wide buffer
    /// cache so a concurrently shrunk budget can't evict segments whose
    /// residency another test is asserting.
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cache_command_reports_and_sets_the_budget() {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut cods = shell();
        run(&mut cods, "demo");
        // `stats` reports residency: a freshly built table is fully
        // resident with nothing paged out.
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(
            out.contains("3 resident / 0 on-disk segments"),
            "stats: {out}"
        );
        // `cache <bytes>` sets the budget, with binary suffixes; `cache
        // unlimited` clears it.
        run(&mut cods, "cache 65536");
        assert_eq!(segment_cache().stats().budget, 65536);
        run(&mut cods, "cache 64k");
        assert_eq!(segment_cache().stats().budget, 65536);
        run(&mut cods, "cache 2m");
        assert_eq!(segment_cache().stats().budget, 2 << 20);
        run(&mut cods, "cache unlimited");
        assert_eq!(segment_cache().stats().budget, u64::MAX);
        // Telemetry renders budget, resident bytes, and counters.
        let out = render_cache();
        assert!(out.contains("budget=unlimited"), "cache: {out}");
        assert!(out.contains("resident="), "cache: {out}");
        assert!(out.contains("misses"), "cache: {out}");
        assert!(out.contains("evictions"), "cache: {out}");
        // Bad arguments are rejected.
        fails(&mut cods, "cache nonsense");
        fails(&mut cods, "cache 1 2");
        assert_eq!(run(&mut cods, "cache"), render_cache());
    }

    #[test]
    fn open_is_lazy_and_stats_show_residency() {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("cods_cli_lazy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("lazy.catalog");
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));
        let mut fresh = shell();
        run(&mut fresh, &format!("open {}", file.display()));
        // The reopened catalog is metadata-only until something reads it,
        // and `stats` itself must not fault anything in.
        let t = fresh.table("R").unwrap();
        let out = render_stats("R", &t);
        assert!(
            out.contains("0 resident / 3 on-disk segments"),
            "stats: {out}"
        );
        assert_eq!(t.residency_counts(), (0, 3), "stats faulted payloads in");
        // Reading the data faults it in; stats now reflect that.
        assert_eq!(t.rows(), 7);
        assert_eq!(t.to_rows().len(), 7);
        let out = render_stats("R", &t);
        assert!(
            out.contains("3 resident / 0 on-disk segments"),
            "stats: {out}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn vacuum_command_compacts_and_stats_report_heap_occupancy() {
        let dir = std::env::temp_dir().join("cods_cli_vacuum_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("churn.catalog");
        std::fs::remove_file(&file).ok();
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));

        // After the first save everything is live; `stats` reports the
        // backing file's heap occupancy.
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(out.contains("file "), "stats: {out}");
        assert!(out.contains("+ 0 dead"), "stats: {out}");

        // Churn one column: the other columns' extents stay reused, so the
        // saves take the append path and strand the recoded payloads.
        run(&mut cods, "recode R skill rle");
        run(&mut cods, &format!("save {}", file.display()));
        run(&mut cods, "recode R skill bitmap");
        run(&mut cods, &format!("save {}", file.display()));
        let churned = cods_storage::heap_stats(&file).unwrap();
        assert!(churned.dead_bytes > 0, "{churned:?}");
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(!out.contains("+ 0 dead"), "stats: {out}");

        // `vacuum <file>` compacts; the file reopens equal and fully live.
        run(&mut cods, &format!("vacuum {}", file.display()));
        let after = cods_storage::heap_stats(&file).unwrap();
        assert_eq!(after.dead_bytes, 0, "{after:?}");
        assert!(after.file_bytes < churned.file_bytes);
        let mut fresh = shell();
        run(&mut fresh, &format!("open {}", file.display()));
        assert_eq!(fresh.table("R").unwrap().rows(), 7);

        // Bad arguments are rejected.
        fails(&mut cods, "vacuum");
        fails(&mut cods, "vacuum /nonexistent/x.catalog");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn save_and_open_round_trip() {
        let dir = std::env::temp_dir().join("cods_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("demo.catalog");
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));
        let mut fresh = shell();
        run(&mut fresh, &format!("open {}", file.display()));
        assert!(fresh.catalog().contains("R"));
        assert_eq!(fresh.table("R").unwrap().rows(), 7);
        std::fs::remove_file(&file).ok();
    }
}
