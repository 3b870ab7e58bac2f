//! The network side of the CLI: `cods serve <addr>` hosts a platform
//! behind the framed TCP protocol, `cods connect <addr>` is a small
//! client REPL over [`cods_server::Client`].
//!
//! The connect command language (one command per line):
//!
//! ```text
//! ping                                    liveness probe
//! refresh                                 re-pin the session snapshot
//! metrics                                 server counters + buffer cache
//! stats <table>                           table statistics at the snapshot
//! tables? use `metrics` / `stats`; the catalog listing is script-side
//! count <table> [where <col> <op> <lit>]  predicate-selected row count
//! scan <table> [select c1,c2] [where …]   stream selected rows
//! agg <table> by <c1,c2|-> <op:col,…> [where …]
//! join <left> <right> on <lcol=rcol,…>    partition-wise hash join
//! run <smo script>                        execute an SMO line remotely
//! quit
//! ```

use crate::commands::parse_agg_spec;
use cods_query::{AggOp, CmpOp, Predicate};
use cods_server::{Client, ClientError, ServerConfig};
use cods_storage::Value;
use std::io::Write;
use std::time::Duration;

/// How `cods serve` should host the platform, parsed from the command
/// line by `main`.
#[derive(Debug, Default, Clone)]
pub struct ServeOptions {
    /// Start with the paper's demo table loaded.
    pub preload_demo: bool,
    /// Open this catalog file durably ([`cods_storage::open_durable`]):
    /// replay its commit log, and acknowledge every script only after the
    /// group fsync covering its commit. A `kill -9` at any point loses no
    /// acknowledged commit.
    pub durable: Option<String>,
    /// Evict connections idle longer than this.
    pub idle_timeout: Option<Duration>,
    /// Fail writes to clients that stop reading for longer than this.
    pub write_timeout: Option<Duration>,
}

/// In durable mode, how often the background checkpointer folds the
/// commit log into a full save.
const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(30);

/// Hosts `cods` behind `addr` until the process is killed.
pub fn serve(addr: &str, opts: &ServeOptions) -> Result<(), String> {
    let (mut cods, log) = match &opts.durable {
        Some(file) => {
            let (catalog, log, replay) = cods_storage::open_durable(std::path::Path::new(file))
                .map_err(|e| format!("cannot open {file} durably: {e}"))?;
            println!(
                "opened {file} durably: {} commit(s) replayed{}{}",
                replay.replayed,
                if replay.discarded_torn {
                    ", torn tail discarded"
                } else {
                    ""
                },
                if replay.orphan_spills > 0 {
                    format!(", {} orphan spill(s) removed", replay.orphan_spills)
                } else {
                    String::new()
                },
            );
            (cods::Cods::with_catalog(catalog), Some(log))
        }
        None => (cods::Cods::new(), None),
    };
    if opts.preload_demo {
        crate::run_command(&mut cods, "demo")?;
    }
    let config = ServerConfig {
        idle_timeout: opts.idle_timeout,
        write_timeout: opts.write_timeout,
        commit_log: log.clone(),
        ..ServerConfig::default()
    };
    let cods = std::sync::Arc::new(cods);
    // Periodic checkpointing keeps the log short; recovery does not need
    // it (a kill at any moment replays the log), it only bounds replay
    // work and disk growth.
    if let Some(log) = log {
        let cods = std::sync::Arc::clone(&cods);
        std::thread::spawn(move || loop {
            std::thread::sleep(CHECKPOINT_INTERVAL);
            if log.stats().pending_records > 0 {
                match log.checkpoint(cods.catalog()) {
                    Ok(n) => println!("checkpoint: {n} commit record(s) folded into the save"),
                    Err(e) => eprintln!("checkpoint failed: {e}"),
                }
            }
        });
    }
    let handle = cods_server::Server::bind(addr, cods, config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("serving on {}", handle.local_addr());
    println!("connect with: cods connect {}", handle.local_addr());
    loop {
        std::thread::park();
    }
}

/// Runs the connect REPL against `addr`, reading commands from `input`
/// and writing results to `out`.
pub fn connect_repl(
    addr: &str,
    input: impl std::io::BufRead,
    out: &mut impl Write,
    interactive: bool,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    writeln!(
        out,
        "connected to {addr} (catalog v{})",
        client.catalog_version()
    )
    .ok();
    if interactive {
        write!(out, "cods@{addr}> ").ok();
        out.flush().ok();
    }
    for line in input.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if !line.is_empty() && !line.starts_with('#') {
            match connect_command(&mut client, line, out) {
                Ok(true) => break,
                Ok(false) => {}
                Err(msg) => {
                    writeln!(out, "error: {msg}").ok();
                }
            }
        }
        if interactive {
            write!(out, "cods@{addr}> ").ok();
            out.flush().ok();
        }
    }
    Ok(())
}

/// Executes one connect-REPL command. Returns `true` to quit.
pub fn connect_command(
    client: &mut Client,
    line: &str,
    out: &mut impl Write,
) -> Result<bool, String> {
    let mut words = line.split_whitespace();
    let cmd = words.next().unwrap_or("");
    let rest: Vec<&str> = words.collect();
    match cmd {
        "quit" | "exit" => return Ok(true),
        "ping" => {
            client.ping().map_err(fmt_err)?;
            writeln!(out, "pong").ok();
        }
        "refresh" => {
            let v = client.refresh().map_err(fmt_err)?;
            writeln!(out, "snapshot re-pinned at catalog v{v}").ok();
        }
        "metrics" => {
            let m = client.metrics().map_err(fmt_err)?;
            writeln!(
                out,
                "connections: {} open / {} total",
                m.connections_open, m.connections_total
            )
            .ok();
            writeln!(
                out,
                "requests: {} in flight, {} queued, {} admitted, {} rejected",
                m.in_flight, m.queued, m.admitted_total, m.rejected_total
            )
            .ok();
            writeln!(
                out,
                "streamed: {} rows, {} bytes",
                m.rows_streamed, m.bytes_streamed
            )
            .ok();
            writeln!(
                out,
                "cache: {} resident bytes, {} hits, {} misses, {} evictions",
                m.cache.resident_bytes, m.cache.hits, m.cache.misses, m.cache.evictions
            )
            .ok();
            if m.idle_evicted > 0 {
                writeln!(out, "idle-evicted: {} connection(s)", m.idle_evicted).ok();
            }
            if m.durability.enabled == 1 {
                let d = &m.durability;
                writeln!(
                    out,
                    "durability: {} commit(s) over {} fsync(s) (max batch {}, {} us fsync time); \
                     {} record(s) pending checkpoint, {} log bytes",
                    d.commits, d.fsyncs, d.max_batch, d.fsync_micros, d.log_pending, d.log_bytes
                )
                .ok();
            }
        }
        "stats" => {
            let table = rest.first().ok_or("usage: stats <table>")?;
            let s = client.stats(table).map_err(fmt_err)?;
            writeln!(
                out,
                "{table}@v{}: {} rows x {} cols, {} bytes, segments {} resident / {} on disk",
                s.catalog_version,
                s.rows,
                s.arity,
                s.total_bytes,
                s.resident_segments,
                s.on_disk_segments
            )
            .ok();
        }
        "count" => {
            let (table, tail) = rest.split_first().ok_or("usage: count <table> [where …]")?;
            let pred = parse_where(tail)?;
            let (rows, selected, v) = client.mask(table, pred).map_err(fmt_err)?;
            writeln!(out, "{selected} of {rows} rows satisfy (catalog v{v})").ok();
        }
        "scan" => {
            let (table, tail) = rest.split_first().ok_or("usage: scan <table> …")?;
            let (projection, tail) = parse_select(tail)?;
            let pred = parse_where(tail)?;
            let summary = client
                .scan_with(table, pred, projection, |cols, rows| {
                    for row in rows {
                        let cells: Vec<String> = cols
                            .iter()
                            .zip(&row)
                            .map(|((name, _), v)| format!("{name}={v}"))
                            .collect();
                        writeln!(out, "  {}", cells.join(", ")).ok();
                    }
                })
                .map_err(fmt_err)?;
            writeln!(
                out,
                "{} row(s) in {} batch(es)",
                summary.rows, summary.batches
            )
            .ok();
        }
        "agg" => {
            // agg <table> by <c1,c2|-> <op:col,…> [where …]
            let (table, tail) = rest.split_first().ok_or(AGG_USAGE)?;
            let tail = match tail.split_first() {
                Some((&"by", t)) => t,
                _ => return Err(AGG_USAGE.into()),
            };
            let (groups, tail) = tail.split_first().ok_or(AGG_USAGE)?;
            let group_by: Vec<String> = if *groups == "-" {
                Vec::new()
            } else {
                groups.split(',').map(str::to_string).collect()
            };
            let (specs, tail) = tail.split_first().ok_or(AGG_USAGE)?;
            let aggs: Vec<(AggOp, String)> = specs
                .split(',')
                .map(parse_agg_spec)
                .collect::<Result<_, String>>()?;
            let pred = parse_where(tail)?;
            let (cols, rows) = client
                .group_by(table, pred, group_by, aggs)
                .map_err(fmt_err)?;
            let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
            writeln!(out, "  {}", names.join(" | ")).ok();
            for row in &rows {
                let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
                writeln!(out, "  {}", cells.join(" | ")).ok();
            }
            writeln!(out, "{} group(s)", rows.len()).ok();
        }
        "join" => {
            // join <left> <right> on <lcol=rcol,…>
            let (left, right, pairs) = match rest.as_slice() {
                [l, r, on, p] if *on == "on" => (*l, *r, *p),
                _ => return Err(JOIN_USAGE.into()),
            };
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            for pair in pairs.split(',') {
                let (lk, rk) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad key pair {pair:?}, want lcol=rcol"))?;
                left_keys.push(lk.to_string());
                right_keys.push(rk.to_string());
            }
            let summary = client
                .join_with(left, right, left_keys, right_keys, |cols, rows| {
                    for row in rows {
                        let cells: Vec<String> = cols
                            .iter()
                            .zip(&row)
                            .map(|((name, _), v)| format!("{name}={v}"))
                            .collect();
                        writeln!(out, "  {}", cells.join(", ")).ok();
                    }
                })
                .map_err(fmt_err)?;
            writeln!(
                out,
                "{} match(es) in {} batch(es)",
                summary.rows, summary.batches
            )
            .ok();
        }
        "run" => {
            if rest.is_empty() {
                return Err("usage: run <smo script line>".into());
            }
            let script = rest.join(" ");
            let msg = client.script(&script).map_err(fmt_err)?;
            writeln!(out, "{msg}").ok();
        }
        "help" => {
            writeln!(
                out,
                "commands: ping refresh metrics stats count scan agg join run quit"
            )
            .ok();
        }
        other => return Err(format!("unknown command: {other} (try help)")),
    }
    Ok(false)
}

const AGG_USAGE: &str = "usage: agg <table> by <c1,c2|-> <op:col,…> [where …]";
const JOIN_USAGE: &str = "usage: join <left> <right> on <lcol=rcol,…>";

fn fmt_err(e: ClientError) -> String {
    e.to_string()
}

/// Optional `select c1,c2` prefix; returns the projection and the rest.
fn parse_select<'a>(words: &'a [&'a str]) -> Result<(Option<Vec<String>>, &'a [&'a str]), String> {
    match words.split_first() {
        Some((&"select", tail)) => {
            let (cols, tail) = tail
                .split_first()
                .ok_or("select needs a column list: select c1,c2")?;
            Ok((Some(cols.split(',').map(str::to_string).collect()), tail))
        }
        _ => Ok((None, words)),
    }
}

/// Optional `where <col> <op> <literal>` suffix → predicate.
fn parse_where(words: &[&str]) -> Result<Predicate, String> {
    match words.split_first() {
        None => Ok(Predicate::True),
        Some((&"where", tail)) => match tail {
            [col, op, lit @ ..] if !lit.is_empty() => {
                let op = match *op {
                    "=" | "==" => CmpOp::Eq,
                    "!=" | "<>" => CmpOp::Ne,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    ">=" => CmpOp::Ge,
                    other => return Err(format!("unknown comparison {other:?}")),
                };
                Ok(Predicate::Compare {
                    column: (*col).to_string(),
                    op,
                    literal: parse_literal(&lit.join(" ")),
                })
            }
            _ => Err("usage: where <column> <op> <literal>".into()),
        },
        Some((other, _)) => Err(format!("expected `where`, got {other:?}")),
    }
}

/// Untyped literal parsing: null / bool / int / float, else string.
fn parse_literal(s: &str) -> Value {
    match s {
        "null" | "NULL" => return Value::Null,
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Value::int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::float(f);
    }
    Value::str(s.trim_matches('\''))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_server::{Server, ServerConfig};
    use std::sync::Arc;

    fn demo_server() -> cods_server::ServerHandle {
        let mut cods = cods::Cods::new();
        crate::run_command(&mut cods, "demo").unwrap();
        Server::bind("127.0.0.1:0", Arc::new(cods), ServerConfig::default()).unwrap()
    }

    fn run(client: &mut Client, line: &str) -> String {
        let mut out = Vec::new();
        connect_command(client, line, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn literal_parsing_is_untyped_but_sensible() {
        assert_eq!(parse_literal("null"), Value::Null);
        assert_eq!(parse_literal("true"), Value::Bool(true));
        assert_eq!(parse_literal("42"), Value::int(42));
        assert_eq!(parse_literal("4.5"), Value::float(4.5));
        assert_eq!(parse_literal("'Jones'"), Value::str("Jones"));
        assert_eq!(parse_literal("Jones"), Value::str("Jones"));
    }

    #[test]
    fn repl_surfaces_scan_count_and_metrics() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let count = run(&mut client, "count R where employee = Jones");
        assert!(count.contains("3 of 7 rows"), "got: {count}");

        let scan = run(&mut client, "scan R select skill where employee = Jones");
        assert!(scan.contains("skill=Typing"), "got: {scan}");
        assert!(scan.contains("3 row(s)"), "got: {scan}");

        let agg = run(&mut client, "agg R by employee count:skill");
        assert!(agg.contains("count(skill)"), "got: {agg}");
        assert!(agg.contains("4 group(s)"), "got: {agg}");

        let stats = run(&mut client, "stats R");
        assert!(stats.contains("7 rows x 3 cols"), "got: {stats}");

        // The metrics satellite: counters visible through the REPL, with
        // the rows we just streamed accounted for.
        let metrics = run(&mut client, "metrics");
        assert!(metrics.contains("connections: 1 open"), "got: {metrics}");
        assert!(metrics.contains("admitted"), "got: {metrics}");
        assert!(metrics.contains("cache:"), "got: {metrics}");
        let rows_line = metrics
            .lines()
            .find(|l| l.starts_with("streamed:"))
            .expect("streamed line");
        assert!(!rows_line.contains("streamed: 0 rows"), "got: {metrics}");
    }

    #[test]
    fn repl_streams_joins() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Second table to join against: a copy of the demo table.
        run(&mut client, "run COPY TABLE R TO R2");
        let joined = run(&mut client, "join R R2 on employee=employee");
        // Jones has 3 skill rows on each side: 9 Jones matches, plus
        // Ellis 1x1 and the remaining singletons.
        assert!(joined.contains("match(es)"), "got: {joined}");
        assert!(joined.contains("employee=Jones"), "got: {joined}");
        let mut out = Vec::new();
        assert!(connect_command(&mut client, "join R R2 on", &mut out).is_err());
        assert!(connect_command(&mut client, "join R R2 on employee", &mut out).is_err());
    }

    #[test]
    fn repl_runs_scripts_and_sees_its_own_writes() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let msg = run(&mut client, "run COPY TABLE R TO R2");
        assert!(msg.contains("1 operator(s) committed"), "got: {msg}");
        // Read-your-writes: the session snapshot moved with the script.
        let stats = run(&mut client, "stats R2");
        assert!(stats.contains("7 rows"), "got: {stats}");
        // Unknown commands and server-side errors surface as Err.
        let mut out = Vec::new();
        assert!(connect_command(&mut client, "bogus", &mut out).is_err());
        assert!(connect_command(&mut client, "stats nope", &mut out).is_err());
    }
}
