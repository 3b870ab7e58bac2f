//! The two served workloads. Both host the server in-process, wired the
//! way `cods serve --durable` wires it (`open_durable` → `Cods::with_catalog`
//! → `ServerConfig { commit_log: Some(log), .. }`), and drive it over
//! loopback TCP with the crate's own blocking `Client` on one closed-loop
//! connection:
//!
//! * `serve_hot` — working set resident;
//! * `serve_cold` — the same op list under a small buffer-cache budget.
//!
//! The harness issues the checkpoints (one at the end of every pass) in
//! place of the CLI's 30 s timer thread, so their count repeats.

use crate::data::{customer_name, region_name, warehouse, RowDigest, Sales, Scale};
use crate::host::{self, median, quantile, ratio};
use crate::probes;
use crate::record::Recorder;
use crate::run::{put, LayerCounters, Metrics, Workload};
use cods::Cods;
use cods_query::{
    aggregate_table_masked, join_stream, plan_join, predicate_mask, AggOp, Predicate, ScanStream,
};
use cods_server::{Client, ClientError, Server, ServerConfig, ServerHandle};
use cods_storage::commitlog::spill_dir;
use cods_storage::{
    clog_path, open_durable, persist, segment_cache, vacuum_catalog, wait_for_auto_vacuum, Catalog,
    CommitLog, Table, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Point reads per half of a pass, and the customers one of them asks
/// for. A read names eight customers so that the engine's work (about
/// 0.7 ms) is most of its latency: a one-customer mask costs the engine
/// under 0.1 ms, and the two thread wake-ups of a loopback round trip add
/// 0.04 ms on a quiet host but about 0.1 ms when the hypervisor is busy,
/// which moved even the lowest decile of the one-customer read by 70 %.
/// Eight random customers also make every read cost about the same, so
/// the decile does not depend on which keys a seed drew. Reads are few
/// because under `serve_cold`'s budget each of the eight leaves faults the
/// `cust_id` segments in again, 130 ms a read.
const POINTS_PER_HALF: usize = 2;
const CUSTOMERS_PER_POINT: usize = 8;

const DIM_DECOMPOSE: &str = "DECOMPOSE TABLE customer_dim INTO cust_names (cust_id, cust_name), \
                             cust_regions (cust_id, region_name)";
const DIM_MERGE: &str = "MERGE TABLES cust_names, cust_regions INTO customer_dim\n\
                         DROP TABLE cust_names\nDROP TABLE cust_regions";

/// One op of the replayed list, with the value its reply must match.
#[derive(Debug)]
enum Op {
    /// `mask sales_wide where cust_id = c1 or ... or cust_id = c8`.
    Point { custs: Vec<i64>, expect: u64 },
    /// `scan sales_wide where sale_id in [start, start + scan_rows)`.
    RangeScan { start: u64, expect: RowDigest },
    /// `sales_wide by region_name sum(amount)` over a `sale_id` range.
    GroupBy {
        start: u64,
        expect: BTreeMap<String, i64>,
    },
    /// `recent ⋈ customer_dim on cust_id`.
    Join { expect: RowDigest },
    /// Durable DECOMPOSE then MERGE-and-drop of `customer_dim`, checked by
    /// counting one region's customers afterwards.
    DimEvolve { region: String, expect: u64 },
}

/// Strings every streamed row is checked against, built once so the check
/// inside a reply callback is a comparison, not a `format!`.
struct DimStrings {
    names: Vec<String>,
    regions: Vec<String>,
}

pub struct Serve {
    scale: Scale,
    dir: PathBuf,
    file: PathBuf,
    cods: Arc<Cods>,
    log: CommitLog,
    server: ServerHandle,
    client: Client,
    ops: Vec<Op>,
    dims: DimStrings,
    user_bytes: u64,
    save_s: f64,
    open_s: f64,
    /// Commit-log plus spill bytes per script, one entry per pass.
    commit_bytes: Vec<f64>,
}

fn sale_range(start: u64, rows: u64) -> Predicate {
    Predicate::ge("sale_id", start as i64).and(Predicate::lt("sale_id", (start + rows) as i64))
}

/// `cust_id = c` for any `c` of `custs`.
fn any_customer(custs: &[i64]) -> Predicate {
    custs[1..]
        .iter()
        .fold(Predicate::eq("cust_id", custs[0]), |p, &c| {
            p.or(Predicate::eq("cust_id", c))
        })
}

fn client_err(e: ClientError) -> String {
    e.to_string()
}

/// Folds one streamed row into `digest`; `cols` = positions of `amount`,
/// `cust_name`, `region_name` (`sale_id`, `cust_id` lead every row).
fn fold_row(
    digest: &mut RowDigest,
    bad: &mut Option<String>,
    row: &[Value],
    cols: (usize, usize, usize),
    dims: &DimStrings,
) {
    let (Value::Int(sale), Value::Int(cust), Value::Int(amount)) = (&row[0], &row[1], &row[cols.0])
    else {
        bad.get_or_insert(format!("non-integer ids in {row:?}"));
        return;
    };
    digest.rows += 1;
    digest.sum_sale_id += *sale as u64;
    digest.sum_cust += *cust as u64;
    digest.sum_amount += *amount as u64;
    let c = *cust as usize;
    let strings_match = matches!((&row[cols.1], &row[cols.2]), (Value::Str(n), Value::Str(r))
        if **n == *dims.names[c] && **r == *dims.regions[c]);
    if !strings_match {
        bad.get_or_insert(format!("customer attributes of {row:?}"));
    }
}

fn expect_digest(got: RowDigest, bad: Option<String>, expect: &RowDigest) -> Result<(), String> {
    match bad {
        Some(why) => Err(why),
        None if got == *expect => Ok(()),
        None => Err(format!("digest {got:?}, expected {expect:?}")),
    }
}

impl Serve {
    fn build_ops(seed: u64, scale: &Scale, wide: &Sales, recent: &Sales) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5);
        let per_customer = wide.rows_per_customer(scale.customers);
        let mut ops = Vec::new();
        // Two halves of the same shape; the order is part of the workload
        // (which reply follows which decides the delayed-ACK stalls).
        for _ in 0..2 {
            for _ in 0..POINTS_PER_HALF {
                let mut custs: Vec<i64> = Vec::new();
                while custs.len() < CUSTOMERS_PER_POINT {
                    let c = rng.random_range(0..scale.customers) as i64;
                    if !custs.contains(&c) {
                        custs.push(c);
                    }
                }
                let expect = custs.iter().map(|&c| per_customer[c as usize]).sum();
                ops.push(Op::Point { custs, expect });
            }
            for _ in 0..2 {
                let start = rng.random_range(0..scale.sales - scale.scan_rows);
                ops.push(Op::RangeScan {
                    start,
                    expect: wide.range_digest(start, scale.scan_rows),
                });
            }
            let start = rng.random_range(0..scale.sales - scale.group_rows);
            ops.push(Op::GroupBy {
                start,
                expect: wide.region_sums(start, scale.group_rows, scale.regions),
            });
            ops.push(Op::Join {
                expect: recent.range_digest(0, recent.len()),
            });
            for _ in 0..2 {
                let probe = rng.random_range(0..scale.customers);
                let region = region_name(probe, scale.regions);
                let expect = (0..scale.customers)
                    .filter(|&c| region_name(c, scale.regions) == region)
                    .count() as u64;
                ops.push(Op::DimEvolve { region, expect });
            }
        }
        ops
    }

    fn exec(&mut self, op_index: usize, rec: &mut Recorder) {
        let Serve {
            client,
            ops,
            dims,
            scale,
            ..
        } = self;
        match &ops[op_index] {
            Op::Point { custs, expect } => {
                let op = rec.begin_op("point");
                let span = rec.begin_span("server.mask", &op);
                let reply = client.mask("sales_wide", any_customer(custs));
                rec.end_span(span, &[("selected", *expect)]);
                let verdict = match reply {
                    Ok((rows, selected, _)) if rows == scale.sales && selected == *expect => Ok(()),
                    Ok((rows, selected, _)) => Err(format!(
                        "customers {custs:?}: {selected} of {rows} rows, expected {expect} of {}",
                        scale.sales
                    )),
                    Err(e) => Err(client_err(e)),
                };
                rec.end_op(op, None, verdict);
            }
            Op::RangeScan { start, expect } => {
                let op = rec.begin_op("range_scan");
                let span = rec.begin_span("server.scan", &op);
                let (mut got, mut bad) = (RowDigest::default(), None);
                let reply = client.scan_with(
                    "sales_wide",
                    sale_range(*start, scale.scan_rows),
                    None,
                    |_, rows| {
                        for r in &rows {
                            fold_row(&mut got, &mut bad, r, (4, 2, 3), dims);
                        }
                    },
                );
                rec.end_span(span, &[("rows", got.rows)]);
                let verdict = reply
                    .map_err(client_err)
                    .and_then(|_| expect_digest(got, bad, expect));
                rec.end_op(op, None, verdict);
            }
            Op::GroupBy { start, expect } => {
                let op = rec.begin_op("group_by");
                let span = rec.begin_span("server.group_by", &op);
                let reply = client.group_by(
                    "sales_wide",
                    sale_range(*start, scale.group_rows),
                    vec!["region_name".into()],
                    vec![(AggOp::Sum, "amount".into())],
                );
                rec.end_span(span, &[("groups", expect.len() as u64)]);
                let verdict = reply.map_err(client_err).and_then(|(_, rows)| {
                    let got: Option<BTreeMap<String, i64>> = rows
                        .iter()
                        .map(|r| match r.as_slice() {
                            [Value::Str(region), Value::Int(sum)] => {
                                Some((region.to_string(), *sum))
                            }
                            _ => None,
                        })
                        .collect();
                    (got.as_ref() == Some(expect))
                        .then_some(())
                        .ok_or(format!("group sums {got:?}"))
                });
                rec.end_op(op, None, verdict);
            }
            Op::Join { expect } => {
                let op = rec.begin_op("join");
                let span = rec.begin_span("server.join", &op);
                let (mut got, mut bad) = (RowDigest::default(), None);
                let reply = client.join_with(
                    "recent",
                    "customer_dim",
                    vec!["cust_id".into()],
                    vec!["cust_id".into()],
                    |_, rows| {
                        for r in &rows {
                            fold_row(&mut got, &mut bad, r, (2, 3, 4), dims);
                        }
                    },
                );
                rec.end_span(span, &[("rows", got.rows)]);
                let verdict = reply
                    .map_err(client_err)
                    .and_then(|_| expect_digest(got, bad, expect));
                rec.end_op(op, None, verdict);
            }
            Op::DimEvolve { region, expect } => {
                let op = rec.begin_op("dim_evolve");
                let span = rec.begin_span("server.script", &op);
                let t = Instant::now();
                let done = client
                    .script(DIM_DECOMPOSE)
                    .and_then(|_| client.script(DIM_MERGE));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rec.end_span(span, &[("scripts", 2)]);
                let verdict = done.map_err(client_err).and_then(|_| {
                    let (rows, selected, _) = client
                        .mask(
                            "customer_dim",
                            Predicate::eq("region_name", region.as_str()),
                        )
                        .map_err(client_err)?;
                    (rows == scale.customers && selected == *expect)
                        .then_some(())
                        .ok_or(format!("{selected} of {rows} customers in {region}"))
                });
                rec.end_op(op, Some(ms), verdict);
            }
        }
    }
}

/// The harness's stand-in for the CLI's timer thread. Before folding the
/// log away it notes how many bytes this pass's scripts put there.
fn checkpoint(
    file: &Path,
    log: &CommitLog,
    cods: &Cods,
    commit_bytes: &mut Vec<f64>,
    rec: &mut Recorder,
    scripts: usize,
) {
    let log_bytes = std::fs::metadata(clog_path(file)).map_or(0, |m| m.len());
    let bytes = log_bytes + host::dir_bytes(&spill_dir(file));
    commit_bytes.push(bytes as f64 / scripts as f64);
    let op = rec.begin_op("checkpoint");
    let span = rec.begin_span("storage.checkpoint", &op);
    let folded = log.checkpoint(cods.catalog());
    rec.end_span(span, &[("log_bytes", bytes)]);
    let verdict = match folded {
        Ok(n) if n as usize == scripts => Ok(()),
        Ok(n) => Err(format!("{n} records folded, {scripts} committed")),
        Err(e) => Err(e.to_string()),
    };
    rec.end_op(op, None, verdict);
}

impl Workload for Serve {
    fn set_up(name: &str, seed: u64, scale: &Scale, root: &Path) -> Self {
        let wh = warehouse(seed, scale);
        let dir = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("data directory");
        let file = dir.join("warehouse.cods");

        let catalog = Catalog::new();
        for t in wh.tables {
            catalog.create(t).expect("fresh catalog");
        }
        let t = Instant::now();
        persist::save_catalog(&catalog, &file).expect("save_catalog");
        let save_s = t.elapsed().as_secs_f64();
        drop(catalog);

        if name == "serve_cold" {
            segment_cache().set_budget(scale.cold_budget);
        }
        let t = Instant::now();
        let (catalog, log, _) = open_durable(&file).expect("open_durable");
        let open_s = t.elapsed().as_secs_f64();
        let cods = Arc::new(Cods::with_catalog(catalog));
        let config = ServerConfig {
            commit_log: Some(log.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&cods), config).expect("bind loopback");
        let client = Client::connect(server.local_addr()).expect("connect");

        let ops = Serve::build_ops(seed, scale, &wh.wide, &wh.recent);
        let dims = DimStrings {
            names: (0..scale.customers).map(customer_name).collect(),
            regions: (0..scale.customers)
                .map(|c| region_name(c, scale.regions))
                .collect(),
        };
        Serve {
            scale: scale.clone(),
            dir,
            file,
            cods,
            log,
            server,
            client,
            ops,
            dims,
            user_bytes: wh.user_bytes,
            save_s,
            open_s,
            commit_bytes: Vec::new(),
        }
    }

    fn pass(&mut self, rec: &mut Recorder) -> u64 {
        for i in 0..self.ops.len() {
            self.exec(i, rec);
        }
        let scripts = 2 * self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::DimEvolve { .. }))
            .count();
        checkpoint(
            &self.file,
            &self.log,
            &self.cods,
            &mut self.commit_bytes,
            rec,
            scripts,
        );
        self.ops.len() as u64 + 1
    }

    fn tear_down(mut self) {
        self.close();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn evolve_class(&self) -> &'static str {
        "dim_evolve"
    }

    fn op_digest(&self) -> u64 {
        host::fnv1a(host::FNV_SEED, format!("{:?}", self.ops).as_bytes())
    }

    fn data_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn counters(&mut self) -> LayerCounters {
        let log = self.log.stats();
        let wire = self.client.metrics().ok();
        LayerCounters {
            commits: log.commits,
            fsyncs: log.fsyncs,
            fsync_micros: log.fsync_micros,
            bytes_streamed: wire.as_ref().map_or(0, |m| m.bytes_streamed),
            rejected: wire.as_ref().map_or(0, |m| m.rejected_total),
        }
    }

    fn persist_times(&self) -> (f64, f64) {
        (self.save_s, self.open_s)
    }

    fn finish(mut self, rec: &mut Recorder, out: &mut Metrics) -> (u64, u64) {
        if rec.tracing() {
            self.layer_probes(rec, out);
        }
        // Space, before the tail commits and the final vacuum.
        let stored = host::dir_bytes(&self.dir);

        // Durability: leave one DECOMPOSE + MERGE pair in the log, close,
        // reopen from the files alone, and require the replayed record
        // count and every table's image to match what was acknowledged.
        let mut check = || -> Result<(), String> {
            for script in [DIM_DECOMPOSE, DIM_MERGE] {
                self.client.script(script).map_err(client_err)?;
            }
            let pending = self.log.stats().pending_records;
            let before = table_digests(self.cods.catalog());
            self.close();
            let t = Instant::now();
            let (catalog, log, replay) = open_durable(&self.file).map_err(|e| e.to_string())?;
            let replay_ms = t.elapsed().as_secs_f64() * 1e3;
            if replay.replayed != pending {
                return Err(format!(
                    "replayed {} records, {pending} were acknowledged since the checkpoint",
                    replay.replayed
                ));
            }
            if table_digests(&catalog) != before {
                return Err("a table's image changed across close and reopen".into());
            }
            if rec.tracing() {
                put(out, "storage.replay_ms", replay_ms, 1);
                log.checkpoint(&catalog).map_err(|e| e.to_string())?;
                let t = Instant::now();
                let report = vacuum_catalog(&catalog, &self.file).map_err(|e| e.to_string())?;
                put(out, "storage.vacuum_ms", t.elapsed().as_secs_f64() * 1e3, 1);
                put(
                    out,
                    "storage.vacuum_reclaimed_mb",
                    report.reclaimed_bytes() as f64 / 1e6,
                    1,
                );
            }
            Ok(())
        };
        if let Err(why) = check() {
            rec.first_failure.get_or_insert(format!("reopen: {why}"));
        }
        // The reopened catalog's checkpoint may have started a vacuum.
        wait_for_auto_vacuum();
        let _ = std::fs::remove_dir_all(&self.dir);
        (stored, self.user_bytes)
    }
}

/// FNV digest of every table's `encode_table` image, by name.
fn table_digests(catalog: &Catalog) -> BTreeMap<String, u64> {
    catalog
        .snapshot()
        .iter()
        .map(|t| {
            let image = persist::encode_table(t);
            (
                t.name().to_string(),
                host::fnv1a(host::FNV_SEED, image.as_slice()),
            )
        })
        .collect()
}

impl Serve {
    /// Stops the server and waits for its threads; the catalog and log
    /// handles this struct still holds are then the only ones left.
    fn close(&mut self) {
        self.server.shutdown();
        wait_for_auto_vacuum();
        segment_cache().set_budget(u64::MAX);
    }

    /// Pages every evictable segment out, then restores the budget.
    fn empty_cache(&self) {
        let budget = segment_cache().budget();
        // One clock sweep clears second-chance bits, the next evicts.
        for _ in 0..3 {
            segment_cache().set_budget(0);
        }
        segment_cache().set_budget(budget);
    }

    /// `server`, `query` and the rest of `storage`, measured after the
    /// window on the catalog the window left behind.
    fn layer_probes(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        // server: the wire itself, and per-class client latencies.
        let pings: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                let _ = self.client.ping();
                ms(t) * 1e3
            })
            .collect();
        put(out, "server.ping_us", median(&pings), pings.len());
        let class = |c: &str| rec.samples(c).to_vec();
        let (points, scans, groups, joins) = (
            class("point"),
            class("range_scan"),
            class("group_by"),
            class("join"),
        );
        let scripts = class("dim_evolve");
        put(out, "server.scan_p50_ms", median(&scans), scans.len());
        put(
            out,
            "server.scan_p95_ms",
            quantile(&scans, 0.95),
            scans.len(),
        );
        put(out, "server.group_by_p50_ms", median(&groups), groups.len());
        put(out, "server.join_p50_ms", median(&joins), joins.len());
        put(
            out,
            "server.point_p99_ms",
            quantile(&points, 0.99),
            points.len(),
        );
        put(
            out,
            "server.script_p95_ms",
            quantile(&scripts, 0.95),
            scripts.len(),
        );
        let checkpoints = class("checkpoint");
        put(
            out,
            "storage.checkpoint_ms",
            median(&checkpoints),
            checkpoints.len(),
        );
        put(
            out,
            "storage.commit_bytes_per_script",
            median(&self.commit_bytes),
            self.commit_bytes.len(),
        );
        // query: the pass's read ops again, in-process, on a pinned view.
        let view = self.cods.catalog().snapshot_view();
        let table = |name: &str| view.get(name).expect("warehouse table");
        let (wide, recent, dim) = (table("sales_wide"), table("recent"), table("customer_dim"));
        let col = |t: &Table, name: &str| t.schema().index_of(name).expect("warehouse column");
        let (mut point_ms, mut range_ms, mut group_ms, mut join_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut scan_ms, mut scan_s, mut scan_rows) = (Vec::new(), 0.0, 0u64);
        for op in &self.ops {
            match op {
                Op::Point { custs, .. } => {
                    let t = Instant::now();
                    let mask = predicate_mask(&wide, &any_customer(custs));
                    std::hint::black_box(mask.map(|m| m.count_ones()).ok());
                    point_ms.push(ms(t));
                }
                Op::RangeScan { start, .. } => {
                    let pred = sale_range(*start, self.scale.scan_rows);
                    let t = Instant::now();
                    std::hint::black_box(predicate_mask(&wide, &pred).ok());
                    range_ms.push(ms(t));
                    let t = Instant::now();
                    let stream = ScanStream::new(Arc::clone(&wide), &pred, None).expect("scan");
                    scan_rows += stream.map(|b| b.rows.len() as u64).sum::<u64>();
                    scan_ms.push(ms(t));
                    scan_s += t.elapsed().as_secs_f64();
                }
                Op::GroupBy { start, .. } => {
                    let t = Instant::now();
                    let mask = predicate_mask(&wide, &sale_range(*start, self.scale.group_rows))
                        .expect("range mask");
                    let aggs = [(AggOp::Sum, col(&wide, "amount"), ValueType::Int)];
                    let groups = aggregate_table_masked(
                        &wide,
                        &[col(&wide, "region_name")],
                        &aggs,
                        Some(&mask),
                    );
                    std::hint::black_box(groups.ok());
                    group_ms.push(ms(t));
                }
                Op::Join { .. } => {
                    let t = Instant::now();
                    let keys = (&[col(&recent, "cust_id")], &[col(&dim, "cust_id")]);
                    let plan = plan_join(&recent, &dim, keys.0, keys.1, segment_cache().budget());
                    let rows =
                        join_stream(Arc::clone(&recent), Arc::clone(&dim), keys.0, keys.1, &plan);
                    std::hint::black_box(rows.count());
                    join_ms.push(ms(t));
                }
                Op::DimEvolve { .. } => {}
            }
        }
        put(
            out,
            "query.point_mask_ms",
            median(&point_ms),
            point_ms.len(),
        );
        put(
            out,
            "query.range_mask_ms",
            median(&range_ms),
            range_ms.len(),
        );
        put(
            out,
            "query.scan_stream_mrows_per_s",
            ratio(scan_rows as f64 / 1e6, scan_s),
            scan_ms.len(),
        );
        put(out, "query.group_by_ms", median(&group_ms), group_ms.len());
        put(out, "query.join_ms", median(&join_ms), join_ms.len());
        for (name, wire, local) in [
            ("point", &points, &point_ms),
            ("scan", &scans, &scan_ms),
            ("group_by", &groups, &group_ms),
            ("join", &joins, &join_ms),
        ] {
            put(
                out,
                &format!("server.wire_overhead_ms.{name}"),
                median(wire) - median(local),
                wire.len(),
            );
        }

        // storage: one range scan on an emptied cache faults an exact
        // number of segments; a sweep of the whole table gives MB/s.
        self.empty_cache();
        let before = segment_cache().stats();
        if let Some(Op::RangeScan { start, .. }) = self
            .ops
            .iter()
            .find(|op| matches!(op, Op::RangeScan { .. }))
        {
            let pred = sale_range(*start, self.scale.scan_rows);
            let stream = ScanStream::new(Arc::clone(&wide), &pred, None).expect("scan");
            std::hint::black_box(stream.count());
        }
        let faulted = segment_cache().stats().misses - before.misses;
        put(
            out,
            "query.segments_faulted_per_range_scan",
            faulted as f64,
            1,
        );
        self.empty_cache();
        let before = segment_cache().stats();
        let t = Instant::now();
        for column in wide.columns() {
            for slot in column.segments() {
                std::hint::black_box(slot.try_enc().is_ok());
            }
        }
        let s = t.elapsed().as_secs_f64();
        let decoded = segment_cache().stats().decoded_bytes - before.decoded_bytes;
        put(
            out,
            "storage.fault_in_mb_per_s",
            ratio(decoded as f64 / 1e6, s),
            1,
        );
        probes::encode_table(&table("orders_wide"), out);
    }
}
