//! The server: TCP accept loop, thread-per-connection request dispatch,
//! snapshot sessions, admission control and streaming execution.

use crate::admission::{Gate, Rejected};
use crate::frame::{
    disable_nagle, read_frame, write_frame, write_preamble, FrameError, DEFAULT_MAX_FRAME_BYTES,
};
use crate::metrics::ServerMetrics;
use crate::proto::{
    decode_command, encode_reply, error_code, Command, Reply, StatsReply, TOTAL_UNKNOWN,
};
use crate::session::Session;
use cods::{Cods, EvolutionError};
use cods_query::{
    aggregate_table_masked, join_stream, plan_join, predicate_mask, AggOp, Predicate, ScanStream,
};
use cods_storage::{
    segment_cache, CommitLog, RetryPolicy, StorageError, Table, TableStats, Value, ValueType,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data-plane requests executing concurrently (execution slots).
    pub max_in_flight: u64,
    /// Data-plane requests allowed to wait for a slot; one more is
    /// rejected with a typed `Overloaded` reply.
    pub max_queued: u64,
    /// Per-frame payload cap enforced on reads.
    pub max_frame_bytes: u32,
    /// Conflict-retry policy for `Script` commands.
    pub retry: RetryPolicy,
    /// Evict a connection whose socket stays silent this long — a hung or
    /// vanished client releases its thread (and the socket-level read
    /// deadline also unwedges reads stuck mid-frame). `None` waits
    /// forever.
    pub idle_timeout: Option<Duration>,
    /// Socket write deadline: a client that stops draining its socket
    /// errors the connection instead of wedging it. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// The catalog's commit log when serving durably: `Script` replies are
    /// then acknowledged only after the group fsync (the commit path waits
    /// on the log), and metrics expose the fsync counters. `None` serves
    /// memory-only.
    pub commit_log: Option<CommitLog>,
    /// Test knob: hold each admitted data-plane request for this long
    /// before executing, making admission states observable
    /// deterministically. `None` in production.
    pub debug_hold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 4,
            max_queued: 16,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            retry: RetryPolicy::default(),
            idle_timeout: None,
            write_timeout: None,
            commit_log: None,
            debug_hold: None,
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    cods: Arc<Cods>,
    config: ServerConfig,
    gate: Arc<Gate>,
    metrics: ServerMetrics,
    /// Clones of live connection streams, so shutdown can unblock reads.
    conns: Mutex<Vec<TcpStream>>,
    stopping: AtomicBool,
}

impl Shared {
    fn new(cods: Arc<Cods>, config: ServerConfig) -> Self {
        Shared {
            gate: Gate::new(config.max_in_flight, config.max_queued),
            cods,
            config,
            metrics: ServerMetrics::default(),
            conns: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The serving entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `cods`. Returns immediately; the
    /// accept loop and every connection run on their own threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cods: Arc<Cods>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cods, config));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A socket that refuses TCP_NODELAY would bring the
                    // delayed-ACK stall back silently: drop it instead.
                    if disable_nagle(&stream).is_err() {
                        continue;
                    }
                    let _ = stream.set_read_timeout(shared.config.idle_timeout);
                    let _ = stream.set_write_timeout(shared.config.write_timeout);
                    ServerMetrics::add(&shared.metrics.connections_total, 1);
                    ServerMetrics::add(&shared.metrics.connections_open, 1);
                    if let Ok(clone) = stream.try_clone() {
                        shared.conns.lock().unwrap().push(clone);
                    }
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || {
                        let _ = Connection::run(&shared, &stream);
                        // The clone in `conns` keeps the descriptor open
                        // until shutdown: hang up here, or the peer never
                        // sees the session end.
                        let _ = stream.shutdown(Shutdown::Both);
                        ServerMetrics::dec(&shared.metrics.connections_open);
                    });
                    conn_threads.lock().unwrap().push(handle);
                }
            })
        };
        Ok(ServerHandle {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains queued admissions, unblocks every
    /// connection read, and joins all serving threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.gate.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock connection threads parked in read_frame.
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bytes of encoded reply a connection holds back before they go to the
/// socket: one loopback segment. Frames coalesce until the window fills;
/// a frame that does not fit pushes out what is buffered, and a frame
/// larger than the window goes straight to the socket.
const REPLY_WINDOW_BYTES: usize = 64 * 1024;

/// One connection's serving loop, generic over the transport so tests can
/// count the writes that reach it.
struct Connection<'a, W: Write> {
    shared: &'a Shared,
    session: Session,
    writer: BufWriter<W>,
}

impl<'a> Connection<'a, &'a TcpStream> {
    fn run(shared: &'a Shared, stream: &'a TcpStream) -> Result<(), FrameError> {
        let mut reader = BufReader::new(stream);
        let mut conn = Connection::open(shared, stream)?;
        loop {
            let (kind, payload) = match read_frame(&mut reader, shared.config.max_frame_bytes) {
                Ok(f) => f,
                // Polite hang-up: the session ends.
                Err(FrameError::Eof) => return Ok(()),
                // Socket deadline fired: the client idled (or hung
                // mid-frame) past the configured timeout. Evict it — tell
                // it why if its socket still listens, then close.
                Err(FrameError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    ServerMetrics::add(&shared.metrics.idle_evicted, 1);
                    conn.farewell(
                        error_code::TIMEOUT,
                        "connection idle past deadline, closing".into(),
                    );
                    return Ok(());
                }
                // A torn or unreadable stream cannot carry an error reply.
                Err(e @ (FrameError::Torn | FrameError::Io(_))) => return Err(e),
                // The stream is alive but desynchronized or hostile: say
                // why, then drop the connection.
                Err(e @ (FrameError::Corrupt | FrameError::TooLarge { .. })) => {
                    conn.farewell(error_code::BAD_REQUEST, e.to_string());
                    return Err(e);
                }
            };
            let cmd = match decode_command(kind, &payload) {
                Ok(cmd) => cmd,
                Err(e) => {
                    conn.farewell(error_code::BAD_REQUEST, e.to_string());
                    return Err(FrameError::Corrupt);
                }
            };
            conn.respond(cmd)?;
        }
    }
}

impl<'a, W: Write> Connection<'a, W> {
    /// Pins the session and greets the peer: preamble and `Hello` leave
    /// as one write.
    fn open(shared: &'a Shared, transport: W) -> Result<Self, FrameError> {
        let mut conn = Connection {
            shared,
            session: Session::open(&shared.cods),
            writer: BufWriter::with_capacity(REPLY_WINDOW_BYTES, transport),
        };
        write_preamble(&mut conn.writer)?;
        let hello = Reply::Hello {
            catalog_version: conn.session.version(),
        };
        conn.reply(&hello)?;
        conn.writer.flush()?;
        Ok(conn)
    }

    /// Answers one command in full, then pushes out whatever of the
    /// answer is still in the window — the one flush of every reply,
    /// whichever path `dispatch` took (control plane, rejection, typed
    /// error, single frame or row stream).
    fn respond(&mut self, cmd: Command) -> Result<(), FrameError> {
        self.dispatch(cmd)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Last words before the connection thread returns: a typed error,
    /// flushed here because nothing runs after it (a `BufWriter` dropped
    /// with bytes in it writes them but swallows the error). Failure is
    /// ignored — the peer may already be gone.
    fn farewell(&mut self, code: u16, message: String) {
        if self.reply(&Reply::Error { code, message }).is_ok() {
            let _ = self.writer.flush();
        }
    }

    /// Encodes and frames one reply into the connection's window,
    /// counting its bytes. It never flushes: frames of one reply coalesce
    /// (a header, a small batch and the closer leave as one segment, so
    /// no frame waits on the peer's ACK of the one before), and the
    /// window bounds what is held — at most [`REPLY_WINDOW_BYTES`]; a
    /// frame that does not fit goes to the socket now. That blocking
    /// socket write is the backpressure: a slow client stalls only its
    /// own connection thread (and the one admission slot it holds), never
    /// the server. The end of the reply is flushed by [`Self::respond`].
    fn reply(&mut self, reply: &Reply) -> Result<(), FrameError> {
        let bytes = write_frame(&mut self.writer, reply.kind(), &encode_reply(reply))?;
        ServerMetrics::add(&self.shared.metrics.bytes_streamed, bytes);
        Ok(())
    }

    /// Sends one row stream — the only place the `RowHeader → Rows* →
    /// Done` sequence is written: header, one `Rows` frame per batch
    /// (`batches` yields no empty ones), closer with the totals the
    /// client verifies. Batches are pulled one at a time, so peak memory
    /// is one batch plus the window, whatever the result size, and a
    /// reply longer than the window reaches the client while later
    /// batches are still being produced.
    fn stream_rows(
        &mut self,
        columns: Vec<(String, ValueType)>,
        total_rows: u64,
        batches: impl Iterator<Item = Vec<Vec<Value>>>,
    ) -> Result<(), FrameError> {
        self.reply(&Reply::RowHeader {
            columns,
            total_rows,
        })?;
        let mut sent = 0u64;
        let mut rows_sent = 0u64;
        for rows in batches {
            sent += 1;
            rows_sent += rows.len() as u64;
            ServerMetrics::add(&self.shared.metrics.rows_streamed, rows.len() as u64);
            self.reply(&Reply::Rows { rows })?;
        }
        self.reply(&Reply::Done {
            batches: sent,
            rows: rows_sent,
        })
    }

    fn dispatch(&mut self, cmd: Command) -> Result<(), FrameError> {
        if !cmd.is_data_plane() {
            let reply = match cmd {
                Command::Ping => Reply::Pong,
                Command::Refresh => Reply::Refreshed {
                    catalog_version: self.session.refresh(&self.shared.cods),
                },
                Command::Metrics => {
                    let (in_flight, queued) = self.shared.gate.occupancy();
                    Reply::Metrics(self.shared.metrics.snapshot(
                        in_flight,
                        queued,
                        self.shared.config.commit_log.as_ref(),
                    ))
                }
                _ => unreachable!("control-plane commands only"),
            };
            return self.reply(&reply);
        }
        let permit = match self.shared.gate.admit() {
            Ok(p) => p,
            Err(Rejected::Overloaded { in_flight, queued }) => {
                ServerMetrics::add(&self.shared.metrics.rejected_total, 1);
                return self.reply(&Reply::Overloaded { in_flight, queued });
            }
            Err(Rejected::Closed) => {
                return self.reply(&Reply::Error {
                    code: error_code::INTERNAL,
                    message: "server shutting down".into(),
                });
            }
        };
        ServerMetrics::add(&self.shared.metrics.admitted_total, 1);
        if let Some(hold) = self.shared.config.debug_hold {
            std::thread::sleep(hold);
        }
        let result = self.execute(cmd);
        drop(permit);
        result
    }

    fn execute(&mut self, cmd: Command) -> Result<(), FrameError> {
        match cmd {
            Command::Stats { table } => match self.session.table(&table) {
                Ok(t) => {
                    let s = TableStats::of(&t);
                    let reply = Reply::Stats(StatsReply {
                        rows: s.rows,
                        arity: s.arity as u64,
                        total_bytes: s.total_bytes as u64,
                        resident_segments: s.resident_segments as u64,
                        on_disk_segments: s.on_disk_segments as u64,
                        catalog_version: self.session.version(),
                    });
                    self.reply(&reply)
                }
                Err(e) => self.storage_error(&e),
            },
            Command::Script { text } => {
                match self
                    .shared
                    .cods
                    .run_script_with_retry(&text, &self.shared.config.retry)
                {
                    Ok(report) => {
                        // Read-your-writes: the session moves to (at
                        // least) the version its own script produced.
                        // With a commit log attached this reply is the
                        // durability ack: the commit path already waited
                        // for the group fsync covering this script.
                        let version = self.session.refresh(&self.shared.cods);
                        self.reply(&Reply::Ok {
                            message: format!(
                                "{} operator(s) committed{}; catalog v{version}",
                                report.records.len(),
                                if report.log.durable { " durably" } else { "" }
                            ),
                        })
                    }
                    Err(e) => {
                        let code = match &e {
                            EvolutionError::Storage(StorageError::Conflict(_)) => {
                                error_code::CONFLICT
                            }
                            EvolutionError::Storage(StorageError::UnknownTable(_))
                            | EvolutionError::Storage(StorageError::UnknownColumn(_)) => {
                                error_code::NOT_FOUND
                            }
                            // A commit the log could not fsync never
                            // entered the catalog, but the server can no
                            // longer guarantee durability: that is an
                            // operator problem, not a script problem.
                            EvolutionError::Storage(StorageError::Durability(_)) => {
                                error_code::INTERNAL
                            }
                            _ => error_code::EVOLUTION,
                        };
                        self.reply(&Reply::Error {
                            code,
                            message: e.to_string(),
                        })
                    }
                }
            }
            Command::Scan {
                table,
                predicate,
                projection,
            } => {
                let t = match self.session.table(&table) {
                    Ok(t) => t,
                    Err(e) => return self.storage_error(&e),
                };
                let stream = match ScanStream::new(t, &predicate, projection.as_deref()) {
                    Ok(s) => s,
                    Err(e) => return self.storage_error(&e),
                };
                self.stream_scan(stream)
            }
            Command::Mask { table, predicate } => {
                let t = match self.session.table(&table) {
                    Ok(t) => t,
                    Err(e) => return self.storage_error(&e),
                };
                match predicate_mask(&t, &predicate) {
                    Ok(mask) => self.reply(&Reply::MaskSummary {
                        rows: t.rows(),
                        selected: mask.count_ones(),
                        catalog_version: self.session.version(),
                    }),
                    Err(e) => self.storage_error(&e),
                }
            }
            Command::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            } => {
                let t = match self.session.table(&table) {
                    Ok(t) => t,
                    Err(e) => return self.storage_error(&e),
                };
                match run_agg(&t, &predicate, &group_by, &aggs) {
                    // Chunked reply stream: bounded frames however many
                    // groups come back.
                    Ok((columns, rows)) => {
                        let total = rows.len() as u64;
                        self.stream_rows(columns, total, chunked(rows.into_iter()))
                    }
                    Err(e) => self.storage_error(&e),
                }
            }
            Command::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let l = match self.session.table(&left) {
                    Ok(t) => t,
                    Err(e) => return self.storage_error(&e),
                };
                let r = match self.session.table(&right) {
                    Ok(t) => t,
                    Err(e) => return self.storage_error(&e),
                };
                let resolve = |t: &Table, names: &[String]| -> Result<Vec<usize>, StorageError> {
                    names.iter().map(|n| t.schema().index_of(n)).collect()
                };
                let lk = match resolve(&l, &left_keys) {
                    Ok(v) => v,
                    Err(e) => return self.storage_error(&e),
                };
                let rk = match resolve(&r, &right_keys) {
                    Ok(v) => v,
                    Err(e) => return self.storage_error(&e),
                };
                if lk.len() != rk.len() {
                    return self.reply(&Reply::Error {
                        code: error_code::BAD_REQUEST,
                        message: "join key lists differ in length".into(),
                    });
                }
                // Output schema: left columns ++ right non-key columns.
                let mut columns: Vec<(String, ValueType)> = l
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| (c.name.clone(), c.ty))
                    .collect();
                for (i, c) in r.schema().columns().iter().enumerate() {
                    if !rk.contains(&i) {
                        columns.push((c.name.clone(), c.ty));
                    }
                }
                let plan = plan_join(&l, &r, &lk, &rk, segment_cache().stats().budget);
                let matches = join_stream(l, r, &lk, &rk, &plan);
                // The match count is unknown until the probe finishes —
                // stream under the sentinel total; Done carries the truth.
                self.stream_rows(columns, TOTAL_UNKNOWN, chunked(matches))
            }
            Command::Ping | Command::Refresh | Command::Metrics => {
                unreachable!("data-plane commands only")
            }
        }
    }

    /// Streams one scan: one `Rows` frame per non-empty segment-aligned
    /// batch, under the selected-row count the mask already knows.
    fn stream_scan(&mut self, stream: ScanStream) -> Result<(), FrameError> {
        let t = stream.table();
        let columns: Vec<(String, ValueType)> = stream
            .projection()
            .iter()
            .map(|&ci| {
                let def = &t.schema().columns()[ci];
                (def.name.clone(), def.ty)
            })
            .collect();
        let total = stream.total_selected();
        self.stream_rows(columns, total, stream.map(|batch| batch.rows))
    }

    /// Maps a storage error onto an error reply, keeping the session.
    fn storage_error(&mut self, e: &StorageError) -> Result<(), FrameError> {
        let code = match e {
            StorageError::UnknownTable(_) | StorageError::UnknownColumn(_) => error_code::NOT_FOUND,
            StorageError::Conflict(_) => error_code::CONFLICT,
            _ => error_code::INTERNAL,
        };
        self.reply(&Reply::Error {
            code,
            message: e.to_string(),
        })
    }
}

/// Rows per `Rows` frame for chunked result streams (GroupBy, Join).
const STREAM_BATCH_ROWS: usize = 4096;

/// Regroups a row iterator into batches of [`STREAM_BATCH_ROWS`] (the
/// last one shorter, none empty), moving the rows.
fn chunked(rows: impl Iterator<Item = Vec<Value>>) -> impl Iterator<Item = Vec<Vec<Value>>> {
    let mut rows = rows.fuse();
    std::iter::from_fn(move || {
        let batch: Vec<_> = rows.by_ref().take(STREAM_BATCH_ROWS).collect();
        (!batch.is_empty()).then_some(batch)
    })
}

/// Aggregation over the predicate-selected rows: output schema plus
/// result rows (group keys first, aggregates after, both in request
/// order).
#[allow(clippy::type_complexity)]
fn run_agg(
    t: &Table,
    predicate: &Predicate,
    group_by: &[String],
    aggs: &[(AggOp, String)],
) -> Result<(Vec<(String, ValueType)>, Vec<Vec<Value>>), StorageError> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| t.schema().index_of(g))
        .collect::<Result<_, _>>()?;
    let agg_specs: Vec<(AggOp, usize, ValueType)> = aggs
        .iter()
        .map(|(op, col)| {
            let idx = t.schema().index_of(col)?;
            Ok((*op, idx, t.schema().columns()[idx].ty))
        })
        .collect::<Result<_, StorageError>>()?;
    let mut columns: Vec<(String, ValueType)> = group_idx
        .iter()
        .map(|&g| {
            let def = &t.schema().columns()[g];
            (def.name.clone(), def.ty)
        })
        .collect();
    for (op, idx, ty) in &agg_specs {
        let name = format!("{:?}({})", op, t.schema().columns()[*idx].name).to_lowercase();
        columns.push((name, op.output_type(*ty)));
    }
    // Mask pushdown: the predicate becomes a WAH mask and the columnar
    // kernel aggregates under it — the filtered table is never built.
    let rows = match predicate {
        Predicate::True => aggregate_table_masked(t, &group_idx, &agg_specs, None)?,
        p => {
            let mask = predicate_mask(t, p)?;
            aggregate_table_masked(t, &group_idx, &agg_specs, Some(&mask))?
        }
    };
    Ok((columns, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::decode_reply;
    use cods_storage::Schema;

    /// A transport that records every write that reaches it.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Sink {
        fn writes(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn bytes(&self) -> u64 {
            self.0.lock().unwrap().iter().map(|w| w.len() as u64).sum()
        }
        fn last_write(&self) -> Vec<u8> {
            self.0.lock().unwrap().last().cloned().unwrap_or_default()
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Server state over a catalog holding one five-row table `t`.
    fn shared() -> Shared {
        let cods = Cods::new();
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..5)
            .map(|i| vec![Value::int(i), Value::str(format!("v{i}"))])
            .collect();
        cods.catalog()
            .create(Table::from_rows("t", schema, &rows).unwrap())
            .unwrap();
        Shared::new(Arc::new(cods), ServerConfig::default())
    }

    /// Splits one transport write back into the replies it carries.
    fn replies_in(mut bytes: &[u8]) -> Vec<Reply> {
        let mut replies = Vec::new();
        while !bytes.is_empty() {
            let (kind, payload) = read_frame(&mut bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
            replies.push(decode_reply(kind, &payload).unwrap());
        }
        replies
    }

    #[test]
    fn a_small_row_stream_reaches_the_transport_as_one_write() {
        let shared = shared();
        let sink = Sink::default();
        let mut conn = Connection::open(&shared, sink.clone()).unwrap();
        assert_eq!(sink.writes(), 1, "preamble and Hello leave together");

        conn.respond(Command::Scan {
            table: "t".into(),
            predicate: Predicate::True,
            projection: None,
        })
        .unwrap();
        assert_eq!(sink.writes(), 2, "header, batch and closer coalesce");
        let replies = replies_in(&sink.last_write());
        assert!(
            matches!(
                replies.as_slice(),
                [
                    Reply::RowHeader { total_rows: 5, .. },
                    Reply::Rows { rows },
                    Reply::Done { batches: 1, rows: 5 },
                ] if rows.len() == 5
            ),
            "{replies:?}"
        );
    }

    #[test]
    fn a_single_frame_reply_is_one_write() {
        let shared = shared();
        let sink = Sink::default();
        let mut conn = Connection::open(&shared, sink.clone()).unwrap();
        type Expected = fn(&Reply) -> bool;
        let cases: [(Command, Expected); 4] = [
            (Command::Ping, |r| matches!(r, Reply::Pong)),
            (
                Command::Mask {
                    table: "t".into(),
                    predicate: Predicate::True,
                },
                |r| matches!(r, Reply::MaskSummary { selected: 5, .. }),
            ),
            (
                Command::Script {
                    text: "RENAME TABLE t TO u".into(),
                },
                |r| matches!(r, Reply::Ok { .. }),
            ),
            // Typed errors are replies like any other.
            (
                Command::Stats {
                    table: "nope".into(),
                },
                |r| matches!(r, Reply::Error { .. }),
            ),
        ];
        for (i, (cmd, expected)) in cases.into_iter().enumerate() {
            conn.respond(cmd).unwrap();
            assert_eq!(sink.writes(), i + 2);
            let replies = replies_in(&sink.last_write());
            assert!(replies.len() == 1 && expected(&replies[0]), "{replies:?}");
        }
    }

    #[test]
    fn a_long_row_stream_holds_at_most_one_window_and_overlaps_with_its_producer() {
        let shared = shared();
        let sink = Sink::default();
        let mut conn = Connection::open(&shared, sink.clone()).unwrap();
        let encoded = || shared.metrics.bytes_streamed.load(Ordering::Relaxed);
        // The preamble is the only thing the byte counter leaves out.
        let preamble = sink.bytes() - encoded();

        // Sixteen batches of one 256 KiB cell each: every frame is larger
        // than the window. The iterator runs between frames, so it sees
        // what the connection holds at each step.
        const FRAMES: u64 = 16;
        let cell = "x".repeat(256 * 1024);
        let mut produced = 0u64;
        let batches = std::iter::from_fn(|| {
            if produced == FRAMES {
                return None;
            }
            let held = preamble + encoded() - sink.bytes();
            assert!(
                held <= REPLY_WINDOW_BYTES as u64,
                "{held} bytes held before batch {produced}"
            );
            if produced == FRAMES - 1 {
                assert!(
                    sink.bytes() - preamble > cell.len() as u64,
                    "the first frame must be out before the last is encoded"
                );
            }
            produced += 1;
            Some(vec![vec![Value::str(&cell)]])
        });
        conn.stream_rows(vec![("v".into(), ValueType::Str)], FRAMES, batches)
            .unwrap();
        conn.writer.flush().unwrap();
        assert_eq!(sink.bytes(), preamble + encoded(), "nothing left behind");
        assert!(encoded() > FRAMES * cell.len() as u64);
    }

    #[test]
    fn both_ends_of_a_connection_run_without_nagle() {
        let mut handle = Server::bind(
            "127.0.0.1:0",
            Arc::new(Cods::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.ping().unwrap();
        assert!(client.nodelay().unwrap(), "client socket");
        // The accept loop registers each socket before it serves it.
        let conns = handle.shared.conns.lock().unwrap();
        assert_eq!(conns.len(), 1);
        assert!(conns[0].nodelay().unwrap(), "accepted socket");
        drop(conns);
        handle.shutdown();
    }
}
