//! The server: TCP accept loop, thread-per-connection request dispatch,
//! snapshot sessions, admission control and streaming execution.

use crate::admission::{Gate, Rejected};
use crate::frame::{
    disable_nagle, read_frame, write_frame, write_preamble, FrameError, DEFAULT_MAX_FRAME_BYTES,
};
use crate::metrics::ServerMetrics;
use crate::proto::{
    decode_command, encode_reply, error_code, Command, Reply, RowsEncoder, ROWS_KIND, TOTAL_UNKNOWN,
};
use crate::session::Session;
use cods::{Cods, EvolutionError};
use cods_query::{QueryError, QueryOutput, RowSet};
use cods_storage::span::{self, Span};
use cods_storage::{render_stats, CommitLog, RetryPolicy, StorageError, ValueType};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Live connections by id: a clone of the stream, so shutdown can
    /// unblock its read, and the serving thread's handle. A connection
    /// thread removes its own entry as its last act, so a long-lived
    /// server holds descriptors and handles for open connections only.
    conns: Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>,
    stopping: AtomicBool,
}

impl Shared {
    fn new(cods: Arc<Cods>, config: ServerConfig) -> Self {
        Shared {
            gate: Gate::new(config.max_in_flight, config.max_queued),
            cods,
            config,
            metrics: ServerMetrics::default(),
            conns: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
        }
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<u64, (TcpStream, JoinHandle<()>)>> {
        self.conns.lock().expect("connection registry poisoned")
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
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
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    if shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A socket that refuses TCP_NODELAY would bring the
                    // delayed-ACK stall back silently, and one without a
                    // registry clone could not be unblocked at shutdown:
                    // drop it instead.
                    let (Ok(()), Ok(clone)) = (disable_nagle(&stream), stream.try_clone()) else {
                        continue;
                    };
                    let _ = stream.set_read_timeout(shared.config.idle_timeout);
                    let _ = stream.set_write_timeout(shared.config.write_timeout);
                    ServerMetrics::add(&shared.metrics.connections_total, 1);
                    ServerMetrics::add(&shared.metrics.connections_open, 1);
                    // Registered under the lock the thread's own removal
                    // takes, so a connection that ends at once still finds
                    // its entry.
                    let mut conns = shared.registry();
                    let worker = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || {
                        let _ = Connection::run(&worker, &stream, id);
                        ServerMetrics::dec(&worker.metrics.connections_open);
                        // Dropping the entry closes the registry's clone of
                        // the descriptor and detaches this (ending) thread.
                        worker.registry().remove(&id);
                    });
                    conns.insert(id, (clone, handle));
                }
            })
        };
        Ok(ServerHandle {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
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
        // Unblock the live connection threads parked in read_frame, then
        // join them (outside the lock their own removal takes).
        let live: Vec<_> = self.shared.registry().drain().collect();
        for (_, (stream, _)) in &live {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, (_, thread)) in live {
            let _ = thread.join();
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
    /// Retries this connection's conflicted scripts, its jitter seeded
    /// with the connection id so concurrent retriers back off apart.
    retry: RetryPolicy,
}

impl<'a> Connection<'a, &'a TcpStream> {
    fn run(shared: &'a Shared, stream: &'a TcpStream, id: u64) -> Result<(), FrameError> {
        let mut reader = BufReader::new(stream);
        let mut conn = Connection::open(shared, stream, id)?;
        loop {
            let (kind, payload) = match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
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
    /// Pins the session of connection `id` and greets the peer: preamble
    /// and `Hello` leave as one write.
    fn open(shared: &'a Shared, transport: W, id: u64) -> Result<Self, FrameError> {
        let mut conn = Connection {
            shared,
            session: Session::open(&shared.cods),
            writer: BufWriter::with_capacity(REPLY_WINDOW_BYTES, transport),
            retry: RetryPolicy::default().with_seed(id),
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

    /// Encodes and frames one reply into the connection's window — see
    /// [`Self::frame`].
    fn reply(&mut self, reply: &Reply) -> Result<(), FrameError> {
        self.frame(reply.kind(), &encode_reply(reply))
    }

    /// Frames one encoded reply body into the connection's window,
    /// counting its bytes. It never flushes: frames of one reply coalesce
    /// (a header, a small batch and the closer leave as one segment, so
    /// no frame waits on the peer's ACK of the one before), and the
    /// window bounds what is held — at most [`REPLY_WINDOW_BYTES`]; a
    /// frame that does not fit goes to the socket now. That blocking
    /// socket write is the backpressure: a slow client stalls only its
    /// own connection thread (and the one admission slot it holds), never
    /// the server. The end of the reply is flushed by [`Self::respond`].
    fn frame(&mut self, kind: u8, body: &[u8]) -> Result<(), FrameError> {
        let bytes = write_frame(&mut self.writer, kind, body)?;
        ServerMetrics::add(&self.shared.metrics.bytes_streamed, bytes);
        Ok(())
    }

    /// Sends one row stream — the only place the `RowHeader → Rows* →
    /// Done` sequence is written: header, one `Rows` frame per batch
    /// (`batches` yields no empty ones) encoded from its dictionary ids by
    /// the stream's one [`RowsEncoder`] (so a value travels once per
    /// stream), closer with the totals the client verifies. Each `Rows`
    /// body is encoded into one buffer the stream reuses and framed from it
    /// into the window, so a batch costs no allocation of its own. Batches are
    /// pulled one at a time, so peak memory is one batch, the window and
    /// the bounded reply dictionaries, whatever the result size, and a
    /// reply longer than the window reaches the client while later batches
    /// are still being produced. A batch that
    /// could not be produced (a segment failed to fault in) ends the
    /// stream with a typed error where `Done` would stand; the connection
    /// goes on.
    fn stream_rows(
        &mut self,
        columns: Vec<(String, ValueType)>,
        total_rows: u64,
        batches: impl Iterator<Item = Result<RowSet, StorageError>>,
    ) -> Result<(), FrameError> {
        self.reply(&Reply::RowHeader {
            columns,
            total_rows,
        })?;
        let mut encoder = RowsEncoder::default();
        let mut body = Vec::new();
        let mut sent = 0u64;
        let mut rows_sent = 0u64;
        for batch in batches {
            let rows = match batch {
                Ok(rows) => rows,
                Err(e) => return self.storage_error(&e),
            };
            sent += 1;
            rows_sent += rows.len() as u64;
            ServerMetrics::add(&self.shared.metrics.rows_streamed, rows.len() as u64);
            body.clear();
            let mut timer = span::enter(Span::WireEncode);
            timer.items(|| rows.len() as u64);
            encoder.encode_into(&rows, &mut body);
            drop(timer);
            self.frame(ROWS_KIND, &body)?;
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
                Ok(t) => self.reply(&Reply::Ok {
                    message: render_stats(&table, &t),
                }),
                Err(e) => self.storage_error(&e),
            },
            Command::Script { text } => {
                match self.shared.cods.run_script_with_retry(&text, &self.retry) {
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
                                if report.durable { " durably" } else { "" }
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
            Command::Query(query) => {
                let output = query
                    .resolve(self.session.snapshot())
                    .and_then(|resolved| Ok(resolved.run()?));
                match output {
                    Ok(QueryOutput::Count { rows, selected }) => self.reply(&Reply::MaskSummary {
                        rows,
                        selected,
                        catalog_version: self.session.version(),
                    }),
                    // A join's match count is unknown until the probe
                    // finishes — it streams under the sentinel total; Done
                    // carries the truth.
                    Ok(QueryOutput::Rows {
                        columns,
                        total,
                        batches,
                    }) => self.stream_rows(columns, total.unwrap_or(TOTAL_UNKNOWN), batches),
                    Err(QueryError::Storage(e)) => self.storage_error(&e),
                    Err(e @ (QueryError::KeyArity | QueryError::NoColumns)) => {
                        self.reply(&Reply::Error {
                            code: error_code::BAD_REQUEST,
                            message: e.to_string(),
                        })
                    }
                }
            }
            Command::Ping | Command::Refresh | Command::Metrics => {
                unreachable!("data-plane commands only")
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::decode_reply;
    use cods_query::{Predicate, Query};
    use cods_storage::{Schema, Table, Value};

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
    fn each_connection_retries_on_its_own_schedule() {
        let shared = shared();
        let a = Connection::open(&shared, Sink::default(), 0).unwrap();
        let b = Connection::open(&shared, Sink::default(), 1).unwrap();
        assert_ne!(a.retry.backoff(0), b.retry.backoff(0));
    }

    #[test]
    fn a_small_row_stream_reaches_the_transport_as_one_write() {
        let shared = shared();
        let sink = Sink::default();
        let mut conn = Connection::open(&shared, sink.clone(), 0).unwrap();
        assert_eq!(sink.writes(), 1, "preamble and Hello leave together");

        conn.respond(Command::Query(Query::Scan {
            table: "t".into(),
            predicate: Predicate::True,
            projection: None,
        }))
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
        let mut conn = Connection::open(&shared, sink.clone(), 0).unwrap();
        type Expected = fn(&Reply) -> bool;
        let cases: [(Command, Expected); 4] = [
            (Command::Ping, |r| matches!(r, Reply::Pong)),
            (
                Command::Query(Query::Count {
                    table: "t".into(),
                    predicate: Predicate::True,
                }),
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
        let mut conn = Connection::open(&shared, sink.clone(), 0).unwrap();
        let encoded = || shared.metrics.bytes_streamed.load(Ordering::Relaxed);
        // The preamble is the only thing the byte counter leaves out.
        let preamble = sink.bytes() - encoded();

        // Sixteen batches of one distinct 256 KiB cell each (a value the
        // stream has sent travels once, so each batch's must be new): every
        // frame is larger than the window. The iterator runs between
        // frames, so it sees what the connection holds at each step.
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
            let distinct = format!("{produced}{cell}");
            Some(Ok(RowSet::from_rows(1, [vec![Value::str(distinct)]])))
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
        let conns = handle.shared.registry();
        assert_eq!(conns.len(), 1);
        let (accepted, _) = conns.values().next().unwrap();
        assert!(accepted.nodelay().unwrap(), "accepted socket");
        drop(conns);
        handle.shutdown();
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let mut handle = Server::bind(
            "127.0.0.1:0",
            Arc::new(Cods::new()),
            ServerConfig::default(),
        )
        .unwrap();
        for _ in 0..200 {
            Client::connect(handle.local_addr())
                .unwrap()
                .ping()
                .unwrap();
        }
        let shared = Arc::clone(&handle.shared);
        let open = || shared.metrics.connections_open.load(Ordering::Relaxed);
        // Each hang-up is noticed by its own serving thread; wait them out.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while (open() > 0 || !shared.registry().is_empty()) && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(open(), 0);
        assert!(shared.registry().is_empty(), "descriptors leaked");
        let total = &shared.metrics.connections_total;
        assert_eq!(total.load(Ordering::Relaxed), 200);

        // A live connection is registered, and shutdown still joins it.
        let mut live = Client::connect(handle.local_addr()).unwrap();
        live.ping().unwrap();
        assert_eq!(shared.registry().len(), 1);
        handle.shutdown();
        assert!(shared.registry().is_empty());
        assert_eq!(open(), 0, "the live connection's thread was joined");
    }
}
