//! A blocking client for the serving protocol — the library behind the
//! CLI's `connect` REPL and the integration tests.

use crate::frame::{
    disable_nagle, read_frame, read_preamble, write_frame, FrameError, DEFAULT_MAX_FRAME_BYTES,
};
use crate::proto::{
    decode_reply, encode_command, Command, MetricsReply, Reply, RowBatch, RowsDecoder, WireError,
    ROWS_KIND, TOTAL_UNKNOWN,
};
use cods_query::{AggOp, Predicate, Query};
use cods_storage::{Value, ValueType};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Per-batch callback for streamed reads: (column header, the batch).
type BatchFn<'a> = dyn FnMut(&[(String, ValueType)], RowBatch) + 'a;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server answered with an error reply.
    Server {
        /// Machine-readable class (see [`crate::proto::error_code`]).
        code: u16,
        /// Server-side description.
        message: String,
    },
    /// The server rejected the request under admission control. Retry
    /// later; the connection is still usable.
    Overloaded {
        /// Requests executing at rejection time.
        in_flight: u64,
        /// Requests queued at rejection time.
        queued: u64,
    },
    /// The server broke the protocol state machine (e.g. a `Rows` frame
    /// with no preceding header).
    Protocol(String),
    /// The connection died mid-stream: a row stream was cut (server
    /// crash, network drop) after `rows_seen` rows but before its closing
    /// `Done` frame. The rows received so far are a valid prefix, never a
    /// complete result.
    TornStream {
        /// Rows received before the stream was cut.
        rows_seen: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Overloaded { in_flight, queued } => write!(
                f,
                "server overloaded ({in_flight} in flight, {queued} queued); retry later"
            ),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::TornStream { rows_seen } => write!(
                f,
                "stream torn after {rows_seen} row(s): connection lost before Done"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::from(e))
    }
}

/// Result of a streamed scan, after the stream is fully drained.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSummary {
    /// `(name, type)` per output column.
    pub columns: Vec<(String, ValueType)>,
    /// Total rows the header announced.
    pub total_rows: u64,
    /// Batches received.
    pub batches: u64,
    /// Rows received (must equal `total_rows` — verified against the
    /// closing `Done` frame).
    pub rows: u64,
}

/// What [`Client::query`] returned, after any row stream is drained.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// `(table rows, selected rows, snapshot version)` of a count.
    Count((u64, u64, u64)),
    /// The drained row stream's summary.
    Rows(ScanSummary),
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Buffered, so a command's frame leaves in one write at the flush.
    writer: BufWriter<TcpStream>,
    catalog_version: u64,
}

impl Client {
    /// Connects, validates the preamble, and reads the `Hello` frame.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        disable_nagle(&stream)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        read_preamble(&mut reader)?;
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            catalog_version: 0,
        };
        match client.read_reply()? {
            Reply::Hello { catalog_version } => {
                client.catalog_version = catalog_version;
                Ok(client)
            }
            r => Err(Client::unexpected("Hello", &r)),
        }
    }

    /// The catalog version the server last reported for this session
    /// (from `Hello`, `Refreshed`, or a successful script).
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Whether this end's socket has `TCP_NODELAY` set.
    #[cfg(test)]
    pub(crate) fn nodelay(&self) -> std::io::Result<bool> {
        self.writer.get_ref().nodelay()
    }

    fn send(&mut self, cmd: &Command) -> Result<(), ClientError> {
        write_frame(&mut self.writer, cmd.kind(), &encode_command(cmd))?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one reply.
    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        let (kind, payload) = read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES)?;
        decode_reply(kind, &payload).map_err(undecodable)
    }

    /// Reads a reply, converting `Error` and `Overloaded` frames into
    /// typed client errors.
    fn expect_reply(&mut self) -> Result<Reply, ClientError> {
        self.read_reply().and_then(typed)
    }

    fn unexpected(wanted: &str, got: &Reply) -> ClientError {
        ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Command::Ping)?;
        match self.expect_reply()? {
            Reply::Pong => Ok(()),
            r => Err(Client::unexpected("Pong", &r)),
        }
    }

    /// Re-pins the server-side session snapshot; returns the new version.
    pub fn refresh(&mut self) -> Result<u64, ClientError> {
        self.send(&Command::Refresh)?;
        match self.expect_reply()? {
            Reply::Refreshed { catalog_version } => {
                self.catalog_version = catalog_version;
                Ok(catalog_version)
            }
            r => Err(Client::unexpected("Refreshed", &r)),
        }
    }

    /// Fetches server-wide counters.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        self.send(&Command::Metrics)?;
        match self.expect_reply()? {
            Reply::Metrics(m) => Ok(m),
            r => Err(Client::unexpected("Metrics", &r)),
        }
    }

    /// Fetches table statistics at the pinned snapshot: the text the
    /// local shell's `stats` prints ([`cods_storage::render_stats`]).
    pub fn stats(&mut self, table: &str) -> Result<String, ClientError> {
        self.send(&Command::Stats {
            table: table.to_string(),
        })?;
        match self.expect_reply()? {
            Reply::Ok { message } => Ok(message),
            r => Err(Client::unexpected("Ok", &r)),
        }
    }

    /// Runs an SMO script on the server; returns its summary line.
    pub fn script(&mut self, text: &str) -> Result<String, ClientError> {
        self.send(&Command::Script {
            text: text.to_string(),
        })?;
        match self.expect_reply()? {
            Reply::Ok { message } => Ok(message),
            r => Err(Client::unexpected("Ok", &r)),
        }
    }

    /// Runs one read statement at the pinned snapshot — what both shells'
    /// remote back end sends. A count answers at once; the other shapes
    /// hand each batch to `on_batch` as it arrives.
    pub fn query(
        &mut self,
        query: Query,
        mut on_batch: impl FnMut(&[(String, ValueType)], RowBatch),
    ) -> Result<QueryReply, ClientError> {
        let count = matches!(query, Query::Count { .. });
        self.send(&Command::Query(query))?;
        if count {
            self.read_count().map(QueryReply::Count)
        } else {
            self.drain_stream(&mut on_batch).map(QueryReply::Rows)
        }
    }

    /// Counts predicate-satisfying rows; returns `(table rows, selected,
    /// snapshot version)`.
    pub fn mask(
        &mut self,
        table: &str,
        predicate: Predicate,
    ) -> Result<(u64, u64, u64), ClientError> {
        self.send(&Command::Query(Query::Count {
            table: table.to_string(),
            predicate,
        }))?;
        self.read_count()
    }

    fn read_count(&mut self) -> Result<(u64, u64, u64), ClientError> {
        match self.expect_reply()? {
            Reply::MaskSummary {
                rows,
                selected,
                catalog_version,
            } => Ok((rows, selected, catalog_version)),
            r => Err(Client::unexpected("MaskSummary", &r)),
        }
    }

    /// Streams a scan, handing each batch to `on_batch` as it arrives.
    /// Client memory is bounded whatever the result size: one batch, plus
    /// each column's reply dictionary, which holds at most
    /// [`crate::proto::REPLY_DICT_MAX`] values (or one batch's own).
    /// Returns the drained stream's summary.
    pub fn scan_with(
        &mut self,
        table: &str,
        predicate: Predicate,
        projection: Option<Vec<String>>,
        mut on_batch: impl FnMut(&[(String, ValueType)], RowBatch),
    ) -> Result<ScanSummary, ClientError> {
        self.send(&Command::Query(Query::Scan {
            table: table.to_string(),
            predicate,
            projection,
        }))?;
        self.drain_stream(&mut on_batch)
    }

    /// [`Client::scan_with`], materialized: collects every batch.
    pub fn scan_collect(
        &mut self,
        table: &str,
        predicate: Predicate,
        projection: Option<Vec<String>>,
    ) -> Result<(ScanSummary, Vec<Vec<Value>>), ClientError> {
        let mut all = Vec::new();
        let summary = self.scan_with(table, predicate, projection, |_, rows| {
            all.extend(rows);
        })?;
        Ok((summary, all))
    }

    /// Grouped aggregation over predicate-selected rows; returns the
    /// output schema and result rows. Large group counts arrive in
    /// bounded batches.
    #[allow(clippy::type_complexity)]
    pub fn group_by(
        &mut self,
        table: &str,
        predicate: Predicate,
        group_by: Vec<String>,
        aggs: Vec<(AggOp, String)>,
    ) -> Result<(Vec<(String, ValueType)>, Vec<Vec<Value>>), ClientError> {
        self.send(&Command::Query(Query::GroupBy {
            table: table.to_string(),
            predicate,
            group_by,
            aggs,
        }))?;
        let mut all = Vec::new();
        let summary = self.drain_stream(&mut |_: &[(String, ValueType)], rows: RowBatch| {
            all.extend(rows);
        })?;
        Ok((summary.columns, all))
    }

    /// Streams a partition-wise hash equi-join of two server tables,
    /// handing each batch to `on_batch`. The header's `total_rows` is
    /// [`TOTAL_UNKNOWN`] (match counts are not known up front); the
    /// closing `Done` frame is still verified against the rows received.
    pub fn join_with(
        &mut self,
        left: &str,
        right: &str,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
        mut on_batch: impl FnMut(&[(String, ValueType)], RowBatch),
    ) -> Result<ScanSummary, ClientError> {
        self.send(&Command::Query(Query::Join {
            left: left.to_string(),
            right: right.to_string(),
            left_keys,
            right_keys,
        }))?;
        self.drain_stream(&mut on_batch)
    }

    /// [`Client::join_with`], materialized: collects every batch and
    /// returns the output schema with the rows.
    #[allow(clippy::type_complexity)]
    pub fn join(
        &mut self,
        left: &str,
        right: &str,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
    ) -> Result<(Vec<(String, ValueType)>, Vec<Vec<Value>>), ClientError> {
        let mut all = Vec::new();
        let summary = self.join_with(left, right, left_keys, right_keys, |_, rows| {
            all.extend(rows);
        })?;
        Ok((summary.columns, all))
    }

    /// Drains one RowHeader / Rows* / Done exchange, verifying the totals
    /// the server promised — any mismatch is a protocol violation. The
    /// batches decode with one stream decoder sized from the header, so a
    /// batch of any other column count is a protocol violation too, and
    /// `on_batch` only ever sees rows of the header's arity, one decoded
    /// batch at a time.
    fn drain_stream(&mut self, on_batch: &mut BatchFn<'_>) -> Result<ScanSummary, ClientError> {
        let (columns, total_rows) = match self.expect_reply()? {
            Reply::RowHeader {
                columns,
                total_rows,
            } => (columns, total_rows),
            r => return Err(Client::unexpected("RowHeader", &r)),
        };
        let mut decoder = RowsDecoder::new(columns.len());
        let mut batches = 0u64;
        let mut rows_seen = 0u64;
        loop {
            // Mid-stream, a dead transport is not a generic frame error:
            // type it as a torn stream carrying how far the prefix got.
            let (kind, payload) = match read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES) {
                Err(FrameError::Eof | FrameError::Torn | FrameError::Io(_)) => {
                    return Err(ClientError::TornStream { rows_seen })
                }
                other => other?,
            };
            if kind == ROWS_KIND {
                let batch = decoder.decode(&payload).map_err(undecodable)?;
                batches += 1;
                rows_seen += batch.len() as u64;
                on_batch(&columns, batch);
                continue;
            }
            match typed(decode_reply(kind, &payload).map_err(undecodable)?)? {
                Reply::Done {
                    batches: b,
                    rows: r,
                } => {
                    // An unknown-total header can only be checked against
                    // the closing frame, not against a promised count.
                    let total_mismatch = total_rows != TOTAL_UNKNOWN && r != total_rows;
                    if b != batches || r != rows_seen || total_mismatch {
                        return Err(ClientError::Protocol(format!(
                            "stream totals mismatch: saw {batches} batches / {rows_seen} rows, \
                             Done said {b} / {r}, header promised {total_rows}"
                        )));
                    }
                    return Ok(ScanSummary {
                        columns,
                        total_rows: if total_rows == TOTAL_UNKNOWN {
                            rows_seen
                        } else {
                            total_rows
                        },
                        batches,
                        rows: rows_seen,
                    });
                }
                r => return Err(Client::unexpected("Rows or Done", &r)),
            }
        }
    }
}

/// A reply that did not decode, as the client reports it.
fn undecodable(e: WireError) -> ClientError {
    ClientError::Protocol(format!("undecodable reply: {e}"))
}

/// `Error` and `Overloaded` replies as typed client errors; any other
/// reply as it is.
fn typed(reply: Reply) -> Result<Reply, ClientError> {
    match reply {
        Reply::Error { code, message } => Err(ClientError::Server { code, message }),
        Reply::Overloaded { in_flight, queued } => {
            Err(ClientError::Overloaded { in_flight, queued })
        }
        r => Ok(r),
    }
}
