//! The message layer on top of [`crate::frame`]: typed commands and
//! replies with a hand-rolled little-endian codec (the container has no
//! serde). Each message maps to one frame; the frame `kind` byte is the
//! message discriminant, the frame payload is the message body.
//!
//! Command kinds live in `0x01..=0x1F`, reply kinds in `0x81..=0x9F`, so a
//! desynchronized peer is caught by the kind check even when a frame's
//! checksum happens to pass.
//!
//! # The `Rows` body (protocol version 2)
//!
//! A batch of result rows travels column-major, each column as the
//! distinct values of *this batch* followed by one small id per row:
//!
//! ```text
//! rows   := n_rows:u32  n_cols:u16  column{n_cols}
//! column := n_local:u32  value{n_local}  width:u8  id{n_rows}
//! value  := tag:u8 body        (0 NULL | 1 bool:u8 | 2 int:i64
//!                               | 3 float bits:u64 | 4 str len:u32 utf-8)
//! id     := `width` bytes LE   (width = 1, 2 or 4: the narrowest that
//!                               holds n_local - 1)
//! ```
//!
//! The values stand in first-seen order, so `id[0] = 0` and every id is
//! below `n_local`; `NULL` is a value like any other (no validity field).
//! A batch without columns has no rows. The server writes a batch straight
//! from a [`RowSet`]'s dictionary ids ([`RowsEncoder`]): a string that
//! occurs in a thousand rows of a batch is written, and allocated by the
//! client, once. The decoder checks every count against the bytes that
//! remain before it allocates for it.

use crate::frame::FrameError;
use cods_query::{AggOp, CmpOp, Predicate, Query, RowColumn, RowSet};
use cods_storage::{CacheStats, OrderedF64, Value, ValueType};
use std::collections::HashMap;
use std::sync::Arc;

/// Decode failures: the frame was intact but its payload is not a valid
/// message. Always fatal for the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before the message did.
    Truncated,
    /// Unknown discriminant byte at the given description.
    BadTag(&'static str, u8),
    /// A string field was not valid UTF-8.
    Utf8,
    /// Predicate nesting beyond [`MAX_PRED_DEPTH`].
    TooDeep,
    /// Payload had trailing bytes after the message.
    Trailing,
    /// Two fields of the message contradict each other (the description
    /// says which): a well-formed peer never sends this.
    Inconsistent(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(what, b) => write!(f, "bad {what} tag 0x{b:02x}"),
            WireError::Utf8 => write!(f, "invalid utf-8 in string field"),
            WireError::TooDeep => write!(f, "predicate nested too deeply"),
            WireError::Trailing => write!(f, "trailing bytes after message"),
            WireError::Inconsistent(what) => write!(f, "inconsistent message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for FrameError {
    fn from(_: WireError) -> Self {
        FrameError::Corrupt
    }
}

/// Maximum predicate nesting the decoder accepts — bounds recursion on
/// hostile input while being far above anything a sane client sends.
pub const MAX_PRED_DEPTH: u32 = 64;

/// `total_rows` sentinel in a [`Reply::RowHeader`] for streams whose size
/// is unknown up front (joins stream matches as they are produced). The
/// closing `Done` frame still carries the exact totals, so integrity
/// checking degrades only from "known in advance" to "known at the end".
pub const TOTAL_UNKNOWN: u64 = u64::MAX;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe. Control plane: never queued or rejected.
    Ping,
    /// Re-pin the session's catalog snapshot to the current version.
    /// Control plane.
    Refresh,
    /// Server-wide counters. Control plane.
    Metrics,
    /// Table statistics at the session's pinned snapshot.
    Stats {
        /// Table name.
        table: String,
    },
    /// Run an SMO script against the live catalog (bounded conflict
    /// retry); on success the session re-pins so it reads its own write.
    Script {
        /// Script text, one operator per line.
        text: String,
    },
    /// One read at the pinned snapshot. A [`Query::Count`] answers with a
    /// `MaskSummary`; the other three shapes answer with a row stream —
    /// scans in segment-aligned batches under an exact header total,
    /// group-bys in bounded batches, joins under a [`TOTAL_UNKNOWN`]
    /// header.
    Query(Query),
}

impl Command {
    /// The frame kind byte of this command.
    pub fn kind(&self) -> u8 {
        match self {
            Command::Ping => 0x01,
            Command::Refresh => 0x02,
            Command::Metrics => 0x03,
            Command::Stats { .. } => 0x04,
            Command::Script { .. } => 0x05,
            // The kind byte follows the query's shape, as in protocol
            // version 1. 0x08 is reserved: a retired command's kind, never
            // reused.
            Command::Query(Query::Scan { .. }) => 0x06,
            Command::Query(Query::Count { .. }) => 0x07,
            Command::Query(Query::GroupBy { .. }) => 0x09,
            Command::Query(Query::Join { .. }) => 0x0A,
        }
    }

    /// `true` for commands that execute work against table data and must
    /// pass admission; `false` for the control plane, which always
    /// answers so operators can observe an overloaded server.
    pub fn is_data_plane(&self) -> bool {
        !matches!(self, Command::Ping | Command::Refresh | Command::Metrics)
    }
}

/// Server-wide counters returned by [`Command::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReply {
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Data-plane requests executing right now.
    pub in_flight: u64,
    /// Data-plane requests waiting for an execution slot.
    pub queued: u64,
    /// Data-plane requests admitted since start.
    pub admitted_total: u64,
    /// Data-plane requests rejected with `Overloaded` since start.
    pub rejected_total: u64,
    /// Payload bytes streamed to clients since start.
    pub bytes_streamed: u64,
    /// Result rows streamed to clients since start.
    pub rows_streamed: u64,
    /// Connections evicted for idling past the server's deadline.
    pub idle_evicted: u64,
    /// The segment buffer cache's counters at snapshot time.
    pub cache: CacheStats,
    /// Commit-log durability counters (all zero without a commit log).
    pub durability: DurabilityReply,
}

/// Commit-log counters inside a [`MetricsReply`]. All zero when the
/// server runs memory-only (no `--durable` catalog attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityReply {
    /// 1 when a commit log is attached, else 0.
    pub enabled: u64,
    /// Commits acknowledged durable since start.
    pub commits: u64,
    /// Group fsyncs issued — `commits / fsyncs` is the batching factor.
    pub fsyncs: u64,
    /// Largest number of commits covered by one fsync.
    pub max_batch: u64,
    /// Cumulative wall time inside group fsyncs, microseconds.
    pub fsync_micros: u64,
    /// Commit records awaiting a checkpoint.
    pub log_pending: u64,
    /// Bytes of the commit-log file.
    pub log_bytes: u64,
}

/// Table statistics on the wire (a subset of
/// [`cods_storage::TableStats`] that serializes flat).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Rows in the table.
    pub rows: u64,
    /// Number of columns.
    pub arity: u64,
    /// Total compressed bytes (payloads + dictionaries).
    pub total_bytes: u64,
    /// Segments currently decoded in memory.
    pub resident_segments: u64,
    /// Segments currently paged out.
    pub on_disk_segments: u64,
    /// Catalog version the session read this from.
    pub catalog_version: u64,
}

/// A server response. Streaming commands answer with a `RowHeader`, any
/// number of `Rows` frames, then `Done`; everything else is one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// First frame of every connection: protocol and catalog versions.
    Hello {
        /// Catalog version the session pinned at connect time.
        catalog_version: u64,
    },
    /// Answer to [`Command::Ping`].
    Pong,
    /// Answer to [`Command::Refresh`]: the newly pinned version.
    Refreshed {
        /// Catalog version the session is now pinned at.
        catalog_version: u64,
    },
    /// Generic success with a human-readable summary (scripts).
    Ok {
        /// Summary text.
        message: String,
    },
    /// The request failed; the session survives.
    Error {
        /// Machine-readable class, see [`error_code`] constants.
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Typed admission rejection: the server is at capacity. The client
    /// may retry later; the connection stays open.
    Overloaded {
        /// Data-plane requests executing when the request was rejected.
        in_flight: u64,
        /// Requests already queued when the request was rejected.
        queued: u64,
    },
    /// Stream opener: output schema and the exact total row count.
    RowHeader {
        /// `(name, type)` per output column.
        columns: Vec<(String, ValueType)>,
        /// Total rows the stream will carry.
        total_rows: u64,
    },
    /// One batch of result rows (see the module docs for its body). The
    /// server encodes batches from a [`RowSet`] without building this
    /// variant; it is what a client decodes.
    Rows {
        /// The batch's tuples, all of one arity.
        rows: Vec<Vec<Value>>,
    },
    /// Stream closer with totals for integrity checking.
    Done {
        /// Batches sent (``Rows`` frames).
        batches: u64,
        /// Rows sent across all batches.
        rows: u64,
    },
    /// Answer to a [`Query::Count`].
    MaskSummary {
        /// Rows in the table.
        rows: u64,
        /// Rows satisfying the predicate.
        selected: u64,
        /// Snapshot version the mask was computed at.
        catalog_version: u64,
    },
    /// Answer to [`Command::Metrics`].
    Metrics(MetricsReply),
    /// Answer to [`Command::Stats`].
    Stats(StatsReply),
}

/// Machine-readable [`Reply::Error`] classes.
pub mod error_code {
    /// Malformed or unsupported request.
    pub const BAD_REQUEST: u16 = 1;
    /// Unknown table or column at the pinned snapshot.
    pub const NOT_FOUND: u16 = 2;
    /// Optimistic commit lost every retry attempt.
    pub const CONFLICT: u16 = 3;
    /// Script parse/validation/execution error.
    pub const EVOLUTION: u16 = 4;
    /// Anything else.
    pub const INTERNAL: u16 = 5;
    /// The connection idled past the server's deadline and is being
    /// closed.
    pub const TIMEOUT: u16 = 6;
}

/// Frame kind of a [`Reply::Rows`] batch.
pub const ROWS_KIND: u8 = 0x88;

impl Reply {
    /// The frame kind byte of this reply.
    pub fn kind(&self) -> u8 {
        match self {
            Reply::Hello { .. } => 0x81,
            Reply::Pong => 0x82,
            Reply::Refreshed { .. } => 0x83,
            Reply::Ok { .. } => 0x84,
            Reply::Error { .. } => 0x85,
            Reply::Overloaded { .. } => 0x86,
            Reply::RowHeader { .. } => 0x87,
            Reply::Rows { .. } => ROWS_KIND,
            Reply::Done { .. } => 0x89,
            Reply::MaskSummary { .. } => 0x8A,
            Reply::Metrics(_) => 0x8B,
            Reply::Stats(_) => 0x8C,
        }
    }
}

// ---------------------------------------------------------------- codec --

/// Little-endian byte writer.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            // Bit-exact round-trip, NaN payloads included.
            Value::Float(OrderedF64(f)) => {
                self.u8(3);
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
        }
    }
    fn value_type(&mut self, t: ValueType) {
        self.u8(t.tag());
    }
    fn pred(&mut self, p: &Predicate) {
        match p {
            Predicate::Compare {
                column,
                op,
                literal,
            } => {
                self.u8(0);
                self.str(column);
                self.u8(match op {
                    CmpOp::Eq => 0,
                    CmpOp::Ne => 1,
                    CmpOp::Lt => 2,
                    CmpOp::Le => 3,
                    CmpOp::Gt => 4,
                    CmpOp::Ge => 5,
                });
                self.value(literal);
            }
            Predicate::And(a, b) => {
                self.u8(1);
                self.pred(a);
                self.pred(b);
            }
            Predicate::Or(a, b) => {
                self.u8(2);
                self.pred(a);
                self.pred(b);
            }
            Predicate::Not(a) => {
                self.u8(3);
                self.pred(a);
            }
            Predicate::True => self.u8(4),
        }
    }
}

/// One column of a `Rows` body as the encoder reads it.
enum ColumnSrc<'a> {
    /// `ids[r]` indexes `values`: a dictionary-backed column.
    Dict { values: &'a [Value], ids: &'a [u32] },
    /// One value per row.
    Cells(Box<dyn Iterator<Item = &'a Value> + 'a>),
}

/// Marks a dictionary id no row of the current column has carried yet.
const UNSEEN: u32 = u32::MAX;

/// The encoder of `Rows` bodies. One serves a whole reply stream, so the
/// table that renumbers a column's dictionary ids per batch is sized once
/// per stream, not once per batch.
#[derive(Default)]
pub struct RowsEncoder {
    /// Dictionary id -> local id within the column being encoded;
    /// [`UNSEEN`] everywhere between columns.
    local_of: Vec<u32>,
    /// Local id per row of the column being encoded.
    local: Vec<u32>,
}

impl RowsEncoder {
    /// The `Rows` body of `set`. A set without columns must be empty (the
    /// decoder refuses rows that carry nothing; [`Query::resolve`] never
    /// produces them).
    pub fn encode(&mut self, set: &RowSet) -> Vec<u8> {
        let mut e = Enc::default();
        self.rows(&mut e, set.len(), set.arity(), |c| {
            match &set.columns()[c] {
                RowColumn::Dict { column, ids } => ColumnSrc::Dict {
                    values: column.dict().values(),
                    ids,
                },
                RowColumn::Plain(values) => ColumnSrc::Cells(Box::new(values.iter())),
            }
        });
        e.buf
    }

    fn rows<'a>(
        &mut self,
        e: &mut Enc,
        n_rows: usize,
        n_cols: usize,
        column: impl Fn(usize) -> ColumnSrc<'a>,
    ) {
        debug_assert!(n_cols > 0 || n_rows == 0, "rows without columns");
        e.u32(n_rows as u32);
        e.u16(n_cols as u16);
        for c in 0..n_cols {
            // The values are written as rows first carry them; their count
            // is patched in once the column has been walked.
            let count_at = e.buf.len();
            e.u32(0);
            let mut n_local = 0u32;
            self.local.clear();
            match column(c) {
                ColumnSrc::Dict { values, ids } => {
                    if self.local_of.len() < values.len() {
                        self.local_of.resize(values.len(), UNSEEN);
                    }
                    for &id in ids {
                        let slot = &mut self.local_of[id as usize];
                        if *slot == UNSEEN {
                            *slot = n_local;
                            n_local += 1;
                            e.value(&values[id as usize]);
                        }
                        self.local.push(*slot);
                    }
                    for &id in ids {
                        self.local_of[id as usize] = UNSEEN;
                    }
                }
                ColumnSrc::Cells(cells) => {
                    let mut seen: HashMap<&Value, u32> = HashMap::new();
                    for v in cells {
                        let id = *seen.entry(v).or_insert_with(|| {
                            e.value(v);
                            n_local += 1;
                            n_local - 1
                        });
                        self.local.push(id);
                    }
                }
            }
            debug_assert_eq!(self.local.len(), n_rows, "one cell per row");
            e.buf[count_at..count_at + 4].copy_from_slice(&n_local.to_le_bytes());
            match n_local {
                0..=0x100 => {
                    e.u8(1);
                    e.buf.extend(self.local.iter().map(|&id| id as u8));
                }
                0x101..=0x1_0000 => {
                    e.u8(2);
                    for &id in &self.local {
                        e.u16(id as u16);
                    }
                }
                _ => {
                    e.u8(4);
                    for &id in &self.local {
                        e.u32(id);
                    }
                }
            }
        }
    }
}

/// Little-endian byte reader over a message payload.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecResult<T> = Result<T, WireError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> DecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> DecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str_ref(&mut self) -> DecResult<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Utf8)
    }
    fn str(&mut self) -> DecResult<String> {
        self.str_ref().map(str::to_owned)
    }
    fn value(&mut self) -> DecResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(OrderedF64(f64::from_bits(self.u64()?))),
            // Straight from the frame into the `Arc<str>`, no `String` in
            // between.
            4 => Value::Str(Arc::from(self.str_ref()?)),
            b => return Err(WireError::BadTag("value", b)),
        })
    }
    fn value_type(&mut self) -> DecResult<ValueType> {
        let b = self.u8()?;
        ValueType::from_tag(b).ok_or(WireError::BadTag("value type", b))
    }
    fn pred(&mut self, depth: u32) -> DecResult<Predicate> {
        if depth > MAX_PRED_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.u8()? {
            0 => Predicate::Compare {
                column: self.str()?,
                op: match self.u8()? {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    5 => CmpOp::Ge,
                    b => return Err(WireError::BadTag("cmp op", b)),
                },
                literal: self.value()?,
            },
            1 => Predicate::And(
                Box::new(self.pred(depth + 1)?),
                Box::new(self.pred(depth + 1)?),
            ),
            2 => Predicate::Or(
                Box::new(self.pred(depth + 1)?),
                Box::new(self.pred(depth + 1)?),
            ),
            3 => Predicate::Not(Box::new(self.pred(depth + 1)?)),
            4 => Predicate::True,
            b => return Err(WireError::BadTag("predicate", b)),
        })
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    /// A `Rows` body as rows of values: each column's distinct values are
    /// decoded once, and a cell is a clone of one of them (a reference
    /// count for a string, not an allocation). Every count is held against
    /// the bytes that remain before anything is allocated for it.
    fn rows(&mut self) -> DecResult<Vec<Vec<Value>>> {
        let n_rows = self.u32()? as usize;
        let n_cols = self.u16()? as usize;
        if n_cols == 0 {
            // Rows of nothing would cost no bytes to claim.
            return match n_rows {
                0 => Ok(Vec::new()),
                _ => Err(WireError::Inconsistent("rows without columns")),
            };
        }
        // A column spends five bytes on its count and id width, and at
        // least one per row on ids.
        if n_rows > self.remaining() || n_cols > self.remaining() / 5 {
            return Err(WireError::Truncated);
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let n_local = self.u32()? as usize;
            if n_local > n_rows {
                return Err(WireError::Inconsistent("more distinct values than rows"));
            }
            let mut values = Vec::with_capacity(n_local);
            for _ in 0..n_local {
                values.push(self.value()?);
            }
            let width = self.u8()?;
            if !matches!(width, 1 | 2 | 4) {
                return Err(WireError::BadTag("id width", width));
            }
            let bytes = self.take(n_rows * width as usize)?;
            let ids: Vec<u32> = match width {
                1 => bytes.iter().map(|&b| b.into()).collect(),
                2 => bytes
                    .chunks_exact(2)
                    .map(|b| u16::from_le_bytes([b[0], b[1]]).into())
                    .collect(),
                _ => bytes
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            };
            if ids.iter().any(|&id| id as usize >= n_local) {
                return Err(WireError::Inconsistent(
                    "local id beyond the batch dictionary",
                ));
            }
            columns.push((values, ids));
        }
        Ok((0..n_rows)
            .map(|r| {
                columns
                    .iter()
                    .map(|(values, ids)| values[ids[r] as usize].clone())
                    .collect()
            })
            .collect())
    }
    fn finish(self) -> DecResult<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

fn agg_op_tag(op: AggOp) -> u8 {
    match op {
        AggOp::Count => 0,
        AggOp::CountDistinct => 1,
        AggOp::Sum => 2,
        AggOp::Min => 3,
        AggOp::Max => 4,
    }
}

fn agg_op_from(b: u8) -> DecResult<AggOp> {
    Ok(match b {
        0 => AggOp::Count,
        1 => AggOp::CountDistinct,
        2 => AggOp::Sum,
        3 => AggOp::Min,
        4 => AggOp::Max,
        b => return Err(WireError::BadTag("agg op", b)),
    })
}

/// Encodes a command body (the frame kind comes from [`Command::kind`]).
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut e = Enc::default();
    match cmd {
        Command::Ping | Command::Refresh | Command::Metrics => {}
        Command::Stats { table } => e.str(table),
        Command::Script { text } => e.str(text),
        Command::Query(Query::Scan {
            table,
            predicate,
            projection,
        }) => {
            e.str(table);
            e.pred(predicate);
            match projection {
                None => e.u8(0),
                Some(cols) => {
                    e.u8(1);
                    e.u32(cols.len() as u32);
                    for c in cols {
                        e.str(c);
                    }
                }
            }
        }
        Command::Query(Query::Count { table, predicate }) => {
            e.str(table);
            e.pred(predicate);
        }
        Command::Query(Query::GroupBy {
            table,
            predicate,
            group_by,
            aggs,
        }) => {
            e.str(table);
            e.pred(predicate);
            e.u32(group_by.len() as u32);
            for g in group_by {
                e.str(g);
            }
            e.u32(aggs.len() as u32);
            for (op, col) in aggs {
                e.u8(agg_op_tag(*op));
                e.str(col);
            }
        }
        Command::Query(Query::Join {
            left,
            right,
            left_keys,
            right_keys,
        }) => {
            e.str(left);
            e.str(right);
            e.u32(left_keys.len() as u32);
            for k in left_keys {
                e.str(k);
            }
            e.u32(right_keys.len() as u32);
            for k in right_keys {
                e.str(k);
            }
        }
    }
    e.buf
}

/// Decodes a command from its frame `(kind, payload)`.
pub fn decode_command(kind: u8, payload: &[u8]) -> DecResult<Command> {
    let mut d = Dec::new(payload);
    let cmd = match kind {
        0x01 => Command::Ping,
        0x02 => Command::Refresh,
        0x03 => Command::Metrics,
        0x04 => Command::Stats { table: d.str()? },
        0x05 => Command::Script { text: d.str()? },
        0x06 => {
            let table = d.str()?;
            let predicate = d.pred(0)?;
            let projection = match d.u8()? {
                0 => None,
                1 => {
                    let n = d.u32()? as usize;
                    let mut cols = Vec::with_capacity(n.min(1 << 12));
                    for _ in 0..n {
                        cols.push(d.str()?);
                    }
                    Some(cols)
                }
                b => return Err(WireError::BadTag("projection", b)),
            };
            Command::Query(Query::Scan {
                table,
                predicate,
                projection,
            })
        }
        0x07 => Command::Query(Query::Count {
            table: d.str()?,
            predicate: d.pred(0)?,
        }),
        0x09 => {
            let table = d.str()?;
            let predicate = d.pred(0)?;
            let n = d.u32()? as usize;
            let mut group_by = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                group_by.push(d.str()?);
            }
            let n = d.u32()? as usize;
            let mut aggs = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let op = agg_op_from(d.u8()?)?;
                aggs.push((op, d.str()?));
            }
            Command::Query(Query::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            })
        }
        0x0A => {
            let left = d.str()?;
            let right = d.str()?;
            let n = d.u32()? as usize;
            let mut left_keys = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                left_keys.push(d.str()?);
            }
            let n = d.u32()? as usize;
            let mut right_keys = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                right_keys.push(d.str()?);
            }
            Command::Query(Query::Join {
                left,
                right,
                left_keys,
                right_keys,
            })
        }
        b => return Err(WireError::BadTag("command kind", b)),
    };
    d.finish()?;
    Ok(cmd)
}

/// Encodes a reply body (the frame kind comes from [`Reply::kind`]).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut e = Enc::default();
    match reply {
        Reply::Pong => {}
        Reply::Hello { catalog_version } | Reply::Refreshed { catalog_version } => {
            e.u64(*catalog_version)
        }
        Reply::Ok { message } => e.str(message),
        Reply::Error { code, message } => {
            e.u16(*code);
            e.str(message);
        }
        Reply::Overloaded { in_flight, queued } => {
            e.u64(*in_flight);
            e.u64(*queued);
        }
        Reply::RowHeader {
            columns,
            total_rows,
        } => {
            e.u32(columns.len() as u32);
            for (name, ty) in columns {
                e.str(name);
                e.value_type(*ty);
            }
            e.u64(*total_rows);
        }
        Reply::Rows { rows } => {
            // The same encoder as the server's, over the borrowed rows.
            let arity = rows.first().map_or(0, Vec::len);
            assert!(
                rows.iter().all(|row| row.len() == arity),
                "the rows of a batch share one arity"
            );
            RowsEncoder::default().rows(&mut e, rows.len(), arity, |c| {
                ColumnSrc::Cells(Box::new(rows.iter().map(move |row| &row[c])))
            });
        }
        Reply::Done { batches, rows } => {
            e.u64(*batches);
            e.u64(*rows);
        }
        Reply::MaskSummary {
            rows,
            selected,
            catalog_version,
        } => {
            e.u64(*rows);
            e.u64(*selected);
            e.u64(*catalog_version);
        }
        Reply::Metrics(m) => {
            e.u64(m.connections_open);
            e.u64(m.connections_total);
            e.u64(m.in_flight);
            e.u64(m.queued);
            e.u64(m.admitted_total);
            e.u64(m.rejected_total);
            e.u64(m.bytes_streamed);
            e.u64(m.rows_streamed);
            e.u64(m.idle_evicted);
            e.u64(m.cache.budget);
            e.u64(m.cache.resident_bytes);
            e.u64(m.cache.hits);
            e.u64(m.cache.misses);
            e.u64(m.cache.evictions);
            e.u64(m.cache.decoded_bytes);
            e.u64(m.durability.enabled);
            e.u64(m.durability.commits);
            e.u64(m.durability.fsyncs);
            e.u64(m.durability.max_batch);
            e.u64(m.durability.fsync_micros);
            e.u64(m.durability.log_pending);
            e.u64(m.durability.log_bytes);
        }
        Reply::Stats(s) => {
            e.u64(s.rows);
            e.u64(s.arity);
            e.u64(s.total_bytes);
            e.u64(s.resident_segments);
            e.u64(s.on_disk_segments);
            e.u64(s.catalog_version);
        }
    }
    e.buf
}

/// Decodes a reply from its frame `(kind, payload)`.
pub fn decode_reply(kind: u8, payload: &[u8]) -> DecResult<Reply> {
    let mut d = Dec::new(payload);
    let reply = match kind {
        0x81 => Reply::Hello {
            catalog_version: d.u64()?,
        },
        0x82 => Reply::Pong,
        0x83 => Reply::Refreshed {
            catalog_version: d.u64()?,
        },
        0x84 => Reply::Ok { message: d.str()? },
        0x85 => Reply::Error {
            code: d.u16()?,
            message: d.str()?,
        },
        0x86 => Reply::Overloaded {
            in_flight: d.u64()?,
            queued: d.u64()?,
        },
        0x87 => {
            let n = d.u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let name = d.str()?;
                columns.push((name, d.value_type()?));
            }
            Reply::RowHeader {
                columns,
                total_rows: d.u64()?,
            }
        }
        0x88 => Reply::Rows { rows: d.rows()? },
        0x89 => Reply::Done {
            batches: d.u64()?,
            rows: d.u64()?,
        },
        0x8A => Reply::MaskSummary {
            rows: d.u64()?,
            selected: d.u64()?,
            catalog_version: d.u64()?,
        },
        0x8B => Reply::Metrics(MetricsReply {
            connections_open: d.u64()?,
            connections_total: d.u64()?,
            in_flight: d.u64()?,
            queued: d.u64()?,
            admitted_total: d.u64()?,
            rejected_total: d.u64()?,
            bytes_streamed: d.u64()?,
            rows_streamed: d.u64()?,
            idle_evicted: d.u64()?,
            cache: CacheStats {
                budget: d.u64()?,
                resident_bytes: d.u64()?,
                hits: d.u64()?,
                misses: d.u64()?,
                evictions: d.u64()?,
                decoded_bytes: d.u64()?,
            },
            durability: DurabilityReply {
                enabled: d.u64()?,
                commits: d.u64()?,
                fsyncs: d.u64()?,
                max_batch: d.u64()?,
                fsync_micros: d.u64()?,
                log_pending: d.u64()?,
                log_bytes: d.u64()?,
            },
        }),
        0x8C => Reply::Stats(StatsReply {
            rows: d.u64()?,
            arity: d.u64()?,
            total_bytes: d.u64()?,
            resident_segments: d.u64()?,
            on_disk_segments: d.u64()?,
            catalog_version: d.u64()?,
        }),
        b => return Err(WireError::BadTag("reply kind", b)),
    };
    d.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_cmd(cmd: Command) {
        let bytes = encode_command(&cmd);
        let back = decode_command(cmd.kind(), &bytes).unwrap();
        assert_eq!(back, cmd);
    }

    fn rt_reply(reply: Reply) {
        let bytes = encode_reply(&reply);
        let back = decode_reply(reply.kind(), &bytes).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn commands_round_trip() {
        rt_cmd(Command::Ping);
        rt_cmd(Command::Refresh);
        rt_cmd(Command::Metrics);
        rt_cmd(Command::Stats { table: "R".into() });
        rt_cmd(Command::Script {
            text: "DROP TABLE x\nCREATE TABLE y (a INT)".into(),
        });
        rt_cmd(Command::Query(Query::Scan {
            table: "emp".into(),
            predicate: Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0").not()),
            projection: Some(vec!["v".into(), "k".into()]),
        }));
        rt_cmd(Command::Query(Query::Scan {
            table: "emp".into(),
            predicate: Predicate::True,
            projection: None,
        }));
        rt_cmd(Command::Query(Query::Count {
            table: "t".into(),
            predicate: Predicate::ge("f", 1.5f64),
        }));
        rt_cmd(Command::Query(Query::GroupBy {
            table: "t".into(),
            predicate: Predicate::True,
            group_by: vec!["dept".into()],
            aggs: vec![(AggOp::Count, "dept".into()), (AggOp::Sum, "pay".into())],
        }));
        rt_cmd(Command::Query(Query::GroupBy {
            table: "t".into(),
            predicate: Predicate::lt("pay", 100i64),
            group_by: vec!["dept".into(), "site".into()],
            aggs: vec![
                (AggOp::CountDistinct, "emp".into()),
                (AggOp::Max, "pay".into()),
            ],
        }));
        rt_cmd(Command::Query(Query::GroupBy {
            table: "t".into(),
            predicate: Predicate::True,
            group_by: vec![],
            aggs: vec![(AggOp::Count, "dept".into())],
        }));
        rt_cmd(Command::Query(Query::Join {
            left: "orders".into(),
            right: "people".into(),
            left_keys: vec!["who".into(), "region".into()],
            right_keys: vec!["name".into(), "region".into()],
        }));
    }

    #[test]
    fn retired_kind_0x08_decodes_as_an_unknown_command() {
        let body = encode_command(&Command::Query(Query::GroupBy {
            table: "t".into(),
            predicate: Predicate::True,
            group_by: vec!["g".into()],
            aggs: vec![(AggOp::Count, "g".into())],
        }));
        assert_eq!(
            decode_command(0x08, &body),
            Err(WireError::BadTag("command kind", 0x08))
        );
    }

    #[test]
    fn unknown_total_header_round_trips() {
        rt_reply(Reply::RowHeader {
            columns: vec![("k".into(), ValueType::Int)],
            total_rows: TOTAL_UNKNOWN,
        });
    }

    #[test]
    fn replies_round_trip() {
        rt_reply(Reply::Hello { catalog_version: 9 });
        rt_reply(Reply::Pong);
        rt_reply(Reply::Refreshed {
            catalog_version: 10,
        });
        rt_reply(Reply::Ok {
            message: "2 ops".into(),
        });
        rt_reply(Reply::Error {
            code: error_code::NOT_FOUND,
            message: "unknown table".into(),
        });
        rt_reply(Reply::Overloaded {
            in_flight: 4,
            queued: 2,
        });
        rt_reply(Reply::RowHeader {
            columns: vec![("k".into(), ValueType::Int), ("v".into(), ValueType::Str)],
            total_rows: 1_000_000,
        });
        rt_reply(Reply::Rows {
            rows: vec![
                vec![Value::int(1), Value::str("a")],
                vec![Value::Null, Value::Bool(true)],
                vec![Value::float(f64::NAN), Value::float(-0.0)],
            ],
        });
        rt_reply(Reply::Done {
            batches: 3,
            rows: 12,
        });
        rt_reply(Reply::MaskSummary {
            rows: 100,
            selected: 42,
            catalog_version: 7,
        });
        rt_reply(Reply::Metrics(MetricsReply {
            connections_open: 1,
            connections_total: 2,
            in_flight: 3,
            queued: 4,
            admitted_total: 5,
            rejected_total: 6,
            bytes_streamed: 7,
            rows_streamed: 8,
            idle_evicted: 14,
            cache: CacheStats {
                budget: u64::MAX,
                resident_bytes: 9,
                hits: 10,
                misses: 11,
                evictions: 12,
                decoded_bytes: 13,
            },
            durability: DurabilityReply {
                enabled: 1,
                commits: 15,
                fsyncs: 16,
                max_batch: 17,
                fsync_micros: 18,
                log_pending: 19,
                log_bytes: 20,
            },
        }));
        rt_reply(Reply::Stats(StatsReply {
            rows: 1,
            arity: 2,
            total_bytes: 3,
            resident_segments: 4,
            on_disk_segments: 5,
            catalog_version: 6,
        }));
    }

    #[test]
    fn nan_payloads_survive_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = encode_reply(&Reply::Rows {
            rows: vec![vec![Value::Float(OrderedF64(weird))]],
        });
        match decode_reply(0x88, &bytes).unwrap() {
            Reply::Rows { rows } => match rows[0][0] {
                Value::Float(OrderedF64(f)) => assert_eq!(f.to_bits(), weird.to_bits()),
                ref v => panic!("wrong value {v:?}"),
            },
            r => panic!("wrong reply {r:?}"),
        }
    }

    /// A hand-built `Rows` body: `(n_local, values, width, id bytes)` per
    /// column, each field written as given, consistent or not.
    fn rows_body(n_rows: u32, columns: &[(u32, &[Value], u8, &[u8])]) -> Vec<u8> {
        let mut e = Enc::default();
        e.u32(n_rows);
        e.u16(columns.len() as u16);
        for (n_local, values, width, ids) in columns {
            e.u32(*n_local);
            values.iter().for_each(|v| e.value(v));
            e.u8(*width);
            e.buf.extend_from_slice(ids);
        }
        e.buf
    }

    #[test]
    fn a_rows_body_is_column_major_with_a_dictionary_per_batch() {
        let rows = vec![
            vec![Value::str("a"), Value::Null],
            vec![Value::str("b"), Value::Null],
            vec![Value::str("a"), Value::int(7)],
        ];
        let by_hand = rows_body(
            3,
            &[
                (2, &[Value::str("a"), Value::str("b")], 1, &[0, 1, 0]),
                (2, &[Value::Null, Value::int(7)], 1, &[0, 0, 1]),
            ],
        );
        assert_eq!(encode_reply(&Reply::Rows { rows: rows.clone() }), by_hand);
        // The server's entry point writes the same bytes from a row set.
        let set = RowSet::from_rows(2, rows.clone());
        assert_eq!(RowsEncoder::default().encode(&set), by_hand);
        assert_eq!(decode_reply(ROWS_KIND, &by_hand), Ok(Reply::Rows { rows }));
        // Any of the three widths decodes; the encoder picks the narrowest.
        let wide = rows_body(2, &[(1, &[Value::Null], 4, &[0; 8])]);
        let rows = vec![vec![Value::Null]; 2];
        assert_eq!(decode_reply(ROWS_KIND, &wide), Ok(Reply::Rows { rows }));
    }

    #[test]
    fn hostile_rows_bodies_are_typed_errors_before_anything_is_allocated() {
        let null: &[Value] = &[Value::Null];
        let mut many_columns = rows_body(1, &[(1, null, 1, &[0])]);
        many_columns[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
        let cases: [(&str, Vec<u8>, WireError); 8] = [
            (
                "four billion rows claimed by ten bytes",
                rows_body(u32::MAX, &[(0, &[], 1, &[])])[..10].to_vec(),
                WireError::Truncated,
            ),
            (
                "more columns than the payload could hold",
                many_columns,
                WireError::Truncated,
            ),
            (
                "rows without columns",
                rows_body(3, &[]),
                WireError::Inconsistent("rows without columns"),
            ),
            (
                "a dictionary larger than the batch",
                rows_body(1, &[(2, &[Value::Null, Value::int(1)], 1, &[0])]),
                WireError::Inconsistent("more distinct values than rows"),
            ),
            (
                "a local id past the dictionary",
                rows_body(2, &[(1, null, 1, &[0, 1])]),
                WireError::Inconsistent("local id beyond the batch dictionary"),
            ),
            (
                "an id width that is none of 1, 2, 4",
                rows_body(2, &[(1, null, 3, &[0; 6])]),
                WireError::BadTag("id width", 3),
            ),
            (
                "an id array shorter than the row count",
                rows_body(3, &[(1, null, 2, &[0; 4])]),
                WireError::Truncated,
            ),
            (
                "bytes after the last column",
                rows_body(1, &[(1, null, 1, &[0, 0])]),
                WireError::Trailing,
            ),
        ];
        for (what, payload, want) in cases {
            assert_eq!(decode_reply(ROWS_KIND, &payload), Err(want), "{what}");
        }
    }

    #[test]
    fn decoder_rejects_malformed_payloads() {
        assert_eq!(
            decode_command(0xFF, &[]),
            Err(WireError::BadTag("command kind", 0xFF))
        );
        // Truncated string length prefix.
        assert_eq!(decode_command(0x04, &[1, 0]), Err(WireError::Truncated));
        // Declared string longer than the payload.
        assert_eq!(
            decode_command(0x04, &[200, 0, 0, 0, b'x']),
            Err(WireError::Truncated)
        );
        // Non-UTF-8 table name.
        assert_eq!(
            decode_command(0x04, &[2, 0, 0, 0, 0xFF, 0xFE]),
            Err(WireError::Utf8)
        );
        // Trailing garbage after a complete message.
        let mut bytes = encode_command(&Command::Ping);
        bytes.push(0);
        assert_eq!(decode_command(0x01, &bytes), Err(WireError::Trailing));
    }

    #[test]
    fn predicate_depth_is_bounded() {
        let mut pred = Predicate::True;
        for _ in 0..=MAX_PRED_DEPTH {
            pred = Predicate::Not(Box::new(pred));
        }
        let cmd = Command::Query(Query::Count {
            table: "t".into(),
            predicate: pred,
        });
        let bytes = encode_command(&cmd);
        assert_eq!(decode_command(0x07, &bytes), Err(WireError::TooDeep));
    }
}
