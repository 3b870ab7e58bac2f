//! The message layer on top of [`crate::frame`]: typed commands and
//! replies in little-endian bodies, written with `BufMut` and read with the
//! storage engine's checked reader and value codec
//! ([`cods_storage::codec`]), whose byte faults surface here as
//! [`WireError`]. Each message maps to one frame; the frame `kind` byte is
//! the message discriminant, the frame payload is the message body.
//!
//! Command kinds live in `0x01..=0x1F`, reply kinds in `0x81..=0x9F`, so a
//! desynchronized peer is caught by the kind check even when a frame's
//! checksum happens to pass.
//!
//! # The `Rows` body (protocol version 4, carried unchanged in version 5)
//!
//! A batch of result rows travels column-major, each column as the values
//! it adds to the column's *reply dictionary* followed by one small id per
//! row into that dictionary:
//!
//! ```text
//! rows   := n_rows:u32  n_cols:u16  column{n_cols}
//! column := head:u32  value{n_new}  width:u8  id{n_rows}
//! head   := restart << 31 | n_new
//! value  := the value codec    (0 NULL | 1 bool:u8 | 2 int:i64
//!                               | 3 float bits:u64 | 4 str len:u32 utf-8)
//! id     := `width` bytes LE   (width = 1, 2 or 4: the narrowest that
//!                               holds the reply dictionary's size - 1)
//! ```
//!
//! Every column of a reply stream has a reply dictionary, empty when the
//! stream opens. A batch appends its `n_new` values, those its rows carry
//! that no earlier batch of the stream sent, in first-seen order, and its
//! ids index the whole dictionary: a value that recurs across a reply's
//! batches crosses the wire, and is allocated by the client, once.
//! `NULL` is a value like any other (no validity field). A batch without
//! columns has no rows.
//!
//! The dictionary is bounded: it never grows past [`REPLY_DICT_MAX`]
//! values, so its ids stay within two bytes. The batch that would pass
//! the bound sets `restart` instead: the column's dictionary is emptied
//! before the batch's values are appended, so the batch carries every
//! value its rows use, as the first batch of a stream does. Only one
//! batch whose own distinct values outnumber the bound holds a larger
//! dictionary, until the column next grows. The encoder also restarts a
//! column whose backing dictionary changed between batches (a different
//! table column, by pointer identity), and one whose batch uses no value
//! sent before — keeping those would only widen the batch's ids, so a
//! column of unique values costs what a dictionary per batch did.
//! `restart` is never set on an empty dictionary.
//!
//! A body decoded on its own ([`decode_reply`]) decodes against empty
//! dictionaries, so a lone batch is laid out as in protocol versions 2 and
//! 3 (a per-batch dictionary of `n_local` values). A stream's batches
//! decode with one [`RowsDecoder`], sized from the stream's `RowHeader`.
//! The server encodes a stream with one [`RowsEncoder`], straight from its
//! [`RowSet`]s' dictionary ids. The decoder checks every count against the
//! bytes that remain before it allocates for it, and reads a column's ids
//! as one slice.

use crate::frame::FrameError;
use cods_query::{AggOp, CmpOp, Predicate, Query, RowColumn, RowSet};
use cods_storage::codec::{
    put_str, put_value, read_str, read_type, read_value, BufMut, CodecError, Reader,
};
use cods_storage::{CacheStats, CommitLogStats, EncodedColumn, Value, ValueType};
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
    /// Table statistics at the session's pinned snapshot, answered with
    /// the text the local shell's `stats` prints
    /// ([`cods_storage::render_stats`]) in a [`Reply::Ok`].
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
    /// The commit log's counters; `None` when the server runs memory-only.
    pub log: Option<CommitLogStats>,
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
    /// Generic success with a human-readable text (scripts, statistics).
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
            // 0x8C is reserved: the retired `Stats` reply's kind, never
            // reused.
        }
    }
}

// ---------------------------------------------------------------- codec --
//
// Every body is written with `BufMut` on a `Vec<u8>` and read with the one
// checked reader, `cods_storage::codec::Reader`; values, strings and types
// go through the one value codec beside it.

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::UnexpectedEof => WireError::Truncated,
            CodecError::Trailing => WireError::Trailing,
            CodecError::Utf8 => WireError::Utf8,
            CodecError::BadTag(what, b) => WireError::BadTag(what, b),
            CodecError::Corrupt(_) => WireError::Inconsistent("corrupt field"),
        }
    }
}

fn put_pred(e: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::Compare {
            column,
            op,
            literal,
        } => {
            e.put_u8(0);
            put_str(e, column);
            e.put_u8(match op {
                CmpOp::Eq => 0,
                CmpOp::Ne => 1,
                CmpOp::Lt => 2,
                CmpOp::Le => 3,
                CmpOp::Gt => 4,
                CmpOp::Ge => 5,
            });
            put_value(e, literal);
        }
        Predicate::And(a, b) => {
            e.put_u8(1);
            put_pred(e, a);
            put_pred(e, b);
        }
        Predicate::Or(a, b) => {
            e.put_u8(2);
            put_pred(e, a);
            put_pred(e, b);
        }
        Predicate::Not(a) => {
            e.put_u8(3);
            put_pred(e, a);
        }
        Predicate::True => e.put_u8(4),
    }
}

/// Values a column's reply dictionary may hold, so that its ids fit two
/// bytes: the batch that would grow it past this restarts the column (see
/// the module docs).
pub const REPLY_DICT_MAX: usize = 1 << 16;

/// The bit of a column's `head` that restarts its reply dictionary.
const RESTART: u32 = 1 << 31;

/// One column of a `Rows` body as the encoder reads it.
enum ColumnSrc<'a> {
    /// `ids[r]` indexes `column`'s dictionary.
    Dict {
        column: &'a Arc<EncodedColumn>,
        ids: &'a [u32],
    },
    /// The value of row `r`.
    Cells(Box<dyn Fn(usize) -> &'a Value + 'a>),
}

/// One column's reply dictionary on the encoding side: what the values
/// sent so far were, so that a batch writes only the new ones.
enum ReplyDict {
    /// Ids into `column`'s dictionary. `reply_of[id]` is 0 for an id not
    /// sent yet and its reply id + 1 otherwise (a zeroed table costs no
    /// fill); `sent` lists the sent ids in reply-id order, so the table is
    /// reset by walking them.
    Ids {
        column: Arc<EncodedColumn>,
        reply_of: Vec<u32>,
        sent: Vec<u32>,
    },
    /// Plain cells: each sent value with its reply id.
    Values(HashMap<Value, u32>),
}

impl Default for ReplyDict {
    fn default() -> Self {
        ReplyDict::Values(HashMap::new())
    }
}

impl ReplyDict {
    fn len(&self) -> usize {
        match self {
            ReplyDict::Ids { sent, .. } => sent.len(),
            ReplyDict::Values(sent) => sent.len(),
        }
    }

    /// Forgets the first `n` values sent; the others' reply ids move down
    /// by `n`.
    fn forget_first(&mut self, n: usize) {
        match self {
            ReplyDict::Ids { reply_of, sent, .. } => {
                for id in sent.drain(..n) {
                    reply_of[id as usize] = 0;
                }
                for &id in sent.iter() {
                    reply_of[id as usize] -= n as u32;
                }
            }
            ReplyDict::Values(sent) => {
                sent.retain(|_, id| *id as usize >= n);
                sent.values_mut().for_each(|id| *id -= n as u32);
            }
        }
    }

    /// Makes the dictionary one of `src`'s kind and backing dictionary.
    /// Returns `true` when that dropped values already sent — the batch
    /// then restarts the column.
    fn bind(&mut self, src: &ColumnSrc<'_>) -> bool {
        let same = match (&*self, src) {
            (ReplyDict::Ids { column: bound, .. }, ColumnSrc::Dict { column, .. }) => {
                Arc::ptr_eq(bound, column)
            }
            (ReplyDict::Values(_), ColumnSrc::Cells(_)) => true,
            _ => false,
        };
        if same {
            return false;
        }
        let dropped = self.len() > 0;
        *self = match src {
            ColumnSrc::Dict { column, .. } => ReplyDict::Ids {
                column: Arc::clone(column),
                reply_of: vec![0; column.dict().len()],
                sent: Vec::new(),
            },
            ColumnSrc::Cells(_) => ReplyDict::Values(HashMap::new()),
        };
        dropped
    }

    /// Pushes the reply id of each of the `n_rows` cells of `src` to
    /// `local`, adding to the dictionary, and writing to `e`, the values
    /// it does not hold yet. `src` is the kind [`Self::bind`] made it.
    fn walk(&mut self, src: &ColumnSrc<'_>, n_rows: usize, local: &mut Vec<u32>, e: &mut Vec<u8>) {
        match (self, src) {
            (
                ReplyDict::Ids {
                    column,
                    reply_of,
                    sent,
                },
                ColumnSrc::Dict { ids, .. },
            ) => {
                let dict = column.dict();
                for &id in *ids {
                    let slot = &mut reply_of[id as usize];
                    if *slot == 0 {
                        sent.push(id);
                        *slot = sent.len() as u32;
                        put_value(e, &dict.value(id));
                    }
                    local.push(*slot - 1);
                }
            }
            (ReplyDict::Values(sent), ColumnSrc::Cells(cell)) => {
                for r in 0..n_rows {
                    let v = cell(r);
                    let id = match sent.get(v) {
                        Some(&id) => id,
                        None => {
                            let id = sent.len() as u32;
                            put_value(e, v);
                            sent.insert(v.clone(), id);
                            id
                        }
                    };
                    local.push(id);
                }
            }
            _ => unreachable!("the column was bound to its source"),
        }
    }
}

/// The encoder of one reply stream's `Rows` bodies: it keeps each column's
/// reply dictionary across the stream's batches, so a batch carries only
/// the values the stream has not sent yet. A fresh encoder writes a body
/// that decodes on its own.
#[derive(Default)]
pub struct RowsEncoder {
    /// Per column: its reply dictionary so far.
    dicts: Vec<ReplyDict>,
    /// Reply id per row of the column being encoded.
    local: Vec<u32>,
}

impl RowsEncoder {
    /// The `Rows` body of `set`, the stream's next batch. A set without
    /// columns must be empty (the decoder refuses rows that carry nothing;
    /// [`Query::resolve`] never produces them).
    pub fn encode(&mut self, set: &RowSet) -> Vec<u8> {
        let mut e = Vec::new();
        self.rows(&mut e, set.len(), set.arity(), |c| {
            match &set.columns()[c] {
                RowColumn::Dict { column, ids } => ColumnSrc::Dict { column, ids },
                RowColumn::Plain(values) => ColumnSrc::Cells(Box::new(move |r| &values[r])),
            }
        });
        e
    }

    fn rows<'a>(
        &mut self,
        e: &mut Vec<u8>,
        n_rows: usize,
        n_cols: usize,
        column: impl Fn(usize) -> ColumnSrc<'a>,
    ) {
        debug_assert!(n_cols > 0 || n_rows == 0, "rows without columns");
        if self.dicts.len() != n_cols {
            self.dicts = (0..n_cols).map(|_| ReplyDict::default()).collect();
        }
        e.put_u32_le(n_rows as u32);
        e.put_u16_le(n_cols as u16);
        for (c, dict) in self.dicts.iter_mut().enumerate() {
            let src = column(c);
            // The head is patched in once the column has been walked.
            let head_at = e.len();
            e.put_u32_le(0);
            let mut restart = dict.bind(&src);
            let before = dict.len();
            self.local.clear();
            dict.walk(&src, n_rows, &mut self.local, e);
            if before > 0 && dict.len() > before {
                if self.local.iter().all(|&id| id as usize >= before) {
                    // The batch used no value sent before, so keeping them
                    // only widens its ids: the column restarts with the
                    // batch's own values, already written in order.
                    dict.forget_first(before);
                    self.local.iter_mut().for_each(|id| *id -= before as u32);
                    restart = true;
                } else if dict.len() > REPLY_DICT_MAX {
                    // Past the bound: start the column over from this batch.
                    dict.forget_first(dict.len());
                    e.truncate(head_at + 4);
                    self.local.clear();
                    dict.walk(&src, n_rows, &mut self.local, e);
                    restart = true;
                }
            }
            let n_new = dict.len() - if restart { 0 } else { before };
            debug_assert_eq!(self.local.len(), n_rows, "one cell per row");
            let head = n_new as u32 | if restart { RESTART } else { 0 };
            e[head_at..head_at + 4].copy_from_slice(&head.to_le_bytes());
            match dict.len() {
                0..=0x100 => {
                    e.put_u8(1);
                    e.extend(self.local.iter().map(|&id| id as u8));
                }
                0x101..=REPLY_DICT_MAX => {
                    e.put_u8(2);
                    for &id in &self.local {
                        e.put_u16_le(id as u16);
                    }
                }
                _ => {
                    e.put_u8(4);
                    for &id in &self.local {
                        e.put_u32_le(id);
                    }
                }
            }
        }
    }
}

/// The decoder of one reply stream's `Rows` bodies: each column's reply
/// dictionary, accumulated across the stream's batches (at most
/// [`REPLY_DICT_MAX`] values per column, or one batch's own). Sized from
/// the stream's `RowHeader`: a batch of any other column count is refused.
#[derive(Clone, Debug)]
pub struct RowsDecoder {
    dicts: Vec<Vec<Value>>,
}

impl RowsDecoder {
    /// A decoder for a stream of `n_cols` columns, every dictionary empty.
    pub fn new(n_cols: usize) -> RowsDecoder {
        RowsDecoder {
            dicts: vec![Vec::new(); n_cols],
        }
    }

    /// Decodes the stream's next `Rows` body into rows of values.
    pub fn decode(&mut self, payload: &[u8]) -> Result<Vec<Vec<Value>>, WireError> {
        let mut r = Reader::new(payload);
        let rows = read_rows(&mut r, Some(self))?;
        r.finish()?;
        Ok(rows)
    }
}

type DecResult<T> = Result<T, WireError>;

fn read_string(r: &mut Reader<'_>) -> DecResult<String> {
    Ok(read_str(r)?.to_owned())
}

/// A `u32`-counted list of strings.
fn read_strings(r: &mut Reader<'_>) -> DecResult<Vec<String>> {
    let n = r.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_string(r)?);
    }
    Ok(out)
}

fn read_pred(r: &mut Reader<'_>, depth: u32) -> DecResult<Predicate> {
    if depth > MAX_PRED_DEPTH {
        return Err(WireError::TooDeep);
    }
    Ok(match r.u8()? {
        0 => Predicate::Compare {
            column: read_string(r)?,
            op: match r.u8()? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                5 => CmpOp::Ge,
                b => return Err(WireError::BadTag("cmp op", b)),
            },
            literal: read_value(r)?,
        },
        1 => Predicate::And(
            Box::new(read_pred(r, depth + 1)?),
            Box::new(read_pred(r, depth + 1)?),
        ),
        2 => Predicate::Or(
            Box::new(read_pred(r, depth + 1)?),
            Box::new(read_pred(r, depth + 1)?),
        ),
        3 => Predicate::Not(Box::new(read_pred(r, depth + 1)?)),
        4 => Predicate::True,
        b => return Err(WireError::BadTag("predicate", b)),
    })
}

/// A `Rows` body as rows of values, decoded against `stream`'s reply
/// dictionaries (`None`: a body on its own, against empty ones). A value is
/// decoded once per stream, and a cell is a clone of it (a reference count
/// for a string, not an allocation). Every count is held against the bytes
/// that remain before anything is allocated for it, and a column's ids are
/// one bulk slice.
fn read_rows(r: &mut Reader<'_>, stream: Option<&mut RowsDecoder>) -> DecResult<Vec<Vec<Value>>> {
    let n_rows = r.u32()? as usize;
    let n_cols = r.u16()? as usize;
    if stream.as_ref().is_some_and(|s| s.dicts.len() != n_cols) {
        return Err(WireError::Inconsistent(
            "column count differs from the stream's",
        ));
    }
    if n_cols == 0 {
        // Rows of nothing would cost no bytes to claim.
        return match n_rows {
            0 => Ok(Vec::new()),
            _ => Err(WireError::Inconsistent("rows without columns")),
        };
    }
    // A column spends five bytes on its head and id width, and at least
    // one per row on ids.
    r.fits(n_rows, 1)?;
    r.fits(n_cols, 5)?;
    let mut own;
    let dicts = match stream {
        Some(stream) => &mut stream.dicts,
        None => {
            own = vec![Vec::new(); n_cols];
            &mut own
        }
    };
    let mut columns = Vec::with_capacity(n_cols);
    for dict in dicts.iter_mut() {
        let head = r.u32()?;
        let (restart, n_new) = (head & RESTART != 0, (head & !RESTART) as usize);
        if n_new > n_rows {
            return Err(WireError::Inconsistent("more new values than rows"));
        }
        if restart {
            if dict.is_empty() {
                return Err(WireError::Inconsistent(
                    "restart of an empty reply dictionary",
                ));
            }
            dict.clear();
        } else if n_new > 0 && !dict.is_empty() && dict.len() + n_new > REPLY_DICT_MAX {
            // Only an empty dictionary (or a restarted one) takes a batch
            // whose own values outnumber the bound.
            return Err(WireError::Inconsistent(
                "reply dictionary past its bound without a restart",
            ));
        }
        // A value spends at least its tag byte.
        dict.reserve(r.fits(n_new, 1)?);
        for _ in 0..n_new {
            dict.push(read_value(r)?);
        }
        let width = r.u8()?;
        if !matches!(width, 1 | 2 | 4) {
            return Err(WireError::BadTag("id width", width));
        }
        let bytes = r.take(n_rows * width as usize)?;
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
        if ids.iter().any(|&id| id as usize >= dict.len()) {
            return Err(WireError::Inconsistent("id beyond the reply dictionary"));
        }
        columns.push(ids);
    }
    Ok((0..n_rows)
        .map(|row| {
            columns
                .iter()
                .zip(dicts.iter())
                .map(|(ids, dict)| dict[ids[row] as usize].clone())
                .collect()
        })
        .collect())
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

/// Writes a `u32`-counted list of strings.
fn put_strs(e: &mut Vec<u8>, strs: &[String]) {
    e.put_u32_le(strs.len() as u32);
    for s in strs {
        put_str(e, s);
    }
}

/// Encodes a command body (the frame kind comes from [`Command::kind`]).
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut e = Vec::new();
    match cmd {
        Command::Ping | Command::Refresh | Command::Metrics => {}
        Command::Stats { table } => put_str(&mut e, table),
        Command::Script { text } => put_str(&mut e, text),
        Command::Query(Query::Scan {
            table,
            predicate,
            projection,
        }) => {
            put_str(&mut e, table);
            put_pred(&mut e, predicate);
            match projection {
                None => e.put_u8(0),
                Some(cols) => {
                    e.put_u8(1);
                    put_strs(&mut e, cols);
                }
            }
        }
        Command::Query(Query::Count { table, predicate }) => {
            put_str(&mut e, table);
            put_pred(&mut e, predicate);
        }
        Command::Query(Query::GroupBy {
            table,
            predicate,
            group_by,
            aggs,
        }) => {
            put_str(&mut e, table);
            put_pred(&mut e, predicate);
            put_strs(&mut e, group_by);
            e.put_u32_le(aggs.len() as u32);
            for (op, col) in aggs {
                e.put_u8(agg_op_tag(*op));
                put_str(&mut e, col);
            }
        }
        Command::Query(Query::Join {
            left,
            right,
            left_keys,
            right_keys,
        }) => {
            put_str(&mut e, left);
            put_str(&mut e, right);
            put_strs(&mut e, left_keys);
            put_strs(&mut e, right_keys);
        }
    }
    e
}

/// Decodes a command from its frame `(kind, payload)`.
pub fn decode_command(kind: u8, payload: &[u8]) -> DecResult<Command> {
    let mut r = Reader::new(payload);
    let r = &mut r;
    let cmd = match kind {
        0x01 => Command::Ping,
        0x02 => Command::Refresh,
        0x03 => Command::Metrics,
        0x04 => Command::Stats {
            table: read_string(r)?,
        },
        0x05 => Command::Script {
            text: read_string(r)?,
        },
        0x06 => Command::Query(Query::Scan {
            table: read_string(r)?,
            predicate: read_pred(r, 0)?,
            projection: match r.u8()? {
                0 => None,
                1 => Some(read_strings(r)?),
                b => return Err(WireError::BadTag("projection", b)),
            },
        }),
        0x07 => Command::Query(Query::Count {
            table: read_string(r)?,
            predicate: read_pred(r, 0)?,
        }),
        0x09 => Command::Query(Query::GroupBy {
            table: read_string(r)?,
            predicate: read_pred(r, 0)?,
            group_by: read_strings(r)?,
            aggs: {
                // An op tag and a string length each.
                let n = r.count(5)?;
                let mut aggs = Vec::with_capacity(n);
                for _ in 0..n {
                    let op = agg_op_from(r.u8()?)?;
                    aggs.push((op, read_string(r)?));
                }
                aggs
            },
        }),
        0x0A => Command::Query(Query::Join {
            left: read_string(r)?,
            right: read_string(r)?,
            left_keys: read_strings(r)?,
            right_keys: read_strings(r)?,
        }),
        b => return Err(WireError::BadTag("command kind", b)),
    };
    r.finish()?;
    Ok(cmd)
}

/// Encodes a reply body (the frame kind comes from [`Reply::kind`]).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut e = Vec::new();
    match reply {
        Reply::Pong => {}
        Reply::Hello { catalog_version } | Reply::Refreshed { catalog_version } => {
            e.put_u64_le(*catalog_version)
        }
        Reply::Ok { message } => put_str(&mut e, message),
        Reply::Error { code, message } => {
            e.put_u16_le(*code);
            put_str(&mut e, message);
        }
        Reply::Overloaded { in_flight, queued } => {
            e.put_u64_le(*in_flight);
            e.put_u64_le(*queued);
        }
        Reply::RowHeader {
            columns,
            total_rows,
        } => {
            e.put_u32_le(columns.len() as u32);
            for (name, ty) in columns {
                put_str(&mut e, name);
                e.put_u8(ty.tag());
            }
            e.put_u64_le(*total_rows);
        }
        Reply::Rows { rows } => {
            // The same encoder as the server's, over the borrowed rows.
            let arity = rows.first().map_or(0, Vec::len);
            assert!(
                rows.iter().all(|row| row.len() == arity),
                "the rows of a batch share one arity"
            );
            RowsEncoder::default().rows(&mut e, rows.len(), arity, |c| {
                ColumnSrc::Cells(Box::new(move |r| &rows[r][c]))
            });
        }
        Reply::Done { batches, rows } => {
            e.put_u64_le(*batches);
            e.put_u64_le(*rows);
        }
        Reply::MaskSummary {
            rows,
            selected,
            catalog_version,
        } => {
            e.put_u64_le(*rows);
            e.put_u64_le(*selected);
            e.put_u64_le(*catalog_version);
        }
        Reply::Metrics(m) => {
            e.put_u64_le(m.connections_open);
            e.put_u64_le(m.connections_total);
            e.put_u64_le(m.in_flight);
            e.put_u64_le(m.queued);
            e.put_u64_le(m.admitted_total);
            e.put_u64_le(m.rejected_total);
            e.put_u64_le(m.bytes_streamed);
            e.put_u64_le(m.rows_streamed);
            e.put_u64_le(m.idle_evicted);
            e.put_u64_le(m.cache.budget);
            e.put_u64_le(m.cache.resident_bytes);
            e.put_u64_le(m.cache.hits);
            e.put_u64_le(m.cache.misses);
            e.put_u64_le(m.cache.evictions);
            e.put_u64_le(m.cache.decoded_bytes);
            e.put_u8(u8::from(m.log.is_some()));
            if let Some(l) = &m.log {
                for n in [
                    l.commits,
                    l.fsyncs,
                    l.max_batch,
                    l.fsync_micros,
                    l.columns_referenced,
                    l.columns_carried,
                    l.bytes_appended,
                    l.pending_records,
                    l.log_bytes,
                ] {
                    e.put_u64_le(n);
                }
            }
        }
    }
    e
}

/// Decodes a reply from its frame `(kind, payload)`.
pub fn decode_reply(kind: u8, payload: &[u8]) -> DecResult<Reply> {
    let mut r = Reader::new(payload);
    let d = &mut r;
    let reply = match kind {
        0x81 => Reply::Hello {
            catalog_version: d.u64()?,
        },
        0x82 => Reply::Pong,
        0x83 => Reply::Refreshed {
            catalog_version: d.u64()?,
        },
        0x84 => Reply::Ok {
            message: read_string(d)?,
        },
        0x85 => Reply::Error {
            code: d.u16()?,
            message: read_string(d)?,
        },
        0x86 => Reply::Overloaded {
            in_flight: d.u64()?,
            queued: d.u64()?,
        },
        0x87 => {
            // A string length and a type tag each.
            let n = d.count(5)?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let name = read_string(d)?;
                columns.push((name, read_type(d)?));
            }
            Reply::RowHeader {
                columns,
                total_rows: d.u64()?,
            }
        }
        0x88 => Reply::Rows {
            rows: read_rows(d, None)?,
        },
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
            log: match d.u8()? {
                0 => None,
                1 => Some(CommitLogStats {
                    commits: d.u64()?,
                    fsyncs: d.u64()?,
                    max_batch: d.u64()?,
                    fsync_micros: d.u64()?,
                    columns_referenced: d.u64()?,
                    columns_carried: d.u64()?,
                    bytes_appended: d.u64()?,
                    pending_records: d.u64()?,
                    log_bytes: d.u64()?,
                }),
                b => return Err(WireError::BadTag("commit log flag", b)),
            },
        }),
        b => return Err(WireError::BadTag("reply kind", b)),
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::OrderedF64;

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

    /// A metrics reply with distinct counters and the given log block.
    fn metrics_reply(log: Option<CommitLogStats>) -> MetricsReply {
        MetricsReply {
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
            log,
        }
    }

    #[test]
    fn retired_kind_0x8c_a_bad_log_flag_and_a_cut_log_block_are_refused() {
        let some = encode_reply(&Reply::Metrics(metrics_reply(Some(
            CommitLogStats::default(),
        ))));
        // Nine counters of eight bytes follow the flag byte.
        let flag = some.len() - 9 * 8 - 1;
        let mut two = some.clone();
        two[flag] = 2;
        assert_eq!(
            decode_reply(0x8B, &two),
            Err(WireError::BadTag("commit log flag", 2))
        );
        assert_eq!(
            decode_reply(0x8B, &some[..some.len() - 3]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_reply(0x8C, &[0; 48]),
            Err(WireError::BadTag("reply kind", 0x8C))
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
        let metrics = metrics_reply(Some(CommitLogStats {
            commits: 15,
            fsyncs: 16,
            max_batch: 17,
            fsync_micros: 18,
            columns_referenced: 19,
            columns_carried: 20,
            bytes_appended: 21,
            pending_records: 22,
            log_bytes: 23,
        }));
        rt_reply(Reply::Metrics(metrics));
        rt_reply(Reply::Metrics(metrics_reply(None)));
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

    /// A hand-built `Rows` body: `(head, values, width, id bytes)` per
    /// column, each field written as given, consistent or not.
    fn rows_body(n_rows: u32, columns: &[(u32, &[Value], u8, &[u8])]) -> Vec<u8> {
        let mut e = Vec::new();
        e.put_u32_le(n_rows);
        e.put_u16_le(columns.len() as u16);
        for (head, values, width, ids) in columns {
            e.put_u32_le(*head);
            values.iter().for_each(|v| put_value(&mut e, v));
            e.put_u8(*width);
            e.put_slice(ids);
        }
        e
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

    /// A column of `values` (distinct), as a table column holds it.
    fn dict_column(values: &[Value]) -> Arc<EncodedColumn> {
        Arc::new(EncodedColumn::from_values(ValueType::Str, values).unwrap())
    }

    /// A one-column batch of the values at `ids` of `column`.
    fn dict_set(column: &Arc<EncodedColumn>, ids: &[u32]) -> RowSet {
        let ids = ids.to_vec();
        let column = Arc::clone(column);
        RowSet::new(ids.len(), vec![RowColumn::Dict { column, ids }])
    }

    #[test]
    fn a_stream_sends_each_value_once() {
        let abc = [Value::str("a"), Value::str("b"), Value::str("c")];
        let column = dict_column(&abc);
        let ids = |set: &RowSet| match &set.columns()[0] {
            RowColumn::Dict { column, ids } => ids
                .iter()
                .map(|&id| column.dict().value(id).into_owned())
                .collect::<Vec<_>>(),
            RowColumn::Plain(values) => values.clone(),
        };
        let (first, second) = (dict_set(&column, &[1, 0, 1]), dict_set(&column, &[0, 2, 1]));
        let mut encoder = RowsEncoder::default();
        let bodies = [encoder.encode(&first), encoder.encode(&second)];
        // The first batch is laid out as a body on its own; the second
        // carries only "c", and its ids index the reply dictionary b, a, c.
        assert_eq!(bodies[0], RowsEncoder::default().encode(&first));
        assert_eq!(bodies[1], rows_body(3, &[(1, &abc[2..], 1, &[1, 2, 0])]));
        let mut decoder = RowsDecoder::new(1);
        for (body, set) in bodies.iter().zip([&first, &second]) {
            let rows = decoder.decode(body).unwrap();
            assert_eq!(rows.concat(), ids(set));
        }
        // On its own, the second body names values it never sent.
        assert_eq!(
            decode_reply(ROWS_KIND, &bodies[1]),
            Err(WireError::Inconsistent("id beyond the reply dictionary"))
        );
        // Plain cells share values across batches alike.
        let plain =
            |cells: &[&str]| RowSet::from_rows(1, cells.iter().map(|&c| vec![Value::str(c)]));
        let mut encoder = RowsEncoder::default();
        encoder.encode(&plain(&["x", "y"]));
        let body = encoder.encode(&plain(&["y", "z", "x"]));
        assert_eq!(
            body,
            rows_body(3, &[(1, &[Value::str("z")], 1, &[1, 2, 0])])
        );
    }

    #[test]
    fn a_column_restarts_when_its_backing_dictionary_changes_or_goes_unused() {
        let abc = [Value::str("a"), Value::str("b"), Value::str("c")];
        let (one, other) = (dict_column(&abc), dict_column(&abc));
        let mut encoder = RowsEncoder::default();
        encoder.encode(&dict_set(&one, &[0, 1]));
        // The same values behind another table column: sent again, under
        // the restart flag.
        let body = encoder.encode(&dict_set(&other, &[0]));
        assert_eq!(body, rows_body(1, &[(RESTART | 1, &abc[..1], 1, &[0])]));
        // A batch that uses nothing sent before drops it: its ids start at
        // zero rather than past the values it does not use.
        let body = encoder.encode(&dict_set(&other, &[2, 1]));
        assert_eq!(
            body,
            rows_body(
                2,
                &[(RESTART | 2, &[abc[2].clone(), abc[1].clone()], 1, &[0, 1])]
            )
        );
        let mut decoder = RowsDecoder::new(1);
        let mut encoder = RowsEncoder::default();
        for (column, ids) in [
            (&one, &[0, 1][..]),
            (&other, &[0]),
            (&other, &[2, 1]),
            (&other, &[1, 0]),
        ] {
            let set = dict_set(column, ids);
            let want: Vec<Vec<Value>> = ids
                .iter()
                .map(|&id| vec![abc[id as usize].clone()])
                .collect();
            assert_eq!(decoder.decode(&encoder.encode(&set)).unwrap(), want);
        }
    }

    #[test]
    fn a_reply_dictionary_restarts_rather_than_pass_its_bound() {
        let values: Vec<Value> = (0..REPLY_DICT_MAX as i64 + 100).map(Value::int).collect();
        let column = Arc::new(EncodedColumn::from_values(ValueType::Int, &values).unwrap());
        let max = REPLY_DICT_MAX as u32;
        // The first batch fills the dictionary but for 10 values; the second
        // reuses one value and brings 20 new ones.
        let first: Vec<u32> = (0..max - 10).collect();
        let second: Vec<u32> = std::iter::once(0).chain(max..max + 20).collect();
        let mut encoder = RowsEncoder::default();
        let mut decoder = RowsDecoder::new(1);
        for ids in [&first, &second] {
            let body = encoder.encode(&dict_set(&column, ids));
            let head = u32::from_le_bytes(body[6..10].try_into().unwrap());
            let rows = decoder.decode(&body).unwrap();
            assert_eq!(rows.len(), ids.len());
            assert!(rows
                .iter()
                .zip(ids.iter())
                .all(|(row, &id)| row[0] == values[id as usize]));
            if ids == &second {
                // Past the bound: the whole batch once more, under one-byte
                // ids into its own 21 values.
                assert_eq!(head, RESTART | 21);
                assert_eq!(body[body.len() - ids.len() - 1], 1);
            } else {
                // Two-byte ids while the dictionary fills.
                let width = body[body.len() - 2 * ids.len() - 1];
                assert_eq!((head, width), (max - 10, 2));
            }
        }
        assert_eq!(decoder.dicts[0].len(), 21);
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
                WireError::Inconsistent("more new values than rows"),
            ),
            (
                "a local id past the dictionary",
                rows_body(2, &[(1, null, 1, &[0, 1])]),
                WireError::Inconsistent("id beyond the reply dictionary"),
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
