//! Property tests for the wire layer: random commands and replies must
//! survive encode → frame → read → decode byte-exactly, random row-set
//! streams must survive one encoder and one decoder, and random
//! truncation/corruption must never be silently accepted — mirroring the
//! WAL's torn-frame guarantees at the network boundary. Hand-built hostile
//! `Rows` streams must each end in a typed error.

use cods_query::{AggOp, CmpOp, Predicate, Query, RowColumn, RowSet};
use cods_server::proto::{
    decode_command, decode_reply, encode_command, encode_reply, Command, MetricsReply, Reply,
    RowsDecoder, RowsEncoder, WireError, REPLY_DICT_MAX, ROWS_KIND,
};
use cods_server::{frame, FrameError};
use cods_storage::{CacheStats, CommitLogStats, EncodedColumn, OrderedF64, Value, ValueType};
use proptest::prelude::*;
use proptest::{BoxedStrategy, UnitF64};
use std::io::Cursor;
use std::sync::Arc;

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..9)
        .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|u| Value::Int(u as i64)),
        // Raw bit patterns: NaNs and negative zero included.
        any::<u64>().prop_map(|b| Value::Float(OrderedF64(f64::from_bits(b)))),
        name().prop_map(Value::str),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        (name(), cmp_op(), value()).prop_map(|(column, op, literal)| Predicate::Compare {
            column,
            op,
            literal,
        }),
    ]
    .boxed()
}

fn predicate(depth: u32) -> BoxedStrategy<Predicate> {
    if depth == 0 {
        return leaf();
    }
    prop_oneof![
        leaf(),
        (predicate(depth - 1), predicate(depth - 1)).prop_map(|(a, b)| a.and(b)),
        (predicate(depth - 1), predicate(depth - 1)).prop_map(|(a, b)| a.or(b)),
        predicate(depth - 1).prop_map(|p| p.not()),
    ]
    .boxed()
}

fn agg_op() -> impl Strategy<Value = AggOp> {
    prop_oneof![
        Just(AggOp::Count),
        Just(AggOp::CountDistinct),
        Just(AggOp::Sum),
        Just(AggOp::Min),
        Just(AggOp::Max),
    ]
}

/// Half of the cases are reads, so each of the four shapes keeps a share
/// of the cases comparable to a control command's.
fn command() -> BoxedStrategy<Command> {
    let control = prop_oneof![
        Just(Command::Ping),
        Just(Command::Refresh),
        Just(Command::Metrics),
        name().prop_map(|table| Command::Stats { table }),
        name().prop_map(|text| Command::Script { text }),
    ];
    prop_oneof![control, query().prop_map(Command::Query)].boxed()
}

fn query() -> BoxedStrategy<Query> {
    prop_oneof![
        (
            name(),
            predicate(3),
            prop_oneof![
                Just(None),
                prop::collection::vec(name(), 0..4).prop_map(Some)
            ]
        )
            .prop_map(|(table, predicate, projection)| Query::Scan {
                table,
                predicate,
                projection,
            }),
        (name(), predicate(3)).prop_map(|(table, predicate)| Query::Count { table, predicate }),
        (
            name(),
            predicate(2),
            prop::collection::vec(name(), 0..3),
            prop::collection::vec((agg_op(), name()), 0..3)
        )
            .prop_map(|(table, predicate, group_by, aggs)| Query::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            }),
        (
            name(),
            name(),
            prop::collection::vec(name(), 0..3),
            prop::collection::vec(name(), 0..3)
        )
            .prop_map(|(left, right, left_keys, right_keys)| Query::Join {
                left,
                right,
                left_keys,
                right_keys,
            }),
    ]
    .boxed()
}

fn value_type() -> impl Strategy<Value = ValueType> {
    prop_oneof![
        Just(ValueType::Bool),
        Just(ValueType::Int),
        Just(ValueType::Float),
        Just(ValueType::Str),
    ]
}

/// Rows of one arity (a batch is rectangular; one without columns is
/// empty).
fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (0usize..5).prop_flat_map(|arity| {
        let len = if arity == 0 { 0..1 } else { 0..6 };
        prop::collection::vec(prop::collection::vec(value(), arity), len)
    })
}

/// NULL, any value of `ty` (raw float bit patterns — NaNs, negative zero —
/// and the empty string among them), or one of four values of `ty`, so
/// that values recur within a column.
fn typed_value(ty: ValueType) -> BoxedStrategy<Value> {
    let (any_value, one_of_four) = match ty {
        ValueType::Bool => (
            any::<bool>().prop_map(Value::Bool).boxed(),
            Just(Value::Bool(true)).boxed(),
        ),
        ValueType::Int => (
            any::<u64>().prop_map(|u| Value::Int(u as i64)).boxed(),
            (0i64..4).prop_map(Value::Int).boxed(),
        ),
        ValueType::Float => (
            any::<u64>()
                .prop_map(|b| Value::Float(OrderedF64(f64::from_bits(b))))
                .boxed(),
            (0u32..4).prop_map(|u| Value::float(u.into())).boxed(),
        ),
        ValueType::Str => (
            prop_oneof![Just(Value::str("")), name().prop_map(Value::str)].boxed(),
            (0u8..4).prop_map(|b| Value::str(format!("s{b}"))).boxed(),
        ),
    };
    prop_oneof![Just(Value::Null), any_value, one_of_four].boxed()
}

/// One column of `n_rows` cells: ids drawn from a table column's
/// dictionary (which may hold values no row of the batch carries), or
/// plain values of any type.
fn row_column(n_rows: usize) -> BoxedStrategy<RowColumn> {
    let dictionary_backed = value_type().prop_flat_map(move |ty| {
        (
            prop::collection::vec(typed_value(ty), 1..12),
            prop::collection::vec(any::<u64>(), n_rows),
        )
            .prop_map(move |(pool, picks)| {
                let column = Arc::new(EncodedColumn::from_values(ty, &pool).unwrap());
                let distinct = column.dict().len() as u64;
                let ids = picks.iter().map(|p| (p % distinct) as u32).collect();
                RowColumn::Dict { column, ids }
            })
    });
    let plain = prop::collection::vec(value(), n_rows).prop_map(RowColumn::Plain);
    prop_oneof![dictionary_backed, plain].boxed()
}

/// Row sets as the kernels produce them: dictionary-backed and plain
/// columns mixed, down to no rows and no columns.
fn row_set() -> impl Strategy<Value = RowSet> {
    (0usize..5, 0usize..40).prop_flat_map(|(arity, len)| {
        let len = if arity == 0 { 0 } else { len };
        prop::collection::vec(row_column(len), arity)
            .prop_map(move |columns| RowSet::new(len, columns))
    })
}

/// Two table columns of one type.
fn column_pair() -> BoxedStrategy<[Arc<EncodedColumn>; 2]> {
    value_type()
        .prop_flat_map(|ty| {
            let pool = || prop::collection::vec(typed_value(ty), 1..12);
            (pool(), pool()).prop_map(move |(a, b)| {
                let column =
                    |pool: &[Value]| Arc::new(EncodedColumn::from_values(ty, pool).unwrap());
                [column(&a), column(&b)]
            })
        })
        .boxed()
}

/// One reply stream's batches, all of one arity. Each column draws from
/// two table columns of one type — so values recur across batches, and a
/// batch that switches between the two changes the backing dictionary —
/// or is plain cells of those values.
fn row_set_stream() -> impl Strategy<Value = Vec<RowSet>> {
    (1usize..4)
        .prop_flat_map(|arity| {
            let batch = (
                0usize..40,
                prop::collection::vec((0u8..3, prop::collection::vec(any::<u64>(), 40)), arity),
            );
            (
                prop::collection::vec(column_pair(), arity),
                prop::collection::vec(batch, 1..6),
            )
        })
        .prop_map(|(backing, batches)| {
            batches
                .into_iter()
                .map(|(len, columns)| {
                    let columns = columns
                        .into_iter()
                        .zip(&backing)
                        .map(|((choice, picks), pair)| {
                            let column = &pair[usize::from(choice % 2)];
                            let distinct = column.dict().len() as u64;
                            let ids: Vec<u32> =
                                picks[..len].iter().map(|p| (p % distinct) as u32).collect();
                            match choice {
                                2 => RowColumn::Plain(
                                    ids.iter()
                                        .map(|&id| column.dict().value(id).into_owned())
                                        .collect(),
                                ),
                                _ => RowColumn::Dict {
                                    column: Arc::clone(column),
                                    ids,
                                },
                            }
                        })
                        .collect();
                    RowSet::new(len, columns)
                })
                .collect()
        })
}

fn decode_rows(payload: &[u8]) -> Result<Vec<Vec<Value>>, WireError> {
    decode_reply(ROWS_KIND, payload).map(|reply| match reply {
        Reply::Rows { rows } => rows,
        other => panic!("a rows frame decoded as {other:?}"),
    })
}

fn reply() -> BoxedStrategy<Reply> {
    prop_oneof![
        any::<u64>().prop_map(|catalog_version| Reply::Hello { catalog_version }),
        Just(Reply::Pong),
        any::<u64>().prop_map(|catalog_version| Reply::Refreshed { catalog_version }),
        name().prop_map(|message| Reply::Ok { message }),
        (any::<u16>(), name()).prop_map(|(code, message)| Reply::Error { code, message }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(in_flight, queued)| Reply::Overloaded { in_flight, queued }),
        (
            prop::collection::vec((name(), value_type()), 0..5),
            any::<u64>()
        )
            .prop_map(|(columns, total_rows)| Reply::RowHeader {
                columns,
                total_rows,
            }),
        rows().prop_map(|rows| Reply::Rows { rows }),
        (any::<u64>(), any::<u64>()).prop_map(|(batches, rows)| Reply::Done { batches, rows }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(rows, selected, catalog_version)| {
            Reply::MaskSummary {
                rows,
                selected,
                catalog_version,
            }
        }),
        (prop::collection::vec(any::<u64>(), 24), any::<bool>()).prop_map(|(v, durable)| {
            Reply::Metrics(MetricsReply {
                connections_open: v[0],
                connections_total: v[1],
                in_flight: v[2],
                queued: v[3],
                admitted_total: v[4],
                rejected_total: v[5],
                bytes_streamed: v[6],
                rows_streamed: v[7],
                idle_evicted: v[14],
                cache: CacheStats {
                    budget: v[8],
                    resident_bytes: v[9],
                    hits: v[10],
                    misses: v[11],
                    evictions: v[12],
                    decoded_bytes: v[13],
                },
                log: durable.then(|| CommitLogStats {
                    commits: v[15],
                    fsyncs: v[16],
                    max_batch: v[17],
                    fsync_micros: v[18],
                    columns_referenced: v[19],
                    columns_carried: v[20],
                    bytes_appended: v[21],
                    pending_records: v[22],
                    log_bytes: v[23],
                }),
            })
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn commands_round_trip_through_frames(cmd in command()) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, cmd.kind(), &encode_command(&cmd)).unwrap();
        let (kind, payload) =
            frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(kind, cmd.kind());
        prop_assert_eq!(decode_command(kind, &payload).unwrap(), cmd);
    }

    #[test]
    fn replies_round_trip_through_frames(reply in reply()) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, reply.kind(), &encode_reply(&reply)).unwrap();
        let (kind, payload) =
            frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(kind, reply.kind());
        prop_assert_eq!(decode_reply(kind, &payload).unwrap(), reply);
    }

    #[test]
    fn row_sets_round_trip_as_their_rows(set in row_set()) {
        let payload = RowsEncoder::default().encode(&set);
        prop_assert_eq!(decode_rows(&payload).unwrap(), set.to_rows());
        // The borrowed-rows entry point writes the same body (rows that do
        // not exist cannot say how many columns they would have had).
        if !set.is_empty() {
            prop_assert_eq!(encode_reply(&Reply::Rows { rows: set.to_rows() }), payload);
        }
    }

    #[test]
    fn cut_or_flipped_row_frames_never_decode(
        set in row_set(),
        at in UnitF64,
        flip in 1u32..256,
    ) {
        let payload = RowsEncoder::default().encode(&set);
        // A body cut short is a typed decode error, whatever the cut.
        let cut = (payload.len() as f64 * at) as usize;
        prop_assert_eq!(decode_rows(&payload[..cut]), Err(WireError::Truncated));
        // A frame cut short is torn; one with a flipped byte fails its
        // checksum (or its length field) before the body is looked at.
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, ROWS_KIND, &payload).unwrap();
        let read = |bytes: &[u8]| {
            frame::read_frame(&mut Cursor::new(bytes), frame::DEFAULT_MAX_FRAME_BYTES)
        };
        let cut = 1 + ((wire.len() - 1) as f64 * at) as usize;
        if cut < wire.len() {
            prop_assert!(matches!(read(&wire[..cut]), Err(FrameError::Torn)));
        }
        let idx = ((wire.len() - 1) as f64 * at) as usize;
        wire[idx] ^= flip as u8;
        prop_assert!(matches!(
            read(&wire),
            Err(FrameError::Corrupt | FrameError::Torn | FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn row_set_streams_round_trip_through_one_encoder_and_one_decoder(
        stream in row_set_stream(),
    ) {
        let mut encoder = RowsEncoder::default();
        let mut decoder = RowsDecoder::new(stream[0].arity());
        for set in &stream {
            prop_assert_eq!(decoder.decode(&encoder.encode(set)).unwrap(), set.to_rows());
        }
    }

    #[test]
    fn cut_or_flipped_stream_frames_never_decode(
        stream in row_set_stream(),
        pick in any::<u64>(),
        at in UnitF64,
        flip in 1u32..256,
    ) {
        let mut encoder = RowsEncoder::default();
        let bodies: Vec<Vec<u8>> = stream.iter().map(|set| encoder.encode(set)).collect();
        // Any frame of the stream, with the reply dictionaries the frames
        // before it built.
        let k = (pick % bodies.len() as u64) as usize;
        let mut decoder = RowsDecoder::new(stream[0].arity());
        for body in &bodies[..k] {
            decoder.decode(body).unwrap();
        }
        let payload = &bodies[k];
        // A body cut short is a typed decode error, whatever the cut.
        let cut = (payload.len() as f64 * at) as usize;
        prop_assert_eq!(decoder.clone().decode(&payload[..cut]), Err(WireError::Truncated));
        // A frame cut short is torn; one with a flipped byte fails its
        // checksum (or its length field) before the body is looked at.
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, ROWS_KIND, payload).unwrap();
        let read = |bytes: &[u8]| {
            frame::read_frame(&mut Cursor::new(bytes), frame::DEFAULT_MAX_FRAME_BYTES)
        };
        let cut = 1 + ((wire.len() - 1) as f64 * at) as usize;
        if cut < wire.len() {
            prop_assert!(matches!(read(&wire[..cut]), Err(FrameError::Torn)));
        }
        let idx = ((wire.len() - 1) as f64 * at) as usize;
        wire[idx] ^= flip as u8;
        prop_assert!(matches!(
            read(&wire),
            Err(FrameError::Corrupt | FrameError::Torn | FrameError::TooLarge { .. })
        ));
        // The intact frame still decodes where the stream left off.
        prop_assert_eq!(decoder.decode(payload).unwrap(), stream[k].to_rows());
    }

    #[test]
    fn truncated_frames_read_as_torn(cmd in command(), keep in UnitF64) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, cmd.kind(), &encode_command(&cmd)).unwrap();
        let cut = 1 + ((wire.len() - 1) as f64 * keep) as usize;
        if cut < wire.len() {
            let err =
                frame::read_frame(&mut Cursor::new(&wire[..cut]), frame::DEFAULT_MAX_FRAME_BYTES)
                    .unwrap_err();
            prop_assert!(matches!(err, FrameError::Torn), "cut {}: {:?}", cut, err);
        }
    }

    #[test]
    fn corrupted_frames_never_decode_silently(
        cmd in command(),
        at in UnitF64,
        flip in 1u32..256,
    ) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, cmd.kind(), &encode_command(&cmd)).unwrap();
        let idx = ((wire.len() - 1) as f64 * at) as usize;
        wire[idx] ^= flip as u8;
        match frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES) {
            // The checksum (or a length-field side effect) must catch it.
            Err(FrameError::Corrupt | FrameError::Torn | FrameError::TooLarge { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {:?}", e),
            Ok(_) => prop_assert!(false, "corrupted frame passed the checksum"),
        }
    }
}

/// Around each width boundary of the per-batch dictionary — 255, 256 and
/// 257 distinct values in a column, 65,535, 65,536 and 65,537 — the ids
/// take the narrowest width that holds them and the batch decodes to its
/// rows.
#[test]
fn id_width_follows_the_distinct_count_of_the_batch() {
    for (distinct, width) in [
        (255usize, 1usize),
        (256, 1),
        (257, 2),
        (65_535, 2),
        (65_536, 2),
        (65_537, 4),
    ] {
        // A dictionary larger than the batch's share of it, every value of
        // that share carried once and the first few twice.
        let pool: Vec<Value> = (0..distinct as i64 + 10).map(Value::int).collect();
        let column = Arc::new(EncodedColumn::from_values(ValueType::Int, &pool).unwrap());
        let ids: Vec<u32> = (0..distinct as u32).rev().chain(0..5).collect();
        let len = ids.len();
        let plain = (0..len)
            .map(|r| Value::str(format!("p{}", r % 3)))
            .collect();
        let set = RowSet::new(
            len,
            vec![RowColumn::Dict { column, ids }, RowColumn::Plain(plain)],
        );
        let payload = RowsEncoder::default().encode(&set);
        // Header; count, nine bytes per int, width, ids; the plain column's
        // three strings (tag, length, two bytes) under one-byte ids.
        let expected = 6 + (4 + 9 * distinct + 1 + width * len) + (4 + 3 * 7 + 1 + len);
        assert_eq!(payload.len(), expected, "{distinct} distinct values");
        assert_eq!(decode_rows(&payload).unwrap(), set.to_rows());
    }
}

/// A hand-built `Rows` body over int values: `(head, values, width, id
/// bytes)` per column, each field written as given, consistent or not.
fn int_body(n_rows: u32, columns: &[(u32, &[i64], u8, &[u8])]) -> Vec<u8> {
    let mut out = n_rows.to_le_bytes().to_vec();
    out.extend_from_slice(&(columns.len() as u16).to_le_bytes());
    for (head, values, width, ids) in columns {
        out.extend_from_slice(&head.to_le_bytes());
        for v in *values {
            out.push(2);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(*width);
        out.extend_from_slice(ids);
    }
    out
}

/// The `head` bit that restarts a column's reply dictionary.
const RESTART: u32 = 1 << 31;

/// Each hand-built hostile stream ends in a typed error at its last body,
/// never a panic, and no count is trusted past the bytes that remain: the
/// bodies that claim billions of values are a few bytes long.
#[test]
fn hostile_row_streams_are_typed_errors() {
    // A full reply dictionary, sent by a well-formed first batch.
    let full: Vec<Value> = (0..REPLY_DICT_MAX as i64).map(Value::int).collect();
    let full_body =
        RowsEncoder::default().encode(&RowSet::from_rows(1, full.iter().map(|v| vec![v.clone()])));
    let two = int_body(2, &[(2, &[10, 20], 1, &[0, 1])]);
    let cases: Vec<(&str, usize, Vec<Vec<u8>>, WireError)> = vec![
        (
            "an id at the reply dictionary's size",
            1,
            vec![two.clone(), int_body(1, &[(0, &[], 1, &[2])])],
            WireError::Inconsistent("id beyond the reply dictionary"),
        ),
        (
            "an id past the reply dictionary's size",
            1,
            vec![two.clone(), int_body(2, &[(1, &[30], 1, &[0, 9])])],
            WireError::Inconsistent("id beyond the reply dictionary"),
        ),
        (
            "more new values than rows",
            1,
            vec![two.clone(), int_body(2, &[(3, &[1, 2, 3], 1, &[0, 1])])],
            WireError::Inconsistent("more new values than rows"),
        ),
        (
            "four billion rows claimed by a few bytes",
            1,
            vec![int_body(u32::MAX, &[(RESTART - 1, &[], 1, &[])])],
            WireError::Truncated,
        ),
        (
            "more new values than the bytes left could hold",
            1,
            vec![int_body(12, &[(12, &[], 1, &[0; 7])])],
            WireError::Truncated,
        ),
        (
            "a restart claiming two billion values in a few bytes",
            1,
            vec![two.clone(), int_body(3, &[(u32::MAX, &[], 1, &[])])],
            WireError::Inconsistent("more new values than rows"),
        ),
        (
            "a dictionary that passes its bound without a restart",
            1,
            vec![full_body.clone(), int_body(1, &[(1, &[-1], 4, &[0; 4])])],
            WireError::Inconsistent("reply dictionary past its bound without a restart"),
        ),
        (
            "a restart flag on a stream's first batch",
            1,
            vec![int_body(1, &[(RESTART | 1, &[5], 1, &[0])])],
            WireError::Inconsistent("restart of an empty reply dictionary"),
        ),
        (
            "a column count that changes mid-stream",
            2,
            vec![
                int_body(1, &[(1, &[1], 1, &[0]), (1, &[2], 1, &[0])]),
                int_body(1, &[(0, &[], 1, &[0])]),
            ],
            WireError::Inconsistent("column count differs from the stream's"),
        ),
        (
            "a first batch of another column count than the header's",
            2,
            vec![int_body(1, &[(1, &[1], 1, &[0])])],
            WireError::Inconsistent("column count differs from the stream's"),
        ),
    ];
    for (what, arity, bodies, want) in cases {
        let mut decoder = RowsDecoder::new(arity);
        let (last, before) = bodies.split_last().unwrap();
        for body in before {
            decoder
                .decode(body)
                .unwrap_or_else(|e| panic!("{what}: setup body: {e}"));
        }
        assert_eq!(decoder.decode(last), Err(want), "{what}");
    }
    // The restart the bound calls for is accepted: the dictionary then
    // holds the batch's one value.
    let mut decoder = RowsDecoder::new(1);
    decoder.decode(&full_body).unwrap();
    let restarted = int_body(2, &[(RESTART | 1, &[-1], 1, &[0, 0])]);
    assert_eq!(
        decoder.decode(&restarted),
        Ok(vec![vec![Value::int(-1)]; 2])
    );
    assert_eq!(
        decoder.decode(&int_body(1, &[(0, &[], 1, &[1])])),
        Err(WireError::Inconsistent("id beyond the reply dictionary"))
    );
}
