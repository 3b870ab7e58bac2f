//! Serving-layer integration: a real TCP server, concurrent clients,
//! snapshot-consistent streaming while evolution plans commit, and typed
//! admission rejection under load — the acceptance scenarios of the
//! network serving layer.

use cods::Cods;
use cods_query::{Predicate, Query};
use cods_server::{Client, ClientError, Command, Server, ServerConfig};
use cods_storage::{Schema, Table, Value, ValueType};
use std::sync::Arc;
use std::time::Duration;

/// A table big enough to stream in several segment-sized batches.
fn platform(rows: usize, seg: u64) -> Arc<Cods> {
    let cods = Cods::new();
    let schema = Schema::build(
        &[
            ("k", ValueType::Int),
            ("grp", ValueType::Int),
            ("v", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::int(i as i64),
                Value::int((i % 7) as i64),
                Value::str(format!("payload-{}", i % 13)),
            ]
        })
        .collect();
    cods.catalog()
        .create(Table::from_rows_with_segment_rows("t", schema, &data, seg).unwrap())
        .unwrap();
    Arc::new(cods)
}

/// Adds a dimension table keyed by `grp`, including a key no fact row has.
fn add_dim(cods: &Cods) {
    let schema = Schema::build(&[("grp", ValueType::Int), ("label", ValueType::Str)], &[]).unwrap();
    let rows: Vec<Vec<Value>> = (0..8)
        .map(|g| vec![Value::int(g), Value::str(format!("group-{g}"))])
        .collect();
    cods.catalog()
        .create(Table::from_rows_with_segment_rows("dim", schema, &rows, 4).unwrap())
        .unwrap();
}

fn expected_rows(cods: &Cods, pred: &Predicate) -> Vec<Vec<Value>> {
    let t = cods.table("t").unwrap();
    cods_query::filter_table(&t, pred).unwrap().to_rows()
}

#[test]
fn scan_pinned_before_evolution_commit_is_byte_identical() {
    let cods = platform(20_000, 1_024);
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default())
        .expect("bind ephemeral");
    let addr = handle.local_addr();
    let want = expected_rows(&cods, &Predicate::True);

    let mut scanner = Client::connect(addr).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let mut got: Vec<Vec<Value>> = Vec::new();
    let mut evolved = false;
    let summary = scanner
        .scan_with("t", Predicate::True, None, |_, rows| {
            assert!(rows.len() <= 1_024, "a batch never exceeds one segment");
            got.extend(rows);
            if !evolved {
                evolved = true;
                // Mid-stream, a concurrent session commits an evolution
                // plan that decomposes the scanned table away.
                admin
                    .script("DECOMPOSE TABLE t INTO a (k, grp), b (k, v)")
                    .expect("evolution must commit during the scan");
            }
        })
        .expect("pinned scan survives the concurrent commit");

    // Byte-identical to the pinned snapshot, in several batches.
    assert!(evolved);
    assert_eq!(summary.rows, want.len() as u64);
    assert!(summary.batches > 1, "expected a multi-batch stream");
    assert_eq!(got, want);

    // The scanning session still reads the old version; a refresh (or a
    // fresh session) sees the post-evolution catalog.
    let (rows, selected, _) = scanner.mask("t", Predicate::True).unwrap();
    assert_eq!((rows, selected), (20_000, 20_000));
    scanner.refresh().unwrap();
    match scanner.mask("t", Predicate::True) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, cods_server::error_code::NOT_FOUND);
        }
        other => panic!("expected NOT_FOUND after refresh, got {other:?}"),
    }
    assert_eq!(scanner.mask("a", Predicate::True).unwrap().0, 20_000);
    handle.shutdown();
}

#[test]
fn concurrent_scans_stay_consistent_while_plans_commit() {
    let cods = platform(12_000, 1_024);
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default())
        .expect("bind ephemeral");
    let addr = handle.local_addr();
    let pred = Predicate::lt("grp", 4i64);
    let want = Arc::new(expected_rows(&cods, &pred));

    // N clients scan the same predicate repeatedly while evolution churns
    // the catalog: every completed scan must be byte-identical to the
    // seed content (the churn never changes t's tuples), and sessions
    // pinned after the drop see a clean typed error — never torn frames.
    let n_clients = 4;
    let scanners: Vec<_> = (0..n_clients)
        .map(|_| {
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut completed = 0u32;
                for _ in 0..5 {
                    match client.scan_collect("t", Predicate::lt("grp", 4i64), None) {
                        Ok((summary, rows)) => {
                            assert_eq!(rows, *want, "scan diverged from its snapshot");
                            assert_eq!(summary.rows, want.len() as u64);
                            completed += 1;
                        }
                        Err(ClientError::Server { code, .. }) => {
                            // Session pinned after the table moved away.
                            assert_eq!(code, cods_server::error_code::NOT_FOUND);
                            client.refresh().unwrap();
                        }
                        Err(e) => panic!("unexpected failure: {e}"),
                    }
                }
                completed
            })
        })
        .collect();

    // Churn: rename away and back, repeatedly — tuple content invariant.
    let mut admin = Client::connect(addr).unwrap();
    for _ in 0..6 {
        admin.script("RENAME TABLE t TO t_tmp").unwrap();
        admin.script("RENAME TABLE t_tmp TO t").unwrap();
    }

    let completed: u32 = scanners.into_iter().map(|s| s.join().unwrap()).sum();
    assert!(completed > 0, "at least some scans must complete");
    handle.shutdown();
}

#[test]
fn admission_cap_rejects_typed_and_nothing_hangs() {
    let cods = platform(2_000, 512);
    let k = 2u64; // execution slots
    let m = 3u64; // clients beyond capacity
    let config = ServerConfig {
        max_in_flight: k,
        max_queued: 0,
        debug_hold: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    };
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), config).unwrap();
    let addr = handle.local_addr();

    // K clients occupy every slot (debug_hold keeps them executing).
    let holders: Vec<_> = (0..k)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.mask("t", Predicate::True).expect("admitted request")
            })
        })
        .collect();

    // Control plane bypasses admission: wait until both slots are taken.
    let mut observer = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = observer.metrics().expect("metrics always answers");
        if metrics.in_flight == k {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never reached {k} in-flight requests"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // M more clients must bounce immediately with the typed rejection.
    for _ in 0..m {
        let mut c = Client::connect(addr).unwrap();
        match c.mask("t", Predicate::True) {
            Err(ClientError::Overloaded { in_flight, .. }) => assert_eq!(in_flight, k),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The connection survives rejection: the control plane still
        // answers and a later retry would be possible.
        c.ping().unwrap();
    }

    // The admitted requests complete normally once their hold expires.
    for h in holders {
        let (rows, selected, _) = h.join().unwrap();
        assert_eq!((rows, selected), (2_000, 2_000));
    }
    let metrics = observer.metrics().unwrap();
    assert_eq!(metrics.rejected_total, m);
    assert_eq!(metrics.admitted_total, k);
    assert_eq!(metrics.in_flight, 0);
    handle.shutdown();
}

#[test]
fn hostile_bytes_are_contained_to_their_connection() {
    let cods = platform(500, 256);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A peer that writes garbage gets dropped without taking the server.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05])
            .unwrap();
        raw.flush().unwrap();
        // Server replies (preamble + hello + error) then closes; just
        // confirm the connection ends rather than hanging.
        let mut drain = Vec::new();
        use std::io::Read;
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = raw.read_to_end(&mut drain);
    }

    // A peer that connects and immediately leaves (clean EOF) is fine too.
    drop(std::net::TcpStream::connect(addr).unwrap());

    // Real clients still get full service afterwards.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let (_, selected, _) = client.mask("t", Predicate::True).unwrap();
    assert_eq!(selected, 500);
    handle.shutdown();
}

#[test]
fn retired_command_kind_0x08_gets_a_typed_farewell() {
    use cods_server::frame::{read_frame, read_preamble, write_frame, FrameError};
    let cods = platform(500, 256);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A well-formed frame of the retired single-frame aggregate's kind,
    // carrying the body that command used to have.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    read_preamble(&mut reader).unwrap();
    read_frame(&mut reader, 1 << 20).unwrap(); // Hello
    let body = cods_server::proto::encode_command(&Command::Query(Query::GroupBy {
        table: "t".into(),
        predicate: Predicate::True,
        group_by: vec!["grp".into()],
        aggs: vec![(cods_query::AggOp::Count, "k".into())],
    }));
    write_frame(&mut raw, 0x08, &body).unwrap();
    let (kind, payload) = read_frame(&mut reader, 1 << 20).unwrap();
    match cods_server::proto::decode_reply(kind, &payload).unwrap() {
        cods_server::Reply::Error { code, .. } => {
            assert_eq!(code, cods_server::error_code::BAD_REQUEST)
        }
        other => panic!("expected a BAD_REQUEST farewell, got {other:?}"),
    }
    // ...after which the server hangs up on this connection only.
    let end = read_frame(&mut reader, 1 << 20);
    assert!(matches!(end, Err(FrameError::Eof)), "{end:?}");
    Client::connect(addr).unwrap().ping().unwrap();
    handle.shutdown();
}

#[test]
fn idle_connections_are_evicted_without_disturbing_healthy_sessions() {
    let cods = platform(500, 256);
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), config).unwrap();
    let addr = handle.local_addr();

    // A client that handshakes, issues one request, then goes silent.
    let mut lazy = Client::connect(addr).unwrap();
    lazy.ping().unwrap();

    // A healthy session keeps talking (each poll resets its own idle
    // clock) until the server reports the eviction.
    let mut observer = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = observer.metrics().unwrap();
        if metrics.idle_evicted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle connection was never evicted"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The evicted peer finds its connection closed (a typed TIMEOUT
    // farewell or a dead socket, depending on when it looks)...
    assert!(lazy.ping().is_err(), "evicted connection must not answer");

    // ...while the healthy session still gets full service.
    let (rows, selected, _) = observer.mask("t", Predicate::True).unwrap();
    assert_eq!((rows, selected), (500, 500));
    handle.shutdown();
}

#[test]
fn server_death_mid_scan_surfaces_typed_torn_stream() {
    let cods = platform(20_000, 1_024);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let upstream = handle.local_addr();

    // The client talks to the server through a relay that dies right
    // after passing on the first `Rows` frame. Killing the server itself
    // from the client's batch callback is a race the server can win: the
    // whole reply fits in loopback's socket buffers, so a fast server may
    // have written `Done` before the kill lands.
    use cods_server::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
    use std::io::{Read, Write};
    let relay = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = relay.local_addr().unwrap();
    let relay = std::thread::spawn(move || {
        let (mut client, _) = relay.accept().unwrap();
        let mut server = std::net::TcpStream::connect(upstream).unwrap();
        let relay_frame = |from: &mut std::net::TcpStream, to: &mut std::net::TcpStream| {
            let (kind, payload) = read_frame(from, DEFAULT_MAX_FRAME_BYTES).unwrap();
            write_frame(to, kind, &payload).unwrap();
        };
        let mut preamble = [0u8; 6];
        server.read_exact(&mut preamble).unwrap();
        client.write_all(&preamble).unwrap();
        relay_frame(&mut server, &mut client); // Hello
        relay_frame(&mut client, &mut server); // the scan
        relay_frame(&mut server, &mut client); // RowHeader
        relay_frame(&mut server, &mut client); // the first Rows batch
                                               // Both sockets drop here: the stream dies mid-reply.
    });

    let mut scanner = Client::connect(addr).unwrap();
    let mut delivered = 0u64;
    let result = scanner.scan_with("t", Predicate::True, None, |_, rows| {
        delivered += rows.len() as u64;
    });
    relay.join().unwrap();
    handle.shutdown();

    match result {
        Err(ClientError::TornStream { rows_seen }) => {
            assert_eq!(rows_seen, delivered, "rows_seen counts delivered rows");
            assert_eq!(rows_seen, 1_024, "exactly the first batch got through");
            let msg = ClientError::TornStream { rows_seen }.to_string();
            assert!(msg.contains(&rows_seen.to_string()));
            assert!(msg.contains("torn"));
        }
        other => panic!("expected TornStream, got {other:?}"),
    }
}

#[test]
fn aggregation_over_the_wire_matches_local_execution() {
    let cods = platform(5_000, 512);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let (cols, rows) = client
        .group_by(
            "t",
            Predicate::lt("grp", 3i64),
            vec!["grp".into()],
            vec![
                (cods_query::AggOp::Count, "k".into()),
                (cods_query::AggOp::Max, "k".into()),
            ],
        )
        .unwrap();
    assert_eq!(cols.len(), 3);
    assert_eq!(rows.len(), 3, "groups 0, 1, 2 survive the filter");

    // Cross-check against local columnar aggregation.
    let t = cods.table("t").unwrap();
    let filtered = cods_query::filter_table(&t, &Predicate::lt("grp", 3i64)).unwrap();
    let local = cods_query::aggregate_table(
        &filtered,
        &[1],
        &[
            (cods_query::AggOp::Count, 0, ValueType::Int),
            (cods_query::AggOp::Max, 0, ValueType::Int),
        ],
    )
    .unwrap();
    assert_eq!(rows, local);
    handle.shutdown();
}

#[test]
fn chunked_group_by_streams_large_group_counts_in_batches() {
    let cods = platform(10_000, 1_024);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Group on the unique key: 10_000 groups, more than one 4096-row
    // reply frame — the chunked GroupBy stream must reassemble exactly.
    let (cols, rows) = client
        .group_by(
            "t",
            Predicate::True,
            vec!["k".into()],
            vec![(cods_query::AggOp::Count, "v".into())],
        )
        .unwrap();
    assert_eq!(cols.len(), 2);
    assert_eq!(rows.len(), 10_000);

    let t = cods.table("t").unwrap();
    let local =
        cods_query::aggregate_table(&t, &[0], &[(cods_query::AggOp::Count, 2, ValueType::Str)])
            .unwrap();
    assert_eq!(rows, local);

    // The filtered variant matches local execution bit for bit.
    let pred = Predicate::lt("grp", 2i64);
    let spec = vec![(cods_query::AggOp::CountDistinct, "v".into())];
    let (_, filtered_rows) = client
        .group_by("t", pred.clone(), vec!["grp".into()], spec)
        .unwrap();
    let filtered = cods_query::filter_table(&t, &pred).unwrap();
    let local = cods_query::aggregate_table(
        &filtered,
        &[1],
        &[(cods_query::AggOp::CountDistinct, 2, ValueType::Str)],
    )
    .unwrap();
    assert_eq!(filtered_rows, local);
    handle.shutdown();
}

#[test]
fn join_streams_over_the_wire_with_verified_totals() {
    let cods = platform(5_000, 512);
    add_dim(&cods);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut batch_count = 0u64;
    let mut got: Vec<Vec<Value>> = Vec::new();
    let summary = client
        .join_with(
            "t",
            "dim",
            vec!["grp".into()],
            vec!["grp".into()],
            |_, rows| {
                batch_count += 1;
                got.extend(rows);
            },
        )
        .unwrap();
    // Every fact row matches exactly one dimension row; drain_stream has
    // already verified the Done totals against what actually arrived.
    assert_eq!(summary.rows, 5_000);
    assert_eq!(summary.total_rows, 5_000, "summary resolves the sentinel");
    assert_eq!(summary.batches, batch_count);
    assert!(summary.batches > 1, "expected a multi-batch join stream");
    assert_eq!(got.len(), 5_000);

    // Multiset-identical to the local row oracle.
    let t = cods.table("t").unwrap();
    let dim = cods.table("dim").unwrap();
    let mut local = cods_query::tuple::hash_join(&t.to_rows(), &dim.to_rows(), &[1], &[0]);
    local.sort();
    got.sort();
    assert_eq!(got, local);

    // Unknown tables and mismatched key lists answer with typed errors,
    // not dead connections.
    let err = client
        .join("t", "nope", vec!["grp".into()], vec!["grp".into()])
        .unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    let err = client
        .join("t", "dim", vec!["grp".into()], vec![])
        .unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    client.ping().expect("connection survives typed errors");
    handle.shutdown();
}

/// A segment that cannot be faulted back in while a reply is streaming
/// (here: the catalog file truncated under a lazily opened table) ends
/// that reply with a typed error where `Done` would stand — mid-scan and
/// mid-join alike — and the connection thread lives to answer the next
/// command.
#[test]
fn failed_fault_mid_stream_is_a_typed_error_on_a_connection_that_still_answers() {
    use cods_storage::persist::{read_catalog, save_catalog};
    let path = std::env::temp_dir().join(format!("cods_it_serve_fault_{}", std::process::id()));
    save_catalog(platform(64, 16).catalog(), &path).unwrap();
    let lazy = read_catalog(&path).unwrap();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(8).unwrap();

    let cods = Arc::new(Cods::with_catalog(lazy));
    let mut handle = Server::bind("127.0.0.1:0", cods, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let internal = |err: ClientError| match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, cods_server::error_code::INTERNAL, "{message}")
        }
        other => panic!("expected a typed server error, got {other:?}"),
    };
    // The header is out before the first segment is touched.
    internal(client.scan_collect("t", Predicate::True, None).unwrap_err());
    client.ping().expect("the scan's connection still answers");
    let keys = || vec!["grp".to_string()];
    internal(client.join("t", "t", keys(), keys()).unwrap_err());
    client.ping().expect("the join's connection still answers");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A durable server's `metrics` carry its commit log's own counters; a
/// memory-only server's carry none.
#[test]
fn metrics_carry_the_commit_log_counters_of_a_durable_server() {
    use cods_storage::persist::save_catalog;
    let dir = std::env::temp_dir().join(format!("cods_it_serve_log_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("d.cods");
    save_catalog(platform(64, 16).catalog(), &path).unwrap();
    let (catalog, log, _) = cods_storage::open_durable(&path).unwrap();
    let config = ServerConfig {
        commit_log: Some(log.clone()),
        ..ServerConfig::default()
    };
    let cods = Arc::new(Cods::with_catalog(catalog));
    let mut handle = Server::bind("127.0.0.1:0", cods, config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for script in ["COPY TABLE t TO u", "RENAME TABLE u TO w", "DROP TABLE w"] {
        let ack = client.script(script).unwrap();
        assert!(ack.contains("committed durably"), "{ack}");
    }
    let s = client.metrics().unwrap().log.expect("a durable server");
    assert_eq!(s.commits, 3, "one per acknowledged script");
    assert_eq!(s.pending_records, log.stats().pending_records);
    assert_eq!(s, log.stats(), "the engine's counters, as they are");
    handle.shutdown();

    let mut memory = Server::bind("127.0.0.1:0", platform(8, 4), ServerConfig::default()).unwrap();
    let mut client = Client::connect(memory.local_addr()).unwrap();
    client.script("COPY TABLE t TO u").unwrap();
    assert_eq!(client.metrics().unwrap().log, None);
    memory.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A group-by over a segment whose payload no longer decodes (one payload
/// corrupted in the file of a lazily opened catalog, so its first touch is
/// the failing fault) answers with a typed error, not a dead connection
/// thread, and the connection answers the next command.
#[test]
fn failed_fault_in_a_group_by_is_a_typed_error_on_a_connection_that_still_answers() {
    use cods_storage::persist::{read_catalog, save_catalog};
    let path = std::env::temp_dir().join(format!("cods_it_serve_agg_{}", std::process::id()));
    let cods = platform(64, 16);
    // `k` is unique, which ingest packs: pin it to bitmap payloads.
    let t = cods.catalog().get("t").unwrap();
    cods.catalog().put(
        t.map_columns(Some("k"), |c| {
            c.with_encoding(
                cods_storage::RecodeScope::Column,
                cods_storage::RecodeTarget::To(cods_storage::Encoding::Bitmap),
            )
        })
        .unwrap(),
    );
    save_catalog(cods.catalog(), &path).unwrap();
    let mut raw = std::fs::read(&path).unwrap();
    // The heap starts behind the 6-byte preamble and the two 40-byte
    // commit slots with `k`'s first payload: 16 rows of 16 values, so a
    // bitmap payload whose head table opens with the first bitmap's end,
    // one word (its active word) in. The flip moves that end past the
    // payload's words.
    assert_eq!(u32::from_le_bytes(raw[86..90].try_into().unwrap()), 1);
    raw[86] ^= 0x40;
    std::fs::write(&path, &raw).unwrap();
    let lazy = read_catalog(&path).unwrap();

    let cods = Arc::new(Cods::with_catalog(lazy));
    let mut handle = Server::bind("127.0.0.1:0", cods, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    // Grouping on two columns and summing the third walks every segment of
    // every column, the corrupted one among them.
    let err = client
        .group_by(
            "t",
            Predicate::True,
            vec!["grp".into(), "v".into()],
            vec![(cods_query::AggOp::Sum, "k".into())],
        )
        .unwrap_err();
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, cods_server::error_code::INTERNAL, "{message}");
            assert!(message.contains("segment payload"), "{message}");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    client
        .ping()
        .expect("the group-by's connection still answers");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A server that answers a scan with a `Rows` batch whose column count is
/// not its `RowHeader`'s — one column short, then one too many — gets a
/// protocol error, and the caller never sees a row of the wrong arity.
#[test]
fn a_batch_of_another_arity_than_its_header_is_a_protocol_error() {
    use cods_server::frame::{read_frame, write_frame, write_preamble, DEFAULT_MAX_FRAME_BYTES};
    use cods_server::proto::encode_reply;
    use cods_server::Reply;
    for arity in [1usize, 3] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            write_preamble(&mut peer).unwrap();
            let mut reader = peer.try_clone().unwrap();
            let mut send = |reply: Reply| {
                write_frame(&mut peer, reply.kind(), &encode_reply(&reply)).unwrap();
            };
            send(Reply::Hello { catalog_version: 1 });
            read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap(); // the scan
            send(Reply::RowHeader {
                columns: vec![("k".into(), ValueType::Int), ("v".into(), ValueType::Str)],
                total_rows: 1,
            });
            send(Reply::Rows {
                rows: vec![vec![Value::int(7); arity]],
            });
            send(Reply::Done {
                batches: 1,
                rows: 1,
            });
        });
        let mut client = Client::connect(addr).unwrap();
        let mut delivered = 0;
        let result = client.scan_with("t", Predicate::True, None, |_, _| delivered += 1);
        server.join().unwrap();
        match result {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("column count"), "{message}")
            }
            other => panic!("{arity} column(s): expected a protocol error, got {other:?}"),
        }
        assert_eq!(
            delivered, 0,
            "no batch of the wrong arity reaches the caller"
        );
    }
}

/// What one raw exchange put on the wire: every reply frame until the
/// closing `Done`, as the server framed it.
#[derive(Debug, PartialEq)]
struct Exchange {
    frames: u64,
    bytes: u64,
    /// FNV-1a 64 over every frame's kind and content, concatenated. The
    /// content of a `Rows` frame is its decoded rows written in protocol
    /// version 1's row-major layout, of any other frame its payload — so
    /// the digest follows what a reply says, not how a batch is packed.
    digest: u64,
    done_batches: u64,
    done_rows: u64,
}

/// Byte-wise FNV-1a 64, the content digest the recorded `Exchange`
/// constants were taken with (frames no longer use it; the digest must not
/// move with the frame checksum).
fn content_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Protocol version 1's `Rows` body: `n:u32`, then per row `arity:u32` and
/// the cells as `tag:u8 body` (the value encoding version 2 kept).
fn rows_in_v1_layout(rows: &[Vec<Value>], out: &mut Vec<u8>) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for cell in row {
            match cell {
                Value::Null => out.push(0),
                Value::Bool(b) => out.extend_from_slice(&[1, u8::from(*b)]),
                Value::Int(i) => {
                    out.push(2);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    out.push(3);
                    out.extend_from_slice(&f.0.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(4);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
}

fn exchange(
    stream: &mut std::net::TcpStream,
    reader: &mut impl std::io::Read,
    cmd: &Command,
) -> Exchange {
    use cods_server::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
    use cods_server::proto::{decode_reply, encode_command, RowsDecoder, ROWS_KIND};
    write_frame(stream, cmd.kind(), &encode_command(cmd)).unwrap();
    let (mut frames, mut bytes) = (0, 0);
    let mut content = Vec::new();
    // The stream's batches decode against the reply dictionaries the
    // header sizes.
    let mut decoder = None;
    loop {
        let (kind, payload) = read_frame(reader, DEFAULT_MAX_FRAME_BYTES).unwrap();
        frames += 1;
        // Each frame adds a kind byte, a 4-byte length and an 8-byte checksum.
        bytes += payload.len() as u64 + 13;
        content.push(kind);
        if kind == ROWS_KIND {
            let decoder: &mut RowsDecoder = decoder.as_mut().expect("a header opens the stream");
            rows_in_v1_layout(&decoder.decode(&payload).unwrap().to_rows(), &mut content);
            continue;
        }
        match decode_reply(kind, &payload).unwrap() {
            cods_server::Reply::RowHeader { columns, .. } => {
                decoder = Some(RowsDecoder::new(columns.len()));
                content.extend_from_slice(&payload);
            }
            cods_server::Reply::Done { batches, rows } => {
                content.extend_from_slice(&payload);
                return Exchange {
                    frames,
                    bytes,
                    digest: content_digest(&content),
                    done_batches: batches,
                    done_rows: rows,
                };
            }
            _ => content.extend_from_slice(&payload),
        }
    }
}

/// Protocol version 1's totals for the three exchanges below: every later
/// version must say the same in fewer bytes.
const V1_BYTES: [u64; 3] = [77_923, 110_107, 241_270];

/// Version 3's totals (version 2's bytes under another checksum), the
/// last with a dictionary per batch: version 4's reply-scoped dictionary
/// must shrink the multi-batch join and never grow an exchange.
const V3_BYTES: [u64; 3] = [28_262, 60_149, 70_826];

/// Version 5's totals (version 4's `Rows` bodies), the last that sent
/// every int through the reply dictionary: version 6's frame-of-reference
/// int columns must shrink all three.
const V5_BYTES: [u64; 3] = [26_354, 60_140, 70_494];

#[test]
fn reply_bytes_frames_and_totals_are_those_of_protocol_version_6() {
    // Frame counts, `Done` totals and content digests are the constants
    // recorded under protocol version 1: neither the windowed reply writer,
    // the columnar `Rows` body, its reply-scoped dictionary nor its
    // frame-of-reference int columns changed which rows a reply carries, in
    // which order, in which batches. The byte totals are version 6's.
    let cods = platform(5_000, 512);
    add_dim(&cods);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();

    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    assert_eq!(cods_server::frame::read_preamble(&mut reader).unwrap(), 6);
    let (hello, _) = cods_server::frame::read_frame(&mut reader, 1 << 20).unwrap();
    assert_eq!(hello, 0x81);

    let scan = exchange(
        &mut raw,
        &mut reader,
        &Command::Query(Query::Scan {
            table: "t".into(),
            predicate: Predicate::lt("grp", 3i64),
            projection: None,
        }),
    );
    let group_by = exchange(
        &mut raw,
        &mut reader,
        &Command::Query(Query::GroupBy {
            table: "t".into(),
            predicate: Predicate::True,
            group_by: vec!["k".into()],
            aggs: vec![(cods_query::AggOp::Count, "v".into())],
        }),
    );
    let join = exchange(
        &mut raw,
        &mut reader,
        &Command::Query(Query::Join {
            left: "t".into(),
            right: "dim".into(),
            left_keys: vec!["grp".into()],
            right_keys: vec!["grp".into()],
        }),
    );
    assert_eq!(
        scan,
        Exchange {
            frames: 12,
            bytes: 9_335,
            digest: 11858813980843628085,
            done_batches: 10,
            done_rows: 2_144,
        }
    );
    assert_eq!(
        group_by,
        Exchange {
            frames: 4,
            bytes: 15_163,
            digest: 3352937161572489144,
            done_batches: 2,
            done_rows: 5_000,
        }
    );
    // Join output order is the kernel's business: pin its volume only.
    assert_eq!(
        Exchange { digest: 0, ..join },
        Exchange {
            frames: 4,
            bytes: 25_463,
            digest: 0,
            done_batches: 2,
            done_rows: 5_000,
        }
    );
    for (((now, v1), v3), v5) in [scan.bytes, group_by.bytes, join.bytes]
        .iter()
        .zip(V1_BYTES)
        .zip(V3_BYTES)
        .zip(V5_BYTES)
    {
        assert!(*now < v1, "{now} bytes against version 1's {v1}");
        assert!(*now <= v3, "{now} bytes against version 3's {v3}");
        assert!(*now < v5, "{now} bytes against version 5's {v5}");
    }
    assert!(join.bytes < V3_BYTES[2], "the join's batches share values");
    // The server's own byte counter agrees: the three streams plus the
    // two sessions' 21-byte `Hello` frames.
    let streamed = Client::connect(handle.local_addr())
        .unwrap()
        .metrics()
        .unwrap()
        .bytes_streamed;
    assert_eq!(streamed, scan.bytes + group_by.bytes + join.bytes + 2 * 21);
    handle.shutdown();
}

/// A peer that announces any other protocol version is refused at the
/// preamble, before a reply of it is decoded.
#[test]
fn a_version_1_preamble_is_refused() {
    use cods_server::frame::{read_preamble, FrameError, SERVE_MAGIC};
    // Version 2 differs from 3 only in the frame checksum, 3 from 4 only in
    // how a `Rows` body's dictionary is scoped, 4 from 5 only in the
    // `Stats` and `Metrics` replies, and 5 from 6 only in how a `Rows` body
    // sends an int column: refused alike.
    for version in [1u16, 2, 3, 4, 5] {
        let mut preamble = SERVE_MAGIC.to_le_bytes().to_vec();
        preamble.extend_from_slice(&version.to_le_bytes());
        // A `Rows` frame of that version follows; it is never looked at.
        preamble.extend_from_slice(&[0x88, 4, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            read_preamble(&mut preamble.as_slice()),
            Err(FrameError::Corrupt)
        ));
    }
}
