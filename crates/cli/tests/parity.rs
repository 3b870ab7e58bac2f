//! Both shells are one language: every line of one table — each read
//! shape under each predicate form, projections, global and composite-key
//! aggregates, a multi-key join, every SMO statement form, and the
//! mistakes a user can make — runs through the local back end and, against
//! a loopback server over a copy of the same catalog, through the remote
//! one. What they print for reads and what they report for errors must be
//! identical, and so must the catalogs they leave behind.

use cods::Cods;
use cods_cli::{connect_command, run_command};
use cods_query::{parse_query, Query, QueryError};
use cods_server::{error_code, Client, ClientError, QueryReply, Server, ServerConfig};
use cods_storage::{Schema, StorageError, Table, Value, ValueType};
use std::sync::Arc;

/// `sales` (600 rows in 128-row segments, so scans take several batches)
/// and the `regions` dimension it joins on two keys.
fn platform() -> Cods {
    let cods = Cods::new();
    let regions = ["north west", "east", "south", "5"];
    let sales = Schema::build(
        &[
            ("k", ValueType::Int),
            ("grp", ValueType::Int),
            ("amt", ValueType::Float),
            ("region", ValueType::Str),
            ("open", ValueType::Bool),
        ],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..600i64)
        .map(|i| {
            vec![
                Value::int(i),
                Value::int(i % 7),
                Value::float((i % 11) as f64 * 0.5),
                Value::str(regions[(i % 4) as usize]),
                Value::Bool(i % 3 == 0),
            ]
        })
        .collect();
    let sales = Table::from_rows_with_segment_rows("sales", sales, &rows, 128).unwrap();
    cods.catalog().create(sales).unwrap();
    let dim = Schema::build(
        &[
            ("region", ValueType::Str),
            ("grp", ValueType::Int),
            ("manager", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..7i64)
        .flat_map(|g| regions.iter().map(move |r| (g, *r)))
        .filter(|(g, _)| *g != 6)
        .map(|(g, r)| {
            vec![
                Value::str(r),
                Value::int(g),
                Value::str(format!("m{g}-{r}")),
            ]
        })
        .collect();
    cods.catalog()
        .create(Table::from_rows("regions", dim, &rows).unwrap())
        .unwrap();
    cods
}

const PREDICATES: [&str; 6] = [
    "",
    " where grp = 3",
    " where k >= 100 and k < 330",
    " where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5",
    " where region = 'north west'",
    " where region = '5'",
];

/// Read statements; `{p}` takes each of [`PREDICATES`] in turn.
const READS: [&str; 8] = [
    "count sales{p}",
    "scan sales{p}",
    "scan sales select region, k{p}",
    "agg sales by grp count:k{p}",
    "agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region{p}",
    "agg sales by grp, region count:k, sum:k{p}",
    "join sales regions on region=region, grp=grp",
    "join regions sales on grp=grp",
];

/// Every SMO statement form, each followed by reads of what it made.
const EVOLUTION: [&str; 24] = [
    "CREATE TABLE notes (id int, body str, KEY id)",
    "scan notes",
    "COPY TABLE regions TO dim",
    "RENAME TABLE dim TO dim2",
    "ADD COLUMN tier int DEFAULT 2 TO dim2",
    "RENAME COLUMN tier TO level IN dim2",
    "scan dim2 where level = 2 and region = '5'",
    "DROP COLUMN level FROM dim2",
    "PARTITION TABLE dim2 WHERE region = 'north west' or grp < 2 INTO near, far",
    "count near",
    "agg far by region count:grp",
    "UNION TABLES near, far INTO both",
    "count both",
    "DROP TABLE near",
    "DECOMPOSE TABLE both INTO keys (region, grp), who (region, grp, manager)",
    "scan who where grp = 4",
    "MERGE TABLES keys, who INTO again",
    "agg again by grp count:manager, distinct:region",
    "drop table far; copy table again to again2 -- two statements, one commit",
    "count again2",
    // Mistakes, reported alike by both shells.
    "DROP TABLE nope",
    "MERGE TABLES sales, nope INTO x",
    "PARTITION TABLE sales WHERE k ! 3 INTO a, b",
    "FROBNICATE sales",
];

const BAD_READS: [&str; 9] = [
    "count nope",
    "scan sales select zip",
    "count sales where zip = 1",
    "agg sales by zip count:k",
    "agg sales by grp count:zip",
    "join sales nope on grp=grp",
    "join sales regions on region=zip",
    "join sales regions on region=region, grp",
    "scan sales where region = 'unterminated",
];

struct Shells {
    local: Cods,
    served: Arc<Cods>,
    client: Client,
    _server: cods_server::ServerHandle,
}

impl Shells {
    fn new() -> Shells {
        let served = Arc::new(platform());
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&served), ServerConfig::default()).unwrap();
        Shells {
            local: platform(),
            client: Client::connect(server.local_addr()).unwrap(),
            served,
            _server: server,
        }
    }

    /// Runs `line` through both shells: `(local, remote)` as what each
    /// printed or the error it reported.
    fn both(&mut self, line: &str) -> (Result<String, String>, Result<String, String>) {
        let text = |out: Vec<u8>| String::from_utf8(out).unwrap();
        let mut out = Vec::new();
        let local = run_command(&mut self.local, line, &mut out).map(|_| text(out));
        let mut out = Vec::new();
        let remote = connect_command(&mut self.client, line, &mut out).map(|_| text(out));
        (local, remote)
    }
}

fn reads() -> Vec<String> {
    READS
        .iter()
        .flat_map(|read| match read.contains("{p}") {
            true => PREDICATES.iter().map(|p| read.replace("{p}", p)).collect(),
            false => vec![read.to_string()],
        })
        .collect()
}

#[test]
fn reads_render_identically_and_explain_names_their_columns() {
    let mut shells = Shells::new();
    for line in reads() {
        let (local, remote) = shells.both(&line);
        let local = local.unwrap_or_else(|e| panic!("{line:?} failed locally: {e}"));
        assert_eq!(Ok(&local), remote.as_ref(), "{line}");
        assert!(
            local.lines().count() > 1 || line.starts_with("count"),
            "{line}: {local}"
        );

        // The columns a run reports are the ones explain names.
        let query = parse_query(&line).unwrap();
        let resolved = query
            .resolve(&shells.local.catalog().snapshot_view())
            .unwrap();
        let names: Vec<&str> = resolved.columns().iter().map(|(n, _)| n.as_str()).collect();
        let (explained, unexplainable) = shells.both(&format!("explain {line}"));
        let explained = explained.unwrap();
        assert_eq!(explained, resolved.explain(), "{line}");
        let outputs = format!("-> [{}]", names.join(", "));
        assert!(
            explained.lines().next().unwrap().contains(&outputs),
            "{line}: {explained}"
        );
        assert!(unexplainable.is_err(), "the wire has no explain command");
        match shells.client.query(query, |_, _| {}).unwrap() {
            QueryReply::Rows(summary) => assert_eq!(summary.columns, resolved.columns(), "{line}"),
            QueryReply::Count(_) => assert!(names.is_empty(), "{line}"),
        }
    }
}

#[test]
fn evolution_statements_leave_identical_catalogs_and_report_identical_errors() {
    let mut shells = Shells::new();
    for line in EVOLUTION {
        let is_read = parse_query(line).is_ok();
        match shells.both(line) {
            (Ok(local), Ok(remote)) if is_read => assert_eq!(local, remote, "{line}"),
            // The local shell prints the status log, the server a summary.
            (Ok(local), Ok(remote)) => {
                assert!(local.contains("operator(s) committed"), "{line}: {local}");
                assert!(remote.contains("operator(s) committed"), "{line}: {remote}");
            }
            (Err(local), Err(remote)) => assert_eq!(local, remote, "{line}"),
            (local, remote) => panic!("{line:?} diverged: {local:?} vs {remote:?}"),
        }
        let (local, served) = (shells.local.catalog(), shells.served.catalog());
        assert_eq!(local.table_names(), served.table_names(), "after {line}");
        assert_eq!(local.version(), served.version(), "after {line}");
    }
    let names = shells.local.catalog().table_names();
    assert_eq!(
        names,
        ["again", "again2", "keys", "notes", "regions", "sales", "who"]
    );
    for name in names {
        let (local, served) = (shells.local.table(&name), shells.served.table(&name));
        assert_eq!(
            local.unwrap().to_rows(),
            served.unwrap().to_rows(),
            "{name}"
        );
    }
}

#[test]
fn mistakes_are_the_same_typed_error_on_both_sides() {
    let mut shells = Shells::new();
    for line in BAD_READS {
        let (local, remote) = shells.both(line);
        let local = local.expect_err(line);
        assert_eq!(Err(local), remote, "{line}");
    }
    let join = |left_keys: &[&str], right_keys: &[&str]| Query::Join {
        left: "sales".into(),
        right: "regions".into(),
        left_keys: left_keys.iter().map(|k| k.to_string()).collect(),
        right_keys: right_keys.iter().map(|k| k.to_string()).collect(),
    };
    let count = |table: &str| Query::Count {
        table: table.into(),
        predicate: cods_query::Predicate::True,
    };
    let unknown_table = QueryError::Storage(StorageError::UnknownTable("nope".into()));
    let unknown_column = QueryError::Storage(StorageError::UnknownColumn("zip".into()));
    for (query, typed, class) in [
        (count("nope"), unknown_table, error_code::NOT_FOUND),
        (
            join(&["zip"], &["grp"]),
            unknown_column,
            error_code::NOT_FOUND,
        ),
        // The text grammar pairs keys up, so only the API can say this.
        (
            join(&["grp", "region"], &["grp"]),
            QueryError::KeyArity,
            error_code::BAD_REQUEST,
        ),
    ] {
        let snapshot = shells.local.catalog().snapshot_view();
        let local = query.resolve(&snapshot).err().expect("must not resolve");
        assert_eq!(local, typed);
        match shells.client.query(query, |_, _| {}) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!((code, message), (class, typed.to_string()));
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
    }
    // The session survives every one of them.
    shells.client.ping().unwrap();
}
