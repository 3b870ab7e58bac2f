//! The statement grammar, pinned one row at a time. A row is a line as a
//! shell hands it over: a read (`count`, `scan`, `agg`, `join`) parses with
//! `parse_query`, anything else as a script with `parse_script`. Its
//! expectation is the `{:?}` of what the line parses to, or `refused`,
//! optionally followed by `: ` and a fragment the error must contain.
//!
//! The table holds every SMO and read form of `crates/cli/tests/parity.rs`,
//! the quote, comment and `;` cases of the parser unit tests, and the
//! inputs whose meaning the one lexer changed. A [`changed`] row records
//! the outcome before that change beside the outcome now; every other row
//! parses as it did before it.

use cods::Cods;
use cods_query::{parse_query, Query};

struct Row {
    text: &'static str,
    want: &'static str,
    /// The outcome before the one lexer, for a row whose meaning it changed.
    was: Option<&'static str>,
}

const fn row(text: &'static str, want: &'static str) -> Row {
    Row {
        text,
        want,
        was: None,
    }
}

const fn changed(text: &'static str, was: &'static str, want: &'static str) -> Row {
    Row {
        text,
        want,
        was: Some(was),
    }
}

const ROWS: &[Row] = &[
    // parity.rs: every SMO statement form and its mistakes
    row("CREATE TABLE notes (id int, body str, KEY id)", r#"[CreateTable { name: "notes", schema: Schema { columns: [ColumnDef { name: "id", ty: Int }, ColumnDef { name: "body", ty: Str }], key: [0] } }]"#),
    row("COPY TABLE regions TO dim", r#"[CopyTable { from: "regions", to: "dim" }]"#),
    row("RENAME TABLE dim TO dim2", r#"[RenameTable { from: "dim", to: "dim2" }]"#),
    row("ADD COLUMN tier int DEFAULT 2 TO dim2", r#"[AddColumn { table: "dim2", column: ColumnDef { name: "tier", ty: Int }, default: Int(2) }]"#),
    row("RENAME COLUMN tier TO level IN dim2", r#"[RenameColumn { table: "dim2", from: "tier", to: "level" }]"#),
    row("DROP COLUMN level FROM dim2", r#"[DropColumn { table: "dim2", column: "level" }]"#),
    row("PARTITION TABLE dim2 WHERE region = 'north west' or grp < 2 INTO near, far", r#"[PartitionTable { input: "dim2", predicate: Or(Compare { column: "region", op: Eq, literal: Str("north west") }, Compare { column: "grp", op: Lt, literal: Int(2) }), satisfying: "near", rest: "far" }]"#),
    row("UNION TABLES near, far INTO both", r#"[UnionTables { left: "near", right: "far", output: "both", drop_inputs: false }]"#),
    row("DROP TABLE near", r#"[DropTable { name: "near" }]"#),
    row("DECOMPOSE TABLE both INTO keys (region, grp), who (region, grp, manager)", r#"[DecomposeTable { input: "both", spec: DecomposeSpec { unchanged_name: "keys", unchanged_cols: ["region", "grp"], changed_name: "who", changed_cols: ["region", "grp", "manager"], verify_fd: true } }]"#),
    row("MERGE TABLES keys, who INTO again", r#"[MergeTables { left: "keys", right: "who", output: "again", strategy: Auto }]"#),
    row("drop table far; copy table again to again2 -- two statements, one commit", r#"[DropTable { name: "far" }, CopyTable { from: "again", to: "again2" }]"#),
    row("DROP TABLE nope", r#"[DropTable { name: "nope" }]"#),
    row("MERGE TABLES sales, nope INTO x", r#"[MergeTables { left: "sales", right: "nope", output: "x", strategy: Auto }]"#),
    row("PARTITION TABLE sales WHERE k ! 3 INTO a, b", "refused"),
    row("FROBNICATE sales", "refused"),
    // parity.rs: the reads between the SMOs
    row("scan notes", r#"Scan { table: "notes", predicate: True, projection: None }"#),
    row("count near", r#"Count { table: "near", predicate: True }"#),
    row("agg far by region count:grp", r#"GroupBy { table: "far", predicate: True, group_by: ["region"], aggs: [(Count, "grp")] }"#),
    row("scan dim2 where level = 2 and region = '5'", r#"Scan { table: "dim2", predicate: And(Compare { column: "level", op: Eq, literal: Int(2) }, Compare { column: "region", op: Eq, literal: Str("5") }), projection: None }"#),
    row("count both", r#"Count { table: "both", predicate: True }"#),
    row("scan who where grp = 4", r#"Scan { table: "who", predicate: Compare { column: "grp", op: Eq, literal: Int(4) }, projection: None }"#),
    row("agg again by grp count:manager, distinct:region", r#"GroupBy { table: "again", predicate: True, group_by: ["grp"], aggs: [(Count, "manager"), (CountDistinct, "region")] }"#),
    row("count again2", r#"Count { table: "again2", predicate: True }"#),
    // parity.rs: every read shape under every predicate form
    row("count sales", r#"Count { table: "sales", predicate: True }"#),
    row("count sales where grp = 3", r#"Count { table: "sales", predicate: Compare { column: "grp", op: Eq, literal: Int(3) } }"#),
    row("count sales where k >= 100 and k < 330", r#"Count { table: "sales", predicate: And(Compare { column: "k", op: Ge, literal: Int(100) }, Compare { column: "k", op: Lt, literal: Int(330) }) }"#),
    row("count sales where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5", r#"Count { table: "sales", predicate: Or(Compare { column: "grp", op: Eq, literal: Int(1) }, Or(And(Not(Compare { column: "region", op: Eq, literal: Str("east") }), Compare { column: "k", op: Lt, literal: Int(50) }), And(Compare { column: "open", op: Eq, literal: Bool(true) }, Compare { column: "amt", op: Gt, literal: Float(OrderedF64(4.5)) }))) }"#),
    row("count sales where region = 'north west'", r#"Count { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("north west") } }"#),
    row("count sales where region = '5'", r#"Count { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("5") } }"#),
    row("scan sales", r#"Scan { table: "sales", predicate: True, projection: None }"#),
    row("scan sales where grp = 3", r#"Scan { table: "sales", predicate: Compare { column: "grp", op: Eq, literal: Int(3) }, projection: None }"#),
    row("scan sales where k >= 100 and k < 330", r#"Scan { table: "sales", predicate: And(Compare { column: "k", op: Ge, literal: Int(100) }, Compare { column: "k", op: Lt, literal: Int(330) }), projection: None }"#),
    row("scan sales where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5", r#"Scan { table: "sales", predicate: Or(Compare { column: "grp", op: Eq, literal: Int(1) }, Or(And(Not(Compare { column: "region", op: Eq, literal: Str("east") }), Compare { column: "k", op: Lt, literal: Int(50) }), And(Compare { column: "open", op: Eq, literal: Bool(true) }, Compare { column: "amt", op: Gt, literal: Float(OrderedF64(4.5)) }))), projection: None }"#),
    row("scan sales where region = 'north west'", r#"Scan { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("north west") }, projection: None }"#),
    row("scan sales where region = '5'", r#"Scan { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("5") }, projection: None }"#),
    row("scan sales select region, k", r#"Scan { table: "sales", predicate: True, projection: Some(["region", "k"]) }"#),
    row("scan sales select region, k where grp = 3", r#"Scan { table: "sales", predicate: Compare { column: "grp", op: Eq, literal: Int(3) }, projection: Some(["region", "k"]) }"#),
    row("scan sales select region, k where k >= 100 and k < 330", r#"Scan { table: "sales", predicate: And(Compare { column: "k", op: Ge, literal: Int(100) }, Compare { column: "k", op: Lt, literal: Int(330) }), projection: Some(["region", "k"]) }"#),
    row("scan sales select region, k where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5", r#"Scan { table: "sales", predicate: Or(Compare { column: "grp", op: Eq, literal: Int(1) }, Or(And(Not(Compare { column: "region", op: Eq, literal: Str("east") }), Compare { column: "k", op: Lt, literal: Int(50) }), And(Compare { column: "open", op: Eq, literal: Bool(true) }, Compare { column: "amt", op: Gt, literal: Float(OrderedF64(4.5)) }))), projection: Some(["region", "k"]) }"#),
    row("scan sales select region, k where region = 'north west'", r#"Scan { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("north west") }, projection: Some(["region", "k"]) }"#),
    row("scan sales select region, k where region = '5'", r#"Scan { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("5") }, projection: Some(["region", "k"]) }"#),
    row("agg sales by grp count:k", r#"GroupBy { table: "sales", predicate: True, group_by: ["grp"], aggs: [(Count, "k")] }"#),
    row("agg sales by grp count:k where grp = 3", r#"GroupBy { table: "sales", predicate: Compare { column: "grp", op: Eq, literal: Int(3) }, group_by: ["grp"], aggs: [(Count, "k")] }"#),
    row("agg sales by grp count:k where k >= 100 and k < 330", r#"GroupBy { table: "sales", predicate: And(Compare { column: "k", op: Ge, literal: Int(100) }, Compare { column: "k", op: Lt, literal: Int(330) }), group_by: ["grp"], aggs: [(Count, "k")] }"#),
    row("agg sales by grp count:k where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5", r#"GroupBy { table: "sales", predicate: Or(Compare { column: "grp", op: Eq, literal: Int(1) }, Or(And(Not(Compare { column: "region", op: Eq, literal: Str("east") }), Compare { column: "k", op: Lt, literal: Int(50) }), And(Compare { column: "open", op: Eq, literal: Bool(true) }, Compare { column: "amt", op: Gt, literal: Float(OrderedF64(4.5)) }))), group_by: ["grp"], aggs: [(Count, "k")] }"#),
    row("agg sales by grp count:k where region = 'north west'", r#"GroupBy { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("north west") }, group_by: ["grp"], aggs: [(Count, "k")] }"#),
    row("agg sales by grp count:k where region = '5'", r#"GroupBy { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("5") }, group_by: ["grp"], aggs: [(Count, "k")] }"#),
    row("agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region", r#"GroupBy { table: "sales", predicate: True, group_by: [], aggs: [(Count, "k"), (Sum, "amt"), (Min, "amt"), (Max, "region"), (CountDistinct, "region")] }"#),
    row("agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region where grp = 3", r#"GroupBy { table: "sales", predicate: Compare { column: "grp", op: Eq, literal: Int(3) }, group_by: [], aggs: [(Count, "k"), (Sum, "amt"), (Min, "amt"), (Max, "region"), (CountDistinct, "region")] }"#),
    row("agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region where k >= 100 and k < 330", r#"GroupBy { table: "sales", predicate: And(Compare { column: "k", op: Ge, literal: Int(100) }, Compare { column: "k", op: Lt, literal: Int(330) }), group_by: [], aggs: [(Count, "k"), (Sum, "amt"), (Min, "amt"), (Max, "region"), (CountDistinct, "region")] }"#),
    row("agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5", r#"GroupBy { table: "sales", predicate: Or(Compare { column: "grp", op: Eq, literal: Int(1) }, Or(And(Not(Compare { column: "region", op: Eq, literal: Str("east") }), Compare { column: "k", op: Lt, literal: Int(50) }), And(Compare { column: "open", op: Eq, literal: Bool(true) }, Compare { column: "amt", op: Gt, literal: Float(OrderedF64(4.5)) }))), group_by: [], aggs: [(Count, "k"), (Sum, "amt"), (Min, "amt"), (Max, "region"), (CountDistinct, "region")] }"#),
    row("agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region where region = 'north west'", r#"GroupBy { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("north west") }, group_by: [], aggs: [(Count, "k"), (Sum, "amt"), (Min, "amt"), (Max, "region"), (CountDistinct, "region")] }"#),
    row("agg sales by - count:k, sum:amt, min:amt, max:region, distinct:region where region = '5'", r#"GroupBy { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("5") }, group_by: [], aggs: [(Count, "k"), (Sum, "amt"), (Min, "amt"), (Max, "region"), (CountDistinct, "region")] }"#),
    row("agg sales by grp, region count:k, sum:k", r#"GroupBy { table: "sales", predicate: True, group_by: ["grp", "region"], aggs: [(Count, "k"), (Sum, "k")] }"#),
    row("agg sales by grp, region count:k, sum:k where grp = 3", r#"GroupBy { table: "sales", predicate: Compare { column: "grp", op: Eq, literal: Int(3) }, group_by: ["grp", "region"], aggs: [(Count, "k"), (Sum, "k")] }"#),
    row("agg sales by grp, region count:k, sum:k where k >= 100 and k < 330", r#"GroupBy { table: "sales", predicate: And(Compare { column: "k", op: Ge, literal: Int(100) }, Compare { column: "k", op: Lt, literal: Int(330) }), group_by: ["grp", "region"], aggs: [(Count, "k"), (Sum, "k")] }"#),
    row("agg sales by grp, region count:k, sum:k where grp = 1 or not region = east and k < 50 or open = true and amt > 4.5", r#"GroupBy { table: "sales", predicate: Or(Compare { column: "grp", op: Eq, literal: Int(1) }, Or(And(Not(Compare { column: "region", op: Eq, literal: Str("east") }), Compare { column: "k", op: Lt, literal: Int(50) }), And(Compare { column: "open", op: Eq, literal: Bool(true) }, Compare { column: "amt", op: Gt, literal: Float(OrderedF64(4.5)) }))), group_by: ["grp", "region"], aggs: [(Count, "k"), (Sum, "k")] }"#),
    row("agg sales by grp, region count:k, sum:k where region = 'north west'", r#"GroupBy { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("north west") }, group_by: ["grp", "region"], aggs: [(Count, "k"), (Sum, "k")] }"#),
    row("agg sales by grp, region count:k, sum:k where region = '5'", r#"GroupBy { table: "sales", predicate: Compare { column: "region", op: Eq, literal: Str("5") }, group_by: ["grp", "region"], aggs: [(Count, "k"), (Sum, "k")] }"#),
    row("join sales regions on region=region, grp=grp", r#"Join { left: "sales", right: "regions", left_keys: ["region", "grp"], right_keys: ["region", "grp"] }"#),
    row("join regions sales on grp=grp", r#"Join { left: "regions", right: "sales", left_keys: ["grp"], right_keys: ["grp"] }"#),
    // parity.rs: reads that parse but do not resolve, and those that do not parse
    row("count nope", r#"Count { table: "nope", predicate: True }"#),
    row("scan sales select zip", r#"Scan { table: "sales", predicate: True, projection: Some(["zip"]) }"#),
    row("count sales where zip = 1", r#"Count { table: "sales", predicate: Compare { column: "zip", op: Eq, literal: Int(1) } }"#),
    row("agg sales by zip count:k", r#"GroupBy { table: "sales", predicate: True, group_by: ["zip"], aggs: [(Count, "k")] }"#),
    row("agg sales by grp count:zip", r#"GroupBy { table: "sales", predicate: True, group_by: ["grp"], aggs: [(Count, "zip")] }"#),
    row("join sales nope on grp=grp", r#"Join { left: "sales", right: "nope", left_keys: ["grp"], right_keys: ["grp"] }"#),
    row("join sales regions on region=zip", r#"Join { left: "sales", right: "regions", left_keys: ["region"], right_keys: ["zip"] }"#),
    row("join sales regions on region=region, grp", "refused"),
    row("scan sales where region = 'unterminated", "refused"),
    // parser.rs: statement forms
    row("CREATE TABLE emp (id int, name str, KEY id)", r#"[CreateTable { name: "emp", schema: Schema { columns: [ColumnDef { name: "id", ty: Int }, ColumnDef { name: "name", ty: Str }], key: [0] } }]"#),
    row("CREATE TABLE t (id int, Key id)", r#"[CreateTable { name: "t", schema: Schema { columns: [ColumnDef { name: "id", ty: Int }], key: [0] } }]"#),
    row("CREATE TABLE t (id int, key id)", r#"[CreateTable { name: "t", schema: Schema { columns: [ColumnDef { name: "id", ty: Int }], key: [0] } }]"#),
    row("DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)", r#"[DecomposeTable { input: "R", spec: DecomposeSpec { unchanged_name: "S", unchanged_cols: ["employee", "skill"], changed_name: "T", changed_cols: ["employee", "address"], verify_fd: true } }]"#),
    row("MERGE TABLES s, t INTO r", r#"[MergeTables { left: "s", right: "t", output: "r", strategy: Auto }]"#),
    row("UNION TABLES a, b INTO ab", r#"[UnionTables { left: "a", right: "b", output: "ab", drop_inputs: false }]"#),
    row("PARTITION TABLE t WHERE k < 10 AND v = 'x' INTO lo, hi", r#"[PartitionTable { input: "t", predicate: And(Compare { column: "k", op: Lt, literal: Int(10) }, Compare { column: "v", op: Eq, literal: Str("x") }), satisfying: "lo", rest: "hi" }]"#),
    row("ADD COLUMN dept str DEFAULT eng TO emp", r#"[AddColumn { table: "emp", column: ColumnDef { name: "dept", ty: Str }, default: Str("eng") }]"#),
    row("DROP COLUMN dept FROM emp", r#"[DropColumn { table: "emp", column: "dept" }]"#),
    row("RENAME COLUMN a TO b IN emp", r#"[RenameColumn { table: "emp", from: "a", to: "b" }]"#),
    row("DROP TABLE t", r#"[DropTable { name: "t" }]"#),
    row("rename table a to b", r#"[RenameTable { from: "a", to: "b" }]"#),
    row("COPY TABLE a TO b", r#"[CopyTable { from: "a", to: "b" }]"#),
    // parser.rs: quotes, comments and `;`
    row("PARTITION TABLE t WHERE note = 'this or that' INTO a, b", r#"[PartitionTable { input: "t", predicate: Compare { column: "note", op: Eq, literal: Str("this or that") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE tag = 'a<=b' INTO a, b", r#"[PartitionTable { input: "t", predicate: Compare { column: "tag", op: Eq, literal: Str("a<=b") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE addr = '12 #4 Main' INTO a, b # tail", r#"[PartitionTable { input: "t", predicate: Compare { column: "addr", op: Eq, literal: Str("12 #4 Main") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE v = 'x;y' INTO a, b;", r#"[PartitionTable { input: "t", predicate: Compare { column: "v", op: Eq, literal: Str("x;y") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE v = 'a--b' INTO a, b -- tail", r#"[PartitionTable { input: "t", predicate: Compare { column: "v", op: Eq, literal: Str("a--b") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE k = '5' INTO a, b", r#"[PartitionTable { input: "t", predicate: Compare { column: "k", op: Eq, literal: Str("5") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE k = 5 INTO a, b", r#"[PartitionTable { input: "t", predicate: Compare { column: "k", op: Eq, literal: Int(5) }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE v = 'put into a where b' INTO a, b", r#"[PartitionTable { input: "t", predicate: Compare { column: "v", op: Eq, literal: Str("put into a where b") }, satisfying: "a", rest: "b" }]"#),
    row("ADD COLUMN c str DEFAULT 'up to you' TO t", r#"[AddColumn { table: "t", column: ColumnDef { name: "c", ty: Str }, default: Str("up to you") }]"#),
    row("# build and evolve the Figure 1 schema\nCREATE TABLE r (employee str, skill str, address str)\n-- nothing to load here; structure only\nCOPY TABLE r TO r2;\nDROP TABLE r2\n", r#"[CreateTable { name: "r", schema: Schema { columns: [ColumnDef { name: "employee", ty: Str }, ColumnDef { name: "skill", ty: Str }, ColumnDef { name: "address", ty: Str }], key: [] } }, CopyTable { from: "r", to: "r2" }, DropTable { name: "r2" }]"#),
    row("DROP TABLE a\n# comment\n\nFROBNICATE x", r#"refused: line 4: unrecognized statement "FROBNICATE x""#),
    // parser.rs: garbage and names that are not one word
    row("FROBNICATE TABLE x", "refused"),
    row("DECOMPOSE TABLE R INTO S", "refused"),
    row("CREATE TABLE t (id banana)", "refused"),
    row("PARTITION TABLE t WHERE INTO a, b", "refused"),
    row("DROP TABLE a b", r#"refused: "b""#),
    row("RENAME TABLE a TO b c", r#"refused: "c""#),
    row("COPY TABLE a TO b c", r#"refused: "c""#),
    row("DROP COLUMN c FROM t u", r#"refused: "u""#),
    row("DECOMPOSE TABLE r q INTO s (a, b), t (a, c)", r#"refused: "q""#),
    row("PARTITION TABLE r WHERE a < 1 INTO s, r extra", r#"refused: "extra""#),
    row("DROP TABLE 'a'", r#"refused: "'a'""#),
    row("MERGE TABLES s, t INTO r x", r#"refused: "x""#),
    row("DECOMPOSE TABLE r INTO s (a b, c), t (a, c)", r#"refused: "b""#),
    row("NONSENSE", r#"refused: unrecognized statement "NONSENSE""#),
    // text.rs: the old quote scanner's cases, as statements
    row("PARTITION TABLE t WHERE v = 'x -- y' INTO a, b -- c", r#"[PartitionTable { input: "t", predicate: Compare { column: "v", op: Eq, literal: Str("x -- y") }, satisfying: "a", rest: "b" }]"#),
    row("PARTITION TABLE t WHERE v = '#' INTO a, b", r##"[PartitionTable { input: "t", predicate: Compare { column: "v", op: Eq, literal: Str("#") }, satisfying: "a", rest: "b" }]"##),
    row("PARTITION TABLE t where k < 1 into a, b", r#"[PartitionTable { input: "t", predicate: Compare { column: "k", op: Lt, literal: Int(1) }, satisfying: "a", rest: "b" }]"#),
    row("DROP TABLE né;", r#"[DropTable { name: "né" }]"#),
    row("count né where k = né", r#"Count { table: "né", predicate: Compare { column: "k", op: Eq, literal: Str("né") } }"#),
    // text.rs: the six operators, with and without spaces
    row("count R where v=3", r#"Count { table: "R", predicate: Compare { column: "v", op: Eq, literal: Int(3) } }"#),
    row("count R where v!=3", r#"Count { table: "R", predicate: Compare { column: "v", op: Ne, literal: Int(3) } }"#),
    row("count R where v<3", r#"Count { table: "R", predicate: Compare { column: "v", op: Lt, literal: Int(3) } }"#),
    row("count R where v<=3", r#"Count { table: "R", predicate: Compare { column: "v", op: Le, literal: Int(3) } }"#),
    row("count R where v>3", r#"Count { table: "R", predicate: Compare { column: "v", op: Gt, literal: Int(3) } }"#),
    row("count R where v>=3", r#"Count { table: "R", predicate: Compare { column: "v", op: Ge, literal: Int(3) } }"#),
    row("count R where v = 3", r#"Count { table: "R", predicate: Compare { column: "v", op: Eq, literal: Int(3) } }"#),
    row("count R where v != 3", r#"Count { table: "R", predicate: Compare { column: "v", op: Ne, literal: Int(3) } }"#),
    row("count R where v < 3", r#"Count { table: "R", predicate: Compare { column: "v", op: Lt, literal: Int(3) } }"#),
    row("count R where v <= 3", r#"Count { table: "R", predicate: Compare { column: "v", op: Le, literal: Int(3) } }"#),
    row("count R where v > 3", r#"Count { table: "R", predicate: Compare { column: "v", op: Gt, literal: Int(3) } }"#),
    row("count R where v >= 3", r#"Count { table: "R", predicate: Compare { column: "v", op: Ge, literal: Int(3) } }"#),
    row("count R where nonsense", "refused"),
    row("count R where v ! 3", "refused"),
    row("count R where v = ", "refused"),
    row("count R where = 3", "refused"),
    row("count R where v == 3", "refused"),
    row("count R where v = 'open", "refused"),
    // text.rs: one literal inference rule
    row("count R where k = 5", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Int(5) } }"#),
    row("count R where k = -5", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Int(-5) } }"#),
    row("count R where k = 2.5", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Float(OrderedF64(2.5)) } }"#),
    row("count R where k = TRUE", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Bool(true) } }"#),
    row("count R where k = Jones", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Str("Jones") } }"#),
    row("count R where k = 'hello'", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Str("hello") } }"#),
    row("count R where k = '5'", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Str("5") } }"#),
    row("count R where k = 'true'", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Str("true") } }"#),
    row("count R where k = ''", r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Str("") } }"#),
    // text.rs: NOT binds tightest, then AND, then OR, nesting right
    row("count R where a = 1 or b = 2 AND c = 3", r#"Count { table: "R", predicate: Or(Compare { column: "a", op: Eq, literal: Int(1) }, And(Compare { column: "b", op: Eq, literal: Int(2) }, Compare { column: "c", op: Eq, literal: Int(3) })) }"#),
    row("count R where NOT a = 1 and b = 2", r#"Count { table: "R", predicate: And(Not(Compare { column: "a", op: Eq, literal: Int(1) }), Compare { column: "b", op: Eq, literal: Int(2) }) }"#),
    row("count R where a = 1 OR b = 2 OR c = 3", r#"Count { table: "R", predicate: Or(Compare { column: "a", op: Eq, literal: Int(1) }, Or(Compare { column: "b", op: Eq, literal: Int(2) }, Compare { column: "c", op: Eq, literal: Int(3) })) }"#),
    row("count R where not not a = 1", r#"Count { table: "R", predicate: Not(Not(Compare { column: "a", op: Eq, literal: Int(1) })) }"#),
    // text.rs: quoted text is opaque
    row("count R where note = 'this or that' and tag != 'a<=b'", r#"Count { table: "R", predicate: And(Compare { column: "note", op: Eq, literal: Str("this or that") }, Compare { column: "tag", op: Ne, literal: Str("a<=b") }) }"#),
    row("count R where addr = '12 #4 Main, not far'", r#"Count { table: "R", predicate: Compare { column: "addr", op: Eq, literal: Str("12 #4 Main, not far") } }"#),
    row("PARTITION TABLE t WHERE k < 10 AND v = 'into x' INTO lo, hi", r#"[PartitionTable { input: "t", predicate: And(Compare { column: "k", op: Lt, literal: Int(10) }, Compare { column: "v", op: Eq, literal: Str("into x") }), satisfying: "lo", rest: "hi" }]"#),
    // text.rs: the four read statements
    row("count R", r#"Count { table: "R", predicate: True }"#),
    row("SCAN R select skill, employee WHERE employee = Jones", r#"Scan { table: "R", predicate: Compare { column: "employee", op: Eq, literal: Str("Jones") }, projection: Some(["skill", "employee"]) }"#),
    row("agg R by employee,address count:skill,distinct:skill where k>=1", r#"GroupBy { table: "R", predicate: Compare { column: "k", op: Ge, literal: Int(1) }, group_by: ["employee", "address"], aggs: [(Count, "skill"), (CountDistinct, "skill")] }"#),
    row("agg R by - sum:pay, max:pay", r#"GroupBy { table: "R", predicate: True, group_by: [], aggs: [(Sum, "pay"), (Max, "pay")] }"#),
    row("join orders people on who=name, region = region", r#"Join { left: "orders", right: "people", left_keys: ["who", "region"], right_keys: ["name", "region"] }"#),
    // text.rs: malformed reads
    row("count", "refused"),
    row("count R where", "refused"),
    row("count R employee = Jones", "refused"),
    row("scan R select", "refused"),
    row("scan R select a,", "refused"),
    row("scan R where a = 1 trailing", "refused"),
    row("agg R employee count:skill", "refused"),
    row("agg R by employee", "refused"),
    row("agg R by employee bogus:skill", "refused"),
    row("agg R by employee skill", "refused"),
    row("join R R2 on", "refused"),
    row("join R R2 on employee", "refused"),
    row("join R R2 employee=employee", "refused"),
    row("join R R2 on a<b", "refused"),
    row("frobnicate R", "refused"),
    // the same word everywhere: `C#` and `x--y` are words, `-5` a literal
    row("count R where skill = C#", r#"Count { table: "R", predicate: Compare { column: "skill", op: Eq, literal: Str("C#") } }"#),
    row("count R where v = x--y", r#"Count { table: "R", predicate: Compare { column: "v", op: Eq, literal: Str("x--y") } }"#),
    row("DROP TABLE t #x", r#"[DropTable { name: "t" }]"#),
    row("ADD COLUMN c int DEFAULT -5 TO t", r#"[AddColumn { table: "t", column: ColumnDef { name: "c", ty: Int }, default: Int(-5) }]"#),
    // the changes
    changed(
        "count R where v = f(x)",
        r#"Count { table: "R", predicate: Compare { column: "v", op: Eq, literal: Str("f(x)") } }"#,
        "refused",
    ),
    changed(
        "count R where v = x)",
        r#"Count { table: "R", predicate: Compare { column: "v", op: Eq, literal: Str("x)") } }"#,
        "refused",
    ),
    changed(
        "PARTITION TABLE t WHERE v = f(x) INTO a, b",
        r#"[PartitionTable { input: "t", predicate: Compare { column: "v", op: Eq, literal: Str("f(x)") }, satisfying: "a", rest: "b" }]"#,
        "refused",
    ),
    changed(
        "count R where k = a;",
        r#"Count { table: "R", predicate: Compare { column: "k", op: Eq, literal: Str("a;") } }"#,
        "refused",
    ),
    changed(
        "count R;",
        r#"Count { table: "R;", predicate: True }"#,
        "refused",
    ),
    changed(
        "ADD COLUMN c str DEFAULT hello world TO t",
        r#"[AddColumn { table: "t", column: ColumnDef { name: "c", ty: Str }, default: Str("hello world") }]"#,
        "refused",
    ),
    changed(
        "PARTITION TABLE R WHERE skill = C# INTO a, b",
        "refused: PARTITION TABLE needs `INTO`",
        r#"[PartitionTable { input: "R", predicate: Compare { column: "skill", op: Eq, literal: Str("C#") }, satisfying: "a", rest: "b" }]"#,
    ),
    changed(
        "ADD COLUMN lang str DEFAULT C# TO R",
        "refused: ADD COLUMN needs `TO`",
        r#"[AddColumn { table: "R", column: ColumnDef { name: "lang", ty: Str }, default: Str("C#") }]"#,
    ),
    changed(
        "ADD COLUMN lang str DEFAULT C# TO R; RENAME COLUMN lang TO tongue IN R -- two statements, one line",
        "refused: ADD COLUMN needs `TO`",
        r#"[AddColumn { table: "R", column: ColumnDef { name: "lang", ty: Str }, default: Str("C#") }, RenameColumn { table: "R", from: "lang", to: "tongue" }]"#,
    ),
    changed(
        "ADD COLUMN c str DEFAULT to TO t",
        r#"refused: unknown type "str default""#,
        r#"[AddColumn { table: "t", column: ColumnDef { name: "c", ty: Str }, default: Str("to") }]"#,
    ),
    changed(
        "count R # note",
        r##"refused: unexpected "# note" at the end of the statement"##,
        r#"Count { table: "R", predicate: True }"#,
    ),
    changed(
        "count R where skill = C# -- a note",
        r#"refused: unexpected "-- a note" at the end of the statement"#,
        r#"Count { table: "R", predicate: Compare { column: "skill", op: Eq, literal: Str("C#") } }"#,
    ),
    changed(
        "DROP TABLE t#x",
        r#"[DropTable { name: "t" }]"#,
        r#"refused: "t#x""#,
    ),
    changed(
        "COPY TABLE a TO b--c",
        r#"[CopyTable { from: "a", to: "b" }]"#,
        r#"refused: "b--c""#,
    ),

];

/// What `text` parses to, as a shell would parse it.
fn outcome(text: &str) -> Result<String, String> {
    let verb = text.split_whitespace().next().unwrap_or("");
    match verb.to_ascii_lowercase().as_str() {
        "count" | "scan" | "agg" | "join" => parse_query(text).map(|q| format!("{q:?}")),
        _ => cods::parse_script(text)
            .map(|smos| format!("{smos:?}"))
            .map_err(|e| e.to_string()),
    }
}

/// Why `got` does not meet `want`, if it does not.
fn mismatch(got: Result<String, String>, want: &str) -> Option<String> {
    match (got, want.strip_prefix("refused")) {
        (Err(e), Some(fragment)) if e.contains(fragment.trim_start_matches(": ")) => None,
        (Ok(parsed), None) if parsed == want => None,
        (got, _) => Some(format!("got {got:?}, want {want}")),
    }
}

#[test]
fn every_row_parses_as_pinned() {
    let failures: Vec<String> = ROWS
        .iter()
        .filter_map(|row| {
            let was = row.was.map_or(String::new(), |w| format!(" (was {w})"));
            mismatch(outcome(row.text), row.want).map(|m| format!("{:?}{was}: {m}", row.text))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `PARTITION … WHERE skill = C#` plans with the predicate that
/// `count R where skill = C#` reads with.
#[test]
fn partition_plans_with_the_predicate_a_read_uses() {
    let cods = Cods::new();
    cods.catalog()
        .create(cods_workload::figure1::table_r())
        .unwrap();
    let plan = cods
        .plan_script("PARTITION TABLE R WHERE skill = C# INTO a, b")
        .unwrap();
    let Query::Count { predicate, .. } = parse_query("count R where skill = C#").unwrap() else {
        panic!("a count parses to a count");
    };
    let planned = format!("{:?}", plan.nodes());
    assert!(planned.contains(&format!("{predicate:?}")), "{planned}");
}
