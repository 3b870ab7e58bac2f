//! A textual statement language for SMOs, in the style the demo UI uses to
//! specify operators. The grammar matches what [`Smo`]'s `Display`
//! implementation renders for the data-moving operators, so statements can
//! be logged, stored, and replayed:
//!
//! ```text
//! CREATE TABLE t (id int, name str, KEY id)
//! DROP TABLE t
//! RENAME TABLE old TO new
//! COPY TABLE src TO dst
//! UNION TABLES a, b INTO out
//! PARTITION TABLE t WHERE col < 10 INTO sat, rest
//! DECOMPOSE TABLE r INTO s (a, b), t (a, c)
//! MERGE TABLES s, t INTO r
//! ADD COLUMN c int DEFAULT 0 TO t
//! DROP COLUMN c FROM t
//! RENAME COLUMN a TO b IN t
//! ```
//!
//! Statements lex through the read grammar's token cursor
//! ([`cods_query::text::Cursor`]) under its one lexical rule: keywords are
//! case-insensitive, names are not, and `#` or `--` where a token would
//! start begins a comment. A name is one word holding neither comment
//! marker. A `DEFAULT` is one word or one quoted string, typed by the
//! column's type.

use crate::decompose::DecomposeSpec;
use crate::error::{EvolutionError, Result};
use crate::merge::MergeStrategy;
use crate::smo::Smo;
use cods_query::text::{statements, Cursor, Tok};
use cods_storage::{ColumnDef, Schema, Value, ValueType};

fn err(msg: impl Into<String>) -> EvolutionError {
    EvolutionError::InvalidOperator(msg.into())
}

/// Parses a column type name, case-insensitively: `int`/`integer`,
/// `str`/`string`/`text`/`varchar`, `float`/`double`/`real`,
/// `bool`/`boolean`.
pub fn parse_type(s: &str) -> Result<ValueType> {
    match s.to_ascii_lowercase().as_str() {
        "int" | "integer" => Ok(ValueType::Int),
        "str" | "string" | "text" | "varchar" => Ok(ValueType::Str),
        "float" | "double" | "real" => Ok(ValueType::Float),
        "bool" | "boolean" => Ok(ValueType::Bool),
        other => Err(err(format!("unknown type {other:?}"))),
    }
}

/// A table or column name: one word without a comment marker in it, so a
/// name no later statement could spell is never created.
fn name(cur: &mut Cursor<'_>, what: &str) -> Result<String> {
    let w = cur.word(what)?;
    if w.contains('#') || w.contains("--") {
        return Err(err(format!(
            "{w:?} is not a name: `#` and `--` start comments"
        )));
    }
    Ok(w.to_string())
}

/// `name (col, …)`
fn name_cols(cur: &mut Cursor<'_>) -> Result<(String, Vec<String>)> {
    let table = name(cur, "a table name")?;
    cur.expect("(")?;
    let cols = cur.list(|c| name(c, "a column name"))?;
    cur.expect(")")?;
    Ok((table, cols))
}

/// Parses one SMO statement; a `;` may end it.
pub fn parse_smo(text: &str) -> Result<Smo> {
    match statements(text)?[..] {
        [stmt] => statement(stmt),
        ref all => Err(err(format!("expected one statement, got {}", all.len()))),
    }
}

/// Parses the source of one statement, as [`statements`] cut it out.
fn statement(text: &str) -> Result<Smo> {
    let mut cur = Cursor::new(text);
    let verb = match [cur.token()?, cur.token()?] {
        [Some(Tok::Word(a)), Some(Tok::Word(b))] => format!("{a} {b}").to_ascii_lowercase(),
        _ => String::new(),
    };
    let smo = match verb.as_str() {
        "create table" => {
            let table = name(&mut cur, "a table name")?;
            let (mut cols, mut keys) = (Vec::new(), Vec::new());
            cur.expect("(")?;
            cur.list(|c| {
                let col = name(c, "a column name or KEY")?;
                if col.eq_ignore_ascii_case("key") {
                    keys.push(name(c, "a key column")?);
                    while let Some(Tok::Word(_)) = c.peek()? {
                        keys.push(name(c, "a key column")?);
                    }
                } else {
                    cols.push((col, parse_type(c.word("a column type")?)?));
                }
                Ok::<_, EvolutionError>(())
            })?;
            cur.expect(")")?;
            let cols: Vec<(&str, ValueType)> = cols.iter().map(|(c, t)| (c.as_str(), *t)).collect();
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            Smo::CreateTable {
                name: table,
                schema: Schema::build(&cols, &keys)?,
            }
        }
        "drop table" => Smo::DropTable {
            name: name(&mut cur, "a table name")?,
        },
        "rename table" | "copy table" => {
            let from = name(&mut cur, "a table name")?;
            cur.expect("to")?;
            let to = name(&mut cur, "a table name")?;
            match verb.as_str() {
                "rename table" => Smo::RenameTable { from, to },
                _ => Smo::CopyTable { from, to },
            }
        }
        "union tables" | "merge tables" => {
            let left = name(&mut cur, "a table name")?;
            cur.expect(",")?;
            let right = name(&mut cur, "a table name")?;
            cur.expect("into")?;
            let output = name(&mut cur, "a table name")?;
            match verb.as_str() {
                "union tables" => Smo::UnionTables {
                    left,
                    right,
                    output,
                    drop_inputs: false,
                },
                _ => Smo::MergeTables {
                    left,
                    right,
                    output,
                    strategy: MergeStrategy::Auto,
                },
            }
        }
        "partition table" => {
            let input = name(&mut cur, "a table name")?;
            cur.expect("where")?;
            let predicate = cur.predicate()?;
            cur.expect("into")?;
            let satisfying = name(&mut cur, "a table name")?;
            cur.expect(",")?;
            Smo::PartitionTable {
                input,
                predicate,
                satisfying,
                rest: name(&mut cur, "a table name")?,
            }
        }
        "decompose table" => {
            let input = name(&mut cur, "a table name")?;
            cur.expect("into")?;
            let (unchanged_name, unchanged_cols) = name_cols(&mut cur)?;
            cur.expect(",")?;
            let (changed_name, changed_cols) = name_cols(&mut cur)?;
            Smo::DecomposeTable {
                input,
                spec: DecomposeSpec {
                    unchanged_name,
                    unchanged_cols,
                    changed_name,
                    changed_cols,
                    verify_fd: true,
                },
            }
        }
        "add column" => {
            let column = name(&mut cur, "a column name")?;
            let ty = parse_type(cur.word("a column type")?)?;
            let default = match cur.eat("default")? {
                false => Value::Null,
                true => match cur.token()? {
                    Some(Tok::Word(v) | Tok::Quoted(v)) => Value::parse(v, ty).map_err(err)?,
                    _ => return Err(err("expected a value after DEFAULT")),
                },
            };
            cur.expect("to")?;
            Smo::AddColumn {
                table: name(&mut cur, "a table name")?,
                column: ColumnDef::new(column, ty),
                default,
            }
        }
        "drop column" => {
            let column = name(&mut cur, "a column name")?;
            cur.expect("from")?;
            Smo::DropColumn {
                table: name(&mut cur, "a table name")?,
                column,
            }
        }
        "rename column" => {
            let from = name(&mut cur, "a column name")?;
            cur.expect("to")?;
            let to = name(&mut cur, "a column name")?;
            cur.expect("in")?;
            Smo::RenameColumn {
                table: name(&mut cur, "a table name")?,
                from,
                to,
            }
        }
        _ => return Err(err(format!("unrecognized statement {text:?}"))),
    };
    cur.end()?;
    Ok(smo)
}

/// Parses a script: one statement per line, or several split by `;`;
/// `#` and `--` start comments. Errors carry the 1-based source line, so a
/// planner rejecting statement 40 of a script points at the offending
/// line.
pub fn parse_script(text: &str) -> Result<Vec<Smo>> {
    let mut smos = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at_line = |e| match e {
            EvolutionError::InvalidOperator(m) => err(format!("line {}: {m}", lineno + 1)),
            other => other,
        };
        for stmt in statements(line).map_err(|m| at_line(err(m)))? {
            smos.push(statement(stmt).map_err(at_line)?);
        }
    }
    Ok(smos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_query::Predicate;

    #[test]
    fn parses_create_with_key() {
        let smo = parse_smo("CREATE TABLE emp (id int, name str, KEY id)").unwrap();
        match smo {
            Smo::CreateTable { name, schema } => {
                assert_eq!(name, "emp");
                assert_eq!(schema.arity(), 2);
                assert_eq!(schema.key_names(), vec!["id"]);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parses_decompose_display_round_trip() {
        let smo =
            parse_smo("DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)").unwrap();
        // The Display form of the parsed SMO re-parses to the same operator.
        let rendered = smo.to_string();
        let reparsed = parse_smo(&rendered).unwrap();
        assert_eq!(reparsed.to_string(), rendered);
        match smo {
            Smo::DecomposeTable { input, spec } => {
                assert_eq!(input, "R");
                assert_eq!(spec.unchanged_cols, vec!["employee", "skill"]);
                assert_eq!(spec.changed_name, "T");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parses_merge_union_partition() {
        assert!(matches!(
            parse_smo("MERGE TABLES s, t INTO r").unwrap(),
            Smo::MergeTables { .. }
        ));
        assert!(matches!(
            parse_smo("UNION TABLES a, b INTO ab").unwrap(),
            Smo::UnionTables { .. }
        ));
        let smo = parse_smo("PARTITION TABLE t WHERE k < 10 AND v = 'x' INTO lo, hi").unwrap();
        match smo {
            Smo::PartitionTable { predicate, .. } => {
                assert!(matches!(predicate, Predicate::And(_, _)));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parses_column_smos() {
        let smo = parse_smo("ADD COLUMN dept str DEFAULT eng TO emp").unwrap();
        match smo {
            Smo::AddColumn {
                table,
                column,
                default,
            } => {
                assert_eq!(table, "emp");
                assert_eq!(column.name, "dept");
                assert!(matches!(default, Value::Str(_)));
            }
            other => panic!("{other}"),
        }
        assert!(matches!(
            parse_smo("DROP COLUMN dept FROM emp").unwrap(),
            Smo::DropColumn { .. }
        ));
        assert!(matches!(
            parse_smo("RENAME COLUMN a TO b IN emp").unwrap(),
            Smo::RenameColumn { .. }
        ));
    }

    #[test]
    fn parses_table_plumbing() {
        assert!(matches!(
            parse_smo("DROP TABLE t").unwrap(),
            Smo::DropTable { .. }
        ));
        assert!(matches!(
            parse_smo("rename table a to b").unwrap(),
            Smo::RenameTable { .. }
        ));
        assert!(matches!(
            parse_smo("COPY TABLE a TO b").unwrap(),
            Smo::CopyTable { .. }
        ));
    }

    /// The literal of `PARTITION TABLE t WHERE <c> INTO a, b`, which must be
    /// the script's only statement.
    fn partition_literal(script: &str) -> Value {
        match parse_script(script).unwrap().as_slice() {
            [Smo::PartitionTable {
                predicate: Predicate::Compare { literal, .. },
                satisfying,
                rest,
                ..
            }] if satisfying == "a" && rest == "b" => literal.clone(),
            other => panic!("{script:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn quoted_or_is_not_a_disjunction() {
        let v = partition_literal("PARTITION TABLE t WHERE note = 'this or that' INTO a, b");
        assert_eq!(v, Value::str("this or that"));
    }

    #[test]
    fn quoted_operator_is_not_a_comparison() {
        let v = partition_literal("PARTITION TABLE t WHERE tag = 'a<=b' INTO a, b");
        assert_eq!(v, Value::str("a<=b"));
    }

    #[test]
    fn quoted_hash_is_not_a_comment() {
        let v = partition_literal("PARTITION TABLE t WHERE addr = '12 #4 Main' INTO a, b # tail");
        assert_eq!(v, Value::str("12 #4 Main"));
    }

    #[test]
    fn quoted_semicolon_is_not_a_statement_break() {
        let v = partition_literal("PARTITION TABLE t WHERE v = 'x;y' INTO a, b;");
        assert_eq!(v, Value::str("x;y"));
    }

    #[test]
    fn quoted_dashes_are_not_a_comment() {
        let v = partition_literal("PARTITION TABLE t WHERE v = 'a--b' INTO a, b -- tail");
        assert_eq!(v, Value::str("a--b"));
    }

    #[test]
    fn quoted_digits_are_a_string() {
        let v = partition_literal("PARTITION TABLE t WHERE k = '5' INTO a, b");
        assert_eq!(v, Value::str("5"));
        let v = partition_literal("PARTITION TABLE t WHERE k = 5 INTO a, b");
        assert_eq!(v, Value::int(5));
    }

    #[test]
    fn quoted_keywords_do_not_split_a_statement() {
        let v = partition_literal("PARTITION TABLE t WHERE v = 'put into a where b' INTO a, b");
        assert_eq!(v, Value::str("put into a where b"));
        match parse_smo("ADD COLUMN c str DEFAULT 'up to you' TO t").unwrap() {
            Smo::AddColumn { table, default, .. } => {
                assert_eq!(table, "t");
                assert_eq!(default, Value::str("up to you"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn script_with_comments_executes() {
        use crate::platform::Cods;
        let script = "\
# build and evolve the Figure 1 schema
CREATE TABLE r (employee str, skill str, address str)
-- nothing to load here; structure only
COPY TABLE r TO r2;
DROP TABLE r2
";
        let smos = parse_script(script).unwrap();
        assert_eq!(smos.len(), 3);
        let cods = Cods::new();
        cods.plan(smos).unwrap().execute().unwrap();
        assert_eq!(cods.catalog().table_names(), vec!["r"]);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_smo("FROBNICATE TABLE x").is_err());
        assert!(parse_smo("DECOMPOSE TABLE R INTO S").is_err());
        assert!(parse_smo("CREATE TABLE t (id banana)").is_err());
        assert!(parse_smo("PARTITION TABLE t WHERE INTO a, b").is_err());
    }

    /// Each input must be refused, its error quoting `extra`.
    fn refused(stmt: &str, extra: &str) {
        let e = parse_smo(stmt).unwrap_err().to_string();
        assert!(e.contains(&format!("{extra:?}")), "{stmt}: {e}");
    }

    #[test]
    fn a_name_is_one_word() {
        refused("DROP TABLE a b", "b");
        refused("RENAME TABLE a TO b c", "c");
        refused("COPY TABLE a TO b c", "c");
        refused("DROP COLUMN c FROM t u", "u");
        refused("DECOMPOSE TABLE r q INTO s (a, b), t (a, c)", "q");
        refused("PARTITION TABLE r WHERE a < 1 INTO s, r extra", "extra");
        refused("DROP TABLE 'a'", "'a'");
        refused("MERGE TABLES s, t INTO r x", "x");
        refused("DECOMPOSE TABLE r INTO s (a b, c), t (a, c)", "b");
        let e = parse_smo("NONSENSE").unwrap_err().to_string();
        assert!(e.contains("unrecognized statement \"NONSENSE\""), "{e}");
    }

    #[test]
    fn key_is_case_insensitive() {
        for stmt in [
            "CREATE TABLE t (id int, Key id)",
            "CREATE TABLE t (id int, key id)",
        ] {
            match parse_smo(stmt).unwrap() {
                Smo::CreateTable { schema, .. } => assert_eq!(schema.key_names(), vec!["id"]),
                other => panic!("{other}"),
            }
        }
    }

    #[test]
    fn script_errors_carry_line_numbers() {
        let err = parse_script("DROP TABLE a\n# comment\n\nFROBNICATE x").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }
}
