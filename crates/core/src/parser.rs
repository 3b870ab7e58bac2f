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
//! Keywords are case-insensitive; identifiers are case-sensitive.

use crate::decompose::DecomposeSpec;
use crate::error::{EvolutionError, Result};
use crate::merge::MergeStrategy;
use crate::simple_ops::ColumnFill;
use crate::smo::Smo;
use cods_query::text::{find_unquoted, parse_predicate};
use cods_storage::{ColumnDef, Schema, Value, ValueType};

fn err(msg: impl Into<String>) -> EvolutionError {
    EvolutionError::InvalidOperator(msg.into())
}

/// Splits on commas that are not inside parentheses.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(s[start..].trim());
    parts
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

/// A table or column name: one word, without quotes, commas or
/// parentheses. Anything else is refused, quoting the text that does not
/// belong — a name no later statement could spell is never created.
fn ident(s: &str) -> Result<String> {
    let s = s.trim();
    match s.find(|c: char| c.is_whitespace() || "',()".contains(c)) {
        None if s.is_empty() => Err(err("missing name")),
        None => Ok(s.to_string()),
        Some(i) => Err(err(format!(
            "unexpected {:?} in name {s:?}",
            s[i..].trim_start()
        ))),
    }
}

/// Case-insensitive split on the first occurrence of ` <kw> ` as a word
/// outside single quotes.
fn split_keyword<'a>(s: &'a str, kw: &str) -> Option<(&'a str, &'a str)> {
    let pat = format!(" {kw} ");
    find_unquoted(s, &pat).map(|i| (s[..i].trim(), s[i + pat.len()..].trim()))
}

fn parse_name_cols(part: &str) -> Result<(String, Vec<String>)> {
    // `name (a, b, c)`
    let open = part
        .find('(')
        .ok_or_else(|| err(format!("expected `name (cols…)`, got {part:?}")))?;
    if !part.trim_end().ends_with(')') {
        return Err(err(format!("missing `)` in {part:?}")));
    }
    let name = ident(&part[..open])?;
    let inner = &part[open + 1..part.trim_end().len() - 1];
    let cols: Vec<String> = inner
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if cols.is_empty() {
        return Err(err(format!("no columns listed for {name:?}")));
    }
    Ok((name, cols))
}

/// Parses one SMO statement.
pub fn parse_smo(stmt: &str) -> Result<Smo> {
    let s = stmt.trim().trim_end_matches(';').trim();
    let lower = s.to_ascii_lowercase();

    if let Some(rest) = lower.strip_prefix("create table ") {
        let rest_orig = &s[s.len() - rest.len()..];
        let (name, cols) = parse_name_cols(rest_orig)?;
        let mut defs = Vec::new();
        let mut keys: Vec<String> = Vec::new();
        for c in cols {
            let (cname, ty) = c
                .split_once(' ')
                .ok_or_else(|| err(format!("column def {c:?} must be `name type`")))?;
            if cname.eq_ignore_ascii_case("key") {
                keys.extend(ty.split_whitespace().map(str::to_string));
                continue;
            }
            defs.push(ColumnDef::new(ident(cname)?, parse_type(ty.trim())?));
        }
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let col_specs: Vec<(&str, ValueType)> =
            defs.iter().map(|d| (d.name.as_str(), d.ty)).collect();
        let schema = Schema::build(&col_specs, &key_refs).map_err(EvolutionError::Storage)?;
        return Ok(Smo::CreateTable { name, schema });
    }
    if let Some(rest) = lower.strip_prefix("drop table ") {
        return Ok(Smo::DropTable {
            name: ident(&s[s.len() - rest.len()..])?,
        });
    }
    if lower.starts_with("rename table ") {
        let rest = s["rename table ".len()..].trim();
        let (from, to) = split_keyword(rest, "to").ok_or_else(|| err("RENAME TABLE needs `TO`"))?;
        return Ok(Smo::RenameTable {
            from: ident(from)?,
            to: ident(to)?,
        });
    }
    if lower.starts_with("copy table ") {
        let rest = s["copy table ".len()..].trim();
        let (from, to) = split_keyword(rest, "to").ok_or_else(|| err("COPY TABLE needs `TO`"))?;
        return Ok(Smo::CopyTable {
            from: ident(from)?,
            to: ident(to)?,
        });
    }
    if lower.starts_with("union tables ") {
        let rest = s["union tables ".len()..].trim();
        let (inputs, output) =
            split_keyword(rest, "into").ok_or_else(|| err("UNION TABLES needs `INTO`"))?;
        let parts = split_top_level_commas(inputs);
        let [left, right] = parts.as_slice() else {
            return Err(err("UNION TABLES needs exactly two inputs"));
        };
        return Ok(Smo::UnionTables {
            left: ident(left)?,
            right: ident(right)?,
            output: ident(output)?,
            drop_inputs: false,
        });
    }
    if lower.starts_with("partition table ") {
        let rest = s["partition table ".len()..].trim();
        let (input, where_into) =
            split_keyword(rest, "where").ok_or_else(|| err("PARTITION TABLE needs `WHERE`"))?;
        let (predicate, tail) = parse_predicate(where_into).map_err(err)?;
        let outputs = match tail.split_once(char::is_whitespace) {
            Some((kw, outputs)) if kw.eq_ignore_ascii_case("into") => outputs,
            _ => return Err(err("PARTITION TABLE needs `INTO`")),
        };
        let parts = split_top_level_commas(outputs);
        let [sat, rest_name] = parts.as_slice() else {
            return Err(err("PARTITION TABLE needs two outputs"));
        };
        return Ok(Smo::PartitionTable {
            input: ident(input)?,
            predicate,
            satisfying: ident(sat)?,
            rest: ident(rest_name)?,
        });
    }
    if lower.starts_with("decompose table ") {
        let rest = s["decompose table ".len()..].trim();
        let (input, outputs) =
            split_keyword(rest, "into").ok_or_else(|| err("DECOMPOSE TABLE needs `INTO`"))?;
        let parts = split_top_level_commas(outputs);
        let [first, second] = parts.as_slice() else {
            return Err(err("DECOMPOSE TABLE needs exactly two outputs"));
        };
        let (un_name, un_cols) = parse_name_cols(first)?;
        let (ch_name, ch_cols) = parse_name_cols(second)?;
        let idents = |cols: Vec<String>| cols.iter().map(|c| ident(c)).collect::<Result<_>>();
        return Ok(Smo::DecomposeTable {
            input: ident(input)?,
            spec: DecomposeSpec {
                unchanged_name: un_name,
                unchanged_cols: idents(un_cols)?,
                changed_name: ch_name,
                changed_cols: idents(ch_cols)?,
                verify_fd: true,
            },
        });
    }
    if lower.starts_with("merge tables ") {
        let rest = s["merge tables ".len()..].trim();
        let (inputs, output) =
            split_keyword(rest, "into").ok_or_else(|| err("MERGE TABLES needs `INTO`"))?;
        let parts = split_top_level_commas(inputs);
        let [left, right] = parts.as_slice() else {
            return Err(err("MERGE TABLES needs exactly two inputs"));
        };
        return Ok(Smo::MergeTables {
            left: ident(left)?,
            right: ident(right)?,
            output: ident(output)?,
            strategy: MergeStrategy::Auto,
        });
    }
    if lower.starts_with("add column ") {
        let rest = s["add column ".len()..].trim();
        let (def_part, table) =
            split_keyword(rest, "to").ok_or_else(|| err("ADD COLUMN needs `TO`"))?;
        let (col_part, default) = match split_keyword(def_part, "default") {
            Some((c, d)) => (c, Some(d)),
            None => (def_part, None),
        };
        let (cname, ty) = col_part
            .split_once(' ')
            .ok_or_else(|| err("ADD COLUMN needs `name type`"))?;
        let ty = parse_type(ty.trim())?;
        let fill = match default {
            Some(d) => ColumnFill::Default(Value::parse(d.trim_matches('\''), ty).map_err(err)?),
            None => ColumnFill::Default(Value::Null),
        };
        return Ok(Smo::AddColumn {
            table: ident(table)?,
            column: ColumnDef::new(ident(cname)?, ty),
            fill,
        });
    }
    if lower.starts_with("drop column ") {
        let rest = s["drop column ".len()..].trim();
        let (column, table) =
            split_keyword(rest, "from").ok_or_else(|| err("DROP COLUMN needs `FROM`"))?;
        return Ok(Smo::DropColumn {
            table: ident(table)?,
            column: ident(column)?,
        });
    }
    if lower.starts_with("rename column ") {
        let rest = s["rename column ".len()..].trim();
        let (from, to_in) =
            split_keyword(rest, "to").ok_or_else(|| err("RENAME COLUMN needs `TO`"))?;
        let (to, table) =
            split_keyword(to_in, "in").ok_or_else(|| err("RENAME COLUMN needs `IN`"))?;
        return Ok(Smo::RenameColumn {
            table: ident(table)?,
            from: ident(from)?,
            to: ident(to)?,
        });
    }
    Err(err(format!("unrecognized statement {s:?}")))
}

/// Parses a script: one statement per line (or `;`-separated); `#` and `--`
/// start comments, except inside single quotes. Errors carry the 1-based
/// source line, so a planner rejecting statement 40 of a script points at
/// the offending line.
pub fn parse_script(text: &str) -> Result<Vec<Smo>> {
    let mut smos = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let comment = [find_unquoted(raw, "#"), find_unquoted(raw, "--")];
        let mut line = &raw[..comment.into_iter().flatten().min().unwrap_or(raw.len())];
        while !line.trim().is_empty() {
            let end = find_unquoted(line, ";").unwrap_or(line.len());
            if !line[..end].trim().is_empty() {
                smos.push(parse_smo(&line[..end]).map_err(|e| match e {
                    EvolutionError::InvalidOperator(m) => err(format!("line {}: {m}", lineno + 1)),
                    other => other,
                })?);
            }
            line = line.get(end + 1..).unwrap_or("");
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
                fill,
            } => {
                assert_eq!(table, "emp");
                assert_eq!(column.name, "dept");
                assert!(matches!(fill, ColumnFill::Default(Value::Str(_))));
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
            Smo::AddColumn { table, fill, .. } => {
                assert_eq!(table, "t");
                assert!(matches!(fill, ColumnFill::Default(v) if v == Value::str("up to you")));
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
        cods.execute_all(smos).unwrap();
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
