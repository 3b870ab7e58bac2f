//! The text grammar of reads and predicates — the one place statement
//! text becomes a [`Predicate`] or a [`Query`]. Both shells parse the four
//! read statements here, and `cods::parser` parses `PARTITION … WHERE`
//! through [`parse_predicate`]:
//!
//! ```text
//! count <table> [where <predicate>]
//! scan  <table> [select <c1,c2,…>] [where <predicate>]
//! agg   <table> by <c1,c2,…|-> <op:col,…> [where <predicate>]
//! join  <left> <right> on <lcol=rcol,…>
//!
//! predicate := <col> <op> <literal> | NOT p | p AND p | p OR p
//! op        := = != < <= > >=        (NOT binds tightest, then AND, then OR)
//! literal   := 'quoted' = string; unquoted: int → float → bool → string
//! agg op    := count | distinct | sum | min | max
//! ```
//!
//! Keywords are case-insensitive, names are not. Text between single
//! quotes is opaque to every rule here, comment and statement splitting
//! included ([`find_unquoted`]).

use crate::agg::AggOp;
use crate::pred::{CmpOp, Predicate};
use crate::query::Query;
use cods_storage::Value;

/// Byte offset of the first occurrence of `pat` (ASCII, matched
/// case-insensitively) in `s` that lies outside single quotes.
pub fn find_unquoted(s: &str, pat: &str) -> Option<usize> {
    let (bytes, pat) = (s.as_bytes(), pat.as_bytes());
    let mut quoted = false;
    for (i, &b) in bytes.iter().enumerate() {
        let here = || bytes[i..].get(..pat.len());
        if b == b'\'' {
            quoted = !quoted;
        } else if !quoted && here().is_some_and(|w| w.eq_ignore_ascii_case(pat)) {
            return Some(i);
        }
    }
    None
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Word(&'a str),
    Quoted(&'a str),
    Cmp(CmpOp),
    Comma,
}

/// The unparsed rest of a statement.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    /// The next token and the input after it; `None` at the end.
    fn split(&self) -> Result<Option<(Tok<'a>, &'a str)>, String> {
        use CmpOp::*;
        let ops = [
            ("!=", Ne),
            ("<=", Le),
            (">=", Ge),
            ("=", Eq),
            ("<", Lt),
            (">", Gt),
        ];
        let s = self.0.trim_start();
        let (tok, len) = if s.is_empty() {
            return Ok(None);
        } else if let Some(body) = s.strip_prefix('\'') {
            let end = body
                .find('\'')
                .ok_or_else(|| format!("unterminated quote in {s:?}"))?;
            (Tok::Quoted(&body[..end]), end + 2)
        } else if s.starts_with(',') {
            (Tok::Comma, 1)
        } else if let Some((sym, op)) = ops.iter().find(|(sym, _)| s.starts_with(sym)) {
            (Tok::Cmp(*op), sym.len())
        } else {
            let end = s.find(|c: char| c.is_whitespace() || "',=<>!".contains(c));
            match end.unwrap_or(s.len()) {
                0 => return Err(format!("expected `!=` at {s:?}")),
                end => (Tok::Word(&s[..end]), end),
            }
        };
        Ok(Some((tok, &s[len..])))
    }

    fn next(&mut self) -> Result<Option<Tok<'a>>, String> {
        Ok(self.split()?.map(|(tok, rest)| {
            self.0 = rest;
            tok
        }))
    }

    /// Consumes the next token when it is the keyword `kw`.
    fn keyword(&mut self, kw: &str) -> Result<bool, String> {
        match self.split()? {
            Some((Tok::Word(w), rest)) if w.eq_ignore_ascii_case(kw) => {
                self.0 = rest;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn word(&mut self, what: &str) -> Result<&'a str, String> {
        match self.next()? {
            Some(Tok::Word(w)) => Ok(w),
            Some(other) => Err(format!("expected {what}, got {other:?}")),
            None => Err(format!("expected {what}, got end of statement")),
        }
    }

    /// `item (, item)*`
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = vec![item(self)?];
        while matches!(self.split()?, Some((Tok::Comma, _))) {
            self.next()?;
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn names(&mut self, what: &str) -> Result<Vec<String>, String> {
        self.list(|c| c.word(what).map(str::to_string))
    }

    // Both chains nest to the right: `a OR b OR c` is `a OR (b OR c)`.
    fn or_expr(&mut self) -> Result<Predicate, String> {
        let left = self.and_expr()?;
        Ok(match self.keyword("or")? {
            true => left.or(self.or_expr()?),
            false => left,
        })
    }

    fn and_expr(&mut self) -> Result<Predicate, String> {
        let left = self.not_expr()?;
        Ok(match self.keyword("and")? {
            true => left.and(self.and_expr()?),
            false => left,
        })
    }

    fn not_expr(&mut self) -> Result<Predicate, String> {
        if self.keyword("not")? {
            return Ok(self.not_expr()?.not());
        }
        let column = self.word("a column name")?.to_string();
        let Some(Tok::Cmp(op)) = self.next()? else {
            return Err(format!(
                "expected one of = != < <= > >= after column {column:?}"
            ));
        };
        let literal = match self.next()? {
            Some(Tok::Quoted(s)) => Value::str(s),
            Some(Tok::Word(w)) => {
                if let Ok(i) = w.parse::<i64>() {
                    Value::int(i)
                } else if let Ok(f) = w.parse::<f64>() {
                    Value::float(f)
                } else if w.eq_ignore_ascii_case("true") || w.eq_ignore_ascii_case("false") {
                    Value::Bool(w.eq_ignore_ascii_case("true"))
                } else {
                    Value::str(w)
                }
            }
            _ => return Err(format!("expected a literal after {column} {op:?}")),
        };
        Ok(Predicate::Compare {
            column,
            op,
            literal,
        })
    }

    /// `[where <predicate>]`
    fn where_clause(&mut self) -> Result<Predicate, String> {
        match self.keyword("where")? {
            true => self.or_expr(),
            false => Ok(Predicate::True),
        }
    }
}

/// Parses the predicate at the start of `text` and returns it with the
/// unparsed rest (for `PARTITION … WHERE <predicate> INTO …`). The only
/// function in the workspace that turns predicate text into a
/// [`Predicate`].
pub fn parse_predicate(text: &str) -> Result<(Predicate, &str), String> {
    let mut cur = Cursor(text);
    let predicate = cur.or_expr()?;
    Ok((predicate, cur.0.trim_start()))
}

/// `op:col` → aggregate spec.
fn agg_spec(cur: &mut Cursor<'_>) -> Result<(AggOp, String), String> {
    let spec = cur.word("an aggregate op:col")?;
    let (op, col) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad aggregate {spec:?}, want op:col"))?;
    let op = match op.to_ascii_lowercase().as_str() {
        "count" => AggOp::Count,
        "distinct" => AggOp::CountDistinct,
        "sum" => AggOp::Sum,
        "min" => AggOp::Min,
        "max" => AggOp::Max,
        other => return Err(format!("unknown aggregate op {other:?}")),
    };
    Ok((op, col.to_string()))
}

/// Parses one read statement (`count`, `scan`, `agg` or `join`; see the
/// module docs for the syntax).
pub fn parse_query(text: &str) -> Result<Query, String> {
    let mut cur = Cursor(text);
    let verb = cur.word("count, scan, agg or join")?;
    let table = cur.word("a table name")?.to_string();
    let query = match verb.to_ascii_lowercase().as_str() {
        "count" => Query::Count {
            table,
            predicate: cur.where_clause()?,
        },
        "scan" => {
            let projection = match cur.keyword("select")? {
                true => Some(cur.names("a column name")?),
                false => None,
            };
            Query::Scan {
                table,
                predicate: cur.where_clause()?,
                projection,
            }
        }
        "agg" => {
            if !cur.keyword("by")? {
                return Err("usage: agg <table> by <c1,c2|-> <op:col,…> [where …]".into());
            }
            let group_by = match cur.keyword("-")? {
                true => Vec::new(),
                false => cur.names("a grouping column or -")?,
            };
            Query::GroupBy {
                table,
                group_by,
                aggs: cur.list(agg_spec)?,
                predicate: cur.where_clause()?,
            }
        }
        "join" => {
            let right = cur.word("the right table name")?.to_string();
            if !cur.keyword("on")? {
                return Err("usage: join <left> <right> on <lcol=rcol,…>".into());
            }
            let pairs = cur.list(|c| {
                let left = c.word("a key pair lcol=rcol")?.to_string();
                match (c.next()?, c.next()?) {
                    (Some(Tok::Cmp(CmpOp::Eq)), Some(Tok::Word(right))) => {
                        Ok((left, right.to_string()))
                    }
                    _ => Err(format!("bad key pair at {left:?}, want lcol=rcol")),
                }
            })?;
            let (left_keys, right_keys) = pairs.into_iter().unzip();
            Query::Join {
                left: table,
                right,
                left_keys,
                right_keys,
            }
        }
        other => return Err(format!("{other:?} is not count, scan, agg or join")),
    };
    match cur.0.trim() {
        "" => Ok(query),
        rest => Err(format!("unexpected {rest:?} at the end of the statement")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(text: &str) -> Predicate {
        let (p, rest) = parse_predicate(text).unwrap();
        assert_eq!(rest, "", "{text}");
        p
    }

    fn cmp(column: &str, op: CmpOp, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }

    #[test]
    fn six_operators_with_or_without_spaces() {
        for (sym, op) in [
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            assert_eq!(pred(&format!("v{sym}3")), cmp("v", op, 3i64));
            assert_eq!(pred(&format!("v {sym} 3")), cmp("v", op, 3i64));
        }
        for bad in ["nonsense", "v ! 3", "v = ", "= 3", "v == 3", "v = 'open"] {
            assert!(parse_predicate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn one_literal_inference_rule() {
        assert_eq!(pred("k = 5"), cmp("k", CmpOp::Eq, 5i64));
        assert_eq!(pred("k = -5"), cmp("k", CmpOp::Eq, -5i64));
        assert_eq!(pred("k = 2.5"), cmp("k", CmpOp::Eq, 2.5f64));
        assert_eq!(pred("k = TRUE"), cmp("k", CmpOp::Eq, Value::Bool(true)));
        assert_eq!(pred("k = Jones"), cmp("k", CmpOp::Eq, "Jones"));
        assert_eq!(pred("k = 'hello'"), cmp("k", CmpOp::Eq, "hello"));
        // Quoted is always a string, whatever it looks like.
        assert_eq!(pred("k = '5'"), cmp("k", CmpOp::Eq, "5"));
        assert_eq!(pred("k = 'true'"), cmp("k", CmpOp::Eq, "true"));
        assert_eq!(pred("k = ''"), cmp("k", CmpOp::Eq, ""));
    }

    #[test]
    fn not_binds_tightest_then_and_then_or_nesting_right() {
        let (a, b, c) = (
            cmp("a", CmpOp::Eq, 1i64),
            cmp("b", CmpOp::Eq, 2i64),
            cmp("c", CmpOp::Eq, 3i64),
        );
        assert_eq!(
            pred("a = 1 or b = 2 AND c = 3"),
            a.clone().or(b.clone().and(c.clone()))
        );
        assert_eq!(pred("NOT a = 1 and b = 2"), a.clone().not().and(b.clone()));
        assert_eq!(
            pred("a = 1 OR b = 2 OR c = 3"),
            a.clone().or(b.clone().or(c.clone()))
        );
        assert_eq!(pred("not not a = 1"), a.not().not());
    }

    #[test]
    fn quoted_text_is_opaque_to_keywords_and_operators() {
        assert_eq!(
            pred("note = 'this or that' and tag != 'a<=b'"),
            cmp("note", CmpOp::Eq, "this or that").and(cmp("tag", CmpOp::Ne, "a<=b"))
        );
        assert_eq!(
            pred("addr = '12 #4 Main, not far'"),
            cmp("addr", CmpOp::Eq, "12 #4 Main, not far")
        );
    }

    #[test]
    fn predicate_stops_at_the_first_token_it_cannot_use() {
        let (p, rest) = parse_predicate("k < 10 AND v = 'into x' INTO lo, hi").unwrap();
        assert_eq!(
            p,
            cmp("k", CmpOp::Lt, 10i64).and(cmp("v", CmpOp::Eq, "into x"))
        );
        assert_eq!(rest, "INTO lo, hi");
    }

    #[test]
    fn find_unquoted_skips_quoted_text_and_ignores_case() {
        assert_eq!(find_unquoted("a 'x -- y' -- c", "--"), Some(11));
        assert_eq!(find_unquoted("'#'", "#"), None);
        assert_eq!(find_unquoted("t WHERE k", " where "), Some(1));
        assert_eq!(find_unquoted("né;", ";"), Some(3));
    }

    #[test]
    fn the_four_read_statements_parse() {
        assert_eq!(
            parse_query("count R").unwrap(),
            Query::Count {
                table: "R".into(),
                predicate: Predicate::True
            }
        );
        assert_eq!(
            parse_query("SCAN R select skill, employee WHERE employee = Jones").unwrap(),
            Query::Scan {
                table: "R".into(),
                predicate: cmp("employee", CmpOp::Eq, "Jones"),
                projection: Some(vec!["skill".into(), "employee".into()]),
            }
        );
        assert_eq!(
            parse_query("agg R by employee,address count:skill,distinct:skill where k>=1").unwrap(),
            Query::GroupBy {
                table: "R".into(),
                predicate: cmp("k", CmpOp::Ge, 1i64),
                group_by: vec!["employee".into(), "address".into()],
                aggs: vec![
                    (AggOp::Count, "skill".into()),
                    (AggOp::CountDistinct, "skill".into())
                ],
            }
        );
        assert_eq!(
            parse_query("agg R by - sum:pay, max:pay").unwrap(),
            Query::GroupBy {
                table: "R".into(),
                predicate: Predicate::True,
                group_by: vec![],
                aggs: vec![(AggOp::Sum, "pay".into()), (AggOp::Max, "pay".into())],
            }
        );
        assert_eq!(
            parse_query("join orders people on who=name, region = region").unwrap(),
            Query::Join {
                left: "orders".into(),
                right: "people".into(),
                left_keys: vec!["who".into(), "region".into()],
                right_keys: vec!["name".into(), "region".into()],
            }
        );
    }

    #[test]
    fn malformed_read_statements_are_rejected() {
        for bad in [
            "count",
            "count R where",
            "count R employee = Jones",
            "scan R select",
            "scan R select a,",
            "scan R where a = 1 trailing",
            "agg R employee count:skill",
            "agg R by employee",
            "agg R by employee bogus:skill",
            "agg R by employee skill",
            "join R R2 on",
            "join R R2 on employee",
            "join R R2 employee=employee",
            "join R R2 on a<b",
            "frobnicate R",
        ] {
            assert!(parse_query(bad).is_err(), "{bad}");
        }
    }
}
