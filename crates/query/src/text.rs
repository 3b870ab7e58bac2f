//! The text grammar of reads and predicates, and the workspace's one
//! tokenizer. Both shells parse the four read statements here, and
//! `cods::parser` parses the SMO statements and scripts on the same
//! [`Cursor`], `PARTITION … WHERE` through [`Cursor::predicate`]:
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
//! One lexical rule serves every statement. A token is a word, a
//! `'quoted'` string, one of `= != < <= > >=`, or one of `, ( ) ;`. A word
//! runs up to whitespace, a quote or one of those symbols. Keywords are
//! case-insensitive, names are not. `#` or `--` where a token would start
//! begins a comment that runs to the end of the line; inside a word both
//! are ordinary characters, so `C#`, `x--y` and `-5` are words. An unquoted
//! literal is one word. A read takes no `;`.

use crate::agg::AggOp;
use crate::pred::{CmpOp, Predicate};
use crate::query::Query;
use cods_storage::Value;
use std::ops::Range;

/// One token of statement text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// A word: a keyword, a name or an unquoted literal.
    Word(&'a str),
    /// The text between single quotes.
    Quoted(&'a str),
    /// A comparison operator.
    Cmp(CmpOp),
    /// One of `,`, `(`, `)` and `;`.
    Punct(char),
}

/// A token cursor over statement text.
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    /// The next token and its source span; `None` at the end.
    fn split(&self) -> Result<Option<(Tok<'a>, Range<usize>)>, String> {
        use CmpOp::*;
        let ops = [
            ("!=", Ne),
            ("<=", Le),
            (">=", Ge),
            ("=", Eq),
            ("<", Lt),
            (">", Gt),
        ];
        let mut s = &self.text[self.pos..];
        loop {
            s = s.trim_start();
            if !(s.starts_with('#') || s.starts_with("--")) {
                break;
            }
            s = s.find('\n').map_or("", |i| &s[i..]);
        }
        let (tok, len) = if s.is_empty() {
            return Ok(None);
        } else if let Some(body) = s.strip_prefix('\'') {
            let end = body
                .find('\'')
                .ok_or_else(|| format!("unterminated quote in {s:?}"))?;
            (Tok::Quoted(&body[..end]), end + 2)
        } else if let Some(c) = s.chars().next().filter(|c| ",();".contains(*c)) {
            (Tok::Punct(c), 1)
        } else if let Some((sym, op)) = ops.iter().find(|(sym, _)| s.starts_with(sym)) {
            (Tok::Cmp(*op), sym.len())
        } else {
            let end = s.find(|c: char| c.is_whitespace() || "',=<>!();".contains(c));
            match end.unwrap_or(s.len()) {
                0 => return Err(format!("expected `!=` at {s:?}")),
                end => (Tok::Word(&s[..end]), end),
            }
        };
        let start = self.text.len() - s.len();
        Ok(Some((tok, start..start + len)))
    }

    /// `got <the next token>` for an error message.
    fn got(&self) -> String {
        match self.split() {
            Ok(Some((_, span))) => format!("got {:?}", &self.text[span]),
            Ok(None) => "got end of statement".into(),
            Err(e) => e,
        }
    }

    /// Consumes and returns the next token; `None` at the end.
    pub fn token(&mut self) -> Result<Option<Tok<'a>>, String> {
        Ok(self.split()?.map(|(tok, span)| {
            self.pos = span.end;
            tok
        }))
    }

    /// The next token, not consumed.
    pub fn peek(&self) -> Result<Option<Tok<'a>>, String> {
        Ok(self.split()?.map(|(tok, _)| tok))
    }

    /// Consumes the next token when it is `what`: a keyword (matched
    /// case-insensitively) or one of `, ( ) ;`.
    pub fn eat(&mut self, what: &str) -> Result<bool, String> {
        match self.split()? {
            Some((Tok::Word(_) | Tok::Punct(_), span))
                if self.text[span.clone()].eq_ignore_ascii_case(what) =>
            {
                self.pos = span.end;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Consumes `what` (see [`eat`](Cursor::eat)) or says it is missing.
    pub fn expect(&mut self, what: &str) -> Result<(), String> {
        match self.eat(what)? {
            true => Ok(()),
            false => Err(format!(
                "expected `{}`, {}",
                what.to_ascii_uppercase(),
                self.got()
            )),
        }
    }

    /// Consumes a word; `what` names it in the error when the next token
    /// is not one.
    pub fn word(&mut self, what: &str) -> Result<&'a str, String> {
        match self.split()? {
            Some((Tok::Word(w), span)) => {
                self.pos = span.end;
                Ok(w)
            }
            _ => Err(format!("expected {what}, {}", self.got())),
        }
    }

    /// `item (, item)*`
    pub fn list<T, E: From<String>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut items = vec![item(self)?];
        while self.eat(",")? {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn names(&mut self, what: &str) -> Result<Vec<String>, String> {
        self.list(|c| c.word(what).map(str::to_string))
    }

    /// Refuses any token left in the statement.
    pub fn end(&self) -> Result<(), String> {
        match self.split()? {
            None => Ok(()),
            Some((_, span)) => Err(format!(
                "unexpected {:?} at the end of the statement",
                &self.text[span]
            )),
        }
    }

    /// Parses a predicate, leaving the cursor at the first token it cannot
    /// use. The only function in the workspace that turns predicate text
    /// into a [`Predicate`]. Both chains nest to the right: `a OR b OR c`
    /// is `a OR (b OR c)`.
    pub fn predicate(&mut self) -> Result<Predicate, String> {
        let left = self.and_expr()?;
        Ok(match self.eat("or")? {
            true => left.or(self.predicate()?),
            false => left,
        })
    }

    fn and_expr(&mut self) -> Result<Predicate, String> {
        let left = self.not_expr()?;
        Ok(match self.eat("and")? {
            true => left.and(self.and_expr()?),
            false => left,
        })
    }

    fn not_expr(&mut self) -> Result<Predicate, String> {
        if self.eat("not")? {
            return Ok(self.not_expr()?.not());
        }
        let column = self.word("a column name")?.to_string();
        let Some(Tok::Cmp(op)) = self.token()? else {
            return Err(format!(
                "expected one of = != < <= > >= after column {column:?}"
            ));
        };
        let literal = match self.token()? {
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
        match self.eat("where")? {
            true => self.predicate(),
            false => Ok(Predicate::True),
        }
    }
}

/// Splits `text` at its `;` tokens into the source of each statement that
/// holds a token, comments left out.
pub fn statements(text: &str) -> Result<Vec<&str>, String> {
    let mut cur = Cursor::new(text);
    let (mut out, mut span) = (Vec::new(), None::<Range<usize>>);
    while let Some((tok, at)) = cur.split()? {
        cur.pos = at.end;
        match tok {
            Tok::Punct(';') => out.extend(span.take().map(|s| &text[s])),
            _ => span = Some(span.map_or(at.start, |s| s.start)..at.end),
        }
    }
    out.extend(span.map(|s| &text[s]));
    Ok(out)
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
    let mut cur = Cursor::new(text);
    let verb = cur.word("count, scan, agg or join")?;
    let table = cur.word("a table name")?.to_string();
    let query = match verb.to_ascii_lowercase().as_str() {
        "count" => Query::Count {
            table,
            predicate: cur.where_clause()?,
        },
        "scan" => {
            let projection = match cur.eat("select")? {
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
            if !cur.eat("by")? {
                return Err("usage: agg <table> by <c1,c2|-> <op:col,…> [where …]".into());
            }
            let group_by = match cur.eat("-")? {
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
            if !cur.eat("on")? {
                return Err("usage: join <left> <right> on <lcol=rcol,…>".into());
            }
            let pairs = cur.list(|c| {
                let left = c.word("a key pair lcol=rcol")?.to_string();
                match (c.token()?, c.token()?) {
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
    cur.end()?;
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The predicate that is all of `text`.
    fn parse_predicate(text: &str) -> Result<Predicate, String> {
        let mut cur = Cursor::new(text);
        let predicate = cur.predicate()?;
        cur.end()?;
        Ok(predicate)
    }

    fn pred(text: &str) -> Predicate {
        parse_predicate(text).unwrap()
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
        let mut cur = Cursor::new("k < 10 AND v = 'into x' INTO lo, hi");
        assert_eq!(
            cur.predicate().unwrap(),
            cmp("k", CmpOp::Lt, 10i64).and(cmp("v", CmpOp::Eq, "into x"))
        );
        assert_eq!(cur.token().unwrap(), Some(Tok::Word("INTO")));
        assert_eq!(cur.names("a name").unwrap(), ["lo", "hi"]);
        cur.end().unwrap();
    }

    #[test]
    fn comments_start_only_where_a_token_would() {
        let words = |text| {
            let mut cur = Cursor::new(text);
            std::iter::from_fn(|| cur.token().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(
            words("C# x--y -5 # note"),
            [Tok::Word("C#"), Tok::Word("x--y"), Tok::Word("-5")]
        );
        assert_eq!(
            words("a,-- note\n'#'(#\n)"),
            [
                Tok::Word("a"),
                Tok::Punct(','),
                Tok::Quoted("#"),
                Tok::Punct('('),
                Tok::Punct(')')
            ]
        );
        assert_eq!(
            statements("a 'x;y'; ;b # c; d\n").unwrap(),
            ["a 'x;y'", "b"]
        );
        assert_eq!(statements("né;").unwrap(), ["né"]);
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
