//! Row predicates — the condition language of PARTITION TABLE and the
//! filter operator.

use cods_storage::{Dictionary, Schema, StorageError, Value};

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Expresses the satisfying value set of `column <op> literal` as a
    /// contiguous **rank interval** `[lo, hi)` in the dictionary's value
    /// order, or `None` when the set is not an interval (only `Ne` against
    /// a non-NULL literal). This is what makes zone maps decisive for range
    /// scans: finding the satisfying set costs two binary searches over the
    /// ordered view instead of one predicate evaluation per distinct value,
    /// and a segment is prunable iff its zone's rank span misses the
    /// interval.
    ///
    /// The interval matches [`CompiledPredicate::eval`]'s collapsed
    /// three-valued logic exactly: NULL rows satisfy nothing except
    /// `Eq/Le/Ge NULL` (which compare `Equal`) and `Ne <non-null>`.
    pub fn sat_rank_interval(self, dict: &Dictionary, literal: &Value) -> Option<(u32, u32)> {
        let d = dict.len() as u32;
        // NULL sorts first; its rank span is [0, nulls).
        let nulls = u32::from(d > 0 && dict.value(dict.value_order().id_at(0)) == &Value::Null);
        if literal == &Value::Null {
            return Some(match self {
                // NULL op NULL compares Equal.
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => (0, nulls),
                CmpOp::Lt | CmpOp::Gt => (0, 0),
                // value != NULL is true for every non-null value.
                CmpOp::Ne => (nulls, d),
            });
        }
        let lt = dict.partition_point(|v| v < literal);
        let le = dict.partition_point(|v| v <= literal);
        Some(match self {
            CmpOp::Eq => (lt, le),
            // NULL < literal in the total order but never satisfies a
            // range comparison: clamp the interval past the NULL rank.
            CmpOp::Lt => (nulls, lt),
            CmpOp::Le => (nulls, le),
            CmpOp::Gt => (le, d),
            CmpOp::Ge => (lt, d),
            CmpOp::Ne => return None,
        })
    }
}

/// A boolean predicate over a row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// `column <op> literal`. NULL compares false against everything except
    /// `Eq NULL` / `Ne NULL`, matching three-valued logic collapsed to bool.
    Compare {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Always true.
    True,
}

impl Predicate {
    /// Convenience constructor for `column = literal`.
    pub fn eq(column: impl Into<String>, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Eq,
            literal: literal.into(),
        }
    }

    /// Convenience constructor for `column < literal`.
    pub fn lt(column: impl Into<String>, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Lt,
            literal: literal.into(),
        }
    }

    /// Convenience constructor for `column >= literal`.
    pub fn ge(column: impl Into<String>, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Ge,
            literal: literal.into(),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Every column name the predicate references, in syntax order (with
    /// duplicates). Lets planners validate a predicate against a schema
    /// without compiling it.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Compare { column, .. } => out.push(column.as_str()),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
            Predicate::True => {}
        }
    }

    /// Compiles the predicate against a schema, resolving column names to
    /// positions.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate, StorageError> {
        Ok(match self {
            Predicate::Compare {
                column,
                op,
                literal,
            } => CompiledPredicate::Compare {
                column: schema.index_of(column)?,
                op: *op,
                literal: literal.clone(),
            },
            Predicate::And(a, b) => {
                CompiledPredicate::And(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
            Predicate::Or(a, b) => {
                CompiledPredicate::Or(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
            Predicate::Not(p) => CompiledPredicate::Not(Box::new(p.compile(schema)?)),
            Predicate::True => CompiledPredicate::True,
        })
    }
}

/// A predicate with column names resolved to row positions.
#[derive(Clone, Debug)]
pub enum CompiledPredicate {
    /// `row[column] <op> literal`.
    Compare {
        /// Resolved column position.
        column: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Value,
    },
    /// Conjunction.
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Disjunction.
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Negation.
    Not(Box<CompiledPredicate>),
    /// Always true.
    True,
}

impl CompiledPredicate {
    /// Evaluates against a row.
    pub fn eval(&self, row: &[Value]) -> bool {
        match self {
            CompiledPredicate::Compare {
                column,
                op,
                literal,
            } => {
                let v = &row[*column];
                match (v, literal) {
                    // NULL only matches equality against NULL.
                    (Value::Null, Value::Null) => op.eval(std::cmp::Ordering::Equal),
                    (Value::Null, _) | (_, Value::Null) => matches!(op, CmpOp::Ne),
                    _ => op.eval(v.cmp(literal)),
                }
            }
            CompiledPredicate::And(a, b) => a.eval(row) && b.eval(row),
            CompiledPredicate::Or(a, b) => a.eval(row) || b.eval(row),
            CompiledPredicate::Not(p) => !p.eval(row),
            CompiledPredicate::True => true,
        }
    }

    /// Evaluates against a single value, as if the row were `[value]`.
    /// Used by the data-level PARTITION operator, which evaluates the
    /// predicate once per *distinct dictionary value* rather than per row.
    pub fn eval_value(&self, value: &Value) -> bool {
        self.eval(std::slice::from_ref(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::ValueType;

    fn schema() -> Schema {
        Schema::build(&[("a", ValueType::Int), ("b", ValueType::Str)], &[]).unwrap()
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let row = vec![Value::int(5), Value::str("x")];
        assert!(Predicate::eq("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(Predicate::lt("a", 6i64).compile(&s).unwrap().eval(&row));
        assert!(!Predicate::lt("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(Predicate::ge("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(Predicate::eq("b", "x").compile(&s).unwrap().eval(&row));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let row = vec![Value::int(5), Value::str("x")];
        let p = Predicate::eq("a", 5i64).and(Predicate::eq("b", "x"));
        assert!(p.compile(&s).unwrap().eval(&row));
        let p = Predicate::eq("a", 9i64).or(Predicate::eq("b", "x"));
        assert!(p.compile(&s).unwrap().eval(&row));
        let p = Predicate::eq("a", 5i64).not();
        assert!(!p.compile(&s).unwrap().eval(&row));
        assert!(Predicate::True.compile(&s).unwrap().eval(&row));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let row = vec![Value::Null, Value::str("x")];
        assert!(!Predicate::eq("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(!Predicate::lt("a", 5i64).compile(&s).unwrap().eval(&row));
        // NULL = NULL treated as true (collapsed 3VL, documented).
        let p = Predicate::Compare {
            column: "a".into(),
            op: CmpOp::Eq,
            literal: Value::Null,
        };
        assert!(p.compile(&s).unwrap().eval(&row));
    }

    #[test]
    fn unknown_column_fails_compile() {
        assert!(Predicate::eq("zzz", 1i64).compile(&schema()).is_err());
    }

    #[test]
    fn sat_rank_interval_matches_eval_value() {
        // Dictionaries in first-appearance order: 7, NULL, 3, 9; and the
        // same values ascending, whose value order is the identity.
        let shuffled = vec![Value::int(7), Value::Null, Value::int(3), Value::int(9)];
        let mut ascending = shuffled.clone();
        ascending.sort();
        for values in [shuffled, ascending] {
            let dict = cods_storage::Dictionary::from_values(values).unwrap();
            let ranks = dict.value_order().ranks().to_vec();
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                for lit in [
                    Value::Null,
                    Value::int(2),
                    Value::int(3),
                    Value::int(8),
                    Value::int(9),
                    Value::int(10),
                ] {
                    let probe = CompiledPredicate::Compare {
                        column: 0,
                        op,
                        literal: lit.clone(),
                    };
                    let interval = op.sat_rank_interval(&dict, &lit);
                    match interval {
                        Some((lo, hi)) => {
                            for (id, v) in dict.iter() {
                                let r = ranks[id as usize];
                                assert_eq!(
                                    lo <= r && r < hi,
                                    probe.eval_value(v),
                                    "{op:?} {lit} id {id} ({v})"
                                );
                            }
                        }
                        None => assert_eq!(op, CmpOp::Ne, "only Ne falls back"),
                    }
                }
            }
        }
        // Empty dictionary: every interval is empty.
        let empty = cods_storage::Dictionary::new();
        assert_eq!(
            CmpOp::Lt.sat_rank_interval(&empty, &Value::int(1)),
            Some((0, 0))
        );
    }

    #[test]
    fn eval_value_single_column() {
        let p = Predicate::Compare {
            column: "v".into(),
            op: CmpOp::Ge,
            literal: Value::int(10),
        };
        let s = Schema::build(&[("v", ValueType::Int)], &[]).unwrap();
        let c = p.compile(&s).unwrap();
        assert!(c.eval_value(&Value::int(10)));
        assert!(!c.eval_value(&Value::int(9)));
    }
}
