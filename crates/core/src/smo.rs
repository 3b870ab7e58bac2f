//! The Schema Modification Operator (SMO) language — all eleven operators of
//! Table 1 in the paper, as an executable AST.

use crate::decompose::DecomposeSpec;
use crate::merge::MergeStrategy;
use crate::simple_ops::ColumnFill;
use cods_query::pred::Predicate;
use cods_storage::{ColumnDef, Schema};
use std::fmt;

/// A schema modification operator (Table 1 of the paper).
#[derive(Clone, Debug)]
pub enum Smo {
    /// CREATE TABLE: a new, empty table.
    CreateTable {
        /// Table name.
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// RENAME TABLE, "keeping its data unchanged".
    RenameTable {
        /// Current name.
        from: String,
        /// New name.
        to: String,
    },
    /// COPY TABLE: a copy of an existing table (columns shared).
    CopyTable {
        /// Source table.
        from: String,
        /// Name of the copy.
        to: String,
    },
    /// UNION TABLES: combine the tuples of two same-schema tables.
    UnionTables {
        /// First input.
        left: String,
        /// Second input.
        right: String,
        /// Output name.
        output: String,
        /// Whether the inputs are dropped afterwards.
        drop_inputs: bool,
    },
    /// PARTITION TABLE: split tuples by a condition into two tables.
    PartitionTable {
        /// Input table (dropped afterwards).
        input: String,
        /// The condition.
        predicate: Predicate,
        /// Output receiving satisfying rows.
        satisfying: String,
        /// Output receiving the rest.
        rest: String,
    },
    /// DECOMPOSE TABLE: split a table into two, losslessly (§2.4). The input
    /// is dropped; its columns live on inside the outputs.
    DecomposeTable {
        /// Input table name.
        input: String,
        /// What to produce.
        spec: DecomposeSpec,
    },
    /// MERGE TABLES: "create a new table on storage by joining two tables"
    /// (§2.5). Inputs are kept.
    MergeTables {
        /// Left input (its columns lead the output schema).
        left: String,
        /// Right input.
        right: String,
        /// Output name.
        output: String,
        /// Strategy (auto-detected by default).
        strategy: MergeStrategy,
    },
    /// ADD COLUMN, loading data "from user input or by default".
    AddColumn {
        /// Target table.
        table: String,
        /// New column definition.
        column: ColumnDef,
        /// Fill for existing rows.
        fill: ColumnFill,
    },
    /// DROP COLUMN and its associated data.
    DropColumn {
        /// Target table.
        table: String,
        /// Column to drop.
        column: String,
    },
    /// RENAME COLUMN without changing data.
    RenameColumn {
        /// Target table.
        table: String,
        /// Current column name.
        from: String,
        /// New column name.
        to: String,
    },
}

impl Smo {
    /// For column-level operators, the table they modify in place.
    pub fn column_op_table(&self) -> Option<&str> {
        match self {
            Smo::AddColumn { table, .. }
            | Smo::DropColumn { table, .. }
            | Smo::RenameColumn { table, .. } => Some(table),
            _ => None,
        }
    }

    /// The operator's name as listed in Table 1.
    pub fn operator_name(&self) -> &'static str {
        match self {
            Smo::CreateTable { .. } => "CREATE TABLE",
            Smo::DropTable { .. } => "DROP TABLE",
            Smo::RenameTable { .. } => "RENAME TABLE",
            Smo::CopyTable { .. } => "COPY TABLE",
            Smo::UnionTables { .. } => "UNION TABLES",
            Smo::PartitionTable { .. } => "PARTITION TABLE",
            Smo::DecomposeTable { .. } => "DECOMPOSE TABLE",
            Smo::MergeTables { .. } => "MERGE TABLES",
            Smo::AddColumn { .. } => "ADD COLUMN",
            Smo::DropColumn { .. } => "DROP COLUMN",
            Smo::RenameColumn { .. } => "RENAME COLUMN",
        }
    }
}

impl fmt::Display for Smo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Smo::CreateTable { name, schema } => {
                write!(f, "CREATE TABLE {name} ({} columns)", schema.arity())
            }
            Smo::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Smo::RenameTable { from, to } => write!(f, "RENAME TABLE {from} TO {to}"),
            Smo::CopyTable { from, to } => write!(f, "COPY TABLE {from} TO {to}"),
            Smo::UnionTables {
                left,
                right,
                output,
                ..
            } => write!(f, "UNION TABLES {left}, {right} INTO {output}"),
            Smo::PartitionTable {
                input,
                satisfying,
                rest,
                ..
            } => write!(f, "PARTITION TABLE {input} INTO {satisfying}, {rest}"),
            Smo::DecomposeTable { input, spec } => write!(
                f,
                "DECOMPOSE TABLE {input} INTO {} ({}), {} ({})",
                spec.unchanged_name,
                spec.unchanged_cols.join(", "),
                spec.changed_name,
                spec.changed_cols.join(", ")
            ),
            Smo::MergeTables {
                left,
                right,
                output,
                ..
            } => write!(f, "MERGE TABLES {left}, {right} INTO {output}"),
            Smo::AddColumn { table, column, .. } => {
                write!(f, "ADD COLUMN {} TO {table}", column.name)
            }
            Smo::DropColumn { table, column } => {
                write!(f, "DROP COLUMN {column} FROM {table}")
            }
            Smo::RenameColumn { table, from, to } => {
                write!(f, "RENAME COLUMN {from} TO {to} IN {table}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::ValueType;

    #[test]
    fn display_forms() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let smo = Smo::CreateTable {
            name: "t".into(),
            schema,
        };
        assert_eq!(smo.to_string(), "CREATE TABLE t (1 columns)");
        assert_eq!(smo.operator_name(), "CREATE TABLE");

        let smo = Smo::DecomposeTable {
            input: "R".into(),
            spec: DecomposeSpec::new("S", &["a", "b"], "T", &["a", "c"]),
        };
        assert!(smo.to_string().contains("DECOMPOSE TABLE R"));
        assert!(smo.to_string().contains("S (a, b)"));
    }

    #[test]
    fn all_eleven_operators_have_names() {
        // Mirror of Table 1: the operator catalogue is complete.
        let names = [
            "DECOMPOSE TABLE",
            "MERGE TABLES",
            "CREATE TABLE",
            "DROP TABLE",
            "RENAME TABLE",
            "COPY TABLE",
            "UNION TABLES",
            "PARTITION TABLE",
            "ADD COLUMN",
            "DROP COLUMN",
            "RENAME COLUMN",
        ];
        assert_eq!(names.len(), 11);
    }
}
