//! Table schemas: named, typed columns plus an optional candidate key.

use crate::error::StorageError;
use crate::value::ValueType;

/// Definition of a single column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within a schema, case-sensitive).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

impl ColumnDef {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

/// A table schema: ordered columns and the indices of the (optional)
/// candidate key attributes.
///
/// The key drives the CODS evolution operators: decomposition requires the
/// common attributes of the outputs to contain a key of one side, and
/// key–foreign-key mergence requires the join attributes to be the key of
/// one input (Sections 2.4–2.5 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    key: Vec<usize>,
}

impl Schema {
    /// Builds a schema without a key.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self, StorageError> {
        Self::with_key(columns, Vec::new())
    }

    /// Builds a schema whose key is the given column indices.
    pub fn with_key(columns: Vec<ColumnDef>, key: Vec<usize>) -> Result<Self, StorageError> {
        if columns.is_empty() {
            return Err(StorageError::InvalidSchema("schema has no columns".into()));
        }
        for (i, c) in columns.iter().enumerate() {
            if c.name.is_empty() {
                return Err(StorageError::InvalidSchema("empty column name".into()));
            }
            if columns[..i].iter().any(|d| d.name == c.name) {
                return Err(StorageError::InvalidSchema(format!(
                    "duplicate column name {:?}",
                    c.name
                )));
            }
        }
        for &k in &key {
            if k >= columns.len() {
                return Err(StorageError::InvalidSchema(format!(
                    "key index {k} out of range ({} columns)",
                    columns.len()
                )));
            }
        }
        Ok(Schema { columns, key })
    }

    /// Convenience constructor from `(name, type)` pairs and key names.
    pub fn build(cols: &[(&str, ValueType)], key_names: &[&str]) -> Result<Self, StorageError> {
        let columns: Vec<ColumnDef> = cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect();
        let mut key = Vec::with_capacity(key_names.len());
        for &k in key_names {
            let idx = columns
                .iter()
                .position(|c| c.name == k)
                .ok_or_else(|| StorageError::UnknownColumn(k.to_string()))?;
            key.push(idx);
        }
        Self::with_key(columns, key)
    }

    /// The ordered column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Indices of the key attributes (empty if no key is declared).
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Names of the key attributes.
    pub fn key_names(&self) -> Vec<&str> {
        self.key
            .iter()
            .map(|&i| self.columns[i].name.as_str())
            .collect()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize, StorageError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// The definition of a column by name.
    pub fn column(&self, name: &str) -> Result<&ColumnDef, StorageError> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Returns `true` if `name` is one of the columns.
    pub fn contains(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }

    /// Projection: a new schema with the named columns (in the given order)
    /// and `key_names` as its key.
    pub fn project(&self, names: &[&str], key_names: &[&str]) -> Result<Schema, StorageError> {
        let mut columns = Vec::with_capacity(names.len());
        for &n in names {
            columns.push(self.column(n)?.clone());
        }
        let mut key = Vec::with_capacity(key_names.len());
        for &k in key_names {
            let idx = names
                .iter()
                .position(|&n| n == k)
                .ok_or_else(|| StorageError::UnknownColumn(k.to_string()))?;
            key.push(idx);
        }
        Schema::with_key(columns, key)
    }

    /// Returns `true` if the two schemas have identical column names and
    /// types in the same order (keys may differ) — the compatibility test for
    /// UNION TABLES.
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.columns == other.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn employee_schema() -> Schema {
        Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let s = employee_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("skill").unwrap(), 1);
        assert!(s.contains("address"));
        assert!(!s.contains("missing"));
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::build(&[("a", ValueType::Int), ("a", ValueType::Int)], &[]);
        assert!(matches!(err, Err(StorageError::InvalidSchema(_))));
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn key_handling() {
        let s =
            Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)], &["id"]).unwrap();
        assert_eq!(s.key(), &[0]);
        assert_eq!(s.key_names(), vec!["id"]);
    }

    #[test]
    fn bad_key_rejected() {
        assert!(Schema::build(&[("a", ValueType::Int)], &["b"]).is_err());
        assert!(Schema::with_key(vec![ColumnDef::new("a", ValueType::Int)], vec![5]).is_err());
    }

    #[test]
    fn projection() {
        let s = employee_schema();
        let p = s.project(&["employee", "address"], &["employee"]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.names(), vec!["employee", "address"]);
        assert_eq!(p.key(), &[0]);
        assert!(s.project(&["nope"], &[]).is_err());
        assert!(s.project(&["employee"], &["address"]).is_err());
    }

    #[test]
    fn union_compatibility() {
        let a = employee_schema();
        let b = employee_schema();
        assert!(a.union_compatible(&b));
        let c = Schema::build(&[("employee", ValueType::Str)], &[]).unwrap();
        assert!(!a.union_compatible(&c));
    }
}
