//! The row-store database engine: a table namespace plus the insert policies
//! that distinguish the paper's baselines.
//!
//! * [`InsertPolicy::Batch`] — the plain commercial row store ("C"): rows are
//!   appended to heap pages, one commit per statement.
//! * [`InsertPolicy::Indexed`] — "C+I": like `Batch`, but every target-table
//!   insert also maintains the declared B-tree indexes.
//! * [`InsertPolicy::JournaledAutocommit`] — the SQLite-like engine ("S"):
//!   every row insert runs as its own transaction, copying the before-image
//!   of each dirtied page into a rollback journal.

use crate::journal::Journal;
use crate::table::RowTable;
use cods_storage::{Schema, StorageError, Value};
use std::collections::HashMap;

/// How inserts are executed (selects which baseline the engine models).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPolicy {
    /// Heap append, one commit per statement ("C").
    Batch,
    /// Heap append plus index maintenance ("C+I").
    Indexed,
    /// One journaled transaction per row ("S", SQLite-like).
    JournaledAutocommit,
}

/// A row-oriented database instance.
pub struct RowDb {
    policy: InsertPolicy,
    tables: HashMap<String, RowTable>,
    journal: Journal,
}

impl RowDb {
    /// Creates an empty database with the given insert policy. Under
    /// [`InsertPolicy::JournaledAutocommit`] the journal is file-backed
    /// (a real journal file in the temp directory, truncated per commit,
    /// like SQLite's default mode); pass-through to an in-memory journal
    /// happens only if the file cannot be created.
    pub fn new(policy: InsertPolicy) -> Self {
        let journal = if policy == InsertPolicy::JournaledAutocommit {
            Journal::with_temp_file().unwrap_or_else(|_| Journal::new())
        } else {
            Journal::new()
        };
        RowDb {
            policy,
            tables: HashMap::new(),
            journal,
        }
    }

    /// The configured insert policy.
    pub fn policy(&self) -> InsertPolicy {
        self.policy
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), StorageError> {
        if self.tables.contains_key(name) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        self.tables
            .insert(name.to_string(), RowTable::new(name, schema));
        Ok(())
    }

    /// Drops a table.
    pub fn drop_table(&mut self, name: &str) -> Result<RowTable, StorageError> {
        self.tables
            .remove(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Shared access to a table.
    pub fn table(&self, name: &str) -> Result<&RowTable, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut RowTable, StorageError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Returns `true` if the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Inserts one row into `table` under the configured policy.
    pub fn insert(&mut self, table: &str, row: &[Value]) -> Result<(), StorageError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        match self.policy {
            InsertPolicy::Batch | InsertPolicy::Indexed => {
                t.insert(row)?;
            }
            InsertPolicy::JournaledAutocommit => {
                t.insert_journaled(row, &mut self.journal)?;
                self.journal.commit();
            }
        }
        Ok(())
    }

    /// Bulk-inserts rows as one statement (one commit under journaled mode).
    pub fn insert_many<'a, I: IntoIterator<Item = &'a [Value]>>(
        &mut self,
        table: &str,
        rows: I,
    ) -> Result<u64, StorageError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        let mut n = 0;
        match self.policy {
            InsertPolicy::Batch | InsertPolicy::Indexed => {
                for row in rows {
                    t.insert(row)?;
                    n += 1;
                }
            }
            InsertPolicy::JournaledAutocommit => {
                for row in rows {
                    t.insert_journaled(row, &mut self.journal)?;
                    self.journal.commit();
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Journal statistics (pages journaled, commits).
    pub fn journal_stats(&self) -> (u64, u64) {
        (self.journal.pages_journaled, self.journal.commits)
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
    fn create_insert_scan() {
        let mut db = RowDb::new(InsertPolicy::Batch);
        db.create_table("t", schema()).unwrap();
        db.insert("t", &[Value::int(1), Value::str("x")]).unwrap();
        db.insert("t", &[Value::int(2), Value::str("y")]).unwrap();
        assert_eq!(db.table("t").unwrap().row_count(), 2);
        assert!(db.create_table("t", schema()).is_err());
        assert!(db
            .insert("missing", &[Value::int(1), Value::str("x")])
            .is_err());
    }

    #[test]
    fn journaled_policy_journals_every_row() {
        let mut db = RowDb::new(InsertPolicy::JournaledAutocommit);
        db.create_table("t", schema()).unwrap();
        for i in 0..50 {
            db.insert("t", &[Value::int(i), Value::str("v")]).unwrap();
        }
        let (pages, commits) = db.journal_stats();
        assert_eq!(commits, 50);
        assert_eq!(pages, 50);
    }

    #[test]
    fn batch_policy_never_journals() {
        let mut db = RowDb::new(InsertPolicy::Batch);
        db.create_table("t", schema()).unwrap();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::int(i), Value::str("v")])
            .collect();
        let n = db
            .insert_many("t", rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(n, 20);
        assert_eq!(db.journal_stats(), (0, 0));
    }

    #[test]
    fn create_and_drop() {
        let mut db = RowDb::new(InsertPolicy::Batch);
        db.create_table("a", schema()).unwrap();
        assert!(db.contains("a"));
        assert_eq!(db.table("a").unwrap().name(), "a");
        db.drop_table("a").unwrap();
        assert!(db.table_names().is_empty());
    }
}
