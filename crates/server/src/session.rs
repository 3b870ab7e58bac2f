//! Per-connection session state: a pinned copy-on-write catalog snapshot.
//!
//! A session reads exclusively from the [`CatalogSnapshot`] it pinned —
//! `Arc`-shared tables, columns and segments, so pinning copies only the
//! name → table map, never data. Long streaming scans therefore see one
//! consistent catalog version end to end while evolution plans commit
//! concurrently; the live catalog moving on cannot tear a result.
//!
//! The snapshot moves only at three well-defined points:
//!
//! * connection start — pinned at the then-current version;
//! * an explicit `Refresh` command;
//! * after the session's *own* successful `Script` — read-your-writes.

use cods::Cods;
use cods_storage::{CatalogSnapshot, StorageError, Table};
use std::sync::Arc;

/// One connection's pinned view of the catalog.
pub struct Session {
    snapshot: CatalogSnapshot,
}

impl Session {
    /// Opens a session pinned at the platform's current catalog version.
    pub fn open(cods: &Cods) -> Session {
        Session {
            snapshot: cods.catalog().snapshot_view(),
        }
    }

    /// The pinned catalog version.
    pub fn version(&self) -> u64 {
        self.snapshot.version()
    }

    /// The pinned view itself — what a query resolves against.
    pub fn snapshot(&self) -> &CatalogSnapshot {
        &self.snapshot
    }

    /// Fetches a table from the pinned view. A table created after the
    /// pin is invisible; a table dropped after the pin is still served.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.snapshot.get(name)
    }

    /// Re-pins at the current version, returning the new one.
    pub fn refresh(&mut self, cods: &Cods) -> u64 {
        self.snapshot = cods.catalog().snapshot_view();
        self.snapshot.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn platform() -> Cods {
        let cods = Cods::new();
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let rows = vec![vec![Value::int(1)], vec![Value::int(2)]];
        cods.catalog()
            .create(Table::from_rows("t", schema, &rows).unwrap())
            .unwrap();
        cods
    }

    #[test]
    fn session_is_isolated_until_refreshed() {
        let cods = platform();
        let mut session = Session::open(&cods);
        let v0 = session.version();
        let pinned = session.table("t").unwrap();

        // The live catalog evolves: t is renamed away.
        cods.execute(cods::Smo::RenameTable {
            from: "t".into(),
            to: "t2".into(),
        })
        .unwrap();

        // The session still serves the old name from the old version.
        assert_eq!(session.version(), v0);
        assert!(Arc::ptr_eq(&session.table("t").unwrap(), &pinned));
        assert!(session.table("t2").is_err());

        // Refresh moves to the new world.
        assert!(session.refresh(&cods) > v0);
        assert!(session.table("t").is_err());
        assert_eq!(session.table("t2").unwrap().rows(), 2);
    }
}
