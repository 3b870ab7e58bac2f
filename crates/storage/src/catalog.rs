//! The database catalog: a thread-safe name → table map. Loads and
//! restores add tables one at a time ([`Catalog::create`],
//! [`Catalog::put`]); an evolution plan stages every drop and put of its
//! script and lands them in one [`Catalog::commit_evolution`].

use crate::commitlog::CommitLog;
use crate::error::StorageError;
use crate::table::Table;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A consistent, immutable view of the whole catalog, pinned at one
/// version. Cloning the name → table map is O(tables) pointer copies —
/// every table (and, transitively, every column segment) is `Arc`-shared
/// with the live catalog, so a snapshot is copy-on-write for free:
/// evolution plans committing concurrently replace entries in the live
/// map without disturbing any reader holding a snapshot.
///
/// This is the isolation unit of the serving layer: each connection's
/// session pins one `CatalogSnapshot`, so a long streaming scan sees the
/// same catalog version from its first batch to its last no matter how
/// many plans commit in between.
#[derive(Clone, Debug)]
pub struct CatalogSnapshot {
    version: u64,
    tables: BTreeMap<String, Arc<Table>>,
}

impl CatalogSnapshot {
    /// The catalog version this snapshot was pinned at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Fetches a table from the pinned view.
    ///
    /// # Errors
    /// [`StorageError::UnknownTable`] if the table did not exist at the
    /// pinned version (it may well exist in the live catalog by now).
    pub fn get(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Returns `true` if the table existed at the pinned version.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Sorted table names at the pinned version.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Number of tables at the pinned version.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Returns `true` when the snapshot holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates `(name, table)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Table>)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }
}

/// What [`Catalog::commit_evolution`] hands back for a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The catalog version the commit produced.
    pub version: u64,
    /// `true` when the catalog's [`CommitLog`] acknowledged the commit on
    /// disk — the commit survives a crash. `false` means memory-only.
    pub durable: bool,
}

/// A named collection of tables. All methods are thread-safe; tables are
/// immutable snapshots, so readers never block behind evolution.
///
/// Every mutation bumps a version counter, which powers the optimistic
/// staged-commit protocol used by planned evolution:
/// [`begin_evolution`](Catalog::begin_evolution) snapshots the whole
/// namespace plus its version, work proceeds against the snapshot, and
/// [`commit_evolution`](Catalog::commit_evolution) applies every staged
/// mutation in one write-locked step — all-or-nothing — iff the catalog is
/// still at the snapshot version.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    /// Bumped on every successful mutation, always under the write lock.
    version: AtomicU64,
    /// Optional commit log: when set, every successful
    /// [`commit_evolution`](Catalog::commit_evolution) is staged with the
    /// log before the write lock is released and acknowledged only after
    /// the log reports it durable.
    log: RwLock<Option<CommitLog>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog holding `tables` at `version` — what a catalog file, or a
    /// catalog file plus the commit records past it, rebuilds. Starting at
    /// the stored version rather than 0 is what lets a commit record's
    /// version say whether a given file already covers it.
    pub(crate) fn from_parts(version: u64, tables: BTreeMap<String, Arc<Table>>) -> Catalog {
        Catalog {
            tables: RwLock::new(tables),
            version: AtomicU64::new(version),
            log: RwLock::new(None),
        }
    }

    /// The current mutation count. Two equal observations bracket a span in
    /// which no table was created, replaced, dropped, or renamed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Registers `table` under its own name.
    ///
    /// # Errors
    /// [`StorageError::TableExists`] if the name is taken.
    pub fn create(&self, table: Table) -> Result<(), StorageError> {
        let mut map = self.tables.write();
        if map.contains_key(table.name()) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        map.insert(table.name().to_string(), Arc::new(table));
        self.bump();
        Ok(())
    }

    /// Registers or replaces `table` under its own name (evolution results).
    pub fn put(&self, table: Table) {
        let mut map = self.tables.write();
        map.insert(table.name().to_string(), Arc::new(table));
        self.bump();
    }

    /// Pins a copy-on-write snapshot of the whole namespace at the current
    /// version — the read-isolation primitive of the serving layer (see
    /// [`CatalogSnapshot`]). O(tables) `Arc` clones; no data is copied.
    pub fn snapshot_view(&self) -> CatalogSnapshot {
        let map = self.tables.read();
        CatalogSnapshot {
            version: self.version.load(Ordering::Acquire),
            tables: map.clone(),
        }
    }

    /// Starts an optimistic evolution transaction: one consistent snapshot
    /// of the whole namespace plus the version it was taken at. Hand the
    /// version back to [`commit_evolution`](Catalog::commit_evolution).
    pub fn begin_evolution(&self) -> (u64, BTreeMap<String, Arc<Table>>) {
        let map = self.tables.read();
        (self.version.load(Ordering::Acquire), map.clone())
    }

    /// Atomically applies a staged evolution: every drop and put lands in
    /// one write-locked step, or none do. When a [`CommitLog`] is
    /// attached (see [`set_durability`](Catalog::set_durability)) the commit
    /// is staged under the write lock — sequencing it after every earlier
    /// commit — and this call returns only once the log has made it
    /// durable, so a successful return *is* the acknowledgment.
    ///
    /// # Errors
    /// [`StorageError::Conflict`] if the catalog has been mutated since
    /// `base_version` was observed; the staged state is then discarded and
    /// the catalog is untouched. [`StorageError::Durability`] if the log
    /// failed: the commit is applied in memory but **not** durable — a
    /// caller that required durability must treat it as failed.
    pub fn commit_evolution(
        &self,
        base_version: u64,
        drops: &[String],
        puts: Vec<Arc<Table>>,
    ) -> Result<CommitReceipt, StorageError> {
        let staged = {
            let mut map = self.tables.write();
            let now = self.version.load(Ordering::Acquire);
            if now != base_version {
                return Err(StorageError::Conflict(format!(
                    "catalog at version {now}, snapshot taken at {base_version}"
                )));
            }
            // Stage before mutating: a log that refuses (e.g. a poisoned
            // one) vetoes the commit while the catalog is still untouched.
            let staged = match &*self.log.read() {
                Some(log) => Some((log.clone(), log.stage(now + 1, drops, &puts)?)),
                None => None,
            };
            for name in drops {
                map.remove(name);
            }
            for t in puts {
                map.insert(t.name().to_string(), t);
            }
            self.bump();
            staged
        };
        let durable = staged.is_some();
        let version = base_version + 1;
        if let Some((log, ticket)) = staged {
            log.wait(ticket)?;
        }
        Ok(CommitReceipt { version, durable })
    }

    /// Attaches (or detaches) the commit log consulted by
    /// [`commit_evolution`](Catalog::commit_evolution).
    pub fn set_durability(&self, log: Option<CommitLog>) {
        *self.log.write() = log;
    }

    /// Fetches a table snapshot.
    pub fn get(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Returns `true` if the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// Returns `true` when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    /// Snapshot of all tables (name order).
    pub fn snapshot(&self) -> Vec<Arc<Table>> {
        self.tables.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    fn tiny(name: &str) -> Table {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        Table::from_rows(name, schema, &[vec![Value::int(1)]]).unwrap()
    }

    #[test]
    fn create_get_drop() {
        let cat = Catalog::new();
        cat.create(tiny("t")).unwrap();
        assert!(cat.contains("t"));
        assert_eq!(cat.get("t").unwrap().rows(), 1);
        assert!(matches!(
            cat.create(tiny("t")),
            Err(StorageError::TableExists(_))
        ));
        drop_by_commit(&cat, "t");
        assert!(!cat.contains("t"));
        assert!(matches!(cat.get("t"), Err(StorageError::UnknownTable(_))));
    }

    /// Drops `name` in a one-drop evolution commit.
    fn drop_by_commit(cat: &Catalog, name: &str) {
        let (base, _) = cat.begin_evolution();
        cat.commit_evolution(base, &[name.to_string()], vec![])
            .unwrap();
    }

    #[test]
    fn listing_is_sorted() {
        let cat = Catalog::new();
        for n in ["zeta", "alpha", "mid"] {
            cat.create(tiny(n)).unwrap();
        }
        assert_eq!(cat.table_names(), vec!["alpha", "mid", "zeta"]);
        assert_eq!(cat.len(), 3);
        assert!(!cat.is_empty());
    }

    #[test]
    fn version_counts_mutations() {
        let cat = Catalog::new();
        let v0 = cat.version();
        cat.create(tiny("a")).unwrap();
        assert_eq!(cat.version(), v0 + 1);
        // Failed mutations do not bump.
        assert!(cat.create(tiny("a")).is_err());
        assert!(cat.commit_evolution(v0, &[], vec![]).is_err());
        assert_eq!(cat.version(), v0 + 1);
        // One evolution commit is one bump, whatever it drops and puts.
        let a = cat.get("a").unwrap();
        let puts = vec![Arc::new(a.renamed("b")), Arc::new(a.renamed("c"))];
        cat.commit_evolution(v0 + 1, &["a".to_string()], puts)
            .unwrap();
        cat.put(tiny("c"));
        drop_by_commit(&cat, "b");
        assert_eq!(cat.version(), v0 + 4);
        assert_eq!(cat.table_names(), vec!["c"]);
    }

    #[test]
    fn commit_evolution_is_atomic_and_optimistic() {
        let cat = Catalog::new();
        cat.create(tiny("keep")).unwrap();
        cat.create(tiny("gone")).unwrap();
        let (base, snap) = cat.begin_evolution();
        assert_eq!(snap.len(), 2);
        // Staged work lands in one step.
        cat.commit_evolution(base, &["gone".to_string()], vec![Arc::new(tiny("fresh"))])
            .unwrap();
        assert_eq!(cat.table_names(), vec!["fresh", "keep"]);

        // A snapshot invalidated by a concurrent mutation must not commit.
        let (stale, _) = cat.begin_evolution();
        cat.create(tiny("racer")).unwrap();
        let err = cat.commit_evolution(stale, &[], vec![Arc::new(tiny("loser"))]);
        assert!(matches!(err, Err(StorageError::Conflict(_))));
        assert!(!cat.contains("loser"));
        assert!(cat.contains("racer"));
    }

    #[test]
    fn snapshot_view_is_isolated_and_shares_data() {
        let cat = Catalog::new();
        cat.create(tiny("t")).unwrap();
        let snap = cat.snapshot_view();
        let live = cat.get("t").unwrap();
        assert_eq!(snap.version(), cat.version());
        assert!(Arc::ptr_eq(&snap.get("t").unwrap(), &live), "COW sharing");
        assert_eq!(snap.table_names(), vec!["t"]);
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());

        // Mutations after the pin are invisible to the snapshot…
        cat.create(tiny("later")).unwrap();
        drop_by_commit(&cat, "t");
        cat.put(tiny("t"));
        assert!(!snap.contains("later"));
        assert!(Arc::ptr_eq(&snap.get("t").unwrap(), &live), "old version");
        assert_ne!(snap.version(), cat.version());
        // …and iteration walks the pinned view.
        assert_eq!(snap.iter().count(), 1);
        // A fresh snapshot sees the new state.
        let snap2 = cat.snapshot_view();
        assert!(snap2.contains("later"));
        assert!(!Arc::ptr_eq(&snap2.get("t").unwrap(), &live));
    }

    #[test]
    fn retry_policy_resolves_commit_contention() {
        use crate::retry::RetryPolicy;
        let cat = Catalog::new();
        cat.create(tiny("seed")).unwrap();
        // First attempt races and conflicts (another writer mutates between
        // snapshot and commit); the retry re-snapshots and lands.
        let mut raced = false;
        let policy = RetryPolicy::no_backoff(4);
        policy
            .run(|_| {
                let (base, _snap) = cat.begin_evolution();
                if !raced {
                    raced = true;
                    cat.create(tiny("racer")).unwrap(); // invalidates `base`
                }
                cat.commit_evolution(base, &[], vec![Arc::new(tiny("winner"))])
            })
            .unwrap();
        assert!(cat.contains("winner"));
        assert!(cat.contains("racer"));

        // A policy of one attempt surfaces the conflict unchanged.
        let policy = RetryPolicy::no_backoff(1);
        let err = policy.run(|_| {
            let (base, _snap) = cat.begin_evolution();
            cat.create(tiny(&format!("noise{}", cat.version())))
                .unwrap();
            cat.commit_evolution(base, &[], vec![])
        });
        assert!(matches!(err, Err(StorageError::Conflict(_))));
    }

    #[test]
    fn put_replaces() {
        let cat = Catalog::new();
        cat.create(tiny("t")).unwrap();
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let bigger =
            Table::from_rows("t", schema, &[vec![Value::int(1)], vec![Value::int(2)]]).unwrap();
        cat.put(bigger);
        assert_eq!(cat.get("t").unwrap().rows(), 2);
    }
}
