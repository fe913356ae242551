//! The storage-engine abstraction: the narrow surface the MDV filter and
//! system tiers need from a relational backend.
//!
//! The paper runs the filter "entirely on top of a commercial relational
//! DBMS" — a durable store whose recovery guarantees MDV inherits for free.
//! [`StorageEngine`] captures exactly the operations the filter uses (table
//! DDL, row mutation, group commit, checkpoint) so that backends can be
//! swapped without touching the filter algorithm:
//!
//! * [`Database`] itself implements the trait as the volatile, in-memory
//!   backend (the default — zero overhead, `begin`/`commit` are no-ops),
//! * [`crate::wal::DurableEngine`] adds a write-ahead log plus snapshots
//!   and recovers committed state after a crash.
//!
//! Reads are *not* part of the trait: every backend exposes its current
//! state as a plain [`Database`] via [`StorageEngine::database`], and every
//! read path (index probes, [`crate::select`]) works on `&Database`. Only
//! writes are routed through the trait, which is what a write-ahead log
//! needs to observe. See DESIGN.md §6.

use crate::catalog::Database;
use crate::error::Result;
use crate::index::IndexKind;
use crate::schema::TableSchema;
use crate::table::{Row, RowId};

/// The mutation surface of a relational storage backend.
///
/// Contract:
/// * [`StorageEngine::database`] returns the backend's current, fully
///   up-to-date in-memory state; mutations through the trait are visible
///   there immediately (write-through).
/// * Mutations issued between [`StorageEngine::begin`] and
///   [`StorageEngine::commit`] form one *commit group*: a durable backend
///   makes them atomically durable at `commit` (all-or-nothing after a
///   crash). Mutations outside a group auto-commit individually.
/// * There is no rollback: a group whose body fails part-way is still
///   committed, so the log mirrors whatever in-memory state it left.
/// * [`StorageEngine::checkpoint`] lets the backend compact its durability
///   artifacts (snapshot + log truncation); a no-op for volatile backends.
pub trait StorageEngine {
    /// The backend's current state, for all read paths.
    fn database(&self) -> &Database;

    /// Creates a table (DDL is logged like any other mutation).
    fn create_table(&mut self, schema: TableSchema) -> Result<()>;

    /// Creates a secondary index on an existing table.
    fn create_index(
        &mut self,
        table: &str,
        name: &str,
        kind: IndexKind,
        columns: &[&str],
        unique: bool,
    ) -> Result<()>;

    /// Drops a table and everything in it.
    fn drop_table(&mut self, name: &str) -> Result<()>;

    /// Declares an empty table *unlogged*, the PostgreSQL notion: its rows
    /// are derived state its owner rebuilds, so a durable backend journals
    /// and snapshots only its DDL, and the table recovers empty. The
    /// volatile backend has nothing to skip.
    fn set_unlogged(&mut self, _table: &str) -> Result<()> {
        Ok(())
    }

    /// Inserts a row, returning its id.
    fn insert(&mut self, table: &str, row: Row) -> Result<RowId>;

    /// Inserts many rows; stops at the first error (prior rows stay).
    fn insert_batch(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<RowId>>;

    /// Deletes a row by id, returning it.
    fn delete(&mut self, table: &str, id: RowId) -> Result<Row>;

    /// Replaces a row by id, returning the old row.
    fn update(&mut self, table: &str, id: RowId, row: Row) -> Result<Row>;

    /// Opens a commit group. Groups nest by depth counting: each `begin`
    /// increments the depth, each `commit` decrements it, and only the
    /// outermost `commit` makes the group durable — so a caller can wrap
    /// several engine-level groups into one atomic unit.
    fn begin(&mut self);

    /// Closes one nesting level; the outermost call makes every mutation
    /// since the matching `begin` atomically durable.
    fn commit(&mut self) -> Result<()>;

    /// Compacts durability artifacts (snapshot + truncate the log).
    fn checkpoint(&mut self) -> Result<()>;
}

/// The volatile in-memory backend: mutations apply directly, commit
/// grouping and checkpointing are no-ops. This keeps the default filter
/// path byte-identical to the pre-trait code — the compiler sees straight
/// calls into [`Database`].
impl StorageEngine for Database {
    fn database(&self) -> &Database {
        self
    }

    fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        Database::create_table(self, schema)
    }

    fn create_index(
        &mut self,
        table: &str,
        name: &str,
        kind: IndexKind,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        Database::create_index(self, table, name, kind, columns, unique)
    }

    fn drop_table(&mut self, name: &str) -> Result<()> {
        Database::drop_table(self, name).map(|_| ())
    }

    fn insert(&mut self, table: &str, row: Row) -> Result<RowId> {
        Database::insert(self, table, row)
    }

    fn insert_batch(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<RowId>> {
        Database::insert_batch(self, table, rows)
    }

    fn delete(&mut self, table: &str, id: RowId) -> Result<Row> {
        Database::delete(self, table, id)
    }

    fn update(&mut self, table: &str, id: RowId, row: Row) -> Result<Row> {
        Database::update(self, table, id, row)
    }

    fn begin(&mut self) {}

    fn commit(&mut self) -> Result<()> {
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{DataType, Value};

    fn engine_smoke<S: StorageEngine>(store: &mut S) {
        store
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("v", DataType::Str),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        store
            .create_index("t", "by_k", IndexKind::Hash, &["k"], true)
            .unwrap();
        store.begin();
        let rid = store
            .insert("t", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        store
            .update("t", rid, vec![Value::Int(1), Value::Str("b".into())])
            .unwrap();
        store.commit().unwrap();
        assert_eq!(store.database().table("t").unwrap().len(), 1);
        store.delete("t", rid).unwrap();
        assert_eq!(store.database().table("t").unwrap().len(), 0);
        store.checkpoint().unwrap();
    }

    #[test]
    fn backends_are_send_and_sync() {
        // A node's store moves to, and is read from, that node's thread
        // once nodes run one per thread (ROADMAP item 10), so both backends
        // must stay thread-portable.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<crate::wal::DurableEngine>();
    }

    #[test]
    fn memory_backend_passes_the_generic_smoke() {
        let mut db = Database::new();
        engine_smoke(&mut db);
        assert!(db.has_table("t"));
    }
}
