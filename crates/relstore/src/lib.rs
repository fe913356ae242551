//! # mdv-relstore
//!
//! An embedded, in-memory relational storage engine. It stands in for the
//! "major commercial RDBMS" that the MDV paper (Keidl et al., ICDE 2002)
//! used as the backend of its publish & subscribe filter:
//!
//! * typed tables with schemas and nullability ([`TableSchema`], [`Table`]),
//! * secondary indexes answering point probes ([`Index`], probed through
//!   [`Table::index`]): each maps the hash of a key to the rows holding it
//!   and stores no copy of the key, which it reads in the rows themselves,
//! * one generic selection, `column = constant` ([`select`]),
//! * commit groups and checkpoints behind one write surface
//!   ([`StorageEngine`]), volatile ([`Database`]) or write-ahead logged
//!   ([`DurableEngine`]), with text snapshots ([`write_database`]).
//!
//! It holds what MDV reads and writes and nothing more: the filter and the
//! LMR read through direct index probes, so there is no planner, no
//! predicate tree and no rollback. The engine is deliberately single-node
//! and synchronous: the MDV filter algorithm's behaviour (batch
//! amortization, index-driven rule matching) depends on *relational*
//! evaluation, not on a network protocol.
//!
//! ## Shared read access
//!
//! Every read path (`Database::table`, `Table::iter`/`get`, index probes,
//! [`select`]) takes `&self` and the storage structures hold
//! no interior mutability — no `Cell`/`RefCell`, no lazily materialized
//! caches. A `&Database` is therefore safe to share across threads
//! (`Database: Send + Sync`, asserted below). Nothing in the workspace
//! does so today — the filter has one thread of control — but a node's
//! store must be able to move to, and be read from, another thread once
//! each MDP / LMR runs on its own (ROADMAP item 10's thread-per-node
//! driver; `mdv-system` already bounds its nodes `Send + Sync`).
//!
//! ```
//! use mdv_relstore::{select, ColumnDef, DataType, Database, IndexKind, Predicate,
//!                    TableSchema, Value};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new("FilterData", vec![
//!     ColumnDef::new("uri_reference", DataType::Str),
//!     ColumnDef::new("class", DataType::Str),
//!     ColumnDef::new("property", DataType::Str),
//!     ColumnDef::new("value", DataType::Str),
//! ]).unwrap()).unwrap();
//! db.create_index("FilterData", "by_class_prop", IndexKind::Hash,
//!                 &["class", "property"], false).unwrap();
//! db.insert("FilterData", vec![
//!     Value::from("doc.rdf#info"), Value::from("ServerInformation"),
//!     Value::from("memory"), Value::from("92"),
//! ]).unwrap();
//!
//! let t = db.table("FilterData").unwrap();
//! let pred = Predicate::col_eq(t.schema(), "class", Value::from("ServerInformation")).unwrap();
//! assert_eq!(select(t, &pred).unwrap().len(), 1);
//! ```
//!
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

pub mod catalog;
pub mod engine;
pub mod error;
pub mod index;
pub mod query;
pub mod schema;
pub mod snapshot;
pub mod table;
pub mod value;
pub mod vfs;
pub mod wal;

pub use catalog::Database;
pub use engine::StorageEngine;
pub use error::{Error, Result};
pub use index::{key_hash, Index, IndexKind, IndexView};
pub use query::{select, Predicate};
pub use schema::{ColumnDef, TableSchema};
pub use snapshot::{read_database, write_database};
pub use table::{Row, RowId, Table};
pub use value::{DataType, Value};
pub use vfs::{CrashMode, DiskFaultPlan, FaultStats, FaultVfs, StdFs, Vfs, VfsFile, CRASH_MODES};
pub use wal::{DurableConfig, DurableEngine, RecoveryReport};

// Compile-time audit backing the "shared read access" contract above: the
// storage types must stay free of non-Sync interior mutability. Adding a
// `Cell`/`RefCell` anywhere inside would fail this assertion, not corrupt
// reads at runtime.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Database>();
    assert_shareable::<Table>();
    assert_shareable::<Index>();
    assert_shareable::<TableSchema>();
    assert_shareable::<Value>();
    // the durable backend must stay shareable too: a durable node moves
    // to its own thread like a volatile one
    assert_shareable::<DurableEngine>();
};
