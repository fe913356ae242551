//! Plumbing for the durable tables of a node (DESIGN.md §6).
//!
//! Nodes constructed on a durable [`StorageEngine`] keep their
//! non-relational state — subscriptions, the document registry, protocol
//! counters, parked messages — in ordinary tables inside the same
//! database, so every such write rides in the same WAL commit group as the
//! engine mutation it accompanies, and crash recovery can rebuild the node
//! from the recovered database alone. Memory-backed nodes never create
//! these tables, which keeps the in-memory path byte-identical to the
//! pre-storage-engine behaviour.
//!
//! A node's state lives in one *state table* of `(key, fields)` rows: the
//! records of `crate::state`, keyed by tag plus identifying fields, written
//! by [`put`] and [`delete`] and read back whole by [`state_rows`]. The Raft
//! tables keep typed columns. Every keyed table gets one hash index on its
//! key columns ([`KEY_INDEX`]); rows are found by key through that index,
//! never by scanning the table.

use mdv_relstore::{
    ColumnDef, DataType, Database, IndexKey, IndexKind, RowId, StorageEngine, TableSchema, Value,
};

use crate::error::{Error, Result};

/// The name of every keyed table's key index.
pub(crate) const KEY_INDEX: &str = "key";

pub(crate) fn store_err(e: mdv_relstore::Error) -> crate::error::Error {
    mdv_filter::Error::from(e).into()
}

/// Creates a table keyed on its leading columns `key` (no index for an
/// empty key: a table that is only appended to and read back whole).
pub(crate) fn create_table<S: StorageEngine>(
    store: &mut S,
    name: &str,
    cols: Vec<ColumnDef>,
    key: &[&str],
) -> Result<()> {
    debug_assert!(
        key.iter().zip(&cols).all(|(k, c)| *k == c.name),
        "the key of {name} must be its leading columns"
    );
    let schema = TableSchema::new(name, cols).map_err(store_err)?;
    store.create_table(schema).map_err(store_err)?;
    if key.is_empty() {
        return Ok(());
    }
    store
        .create_index(name, KEY_INDEX, IndexKind::Hash, key, false)
        .map_err(store_err)
}

/// Creates a node's state table: one `(key, fields)` row per record.
pub(crate) fn create_state_table<S: StorageEngine>(store: &mut S, name: &str) -> Result<()> {
    let cols = vec![
        ColumnDef::new("key", DataType::Str),
        ColumnDef::new("fields", DataType::Str),
    ];
    create_table(store, name, cols, &["key"])
}

/// Writes the record `key` of a state table, replacing its fields.
pub(crate) fn put<S: StorageEngine>(
    store: &mut S,
    table: &str,
    key: &str,
    fields: &str,
) -> Result<()> {
    upsert_where(store, table, vec![s(key)], vec![s(key), s(fields)])
}

/// Deletes the record `key` of a state table (a no-op when absent).
pub(crate) fn delete<S: StorageEngine>(store: &mut S, table: &str, key: &str) -> Result<()> {
    delete_where(store, table, vec![s(key)]).map(|_| ())
}

/// Every `(key, fields)` row of a state table, or `None` when the store
/// has no such table. A row that is not two strings is corrupt.
pub(crate) fn state_rows(db: &Database, table: &str) -> Result<Option<Vec<(String, String)>>> {
    let Ok(t) = db.table(table) else {
        return Ok(None);
    };
    t.iter()
        .map(|(_, row)| match row.as_slice() {
            [Value::Str(key), Value::Str(fields)] => Ok((key.clone(), fields.clone())),
            _ => Err(Error::Topology(format!("corrupt row in {table}"))),
        })
        .collect::<Result<_>>()
        .map(Some)
}

/// A sort key giving rows a well-defined replay order (`Value` has no
/// `Ord`: floats).
fn value_key(v: &Value) -> (u8, i64, String) {
    match v {
        Value::Null => (0, 0, String::new()),
        Value::Bool(b) => (1, i64::from(*b), String::new()),
        Value::Int(i) => (2, *i, String::new()),
        Value::Float(f) => (3, 0, f.to_string()),
        Value::Str(s) => (4, 0, s.clone()),
    }
}

/// All rows of a table, sorted column-wise (deterministic replay). A
/// missing table reads as empty.
pub(crate) fn rows_sorted(db: &Database, table: &str) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = match db.table(table) {
        Ok(t) => t.iter().map(|(_, r)| r.clone()).collect(),
        Err(_) => Vec::new(),
    };
    rows.sort_by_key(|r| r.iter().map(value_key).collect::<Vec<_>>());
    rows
}

/// Ids of the rows whose key columns equal `key`, found through the
/// table's key index. A missing table reads as empty; a key of another
/// width than the index is refused.
fn find_rows(db: &Database, table: &str, key: &IndexKey) -> Result<Vec<RowId>> {
    let Ok(t) = db.table(table) else {
        return Ok(Vec::new());
    };
    let index = t.index(KEY_INDEX).map_err(store_err)?;
    let width = index.key_columns().len();
    if key.len() != width {
        return Err(Error::Topology(format!(
            "look-up in {table} by {} of its {width} key columns",
            key.len()
        )));
    }
    Ok(index.probe(key))
}

pub(crate) fn insert<S: StorageEngine>(store: &mut S, table: &str, row: Vec<Value>) -> Result<()> {
    store.insert(table, row).map_err(store_err)?;
    Ok(())
}

/// Replaces the row with key `key` (inserting when absent). The tables
/// written this way hold at most one row per key.
pub(crate) fn upsert_where<S: StorageEngine>(
    store: &mut S,
    table: &str,
    key: IndexKey,
    row: Vec<Value>,
) -> Result<()> {
    match find_rows(store.database(), table, &key)?.first() {
        Some(id) => {
            store.update(table, *id, row).map_err(store_err)?;
        }
        None => insert(store, table, row)?,
    }
    Ok(())
}

/// Deletes every row with key `key`; returns how many went.
pub(crate) fn delete_where<S: StorageEngine>(
    store: &mut S,
    table: &str,
    key: IndexKey,
) -> Result<usize> {
    let ids = find_rows(store.database(), table, &key)?;
    delete_rows(store, table, ids)
}

/// Deletes the given rows; returns how many went. The Raft log's range
/// truncation, which picks rows by index range, ends here.
pub(crate) fn delete_rows<S: StorageEngine>(
    store: &mut S,
    table: &str,
    ids: Vec<RowId>,
) -> Result<usize> {
    let n = ids.len();
    for id in ids {
        store.delete(table, id).map_err(store_err)?;
    }
    Ok(n)
}

/// `Value::Str` shorthand.
pub(crate) fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

/// `Value::Int` shorthand for the protocol's u64 counters.
pub(crate) fn i(v: u64) -> Value {
    Value::Int(v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_relstore::{write_database, DurableEngine, FaultVfs};
    use mdv_testkit::{prop_assert_eq, property, Source};

    // ---- the closure scans the keyed look-ups replaced, as the reference --

    fn scan_rows(db: &Database, table: &str, pred: impl Fn(&[Value]) -> bool) -> Vec<RowId> {
        match db.table(table) {
            Ok(t) => t
                .iter()
                .filter(|(_, r)| pred(r))
                .map(|(id, _)| id)
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    fn scan_upsert_where<S: StorageEngine>(
        store: &mut S,
        table: &str,
        pred: impl Fn(&[Value]) -> bool,
        row: Vec<Value>,
    ) {
        match scan_rows(store.database(), table, pred).first() {
            Some(id) => {
                store.update(table, *id, row).unwrap();
            }
            None => {
                store.insert(table, row).unwrap();
            }
        }
    }

    fn scan_delete_where<S: StorageEngine>(
        store: &mut S,
        table: &str,
        pred: impl Fn(&[Value]) -> bool,
    ) -> usize {
        let ids = scan_rows(store.database(), table, pred);
        for id in &ids {
            store.delete(table, *id).unwrap();
        }
        ids.len()
    }

    // ---- two table shapes: a one- and a two-column key -------------------

    const TABLES: [&str; 2] = ["Docs", "Subs"];

    fn create_tables<S: StorageEngine>(store: &mut S) {
        let str_col = |n: &str| ColumnDef::new(n, DataType::Str);
        let int_col = |n: &str| ColumnDef::new(n, DataType::Int);
        create_table(
            store,
            "Docs",
            vec![str_col("uri"), str_col("xml")],
            &["uri"],
        )
        .unwrap();
        let subs = vec![str_col("lmr"), int_col("rule"), str_col("text")];
        create_table(store, "Subs", subs, &["lmr", "rule"]).unwrap();
    }

    /// A random row of `table`, from alphabets small enough that keys
    /// repeat and rows collide.
    fn arb_row(src: &mut Source, table: &str) -> Vec<Value> {
        let pick = |src: &mut Source, words: &[&str]| {
            let word = *src.choose(words);
            s(word)
        };
        match table {
            "Docs" => vec![pick(src, &["a", "b", "c"]), pick(src, &["x", "y", "x\ty"])],
            _ => vec![
                pick(src, &["l1", "l2"]),
                i(src.u64_in(0..3)),
                pick(src, &["x", "y", "x\ty"]),
            ],
        }
    }

    /// Columns in the declared key of `table`.
    fn key_len(table: &str) -> usize {
        match table {
            "Docs" => 1,
            _ => 2,
        }
    }

    fn leading(key: &IndexKey) -> impl Fn(&[Value]) -> bool + '_ {
        move |r: &[Value]| r.get(..key.len()) == Some(&key[..])
    }

    property! {
        /// Random insert / upsert / delete sequences over a durable store,
        /// with duplicate and absent keys: after every step every table
        /// holds exactly what the closure scans produce on a twin store,
        /// row ids included, and a reopened store agrees.
        fn keyed_look_ups_equal_the_scan(src) {
            let vfs = FaultVfs::new(src.bits());
            let mut keyed = DurableEngine::create_with(vfs.clone(), "/keyed").unwrap();
            let mut twin = DurableEngine::create_with(FaultVfs::new(0), "/twin").unwrap();
            create_tables(&mut keyed);
            create_tables(&mut twin);
            for step in 0..src.usize_in(1..80) {
                let table = *src.choose(&TABLES);
                let row = arb_row(src, table);
                let key = row[..key_len(table)].to_vec();
                let what = match src.weighted(&[3, 3, 3]) {
                    0 => {
                        insert(&mut keyed, table, row.clone()).unwrap();
                        twin.insert(table, row.clone()).unwrap();
                        format!("insert {row:?}")
                    }
                    // upsert keeps at most one row per key; a key that
                    // plain inserts duplicated is deleted instead
                    1 if scan_rows(twin.database(), table, leading(&key)).len() <= 1 => {
                        upsert_where(&mut keyed, table, key.clone(), row.clone()).unwrap();
                        scan_upsert_where(&mut twin, table, leading(&key), row.clone());
                        format!("upsert {key:?} {row:?}")
                    }
                    _ => {
                        let n = delete_where(&mut keyed, table, key.clone()).unwrap();
                        prop_assert_eq!(n, scan_delete_where(&mut twin, table, leading(&key)));
                        format!("delete {key:?}")
                    }
                };
                for t in TABLES {
                    prop_assert_eq!(
                        rows_sorted(keyed.database(), t),
                        rows_sorted(twin.database(), t),
                        "step {step}: {what} on {table}, then {t}"
                    );
                }
                prop_assert_eq!(
                    write_database(keyed.database()),
                    write_database(twin.database()),
                    "step {step}: {what} on {table}: row ids"
                );
            }
            drop(keyed);
            let reopened = DurableEngine::open_with(vfs, "/keyed").unwrap();
            prop_assert_eq!(write_database(reopened.database()), write_database(twin.database()));
        }
    }

    #[test]
    fn a_look_up_by_another_width_than_the_key_is_refused() {
        let mut store = Database::new();
        create_tables(&mut store);
        assert!(delete_where(&mut store, "Subs", vec![s("l1")]).is_err());
        assert!(delete_where(&mut store, "Docs", vec![s("a"), s("x")]).is_err());
    }

    #[test]
    fn state_rows_round_trip_and_reject_a_foreign_shape() {
        let mut store = Database::new();
        assert_eq!(state_rows(&store, "State").unwrap(), None);
        create_state_table(&mut store, "State").unwrap();
        put(&mut store, "State", "pubseq l1", "3").unwrap();
        put(&mut store, "State", "pubseq l1", "4").unwrap();
        put(&mut store, "State", "retired l1\t2", "").unwrap();
        delete(&mut store, "State", "retired l1\t2").unwrap();
        delete(&mut store, "State", "absent").unwrap();
        let rows = state_rows(&store, "State").unwrap().unwrap();
        assert_eq!(rows, [("pubseq l1".to_owned(), "4".to_owned())]);
        create_tables(&mut store);
        insert(&mut store, "Subs", vec![s("l1"), i(0), s("x")]).unwrap();
        assert!(state_rows(&store, "Subs").is_err());
    }
}
