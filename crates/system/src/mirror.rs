//! Plumbing for the durable mirror tables (DESIGN.md §6).
//!
//! Nodes constructed on a durable [`StorageEngine`] keep their
//! non-relational state — subscriptions, the document registry, protocol
//! counters, parked publications — mirrored in ordinary tables inside the
//! same database, so every mirror write rides in the same WAL commit group
//! as the engine mutation it accompanies, and crash recovery can rebuild
//! the node from the recovered database alone. Memory-backed nodes never
//! create these tables, which keeps the in-memory path byte-identical to
//! the pre-storage-engine behaviour.
//!
//! Each mirror table declares its *key*, a prefix of its columns, and gets
//! one hash index on it ([`KEY_INDEX`]); rows are found by key through that
//! index, never by scanning the table. A look-up key may run past the
//! indexed columns (an `LmrMatches` row is found by `(uri, rule)` through
//! its index on `uri`): the extra columns are compared on the probed rows.
//! An empty key addresses the only row of a singleton table.

use mdv_relstore::{
    ColumnDef, Database, IndexKey, IndexKind, RowId, StorageEngine, TableSchema, Value,
};

use crate::error::{Error, Result};

/// The name of every mirror table's key index.
pub(crate) const KEY_INDEX: &str = "key";

pub(crate) fn store_err(e: mdv_relstore::Error) -> crate::error::Error {
    mdv_filter::Error::from(e).into()
}

/// Creates a mirror table keyed on its leading columns `key` (no index
/// for an empty key: a singleton table, or one that is only appended to
/// and read back whole).
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
    add_key_index(store, name, key)
}

/// Adds the key index to a mirror table of a store written before mirror
/// tables had one; a no-op when the table has it or does not exist.
pub(crate) fn ensure_key_index<S: StorageEngine>(
    store: &mut S,
    name: &str,
    key: &[&str],
) -> Result<()> {
    match store.database().table(name) {
        Ok(t) if t.index(KEY_INDEX).is_err() => add_key_index(store, name, key),
        _ => Ok(()),
    }
}

fn add_key_index<S: StorageEngine>(store: &mut S, name: &str, key: &[&str]) -> Result<()> {
    if key.is_empty() {
        return Ok(());
    }
    store
        .create_index(name, KEY_INDEX, IndexKind::Hash, key, false)
        .map_err(store_err)
}

/// A sort key giving mirror rows a well-defined replay order (`Value` has no
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

/// All rows of a mirror table, sorted column-wise (deterministic replay).
/// A missing table reads as empty, so recovery code works uniformly on
/// databases written before a mirror table existed.
pub(crate) fn rows_sorted(db: &Database, table: &str) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = match db.table(table) {
        Ok(t) => t.iter().map(|(_, r)| r.clone()).collect(),
        Err(_) => Vec::new(),
    };
    rows.sort_by_key(|r| r.iter().map(value_key).collect::<Vec<_>>());
    rows
}

/// Ids of the rows whose leading columns equal `key`, found through the
/// table's key index (see the module docs). A missing table reads as
/// empty.
fn find_rows(db: &Database, table: &str, key: &IndexKey) -> Result<Vec<RowId>> {
    let Ok(t) = db.table(table) else {
        return Ok(Vec::new());
    };
    if key.is_empty() {
        return Ok(t.iter().map(|(id, _)| id).collect());
    }
    let index = t.index(KEY_INDEX).map_err(store_err)?;
    let width = index.key_columns().len();
    if key.len() == width {
        return Ok(index.probe(key));
    }
    let Some(rest) = key.get(width..) else {
        return Err(Error::Topology(format!(
            "look-up in {table} by {} of its {width} key columns",
            key.len()
        )));
    };
    Ok(index
        .probe(&key[..width].to_vec())
        .into_iter()
        .filter(|&id| {
            t.get(id)
                .is_ok_and(|row| row.get(width..key.len()) == Some(rest))
        })
        .collect())
}

pub(crate) fn insert<S: StorageEngine>(store: &mut S, table: &str, row: Vec<Value>) -> Result<()> {
    store.insert(table, row).map_err(store_err)?;
    Ok(())
}

/// Inserts `row` unless an equal row already exists (set semantics, e.g.
/// match anchors published twice).
pub(crate) fn insert_unique<S: StorageEngine>(
    store: &mut S,
    table: &str,
    row: Vec<Value>,
) -> Result<()> {
    if find_rows(store.database(), table, &row)?.is_empty() {
        insert(store, table, row)?;
    }
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

/// Deletes the given rows; returns how many went. The callers that pick
/// rows by something other than the key (a whole-table clear, a named
/// scan) end here.
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

/// Deletes every row of a mirror table.
pub(crate) fn clear<S: StorageEngine>(store: &mut S, table: &str) -> Result<usize> {
    let ids = find_rows(store.database(), table, &Vec::new())?;
    delete_rows(store, table, ids)
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
    use mdv_relstore::{write_database, DataType, DurableEngine, FaultVfs};
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

    fn scan_insert_unique<S: StorageEngine>(
        store: &mut S,
        table: &str,
        pred: impl Fn(&[Value]) -> bool,
        row: Vec<Value>,
    ) {
        if scan_rows(store.database(), table, pred).is_empty() {
            store.insert(table, row).unwrap();
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

    // ---- four table shapes: a one- and a two-column key, look-ups longer
    // than the indexed key, and a singleton -------------------------------

    const TABLES: [&str; 4] = ["Docs", "Subs", "Matches", "Home"];

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
        create_table(
            store,
            "Matches",
            vec![str_col("uri"), int_col("rule")],
            &["uri"],
        )
        .unwrap();
        create_table(store, "Home", vec![str_col("home"), int_col("n")], &[]).unwrap();
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
            "Subs" => vec![
                pick(src, &["l1", "l2"]),
                i(src.u64_in(0..3)),
                pick(src, &["x", "y", "x\ty"]),
            ],
            "Matches" => vec![pick(src, &["a", "b", "c"]), i(src.u64_in(0..3))],
            _ => vec![pick(src, &["m1", "m2"]), i(src.u64_in(0..3))],
        }
    }

    /// Columns in the declared key of `table`.
    fn key_len(table: &str) -> usize {
        match table {
            "Docs" | "Matches" => 1,
            "Subs" => 2,
            _ => 0,
        }
    }

    /// A look-up key of `table`: its declared key, or for `Matches` also
    /// the longer `(uri, rule)`; drawn from a fresh row, so it may be absent.
    fn arb_key(src: &mut Source, table: &str) -> IndexKey {
        let row = arb_row(src, table);
        let len = match table {
            "Matches" => src.usize_in(1..3),
            _ => key_len(table),
        };
        row[..len].to_vec()
    }

    fn leading(key: &IndexKey) -> impl Fn(&[Value]) -> bool + '_ {
        move |r: &[Value]| r.get(..key.len()) == Some(&key[..])
    }

    property! {
        /// Random insert / upsert / delete / insert-unique / clear sequences
        /// over a durable store, with duplicate and absent keys: after every
        /// step every table holds exactly what the closure scans produce on
        /// a twin store, row ids included, and a reopened store agrees.
        fn keyed_mirror_look_ups_equal_the_scan(src) {
            let vfs = FaultVfs::new(src.bits());
            let mut keyed = DurableEngine::create_with(vfs.clone(), "/keyed").unwrap();
            let mut twin = DurableEngine::create_with(FaultVfs::new(0), "/twin").unwrap();
            create_tables(&mut keyed);
            create_tables(&mut twin);
            for step in 0..src.usize_in(1..80) {
                let table = *src.choose(&TABLES);
                let what = match src.weighted(&[3, 3, 3, 3, 1]) {
                    0 => {
                        let row = arb_row(src, table);
                        insert(&mut keyed, table, row.clone()).unwrap();
                        twin.insert(table, row.clone()).unwrap();
                        format!("insert {row:?}")
                    }
                    // set semantics need a key index: not for the singleton
                    1 if table != "Home" => {
                        let row = arb_row(src, table);
                        insert_unique(&mut keyed, table, row.clone()).unwrap();
                        scan_insert_unique(&mut twin, table, |r| r == row.as_slice(), row.clone());
                        format!("insert_unique {row:?}")
                    }
                    2 => {
                        // upsert keeps at most one row per key; a key that
                        // plain inserts duplicated is deleted instead
                        let row = arb_row(src, table);
                        let key = row[..key_len(table)].to_vec();
                        if scan_rows(twin.database(), table, leading(&key)).len() > 1 {
                            let n = delete_where(&mut keyed, table, key.clone()).unwrap();
                            prop_assert_eq!(n, scan_delete_where(&mut twin, table, leading(&key)));
                            format!("delete (duplicated) {key:?}")
                        } else {
                            upsert_where(&mut keyed, table, key.clone(), row.clone()).unwrap();
                            scan_upsert_where(&mut twin, table, leading(&key), row.clone());
                            format!("upsert {key:?} {row:?}")
                        }
                    }
                    3 => {
                        let key = arb_key(src, table);
                        let n = delete_where(&mut keyed, table, key.clone()).unwrap();
                        prop_assert_eq!(n, scan_delete_where(&mut twin, table, leading(&key)));
                        format!("delete {key:?}")
                    }
                    _ => {
                        clear(&mut keyed, table).unwrap();
                        scan_delete_where(&mut twin, table, |_| true);
                        "clear".to_owned()
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
    fn a_look_up_shorter_than_the_key_is_refused() {
        let mut store = Database::new();
        create_tables(&mut store);
        assert!(delete_where(&mut store, "Subs", vec![s("l1")]).is_err());
    }

    #[test]
    fn a_store_without_key_indexes_gets_them() {
        let mut store = Database::new();
        store
            .create_table(
                TableSchema::new("Docs", vec![ColumnDef::new("uri", DataType::Str)]).unwrap(),
            )
            .unwrap();
        insert(&mut store, "Docs", vec![s("a")]).unwrap();
        assert!(delete_where(&mut store, "Docs", vec![s("a")]).is_err());
        ensure_key_index(&mut store, "Docs", &["uri"]).unwrap();
        ensure_key_index(&mut store, "Docs", &["uri"]).unwrap();
        ensure_key_index(&mut store, "Missing", &["uri"]).unwrap();
        assert_eq!(delete_where(&mut store, "Docs", vec![s("a")]).unwrap(), 1);
    }
}
