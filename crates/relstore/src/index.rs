//! Secondary indexes: hash and B-tree maps from a composite key (one or
//! more column values) to the set of live row ids carrying that key. Both
//! kinds answer point probes; the kind is part of the WAL and snapshot
//! format.

use std::collections::{BTreeMap, HashMap};

use crate::error::{Error, Result};
use crate::table::RowId;
use crate::value::Value;

/// The physical kind of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map; supports equality probes only.
    Hash,
    /// Ordered map; supports equality probes.
    BTree,
}

/// Composite index key. `Value`'s total order makes this orderable.
pub type IndexKey = Vec<Value>;

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    /// Positions of the key columns in the table schema, in key order.
    key_columns: Vec<usize>,
    unique: bool,
    store: IndexStore,
}

#[derive(Debug, Clone)]
enum IndexStore {
    Hash(HashMap<IndexKey, Vec<RowId>>),
    BTree(BTreeMap<IndexKey, Vec<RowId>>),
}

impl Index {
    pub fn new(
        name: impl Into<String>,
        kind: IndexKind,
        key_columns: Vec<usize>,
        unique: bool,
    ) -> Self {
        let store = match kind {
            IndexKind::Hash => IndexStore::Hash(HashMap::new()),
            IndexKind::BTree => IndexStore::BTree(BTreeMap::new()),
        };
        Index {
            name: name.into(),
            key_columns,
            unique,
            store,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    pub fn kind(&self) -> IndexKind {
        match self.store {
            IndexStore::Hash(_) => IndexKind::Hash,
            IndexStore::BTree(_) => IndexKind::BTree,
        }
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Extracts this index's key from a full table row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        self.key_columns.iter().map(|&i| row[i].clone()).collect()
    }

    /// Inserts a (key, row) entry. Fails on unique violation without mutating.
    pub fn insert(&mut self, row: &[Value], rid: RowId) -> Result<()> {
        let key = self.key_of(row);
        if self.unique {
            if let Some(existing) = self.get_bucket(&key) {
                if !existing.is_empty() {
                    return Err(Error::UniqueViolation {
                        index: self.name.clone(),
                        key: format!("{key:?}"),
                    });
                }
            }
        }
        match &mut self.store {
            IndexStore::Hash(m) => m.entry(key).or_default().push(rid),
            IndexStore::BTree(m) => m.entry(key).or_default().push(rid),
        }
        Ok(())
    }

    /// Removes a (key, row) entry; a no-op if the entry is absent.
    pub fn remove(&mut self, row: &[Value], rid: RowId) {
        let key = self.key_of(row);
        let bucket = match &mut self.store {
            IndexStore::Hash(m) => m.get_mut(&key),
            IndexStore::BTree(m) => m.get_mut(&key),
        };
        if let Some(bucket) = bucket {
            bucket.retain(|&r| r != rid);
            if bucket.is_empty() {
                match &mut self.store {
                    IndexStore::Hash(m) => {
                        m.remove(&key);
                    }
                    IndexStore::BTree(m) => {
                        m.remove(&key);
                    }
                }
            }
        }
    }

    fn get_bucket(&self, key: &IndexKey) -> Option<&Vec<RowId>> {
        match &self.store {
            IndexStore::Hash(m) => m.get(key),
            IndexStore::BTree(m) => m.get(key),
        }
    }

    /// Point probe: all row ids with exactly this key.
    pub fn probe(&self, key: &IndexKey) -> Vec<RowId> {
        self.get_bucket(key).cloned().unwrap_or_default()
    }

    /// Number of distinct keys currently in the index.
    pub fn distinct_keys(&self) -> usize {
        match &self.store {
            IndexStore::Hash(m) => m.len(),
            IndexStore::BTree(m) => m.len(),
        }
    }

    /// Drops all entries (used when truncating a table).
    pub fn clear(&mut self) {
        match &mut self.store {
            IndexStore::Hash(m) => m.clear(),
            IndexStore::BTree(m) => m.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn hash_index_point_probe() {
        let mut idx = Index::new("i", IndexKind::Hash, vec![0], false);
        idx.insert(&row(&[1, 10]), RowId(0)).unwrap();
        idx.insert(&row(&[1, 20]), RowId(1)).unwrap();
        idx.insert(&row(&[2, 30]), RowId(2)).unwrap();
        let mut hits = idx.probe(&vec![Value::Int(1)]);
        hits.sort();
        assert_eq!(hits, vec![RowId(0), RowId(1)]);
        assert!(idx.probe(&vec![Value::Int(9)]).is_empty());
    }

    #[test]
    fn unique_violation() {
        let mut idx = Index::new("u", IndexKind::Hash, vec![0], true);
        idx.insert(&row(&[1]), RowId(0)).unwrap();
        let err = idx.insert(&row(&[1]), RowId(1)).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        // after removing, the key can be reused
        idx.remove(&row(&[1]), RowId(0));
        idx.insert(&row(&[1]), RowId(2)).unwrap();
    }

    #[test]
    fn remove_is_exact() {
        let mut idx = Index::new("i", IndexKind::Hash, vec![0], false);
        idx.insert(&row(&[5]), RowId(0)).unwrap();
        idx.insert(&row(&[5]), RowId(1)).unwrap();
        idx.remove(&row(&[5]), RowId(0));
        assert_eq!(idx.probe(&vec![Value::Int(5)]), vec![RowId(1)]);
        // removing a non-member is a no-op
        idx.remove(&row(&[5]), RowId(42));
        assert_eq!(idx.probe(&vec![Value::Int(5)]), vec![RowId(1)]);
    }

    #[test]
    fn clear_empties_index() {
        let mut idx = Index::new("i", IndexKind::Hash, vec![0], false);
        idx.insert(&row(&[1]), RowId(0)).unwrap();
        idx.clear();
        assert_eq!(idx.distinct_keys(), 0);
    }
}
