//! Secondary indexes: from a composite key (one or more column values) to
//! the live rows carrying that key, in insertion order.
//!
//! An index stores no copy of its keys. It maps the 64-bit hash of a key to
//! the rows with that hash, kept in one group per distinct key, and a
//! group's first row stands for its key. Insert, remove, the unique check
//! and probes hash the key columns where they sit — in the row, or in the
//! probe key — and compare them against the key columns of that first row
//! in the table's own slots, so two keys that share a hash keep two groups.
//! A key held by one row costs no allocation beyond its map entry.
//!
//! Every index answers point probes the same way; [`IndexKind`] is a tag
//! that the WAL and snapshot formats record.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash, Hasher};

use mdv_runtime::{MixHashMap, MixState};

use crate::error::{Error, Result};
use crate::table::{Heap, RowId};
use crate::value::Value;

/// The kind an index was declared with, recorded by the WAL and snapshot
/// formats. Both kinds are stored and probed alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Hash,
    BTree,
}

/// The hash an index files `key` under: each key column's [`Value`] hash
/// in key order, through one [`mdv_runtime::MixHasher`].
pub fn key_hash(key: &[Value]) -> u64 {
    hash_values(key)
}

fn hash_values<'v>(values: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut h = MixState.build_hasher();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Whether two full rows carry the same values in the key columns `cols`.
fn same_key(cols: &[usize], a: &[Value], b: &[Value]) -> bool {
    cols.iter().all(|&c| a[c] == b[c])
}

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    kind: IndexKind,
    /// Positions of the key columns in the table schema, in key order.
    key_columns: Vec<usize>,
    unique: bool,
    buckets: MixHashMap<u64, Bucket>,
}

/// The rows of the keys that share one hash.
#[derive(Debug, Clone)]
enum Bucket {
    /// One key, held by one row.
    One(RowId),
    /// One key, held by several rows.
    Many(Vec<RowId>),
    /// Distinct keys, one group each.
    Collided(Vec<Vec<RowId>>),
}

impl Index {
    pub(crate) fn new(
        name: impl Into<String>,
        kind: IndexKind,
        key_columns: Vec<usize>,
        unique: bool,
    ) -> Self {
        Index {
            name: name.into(),
            kind,
            key_columns,
            unique,
            buckets: MixHashMap::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Number of distinct keys currently in the index.
    pub fn distinct_keys(&self) -> usize {
        self.buckets
            .values()
            .map(|b| match b {
                Bucket::One(_) | Bucket::Many(_) => 1,
                Bucket::Collided(groups) => groups.len(),
            })
            .sum()
    }

    /// The hash of `row`'s key, read where its key columns sit.
    fn row_hash(&self, row: &[Value]) -> u64 {
        hash_values(self.key_columns.iter().map(|&c| &row[c]))
    }

    /// The group filed under `hash` whose first row satisfies `is_key`.
    fn group(&self, hash: u64, is_key: impl Fn(RowId) -> bool) -> &[RowId] {
        match self.buckets.get(&hash) {
            Some(Bucket::One(rid)) if is_key(*rid) => std::slice::from_ref(rid),
            Some(Bucket::Many(rows)) if is_key(rows[0]) => rows,
            Some(Bucket::Collided(groups)) => groups
                .iter()
                .find(|g| is_key(g[0]))
                .map_or(&[], Vec::as_slice),
            _ => &[],
        }
    }

    /// Refuses `row` when this index is unique and another live row holds
    /// its key.
    pub(crate) fn check_unique(&self, row: &[Value], heap: &Heap) -> Result<()> {
        if self.unique
            && !self
                .group(self.row_hash(row), |rid| {
                    same_key(&self.key_columns, row, heap.row(rid))
                })
                .is_empty()
        {
            let key: Vec<&Value> = self.key_columns.iter().map(|&c| &row[c]).collect();
            return Err(Error::UniqueViolation {
                index: self.name.clone(),
                key: format!("{key:?}"),
            });
        }
        Ok(())
    }

    /// Whether `a` and `b` file under different keys of this index.
    pub(crate) fn rekeys(&self, a: &[Value], b: &[Value]) -> bool {
        !same_key(&self.key_columns, a, b)
    }

    /// Files `rid`, whose row is `row`, at the end of its key's group. The
    /// caller has run [`Index::check_unique`].
    pub(crate) fn insert(&mut self, row: &[Value], rid: RowId, heap: &Heap) {
        let hash = self.row_hash(row);
        let cols = &self.key_columns;
        let same_key = |first: RowId| same_key(cols, row, heap.row(first));
        let bucket = match self.buckets.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(Bucket::One(rid));
                return;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        match bucket {
            Bucket::One(first) => {
                let first = *first;
                *bucket = if same_key(first) {
                    Bucket::Many(vec![first, rid])
                } else {
                    Bucket::Collided(vec![vec![first], vec![rid]])
                };
            }
            Bucket::Many(rows) if same_key(rows[0]) => rows.push(rid),
            Bucket::Many(rows) => *bucket = Bucket::Collided(vec![std::mem::take(rows), vec![rid]]),
            Bucket::Collided(groups) => match groups.iter_mut().find(|g| same_key(g[0])) {
                Some(group) => group.push(rid),
                None => groups.push(vec![rid]),
            },
        }
    }

    /// Removes `rid`, whose row is `row`, from its key's group; a no-op if
    /// it is not filed.
    pub(crate) fn remove(&mut self, row: &[Value], rid: RowId) {
        let Entry::Occupied(mut entry) = self.buckets.entry(self.row_hash(row)) else {
            return;
        };
        // a row sits in one group only, so its id finds that group
        let drop_row = |rows: &mut Vec<RowId>| {
            if let Some(at) = rows.iter().position(|&r| r == rid) {
                rows.remove(at);
            }
        };
        let left = match entry.get_mut() {
            Bucket::One(first) if *first == rid => None,
            Bucket::One(_) => return,
            Bucket::Many(rows) => {
                drop_row(rows);
                match rows.as_slice() {
                    [only] => Some(Bucket::One(*only)),
                    _ => return,
                }
            }
            Bucket::Collided(groups) => {
                groups.iter_mut().for_each(drop_row);
                groups.retain(|g| !g.is_empty());
                match groups.as_mut_slice() {
                    [] => None,
                    [only] => Some(match only.as_slice() {
                        [one] => Bucket::One(*one),
                        _ => Bucket::Many(std::mem::take(only)),
                    }),
                    _ => return,
                }
            }
        };
        match left {
            Some(bucket) => *entry.get_mut() = bucket,
            None => {
                entry.remove();
            }
        }
    }

    /// Drops all entries (used when truncating a table).
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
    }
}

/// An index of a table, able to probe it: what
/// [`Table::index`](crate::Table::index) returns.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'t> {
    index: &'t Index,
    heap: &'t Heap,
}

impl<'t> IndexView<'t> {
    pub(crate) fn new(index: &'t Index, heap: &'t Heap) -> Self {
        IndexView { index, heap }
    }

    /// Point probe: the live rows with exactly this key, in insertion order
    /// (a row whose key an update changed sits at the end of its new key).
    pub fn probe(&self, key: &[Value]) -> &'t [RowId] {
        let (cols, heap) = (&self.index.key_columns, self.heap);
        if key.len() != cols.len() {
            return &[];
        }
        self.index.group(key_hash(key), |rid| {
            let row = heap.row(rid);
            cols.iter().zip(key).all(|(&c, v)| row[c] == *v)
        })
    }
}

impl std::ops::Deref for IndexView<'_> {
    type Target = Index;

    fn deref(&self) -> &Index {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // an Int hashes through its f64 bits, whose low half is zero here
        let mut counts = vec![0usize; 1024];
        for i in 0..10_000 {
            counts[key_hash(&[Value::Int(i)]) as usize & 1023] += 1;
        }
        let fullest = counts.into_iter().max().unwrap();
        assert!(fullest <= 30, "fullest of 1024 buckets holds {fullest}");
    }

    #[test]
    fn equal_values_hash_alike_across_numeric_types() {
        assert_eq!(
            key_hash(&[Value::Int(2), Value::from("a")]),
            key_hash(&[Value::Float(2.0), Value::from("a")])
        );
    }
}
