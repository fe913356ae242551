//! Heap tables: slotted row storage with secondary index maintenance.

use mdv_runtime::MixHashMap;

use crate::error::{Error, Result};
use crate::index::{Index, IndexKind, IndexView};
use crate::schema::TableSchema;
use crate::value::Value;

/// Stable identifier of a row within its table.
///
/// Row ids are never reused while the row is live; deleting a row frees its
/// slot for reuse by a *new* id, so dangling ids are detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// A materialized row.
pub type Row = Vec<Value>;

#[derive(Debug, Clone)]
struct Slot {
    id: RowId,
    row: Row,
}

/// The rows of a table, addressed by id; the indexes read their keys here.
#[derive(Debug, Clone, Default)]
pub(crate) struct Heap {
    /// Live slots; `None` marks a hole left by a delete.
    slots: Vec<Option<Slot>>,
    /// Maps live row ids to their slot position.
    by_id: MixHashMap<RowId, usize>,
    /// Slot positions available for reuse.
    free: Vec<usize>,
}

impl Heap {
    fn get(&self, id: RowId) -> Option<&Row> {
        let pos = *self.by_id.get(&id)?;
        self.slots[pos].as_ref().map(|s| &s.row)
    }

    /// The row of a live id; an index holds live ids only.
    pub(crate) fn row(&self, id: RowId) -> &Row {
        self.get(id).expect("an index names live rows only")
    }
}

/// An in-memory heap table with optional secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    heap: Heap,
    next_id: u64,
    indexes: Vec<Index>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            heap: Heap::default(),
            next_id: 0,
            indexes: Vec::new(),
        }
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.by_id.is_empty()
    }

    fn invalid_row(&self, id: RowId) -> Error {
        Error::InvalidRowId {
            table: self.name().to_owned(),
            row: id.0,
        }
    }

    /// Creates a secondary index over the named columns and backfills it from
    /// existing rows.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        kind: IndexKind,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name() == name) {
            return Err(Error::IndexExists(name));
        }
        let cols = self.schema.column_indices(columns)?;
        let mut idx = Index::new(name, kind, cols, unique);
        for slot in self.heap.slots.iter().flatten() {
            idx.check_unique(&slot.row, &self.heap)?;
            idx.insert(&slot.row, slot.id, &self.heap);
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// The named index, ready to probe this table.
    pub fn index(&self, name: &str) -> Result<IndexView<'_>> {
        self.indexes
            .iter()
            .find(|i| i.name() == name)
            .map(|i| IndexView::new(i, &self.heap))
            .ok_or_else(|| Error::UnknownIndex(name.to_owned()))
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Inserts a row, returning its id. All indexes are updated; a unique
    /// violation aborts the insert with no change.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        let id = RowId(self.next_id);
        self.insert_with_id(id, row).map(|()| id)
    }

    /// Inserts a row under `id`, which must not be live, and moves the id
    /// counter past it: WAL replay and snapshot load reproduce the logged
    /// ids this way. A unique violation aborts the insert with no change.
    pub(crate) fn insert_with_id(&mut self, id: RowId, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        // ids at or past the counter were never handed out
        if id.0 < self.next_id && self.heap.by_id.contains_key(&id) {
            return Err(self.invalid_row(id));
        }
        // Validate unique constraints before touching anything.
        for idx in &self.indexes {
            idx.check_unique(&row, &self.heap)?;
        }
        self.next_id = self.next_id.max(id.0 + 1);
        for idx in &mut self.indexes {
            idx.insert(&row, id, &self.heap);
        }
        let heap = &mut self.heap;
        let slot = Slot { id, row };
        let pos = match heap.free.pop() {
            Some(pos) => {
                heap.slots[pos] = Some(slot);
                pos
            }
            None => {
                heap.slots.push(Some(slot));
                heap.slots.len() - 1
            }
        };
        heap.by_id.insert(id, pos);
        Ok(())
    }

    /// Inserts many rows; stops at the first error (rows before it stay).
    pub fn insert_batch(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<Vec<RowId>> {
        rows.into_iter().map(|r| self.insert(r)).collect()
    }

    /// Fetches a row by id.
    pub fn get(&self, id: RowId) -> Result<&Row> {
        self.heap.get(id).ok_or_else(|| self.invalid_row(id))
    }

    /// Deletes a row by id, returning the removed row.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let pos = self
            .heap
            .by_id
            .remove(&id)
            .ok_or_else(|| self.invalid_row(id))?;
        let slot = self.heap.slots[pos]
            .take()
            .expect("by_id points at live slot");
        self.heap.free.push(pos);
        for idx in &mut self.indexes {
            idx.remove(&slot.row, id);
        }
        Ok(slot.row)
    }

    /// Replaces a row in place, keeping its id. Only the indexes whose key
    /// columns changed are re-keyed, and a re-keyed row goes to the end of
    /// its new key; a key change that would break a unique index is
    /// refused with no change.
    pub fn update(&mut self, id: RowId, new_row: Row) -> Result<Row> {
        self.schema.check_row(&new_row)?;
        let pos = *self
            .heap
            .by_id
            .get(&id)
            .ok_or_else(|| self.invalid_row(id))?;
        let heap = &self.heap;
        let old_row = &heap.slots[pos].as_ref().expect("live slot").row;
        for idx in &self.indexes {
            if idx.rekeys(old_row, &new_row) {
                idx.check_unique(&new_row, heap)?;
            }
        }
        // `id` leaves its old group before joining the new one, so no
        // comparison reads its row while the two disagree
        for idx in &mut self.indexes {
            if idx.rekeys(old_row, &new_row) {
                idx.remove(old_row, id);
                idx.insert(&new_row, id, heap);
            }
        }
        let slot = self.heap.slots[pos].as_mut().expect("live slot");
        Ok(std::mem::replace(&mut slot.row, new_row))
    }

    /// Iterates over `(id, row)` pairs of live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.heap.slots.iter().flatten().map(|s| (s.id, &s.row))
    }

    /// Removes every row (indexes included) but keeps the schema and indexes.
    pub fn truncate(&mut self) {
        self.heap = Heap::default();
        for idx in &mut self.indexes {
            idx.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                ],
            )
            .unwrap(),
        )
    }

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Str(name.into())]
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut t = table();
        let a = t.insert(row(1, "a")).unwrap();
        let b = t.insert(row(2, "b")).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap()[1], Value::Str("a".into()));
        let removed = t.delete(a).unwrap();
        assert_eq!(removed[0], Value::Int(1));
        assert!(t.get(a).is_err());
        assert_eq!(t.get(b).unwrap()[0], Value::Int(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn slot_reuse_gets_fresh_id() {
        let mut t = table();
        let a = t.insert(row(1, "a")).unwrap();
        t.delete(a).unwrap();
        let b = t.insert(row(2, "b")).unwrap();
        assert_ne!(a, b, "row ids are never reused");
        assert!(t.get(a).is_err());
    }

    #[test]
    fn insert_with_id_keeps_the_id_and_refuses_a_live_one() {
        let mut t = table();
        t.create_index("by_name", IndexKind::Hash, &["name"], false)
            .unwrap();
        let a = t.insert(row(1, "a")).unwrap();
        t.delete(a).unwrap();
        t.insert_with_id(RowId(5), row(2, "b")).unwrap();
        t.insert_with_id(a, row(1, "a")).unwrap();
        assert!(t.insert_with_id(a, row(3, "c")).is_err());
        assert_eq!(t.get(a).unwrap(), &row(1, "a"));
        let idx = t.index("by_name").unwrap();
        assert_eq!(idx.probe(&[Value::Str("b".into())]), vec![RowId(5)]);
        // the counter moved past the highest id placed
        assert_eq!(t.insert(row(4, "d")).unwrap(), RowId(6));
    }

    #[test]
    fn schema_enforced_on_insert_and_update() {
        let mut t = table();
        assert!(t
            .insert(vec![Value::Str("x".into()), Value::Str("y".into())])
            .is_err());
        let a = t.insert(row(1, "a")).unwrap();
        assert!(t.update(a, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn index_maintained_through_mutations() {
        let mut t = table();
        t.create_index("by_name", IndexKind::Hash, &["name"], false)
            .unwrap();
        let a = t.insert(row(1, "a")).unwrap();
        let _b = t.insert(row(2, "b")).unwrap();
        let idx = t.index("by_name").unwrap();
        assert_eq!(idx.probe(&[Value::Str("a".into())]), vec![a]);
        t.update(a, row(1, "z")).unwrap();
        let idx = t.index("by_name").unwrap();
        assert!(idx.probe(&[Value::Str("a".into())]).is_empty());
        assert_eq!(idx.probe(&[Value::Str("z".into())]), vec![a]);
        t.delete(a).unwrap();
        let idx = t.index("by_name").unwrap();
        assert!(idx.probe(&[Value::Str("z".into())]).is_empty());
    }

    #[test]
    fn index_backfill_on_creation() {
        let mut t = table();
        let a = t.insert(row(1, "a")).unwrap();
        t.create_index("by_id", IndexKind::BTree, &["id"], true)
            .unwrap();
        assert_eq!(t.index("by_id").unwrap().probe(&[Value::Int(1)]), vec![a]);
    }

    #[test]
    fn unique_index_enforced() {
        let mut t = table();
        t.create_index("pk", IndexKind::Hash, &["id"], true)
            .unwrap();
        t.insert(row(1, "a")).unwrap();
        assert!(matches!(
            t.insert(row(1, "dup")),
            Err(Error::UniqueViolation { .. })
        ));
        // failed insert left no garbage behind
        assert_eq!(t.len(), 1);
        let b = t.insert(row(2, "b")).unwrap();
        // update to a clashing key fails, same-key update succeeds
        assert!(t.update(b, row(1, "b")).is_err());
        t.update(b, row(2, "b2")).unwrap();
    }

    #[test]
    fn update_rekeys_only_changed_indexes_and_keeps_probes_exact() {
        let mut t = table();
        t.create_index("pk", IndexKind::Hash, &["id"], true)
            .unwrap();
        t.create_index("by_name", IndexKind::BTree, &["name"], false)
            .unwrap();
        let a = t.insert(row(1, "a")).unwrap();
        let b = t.insert(row(2, "b")).unwrap();
        t.insert(row(3, "b")).unwrap();
        t.update(a, row(1, "b")).unwrap(); // `by_name` key changes
        t.update(b, row(4, "b")).unwrap(); // `pk` key changes
        t.update(b, row(4, "b")).unwrap(); // no key changes
        assert!(
            matches!(t.update(a, row(3, "a")), Err(Error::UniqueViolation { .. })),
            "a key change onto a live unique key is refused"
        );
        assert_eq!(
            t.get(a).unwrap(),
            &row(1, "b"),
            "a refused update changes nothing"
        );
        for (column, idx) in [(0, "pk"), (1, "by_name")] {
            for (_, r) in t.iter() {
                let key = vec![r[column].clone()];
                let mut scanned: Vec<RowId> = t
                    .iter()
                    .filter(|(_, other)| other[column] == key[0])
                    .map(|(id, _)| id)
                    .collect();
                let mut probed = t.index(idx).unwrap().probe(&key).to_vec();
                scanned.sort();
                probed.sort();
                assert_eq!(probed, scanned, "{idx} probe of {key:?}");
            }
        }
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        t.create_index("i", IndexKind::Hash, &["id"], false)
            .unwrap();
        assert!(matches!(
            t.create_index("i", IndexKind::Hash, &["name"], false),
            Err(Error::IndexExists(_))
        ));
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut t = table();
        t.create_index("by_name", IndexKind::Hash, &["name"], false)
            .unwrap();
        t.insert(row(1, "a")).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.index("by_name").unwrap().distinct_keys(), 0);
        // still usable after truncate
        t.insert(row(3, "c")).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_yields_live_rows_only() {
        let mut t = table();
        let a = t.insert(row(1, "a")).unwrap();
        let _b = t.insert(row(2, "b")).unwrap();
        t.delete(a).unwrap();
        let names: Vec<_> = t.iter().map(|(_, r)| r[1].to_string()).collect();
        assert_eq!(names, vec!["b"]);
    }
}
