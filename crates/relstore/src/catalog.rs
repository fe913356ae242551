//! The database catalog: a named collection of tables with convenience
//! mutation APIs. One `Database` instance backs one MDV node (an MDP's filter
//! tables, or an LMR's cache).

use std::collections::BTreeMap;

use crate::error::{Error, Result};
use crate::index::IndexKind;
use crate::schema::TableSchema;
use crate::table::{Row, RowId, Table};

/// A named collection of in-memory tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    // BTreeMap keeps table listings deterministic for debugging and tests.
    tables: BTreeMap<String, Table>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        let name = schema.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(Error::TableExists(name));
        }
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Drops a table, returning it.
    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        self.tables
            .remove(name)
            .ok_or_else(|| Error::UnknownTable(name.to_owned()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::UnknownTable(name.to_owned()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_owned()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Creates a secondary index on a table.
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: &str,
        kind: IndexKind,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        self.table_mut(table)?
            .create_index(index_name, kind, columns, unique)
    }

    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId> {
        self.table_mut(table)?.insert(row)
    }

    pub fn insert_batch(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<Vec<RowId>> {
        self.table_mut(table)?.insert_batch(rows)
    }

    pub fn delete(&mut self, table: &str, id: RowId) -> Result<Row> {
        self.table_mut(table)?.delete(id)
    }

    pub fn update(&mut self, table: &str, id: RowId, row: Row) -> Result<Row> {
        self.table_mut(table)?.update(id, row)
    }

    pub fn get(&self, table: &str, id: RowId) -> Result<&Row> {
        self.table(table)?.get(id)
    }

    /// Total number of live rows across all tables (diagnostics).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{DataType, Value};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Str),
            ],
        )
        .unwrap()
    }

    #[test]
    fn create_and_drop_tables() {
        let mut db = Database::new();
        db.create_table(schema("a")).unwrap();
        db.create_table(schema("b")).unwrap();
        assert!(matches!(
            db.create_table(schema("a")),
            Err(Error::TableExists(_))
        ));
        assert_eq!(db.table_names(), vec!["a", "b"]);
        db.drop_table("a").unwrap();
        assert!(!db.has_table("a"));
        assert!(matches!(db.drop_table("a"), Err(Error::UnknownTable(_))));
    }

    #[test]
    fn crud_through_catalog() {
        let mut db = Database::new();
        db.create_table(schema("t")).unwrap();
        let id = db
            .insert("t", vec![Value::Int(1), Value::Str("x".into())])
            .unwrap();
        assert_eq!(db.get("t", id).unwrap()[0], Value::Int(1));
        db.update("t", id, vec![Value::Int(2), Value::Str("y".into())])
            .unwrap();
        assert_eq!(db.get("t", id).unwrap()[0], Value::Int(2));
        db.delete("t", id).unwrap();
        assert!(db.get("t", id).is_err());
        assert!(db.insert("missing", vec![]).is_err());
    }

    #[test]
    fn total_rows_counts_all_tables() {
        let mut db = Database::new();
        db.create_table(schema("a")).unwrap();
        db.create_table(schema("b")).unwrap();
        db.insert("a", vec![Value::Int(1), Value::Str("x".into())])
            .unwrap();
        db.insert_batch(
            "b",
            vec![
                vec![Value::Int(2), Value::Str("y".into())],
                vec![Value::Int(3), Value::Str("z".into())],
            ],
        )
        .unwrap();
        assert_eq!(db.total_rows(), 3);
    }

    #[test]
    fn index_via_catalog() {
        let mut db = Database::new();
        db.create_table(schema("t")).unwrap();
        db.create_index("t", "by_k", IndexKind::BTree, &["k"], false)
            .unwrap();
        let id = db
            .insert("t", vec![Value::Int(7), Value::Str("x".into())])
            .unwrap();
        let idx = db.table("t").unwrap().index("by_k").unwrap();
        assert_eq!(idx.probe(&[Value::Int(7)]), vec![id]);
    }
}
