//! The filter's relational backing store: base metadata tables and the
//! materialized results of atomic rules.
//!
//! Tables (all held in an embedded [`Database`]):
//!
//! * `Statements(uri_reference, class, property, value)` — every registered
//!   atom, including the synthetic `rdf#subject` marker rows of Figure 4.
//!   This is the persistent superset of the per-batch `FilterData`.
//! * `Resources(uri_reference, class, document_uri)` — the resource registry.
//! * `RuleResults(rule_id, uri_reference, support)` — materialized results
//!   of atomic rules that join rules depend on (paper §3.4: "the results of
//!   atomic rules join rules depend on are materialized"), each with its
//!   support count: the number of immediate derivations of the tuple.

use std::collections::BTreeMap;

use mdv_rdf::{Document, Resource, Term, UriRef, RDF_SUBJECT};
use mdv_relstore::{ColumnDef, DataType, Database, IndexKind, StorageEngine, TableSchema, Value};

use crate::atoms::{RuleId, TriggerOp};
use crate::error::Result;

/// One decomposed document atom — a row of `FilterData` (Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    pub uri: String,
    pub class: String,
    pub property: String,
    pub value: String,
}

impl Atom {
    /// Decomposes a resource into atoms, subject marker first (paper §3.2).
    pub fn from_resource(res: &Resource) -> Vec<Atom> {
        let mut out = Vec::with_capacity(res.properties().len() + 1);
        out.push(Atom {
            uri: res.uri().to_string(),
            class: res.class().to_owned(),
            property: RDF_SUBJECT.to_owned(),
            value: res.uri().to_string(),
        });
        for (prop, term) in res.properties() {
            out.push(Atom {
                uri: res.uri().to_string(),
                class: res.class().to_owned(),
                property: prop.clone(),
                value: term.lexical().to_owned(),
            });
        }
        out
    }

    /// Decomposes a whole document.
    pub fn from_document(doc: &Document) -> Vec<Atom> {
        doc.resources()
            .iter()
            .flat_map(Atom::from_resource)
            .collect()
    }
}

pub const T_STATEMENTS: &str = "Statements";
pub const T_RESOURCES: &str = "Resources";
pub const T_RULE_RESULTS: &str = "RuleResults";
pub const IDX_STMT_URI: &str = "Statements_by_uri";
pub const IDX_STMT_CP: &str = "Statements_by_class_prop";
pub const IDX_STMT_CPV: &str = "Statements_by_class_prop_value";
pub const IDX_RES_URI: &str = "Resources_by_uri";
pub const IDX_RES_CLASS: &str = "Resources_by_class";
pub const IDX_RES_DOC: &str = "Resources_by_document";
pub const IDX_RR_RULE: &str = "RuleResults_by_rule";
pub const IDX_RR_PAIR: &str = "RuleResults_by_rule_uri";
pub const IDX_RR_URI: &str = "RuleResults_by_uri";

/// Creates the base tables in `db`.
pub fn create_base_tables<S: StorageEngine>(db: &mut S) -> Result<()> {
    db.create_table(TableSchema::new(
        T_STATEMENTS,
        vec![
            ColumnDef::new("uri_reference", DataType::Str),
            ColumnDef::new("class", DataType::Str),
            ColumnDef::new("property", DataType::Str),
            ColumnDef::new("value", DataType::Str),
        ],
    )?)?;
    db.create_index(
        T_STATEMENTS,
        IDX_STMT_URI,
        IndexKind::Hash,
        &["uri_reference"],
        false,
    )?;
    db.create_index(
        T_STATEMENTS,
        IDX_STMT_CP,
        IndexKind::Hash,
        &["class", "property"],
        false,
    )?;
    db.create_index(
        T_STATEMENTS,
        IDX_STMT_CPV,
        IndexKind::Hash,
        &["class", "property", "value"],
        false,
    )?;

    db.create_table(TableSchema::new(
        T_RESOURCES,
        vec![
            ColumnDef::new("uri_reference", DataType::Str),
            ColumnDef::new("class", DataType::Str),
            ColumnDef::new("document_uri", DataType::Str),
        ],
    )?)?;
    db.create_index(
        T_RESOURCES,
        IDX_RES_URI,
        IndexKind::Hash,
        &["uri_reference"],
        true,
    )?;
    db.create_index(
        T_RESOURCES,
        IDX_RES_CLASS,
        IndexKind::Hash,
        &["class"],
        false,
    )?;
    db.create_index(
        T_RESOURCES,
        IDX_RES_DOC,
        IndexKind::Hash,
        &["document_uri"],
        false,
    )?;

    db.create_table(TableSchema::new(
        T_RULE_RESULTS,
        vec![
            ColumnDef::new("rule_id", DataType::Int),
            ColumnDef::new("uri_reference", DataType::Str),
            ColumnDef::new("support", DataType::Int),
        ],
    )?)?;
    db.create_index(
        T_RULE_RESULTS,
        IDX_RR_RULE,
        IndexKind::Hash,
        &["rule_id"],
        false,
    )?;
    db.create_index(
        T_RULE_RESULTS,
        IDX_RR_PAIR,
        IndexKind::Hash,
        &["rule_id", "uri_reference"],
        true,
    )?;
    db.create_index(
        T_RULE_RESULTS,
        IDX_RR_URI,
        IndexKind::Hash,
        &["uri_reference"],
        false,
    )?;
    Ok(())
}

/// Typed accessors over the base tables.
pub struct BaseStore;

impl BaseStore {
    /// Inserts a resource's atoms and registry row.
    pub fn insert_resource<S: StorageEngine>(
        db: &mut S,
        res: &Resource,
        document_uri: &str,
    ) -> Result<()> {
        db.insert(
            T_RESOURCES,
            vec![
                Value::from(res.uri().as_str()),
                Value::from(res.class()),
                Value::from(document_uri),
            ],
        )?;
        for atom in Atom::from_resource(res) {
            db.insert(
                T_STATEMENTS,
                vec![
                    Value::from(atom.uri),
                    Value::from(atom.class),
                    Value::from(atom.property),
                    Value::from(atom.value),
                ],
            )?;
        }
        Ok(())
    }

    /// Whether the base tables already hold exactly what
    /// [`BaseStore::insert_resource`] would write for `res`: its registry
    /// row and, as a multiset (row order is not semantic), its atoms.
    pub fn holds_resource(db: &Database, res: &Resource, document_uri: &str) -> Result<bool> {
        let key = [Value::from(res.uri().as_str())];
        let registry = db.table(T_RESOURCES)?;
        let Some(&rid) = registry.index(IDX_RES_URI)?.probe(&key).first() else {
            return Ok(false);
        };
        let row = registry.get(rid)?;
        if row[1].as_str() != Some(res.class()) || row[2].as_str() != Some(document_uri) {
            return Ok(false);
        }
        let statements = db.table(T_STATEMENTS)?;
        let rids = statements.index(IDX_STMT_URI)?.probe(&key);
        if rids.len() != res.properties().len() + 1 {
            return Ok(false);
        }
        let mut stored = Vec::with_capacity(rids.len());
        for &rid in rids {
            let row = statements.get(rid)?;
            stored.push((row[1].as_str(), row[2].as_str(), row[3].as_str()));
        }
        let atoms = Atom::from_resource(res);
        let mut fresh: Vec<_> = atoms
            .iter()
            .map(|a| {
                (
                    Some(a.class.as_str()),
                    Some(a.property.as_str()),
                    Some(a.value.as_str()),
                )
            })
            .collect();
        stored.sort_unstable();
        fresh.sort_unstable();
        Ok(stored == fresh)
    }

    /// Removes a resource's atoms and registry row; a no-op when absent.
    pub fn remove_resource<S: StorageEngine>(db: &mut S, uri: &str) -> Result<()> {
        let key = [Value::from(uri)];
        delete_probed(db, T_STATEMENTS, IDX_STMT_URI, &key)?;
        delete_probed(db, T_RESOURCES, IDX_RES_URI, &key)?;
        Ok(())
    }

    pub fn resource_exists(db: &Database, uri: &str) -> Result<bool> {
        Ok(!db
            .table(T_RESOURCES)?
            .index(IDX_RES_URI)?
            .probe(&[Value::from(uri)])
            .is_empty())
    }

    pub fn resource_class(db: &Database, uri: &str) -> Result<Option<String>> {
        let t = db.table(T_RESOURCES)?;
        let rows = t.index(IDX_RES_URI)?.probe(&[Value::from(uri)]);
        match rows.first() {
            Some(&rid) => Ok(Some(t.get(rid)?[1].to_string())),
            None => Ok(None),
        }
    }

    /// All resource URIs of a class.
    pub fn resources_of_class(db: &Database, class: &str) -> Result<Vec<String>> {
        let t = db.table(T_RESOURCES)?;
        let rows = t.index(IDX_RES_CLASS)?.probe(&[Value::from(class)]);
        rows.iter()
            .map(|&rid| Ok(t.get(rid)?[0].to_string()))
            .collect()
    }

    /// Property values of one resource (`RDF_SUBJECT` yields the URI itself).
    pub fn values_of(db: &Database, uri: &str, property: &str) -> Result<Vec<String>> {
        if property == RDF_SUBJECT {
            return Ok(vec![uri.to_owned()]);
        }
        let t = db.table(T_STATEMENTS)?;
        let rows = t.index(IDX_STMT_URI)?.probe(&[Value::from(uri)]);
        let mut out = Vec::new();
        for &rid in rows {
            let row = t.get(rid)?;
            if row[2].as_str() == Some(property) {
                out.push(row[3].to_string());
            }
        }
        Ok(out)
    }

    /// All statements of one resource as `(property, value)` pairs, subject
    /// marker excluded.
    pub fn statements_of(db: &Database, uri: &str) -> Result<Vec<(String, String)>> {
        let t = db.table(T_STATEMENTS)?;
        let rows = t.index(IDX_STMT_URI)?.probe(&[Value::from(uri)]);
        let mut out = Vec::new();
        for &rid in rows {
            let row = t.get(rid)?;
            let prop = row[2].to_string();
            if prop != RDF_SUBJECT {
                out.push((prop, row[3].to_string()));
            }
        }
        Ok(out)
    }

    /// Reconstructs a resource from the base tables. Values that parse as
    /// URI references into registered resources become reference terms.
    pub fn resource(db: &Database, uri: &str) -> Result<Option<Resource>> {
        let Some(class) = Self::resource_class(db, uri)? else {
            return Ok(None);
        };
        let uri_ref = UriRef::from_absolute(uri);
        let mut res = Resource::new(uri_ref, class);
        for (prop, value) in Self::statements_of(db, uri)? {
            let term = if UriRef::parse(&value).is_some() && Self::resource_exists(db, &value)? {
                Term::resource(UriRef::from_absolute(value))
            } else {
                Term::literal(value)
            };
            res.add(prop, term);
        }
        Ok(Some(res))
    }

    /// Resources whose `property` value equals `value` exactly, restricted
    /// to `class` — the reverse-reference probe used by join evaluation.
    pub fn resources_with_value(
        db: &Database,
        class: &str,
        property: &str,
        value: &str,
    ) -> Result<Vec<String>> {
        let t = db.table(T_STATEMENTS)?;
        let rows = t.index(IDX_STMT_CPV)?.probe(&[
            Value::from(class),
            Value::from(property),
            Value::from(value),
        ]);
        rows.iter()
            .map(|&rid| Ok(t.get(rid)?[0].to_string()))
            .collect()
    }

    /// Resources of `class` with a `property` value satisfying `op value`:
    /// an index probe for string equality, otherwise one filtered pass over
    /// the `(class, property)` partition. A resource appears once per
    /// satisfying value.
    pub(crate) fn resources_matching(
        db: &Database,
        class: &str,
        property: &str,
        op: TriggerOp,
        value: &str,
    ) -> Result<Vec<String>> {
        if op == TriggerOp::EqStr {
            return Self::resources_with_value(db, class, property, value);
        }
        let mut out = Vec::new();
        Self::scan_partition(db, class, property, |uri, v| {
            if op.matches(v, value) {
                out.push(uri.to_owned());
            }
        })?;
        Ok(out)
    }

    /// Visits every `(uri, value)` row of a `(class, property)` partition —
    /// the scan behind non-equality probes. The strings are borrowed from
    /// the table for as long as `db` is, so a scan allocates only for the
    /// rows its caller keeps.
    pub(crate) fn scan_partition<'db>(
        db: &'db Database,
        class: &str,
        property: &str,
        mut visit: impl FnMut(&'db str, &'db str),
    ) -> Result<()> {
        let t = db.table(T_STATEMENTS)?;
        let rows = t
            .index(IDX_STMT_CP)?
            .probe(&[Value::from(class), Value::from(property)]);
        for &rid in rows {
            let row = t.get(rid)?;
            if let (Some(uri), Some(value)) = (row[0].as_str(), row[3].as_str()) {
                visit(uri, value);
            }
        }
        Ok(())
    }

    // ---- RuleResults (materialization) ----

    pub fn result_contains(db: &Database, rule: RuleId, uri: &str) -> Result<bool> {
        let t = db.table(T_RULE_RESULTS)?;
        Ok(!t
            .index(IDX_RR_PAIR)?
            .probe(&[Value::from(rule.0 as i64), Value::from(uri)])
            .is_empty())
    }

    /// The rules whose materialized results hold `uri` — the grouped join
    /// evaluation asks this once per counterpart instead of asking
    /// [`BaseStore::result_contains`] once per group member.
    pub fn rules_containing(db: &Database, uri: &str) -> Result<Vec<RuleId>> {
        let t = db.table(T_RULE_RESULTS)?;
        let rows = t.index(IDX_RR_URI)?.probe(&[Value::from(uri)]);
        let mut out = Vec::with_capacity(rows.len());
        for &rid in rows {
            if let Some(rule) = t.get(rid)?[0].as_int() {
                out.push(RuleId(rule as u64));
            }
        }
        Ok(out)
    }

    /// Adds `delta` derivations to a result tuple's support count, inserting
    /// the row when the count leaves zero and deleting it when it reaches
    /// zero; returns whether the tuple appeared or disappeared.
    pub fn result_add<S: StorageEngine>(
        db: &mut S,
        rule: RuleId,
        uri: &str,
        delta: i64,
    ) -> Result<bool> {
        let mut row = vec![Value::from(rule.0 as i64), Value::from(uri)];
        let t = db.database().table(T_RULE_RESULTS)?;
        let found = t.index(IDX_RR_PAIR)?.probe(&row).first().copied();
        let count = match found {
            Some(rid) => t.get(rid)?[2].as_int().unwrap_or(0) + delta,
            None => delta,
        };
        row.push(Value::Int(count));
        match found {
            _ if count < 0 => Err(mdv_relstore::Error::Corrupt(format!(
                "support of rule {rule} for '{uri}' would drop to {count}"
            ))),
            None if count > 0 => db.insert(T_RULE_RESULTS, row).map(|_| true),
            Some(rid) if count == 0 => db.delete(T_RULE_RESULTS, rid).map(|_| true),
            Some(rid) => db.update(T_RULE_RESULTS, rid, row).map(|_| false),
            None => Ok(false),
        }
        .map_err(Into::into)
    }

    /// The number of materialized results of a rule: one index probe.
    pub fn result_count(db: &Database, rule: RuleId) -> Result<usize> {
        Ok(db
            .table(T_RULE_RESULTS)?
            .index(IDX_RR_RULE)?
            .probe(&[Value::from(rule.0 as i64)])
            .len())
    }

    /// All materialized results of a rule, with their support counts.
    pub fn results_of(db: &Database, rule: RuleId) -> Result<BTreeMap<String, i64>> {
        let t = db.table(T_RULE_RESULTS)?;
        let rows = t.index(IDX_RR_RULE)?.probe(&[Value::from(rule.0 as i64)]);
        rows.iter()
            .map(|&rid| {
                let row = t.get(rid)?;
                Ok((row[1].to_string(), row[2].as_int().unwrap_or(0)))
            })
            .collect()
    }

    /// Drops every materialized result of a rule (rule retraction).
    pub fn results_drop_rule<S: StorageEngine>(db: &mut S, rule: RuleId) -> Result<usize> {
        delete_probed(
            db,
            T_RULE_RESULTS,
            IDX_RR_RULE,
            &[Value::from(rule.0 as i64)],
        )
    }
}

/// Deletes the rows of `table` that a probe of `index` returns; returns
/// how many.
pub(crate) fn delete_probed<S: StorageEngine>(
    db: &mut S,
    table: &str,
    index: &str,
    key: &[Value],
) -> Result<usize> {
    // copied: the probe borrows the table the deletes change
    let rows = db
        .database()
        .table(table)?
        .index(index)?
        .probe(key)
        .to_vec();
    for &rid in &rows {
        db.delete(table, rid)?;
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_resource() -> Resource {
        Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
            .with("serverHost", Term::literal("pirates.uni-passau.de"))
            .with("serverPort", Term::literal("5874"))
            .with(
                "serverInformation",
                Term::resource(UriRef::new("doc.rdf", "info")),
            )
    }

    fn db_with_sample() -> Database {
        let mut db = Database::new();
        create_base_tables(&mut db).unwrap();
        BaseStore::insert_resource(&mut db, &sample_resource(), "doc.rdf").unwrap();
        BaseStore::insert_resource(
            &mut db,
            &Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                .with("memory", Term::literal("92"))
                .with("cpu", Term::literal("600")),
            "doc.rdf",
        )
        .unwrap();
        db
    }

    #[test]
    fn atoms_match_figure_4() {
        // Figure 4: seven rows for the Figure 1 document
        let mut doc = Document::new("doc.rdf");
        doc.add_resource(sample_resource()).unwrap();
        doc.add_resource(
            Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                .with("memory", Term::literal("92"))
                .with("cpu", Term::literal("600")),
        )
        .unwrap();
        let atoms = Atom::from_document(&doc);
        assert_eq!(atoms.len(), 7);
        assert_eq!(
            atoms[0],
            Atom {
                uri: "doc.rdf#host".into(),
                class: "CycleProvider".into(),
                property: RDF_SUBJECT.into(),
                value: "doc.rdf#host".into(),
            }
        );
        assert_eq!(atoms[2].property, "serverPort");
        assert_eq!(atoms[2].value, "5874");
        assert_eq!(atoms[3].value, "doc.rdf#info");
        assert_eq!(atoms[5].property, "memory");
        assert_eq!(atoms[5].value, "92");
    }

    #[test]
    fn insert_and_lookup() {
        let db = db_with_sample();
        assert!(BaseStore::resource_exists(&db, "doc.rdf#host").unwrap());
        assert!(!BaseStore::resource_exists(&db, "doc.rdf#nope").unwrap());
        assert_eq!(
            BaseStore::resource_class(&db, "doc.rdf#info")
                .unwrap()
                .as_deref(),
            Some("ServerInformation")
        );
        assert_eq!(
            BaseStore::values_of(&db, "doc.rdf#info", "memory").unwrap(),
            vec!["92".to_owned()]
        );
        assert_eq!(
            BaseStore::values_of(&db, "doc.rdf#info", RDF_SUBJECT).unwrap(),
            vec!["doc.rdf#info".to_owned()]
        );
        let mut of_class = BaseStore::resources_of_class(&db, "CycleProvider").unwrap();
        of_class.sort();
        assert_eq!(of_class, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn holds_resource_compares_registry_row_and_atom_multiset() {
        let db = db_with_sample();
        let stored = sample_resource();
        assert!(BaseStore::holds_resource(&db, &stored, "doc.rdf").unwrap());
        assert!(!BaseStore::holds_resource(&db, &stored, "other.rdf").unwrap());
        let reordered = Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
            .with("serverPort", Term::literal("5874"))
            .with(
                "serverInformation",
                Term::resource(UriRef::new("doc.rdf", "info")),
            )
            .with("serverHost", Term::literal("pirates.uni-passau.de"));
        assert!(BaseStore::holds_resource(&db, &reordered, "doc.rdf").unwrap());
        let changed = reordered.clone().with("serverPort", Term::literal("5874"));
        assert!(
            !BaseStore::holds_resource(&db, &changed, "doc.rdf").unwrap(),
            "a repeated value is a different multiset"
        );
        let other_class = Resource::new(UriRef::new("doc.rdf", "info"), "CycleProvider")
            .with("memory", Term::literal("92"))
            .with("cpu", Term::literal("600"));
        assert!(!BaseStore::holds_resource(&db, &other_class, "doc.rdf").unwrap());
        let absent = Resource::new(UriRef::new("doc.rdf", "nope"), "CycleProvider");
        assert!(!BaseStore::holds_resource(&db, &absent, "doc.rdf").unwrap());
    }

    #[test]
    fn reverse_value_probe() {
        let db = db_with_sample();
        let holders = BaseStore::resources_with_value(
            &db,
            "CycleProvider",
            "serverInformation",
            "doc.rdf#info",
        )
        .unwrap();
        assert_eq!(holders, vec!["doc.rdf#host".to_owned()]);
        let mut partition = Vec::new();
        BaseStore::scan_partition(&db, "ServerInformation", "memory", |uri, value| {
            partition.push((uri.to_owned(), value.to_owned()))
        })
        .unwrap();
        assert_eq!(
            partition,
            vec![("doc.rdf#info".to_owned(), "92".to_owned())]
        );
    }

    #[test]
    fn remove_resource_cleans_everything() {
        let mut db = db_with_sample();
        BaseStore::remove_resource(&mut db, "doc.rdf#host").unwrap();
        assert!(!BaseStore::resource_exists(&db, "doc.rdf#host").unwrap());
        assert!(BaseStore::values_of(&db, "doc.rdf#host", "serverPort")
            .unwrap()
            .is_empty());
        // idempotent
        BaseStore::remove_resource(&mut db, "doc.rdf#host").unwrap();
    }

    #[test]
    fn resource_reconstruction() {
        let db = db_with_sample();
        let res = BaseStore::resource(&db, "doc.rdf#host").unwrap().unwrap();
        assert_eq!(res.class(), "CycleProvider");
        assert_eq!(res.property("serverPort").unwrap().as_int(), Some(5874));
        // the reference is reconstructed as a reference term
        assert!(res.property("serverInformation").unwrap().is_resource());
        assert!(BaseStore::resource(&db, "doc.rdf#nope").unwrap().is_none());
    }

    #[test]
    fn rule_results_count_support() {
        let mut db = Database::new();
        create_base_tables(&mut db).unwrap();
        let r = RuleId(7);
        assert!(BaseStore::result_add(&mut db, r, "a#1", 1).unwrap());
        assert!(
            !BaseStore::result_add(&mut db, r, "a#1", 1).unwrap(),
            "a second derivation only counts"
        );
        assert!(BaseStore::result_add(&mut db, r, "a#2", 3).unwrap());
        assert!(BaseStore::result_contains(&db, r, "a#1").unwrap());
        assert!(BaseStore::result_add(&mut db, RuleId(9), "a#1", 1).unwrap());
        let mut holders = BaseStore::rules_containing(&db, "a#1").unwrap();
        holders.sort();
        assert_eq!(holders, vec![r, RuleId(9)]);
        assert!(BaseStore::rules_containing(&db, "a#3").unwrap().is_empty());
        assert_eq!(BaseStore::results_drop_rule(&mut db, RuleId(9)).unwrap(), 1);
        let all: Vec<_> = BaseStore::results_of(&db, r).unwrap().into_iter().collect();
        assert_eq!(all, vec![("a#1".to_owned(), 2), ("a#2".to_owned(), 3)]);
        assert!(!BaseStore::result_add(&mut db, r, "a#1", -1).unwrap());
        assert!(BaseStore::result_add(&mut db, r, "a#1", -1).unwrap());
        assert!(!BaseStore::result_contains(&db, r, "a#1").unwrap());
        assert!(
            BaseStore::result_add(&mut db, r, "a#1", -1).is_err(),
            "a count never drops below zero"
        );
        assert_eq!(BaseStore::results_drop_rule(&mut db, r).unwrap(), 1);
        assert!(BaseStore::results_of(&db, r).unwrap().is_empty());
    }
}
