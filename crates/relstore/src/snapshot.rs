//! Database snapshots: a line-oriented, human-readable persistence format
//! for a whole [`Database`] — schemas, indexes, rows, and row ids.
//!
//! Row ids are preserved exactly, so snapshots round-trip: references held
//! outside the database (none inside MDV, but the engine's internal id
//! counters) stay valid, and `write ∘ read` is the identity (tested by
//! property tests).
//!
//! Format (tab-separated fields, `\\`/`\t`/`\n` escaped in strings):
//!
//! ```text
//! #mdv-relstore-snapshot v1
//! table  <name>
//! col    <name>  <BOOL|INT|FLOAT|STR>  <null|notnull>
//! index  <name>  <hash|btree>  <unique|multi>  <col> [<col> ...]
//! row    <id>    <value> ...
//! end
//! ```
//!
//! Values: `N` (null), `B:true|false`, `I:<decimal>`, `F:<f64 bits in hex>`
//! (exact), `S:<escaped string>`.

use std::fmt::Write as _;

use crate::catalog::Database;
use crate::error::{Error, Result};
use crate::index::IndexKind;
use crate::schema::{ColumnDef, TableSchema};
use crate::table::{Row, RowId};
use crate::value::{DataType, Value};

const HEADER: &str = "#mdv-relstore-snapshot v1";

/// Serializes the whole database.
pub fn write_database(db: &Database) -> String {
    let mut out = String::new();
    write_database_into(&mut out, db, |_| false);
    out
}

/// Appends the snapshot text of `db` to `out`, one buffer for the whole
/// database. Tables `skip_rows` names keep their `table` / `col` / `index`
/// lines but lose their rows: the durable engine's unlogged tables, which
/// recover empty.
pub(crate) fn write_database_into(
    out: &mut String,
    db: &Database,
    skip_rows: impl Fn(&str) -> bool,
) {
    // `fmt::Write` for a `String` never fails
    out.push_str(HEADER);
    out.push('\n');
    for name in db.table_names() {
        let table = db.table(name).expect("listed table exists");
        out.push_str("table\t");
        push_escaped(out, name);
        out.push('\n');
        for col in table.schema().columns() {
            out.push_str("col\t");
            push_escaped(out, &col.name);
            let nullable = if col.nullable { "null" } else { "notnull" };
            let _ = writeln!(out, "\t{}\t{nullable}", col.dtype);
        }
        for idx in table.indexes() {
            out.push_str("index\t");
            push_escaped(out, idx.name());
            out.push_str(match idx.kind() {
                IndexKind::Hash => "\thash",
                IndexKind::BTree => "\tbtree",
            });
            out.push_str(if idx.is_unique() {
                "\tunique\t"
            } else {
                "\tmulti\t"
            });
            for (k, c) in idx.key_columns().iter().enumerate() {
                let sep = if k == 0 { "" } else { "\t" };
                let _ = write!(out, "{sep}{c}");
            }
            out.push('\n');
        }
        if !skip_rows(name) {
            // canonical order: rows sorted by id, so two logically equal
            // databases serialize byte-identically regardless of their
            // slot layout (slots diverge after delete/insert churn, and a
            // durable checkpoint compacts holes away — see DESIGN.md §6)
            let mut rows: Vec<(RowId, &Row)> = table.iter().collect();
            rows.sort_unstable_by_key(|(rid, _)| *rid);
            for (rid, row) in rows {
                let _ = write!(out, "row\t{}", rid.0);
                for v in row {
                    out.push('\t');
                    push_value(out, v);
                }
                out.push('\n');
            }
        }
        out.push_str("end\n");
    }
}

/// Restores a database from snapshot text.
pub fn read_database(text: &str) -> Result<Database> {
    let mut lines = text.lines();
    let bad = |msg: &str| Error::TypeError(format!("snapshot: {msg}"));
    if lines.next() != Some(HEADER) {
        return Err(bad("missing or unsupported header"));
    }
    let mut db = Database::new();
    let mut current: Option<String> = None;
    // table construction is two-phase: collect cols first, create on the
    // first non-col line
    let mut pending_cols: Vec<ColumnDef> = Vec::new();
    let mut table_created = false;

    fn ensure_table(
        db: &mut Database,
        name: &Option<String>,
        cols: &mut Vec<ColumnDef>,
        created: &mut bool,
    ) -> Result<()> {
        if *created {
            return Ok(());
        }
        let name = name
            .as_ref()
            .ok_or_else(|| Error::TypeError("snapshot: content before 'table'".into()))?;
        db.create_table(TableSchema::new(name.clone(), std::mem::take(cols))?)?;
        *created = true;
        Ok(())
    }

    for line in lines {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "table" => {
                if current.is_some() {
                    return Err(bad("'table' before previous 'end'"));
                }
                let [_, name] = fields.as_slice() else {
                    return Err(bad("malformed 'table'"));
                };
                current = Some(unescape(name)?);
                pending_cols.clear();
                table_created = false;
            }
            "col" => {
                let [_, name, dtype, nullable] = fields.as_slice() else {
                    return Err(bad("malformed 'col'"));
                };
                if table_created {
                    return Err(bad("'col' after rows or indexes"));
                }
                let dtype = match *dtype {
                    "BOOL" => DataType::Bool,
                    "INT" => DataType::Int,
                    "FLOAT" => DataType::Float,
                    "STR" => DataType::Str,
                    other => return Err(bad(&format!("unknown type '{other}'"))),
                };
                let mut col = ColumnDef::new(unescape(name)?, dtype);
                match *nullable {
                    "null" => col = col.nullable(),
                    "notnull" => {}
                    other => return Err(bad(&format!("unknown nullability '{other}'"))),
                }
                pending_cols.push(col);
            }
            "index" => {
                ensure_table(&mut db, &current, &mut pending_cols, &mut table_created)?;
                if fields.len() < 5 {
                    return Err(bad("malformed 'index'"));
                }
                let name = unescape(fields[1])?;
                let kind = match fields[2] {
                    "hash" => IndexKind::Hash,
                    "btree" => IndexKind::BTree,
                    other => return Err(bad(&format!("unknown index kind '{other}'"))),
                };
                let unique = match fields[3] {
                    "unique" => true,
                    "multi" => false,
                    other => return Err(bad(&format!("unknown uniqueness '{other}'"))),
                };
                let table_name = current.as_ref().expect("ensure_table checked").clone();
                let table = db.table(&table_name)?;
                // map positions back to column names for the public API
                let mut col_names: Vec<&str> = Vec::new();
                for f in &fields[4..] {
                    let pos: usize = f.parse().map_err(|_| bad("non-numeric index column"))?;
                    let col = table
                        .schema()
                        .columns()
                        .get(pos)
                        .ok_or_else(|| bad("index column out of range"))?;
                    col_names.push(&col.name);
                }
                let col_names_owned: Vec<String> =
                    col_names.iter().map(|s| s.to_string()).collect();
                let col_refs: Vec<&str> = col_names_owned.iter().map(String::as_str).collect();
                db.create_index(&table_name, &name, kind, &col_refs, unique)?;
            }
            "row" => {
                ensure_table(&mut db, &current, &mut pending_cols, &mut table_created)?;
                if fields.len() < 2 {
                    return Err(bad("malformed 'row'"));
                }
                let id: u64 = fields[1].parse().map_err(|_| bad("non-numeric row id"))?;
                let row: Vec<Value> = fields[2..]
                    .iter()
                    .map(|f| decode_value(f))
                    .collect::<Result<_>>()?;
                let table_name = current.as_ref().expect("ensure_table checked").clone();
                db.table_mut(&table_name)?.insert_with_id(RowId(id), row)?;
            }
            "end" => {
                ensure_table(&mut db, &current, &mut pending_cols, &mut table_created)?;
                current = None;
            }
            other => return Err(bad(&format!("unknown record '{other}'"))),
        }
    }
    if current.is_some() {
        return Err(bad("unterminated table (missing 'end')"));
    }
    Ok(db)
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push('N'),
        Value::Bool(b) => {
            let _ = write!(out, "B:{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "I:{i}");
        }
        Value::Float(x) => {
            let _ = write!(out, "F:{:016x}", x.to_bits());
        }
        Value::Str(s) => {
            out.push_str("S:");
            push_escaped(out, s);
        }
    }
}

fn decode_value(f: &str) -> Result<Value> {
    let bad = |msg: &str| Error::TypeError(format!("snapshot: {msg}"));
    if f == "N" {
        return Ok(Value::Null);
    }
    let (tag, body) = f.split_once(':').ok_or_else(|| bad("untagged value"))?;
    match tag {
        "B" => match body {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(bad("bad bool")),
        },
        "I" => body.parse().map(Value::Int).map_err(|_| bad("bad int")),
        "F" => u64::from_str_radix(body, 16)
            .map(|bits| Value::Float(f64::from_bits(bits)))
            .map_err(|_| bad("bad float bits")),
        "S" => Ok(Value::Str(unescape(body)?)),
        _ => Err(bad("unknown value tag")),
    }
}

/// Appends `s` with `\\`, `\t`, `\n` and `\r` escaped; a string with none
/// of them (nearly every one) is copied in one piece.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.find(['\\', '\t', '\n', '\r']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return Err(Error::TypeError("snapshot: bad escape".into())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Str),
                    ColumnDef::new("x", DataType::Float).nullable(),
                    ColumnDef::new("b", DataType::Bool),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_index("t", "by_k", IndexKind::Hash, &["k"], true)
            .unwrap();
        db.create_index("t", "by_v", IndexKind::BTree, &["v", "k"], false)
            .unwrap();
        db.insert(
            "t",
            vec![
                Value::Int(1),
                Value::Str("a\tb\nc\\d".into()),
                Value::Null,
                Value::Bool(true),
            ],
        )
        .unwrap();
        db.insert(
            "t",
            vec![
                Value::Int(2),
                Value::Str("plain".into()),
                Value::Float(0.1 + 0.2), // not exactly representable in decimal
                Value::Bool(false),
            ],
        )
        .unwrap();
        // a second table, plus a hole from a deleted row
        db.create_table(TableSchema::new("u", vec![ColumnDef::new("n", DataType::Int)]).unwrap())
            .unwrap();
        let dead = db.insert("u", vec![Value::Int(9)]).unwrap();
        db.insert("u", vec![Value::Int(10)]).unwrap();
        db.delete("u", dead).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample_db();
        let restored = read_database(&write_database(&db)).unwrap();
        // identical table listing and row contents
        assert_eq!(db.table_names(), restored.table_names());
        for name in db.table_names() {
            let a = db.table(name).unwrap();
            let b = restored.table(name).unwrap();
            assert_eq!(a.len(), b.len());
            let rows_a: Vec<_> = a.iter().collect();
            for (rid, row) in rows_a {
                assert_eq!(b.get(rid).unwrap(), row, "row {rid:?} of '{name}'");
            }
            assert_eq!(a.indexes().len(), b.indexes().len());
        }
        // exact float survived
        let t = restored.table("t").unwrap();
        let float_row = t.iter().find(|(_, r)| r[0] == Value::Int(2)).unwrap().1;
        assert_eq!(float_row[2], Value::Float(0.1 + 0.2));
    }

    #[test]
    fn restored_indexes_answer_queries() {
        let restored = read_database(&write_database(&sample_db())).unwrap();
        let t = restored.table("t").unwrap();
        let hits = t.index("by_k").unwrap().probe(&[Value::Int(2)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(t.get(hits[0]).unwrap()[1], Value::Str("plain".into()));
    }

    #[test]
    fn row_ids_and_id_counter_survive() {
        let db = sample_db();
        let mut restored = read_database(&write_database(&db)).unwrap();
        // new inserts must not collide with restored ids
        let new_id = restored.insert("u", vec![Value::Int(11)]).unwrap();
        let old_ids: Vec<RowId> = db.table("u").unwrap().iter().map(|(id, _)| id).collect();
        assert!(!old_ids.contains(&new_id));
    }

    #[test]
    fn unique_constraints_still_enforced() {
        let mut restored = read_database(&write_database(&sample_db())).unwrap();
        let err = restored
            .insert(
                "t",
                vec![
                    Value::Int(1),
                    Value::Str("dup".into()),
                    Value::Null,
                    Value::Bool(false),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let restored = read_database(&write_database(&db)).unwrap();
        assert!(restored.table_names().is_empty());
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        assert!(read_database("not a snapshot").is_err());
        assert!(read_database(HEADER).is_ok(), "empty but valid");
        let bad = format!("{HEADER}\ntable\tt\ncol\tk\tINT\tnotnull\nrow\t0\tI:1");
        assert!(read_database(&bad).is_err(), "missing 'end'");
        let bad = format!("{HEADER}\nrow\t0\tI:1\n");
        assert!(read_database(&bad).is_err(), "row before table");
        let bad = format!("{HEADER}\ntable\tt\ncol\tk\tWAT\tnotnull\nend\n");
        assert!(read_database(&bad).is_err(), "unknown type");
    }

    // ---- the one-buffer writer against the allocating one it replaced ----

    /// The writer `write_database` replaced: one `format!` per line and one
    /// `String` per value. Kept as the reference of the byte-identity
    /// property below.
    fn reference_write_database(db: &Database) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    other => out.push(other),
                }
            }
            out
        }
        fn encode_value(v: &Value) -> String {
            match v {
                Value::Null => "N".to_owned(),
                Value::Bool(b) => format!("B:{b}"),
                Value::Int(i) => format!("I:{i}"),
                Value::Float(x) => format!("F:{:016x}", x.to_bits()),
                Value::Str(s) => format!("S:{}", escape(s)),
            }
        }
        let mut out = String::from(HEADER);
        out.push('\n');
        for name in db.table_names() {
            let table = db.table(name).expect("listed table exists");
            out.push_str(&format!("table\t{}\n", escape(name)));
            for col in table.schema().columns() {
                out.push_str(&format!(
                    "col\t{}\t{}\t{}\n",
                    escape(&col.name),
                    col.dtype,
                    if col.nullable { "null" } else { "notnull" }
                ));
            }
            for idx in table.indexes() {
                let kind = match idx.kind() {
                    IndexKind::Hash => "hash",
                    IndexKind::BTree => "btree",
                };
                let cols: Vec<String> = idx.key_columns().iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "index\t{}\t{kind}\t{}\t{}\n",
                    escape(idx.name()),
                    if idx.is_unique() { "unique" } else { "multi" },
                    cols.join("\t")
                ));
            }
            let mut rows: Vec<(RowId, &Row)> = table.iter().collect();
            rows.sort_by_key(|(rid, _)| *rid);
            for (rid, row) in rows {
                out.push_str(&format!("row\t{}", rid.0));
                for v in row {
                    out.push('\t');
                    out.push_str(&encode_value(v));
                }
                out.push('\n');
            }
            out.push_str("end\n");
        }
        out
    }

    /// Strings heavy in the four escaped characters.
    fn arb_text(src: &mut mdv_testkit::Source) -> String {
        src.string_of("ab\\\t\n\r é", 0..8)
    }

    fn arb_value(src: &mut mdv_testkit::Source, dtype: DataType, nullable: bool) -> Value {
        if nullable && src.weighted(&[1, 3]) == 0 {
            return Value::Null;
        }
        match dtype {
            DataType::Bool => Value::Bool(src.bool()),
            DataType::Int => Value::Int(*src.choose(&[0, -1, i64::MIN, i64::MAX, 42])),
            DataType::Float => Value::Float(*src.choose(&[
                f64::NAN,
                -f64::NAN,
                -0.0,
                0.0,
                0.1 + 0.2,
                f64::INFINITY,
                f64::MIN_POSITIVE,
            ])),
            DataType::Str => Value::Str(arb_text(src)),
        }
    }

    /// A database of random tables: escaped names, every column type,
    /// nullable columns, hash and B-tree, unique and multi indexes over one
    /// or two columns, and holes left by deleted rows.
    fn arb_database(src: &mut mdv_testkit::Source) -> Database {
        const TYPES: [DataType; 4] = [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
        ];
        let mut db = Database::new();
        for t in 0..src.usize_in(0..4) {
            let name = format!("t{t}{}", arb_text(src));
            let cols: Vec<ColumnDef> = (0..src.usize_in(1..5))
                .map(|c| {
                    let col = ColumnDef::new(format!("c{c}{}", arb_text(src)), *src.choose(&TYPES));
                    if src.bool() {
                        col.nullable()
                    } else {
                        col
                    }
                })
                .collect();
            db.create_table(TableSchema::new(name.clone(), cols.clone()).unwrap())
                .unwrap();
            for i in 0..src.usize_in(0..3) {
                let mut on = vec![cols[src.usize_in(0..cols.len())].name.as_str()];
                if src.bool() {
                    on.push(&cols[src.usize_in(0..cols.len())].name);
                }
                let kind = *src.choose(&[IndexKind::Hash, IndexKind::BTree]);
                // a unique index may refuse later rows; those inserts fail
                let _ = db.create_index(
                    &name,
                    &format!("i{i}\t{}", arb_text(src)),
                    kind,
                    &on,
                    src.bool(),
                );
            }
            let mut ids = Vec::new();
            for _ in 0..src.usize_in(0..12) {
                let row = cols
                    .iter()
                    .map(|c| arb_value(src, c.dtype, c.nullable))
                    .collect();
                if let Ok(id) = db.insert(&name, row) {
                    ids.push(id);
                }
                if !ids.is_empty() && src.weighted(&[1, 3]) == 0 {
                    let id = ids.swap_remove(src.usize_in(0..ids.len()));
                    db.delete(&name, id).unwrap();
                }
            }
        }
        db
    }

    mdv_testkit::property! {
        /// `write_database` writes the bytes the allocating writer wrote,
        /// for random databases with escapes, NaN / −0.0, nulls, holes and
        /// every index kind — and `write ∘ read` stays the identity.
        fn one_buffer_writer_is_byte_identical_to_the_allocating_one(src) {
            let db = arb_database(src);
            let text = write_database(&db);
            mdv_testkit::prop_assert_eq!(&text, &reference_write_database(&db));
            mdv_testkit::prop_assert_eq!(write_database(&read_database(&text).unwrap()), text);
        }
    }

    #[test]
    fn skipped_tables_keep_their_schema_and_lose_their_rows() {
        let db = sample_db();
        let mut text = String::new();
        write_database_into(&mut text, &db, |t| t == "t");
        let restored = read_database(&text).unwrap();
        assert!(restored.table("t").unwrap().is_empty());
        assert_eq!(restored.table("t").unwrap().indexes().len(), 2);
        assert_eq!(restored.table("u").unwrap().len(), 1);
    }
}
