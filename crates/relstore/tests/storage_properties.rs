//! Property tests for the storage-backend invariants (DESIGN.md §6):
//!
//! * every index probe returns the rows a filtered scan finds, in the order
//!   they were filed, through inserts, deletes, updates, truncation, an
//!   index built over existing rows and a snapshot replay; over NULL keys,
//!   keys equal across `Int` and `Float`, and distinct keys that share
//!   their full 64-bit hash,
//! * the durable WAL backend recovers exactly the committed prefix of a
//!   random workload after a crash, including a torn final record.

use std::collections::{BTreeMap, BTreeSet};

use mdv_relstore::{
    key_hash, read_database, write_database, ColumnDef, DataType, Database, DurableEngine, Error,
    IndexKind, Row, RowId, StorageEngine, TableSchema, Value,
};
use mdv_runtime::hash::{MULTIPLIER, ROTATE};
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("class", DataType::Str),
            ColumnDef::new("value", DataType::Int).nullable(),
            ColumnDef::new("note", DataType::Str),
        ],
    )
    .unwrap()
}

fn arb_opt_int(src: &mut Source) -> Value {
    if src.weighted(&[1, 4]) == 0 {
        Value::Null
    } else {
        Value::Int(src.i64_in(-8..8))
    }
}

fn arb_row(src: &mut Source) -> Row {
    vec![
        Value::Str(src.string_of("ab", 1..2)),
        arb_opt_int(src),
        Value::Str(src.string_of("xyz", 0..3)),
    ]
}

/// `(x, y, n, s)`: the index property's table.
fn keyed_schema() -> TableSchema {
    TableSchema::new(
        "k",
        vec![
            ColumnDef::new("x", DataType::Float),
            ColumnDef::new("y", DataType::Float),
            ColumnDef::new("n", DataType::Int).nullable(),
            ColumnDef::new("s", DataType::Str),
        ],
    )
    .unwrap()
}

/// One index of the index property's table.
struct IndexDef {
    name: &'static str,
    kind: IndexKind,
    columns: [&'static str; 2],
    /// The positions of `columns`.
    key: [usize; 2],
    unique: bool,
}

/// The indexes of the index property; `late` is built over existing rows
/// partway through.
const INDEXES: [IndexDef; 4] = [
    IndexDef {
        name: "xy",
        kind: IndexKind::Hash,
        columns: ["x", "y"],
        key: [0, 1],
        unique: false,
    },
    IndexDef {
        name: "ns",
        kind: IndexKind::BTree,
        columns: ["n", "s"],
        key: [2, 3],
        unique: false,
    },
    IndexDef {
        name: "sn",
        kind: IndexKind::Hash,
        columns: ["s", "n"],
        key: [3, 2],
        unique: true,
    },
    IndexDef {
        name: "late",
        kind: IndexKind::BTree,
        columns: ["x", "y"],
        key: [0, 1],
        unique: false,
    },
];

/// One round of the index hasher, `mdv_runtime::hash`'s documented step.
fn round(h: u64, word: u64) -> u64 {
    (h.rotate_left(ROTATE) ^ word).wrapping_mul(MULTIPLIER)
}

/// Distinct `(x, y)` keys that share their full 64-bit hash: the first
/// column is chosen, and the second solved so the hasher's state after it
/// is the first key's. A `Float` hashes its rank byte (2), then its bits.
fn colliding_keys(src: &mut Source) -> Vec<[f64; 2]> {
    // the multiplier is odd, so it has an inverse mod 2^64 (Newton's method)
    let mut inverse = MULTIPLIER;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inverse)));
    }
    let state_before_y = |x: u64| round(round(round(0, 2), x), 2);
    let (x, y) = (src.bits(), src.bits());
    let target = round(state_before_y(x), y);
    [x, x ^ 1, x ^ (1 << 63)]
        .into_iter()
        .map(|x| {
            let y = state_before_y(x).rotate_left(ROTATE) ^ target.wrapping_mul(inverse);
            [f64::from_bits(x), f64::from_bits(y)]
        })
        .collect()
}

/// The index property's reference: the live rows, and per index the ids
/// in the order the index filed them.
#[derive(Clone, PartialEq, Debug)]
struct Model {
    rows: BTreeMap<RowId, Row>,
    filed: BTreeMap<&'static str, Vec<RowId>>,
}

fn key_of(row: &[Value], cols: [usize; 2]) -> Vec<Value> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// The same key with every integral `Float` as the `Int` it equals, and
/// every `Int` as its `Float`.
fn numeric_twin(key: &[Value]) -> Vec<Value> {
    key.iter()
        .map(|v| match *v {
            Value::Float(f) if Value::Int(f as i64) == *v => Value::Int(f as i64),
            Value::Int(i) => Value::Float(i as f64),
            _ => v.clone(),
        })
        .collect()
}

/// Every index's probe of every key in `keys` and of every live row's key
/// (each also in its numeric twin) equals a filtered scan of the model in
/// filing order, and its key count equals the model's.
fn check_probes(db: &Database, model: &Model, pool: &[Vec<Value>]) -> Result<(), String> {
    let t = db.table("k").unwrap();
    let live: BTreeMap<RowId, Row> = t.iter().map(|(id, r)| (id, r.clone())).collect();
    prop_assert_eq!(&live, &model.rows, "live rows");
    for IndexDef {
        name, key: cols, ..
    } in INDEXES
    {
        let Some(filed) = model.filed.get(name) else {
            continue;
        };
        let index = t.index(name).unwrap();
        let keys: BTreeSet<Vec<Value>> = model.rows.values().map(|r| key_of(r, cols)).collect();
        prop_assert_eq!(index.distinct_keys(), keys.len(), "{} distinct keys", name);
        let probes = keys
            .iter()
            .chain(if cols == [0, 1] { pool } else { &[] })
            .flat_map(|k| [k.clone(), numeric_twin(k)]);
        for key in probes {
            let want: Vec<RowId> = filed
                .iter()
                .copied()
                .filter(|id| key_of(&model.rows[id], cols) == key)
                .collect();
            prop_assert_eq!(index.probe(&key), &want[..], "{} probe of {:?}", name, key);
        }
    }
    Ok(())
}

/// Whether a live row other than `except` holds `row`'s unique key.
fn clashes(model: &Model, row: &[Value], except: Option<RowId>) -> bool {
    let cols = INDEXES[2].key;
    model
        .rows
        .iter()
        .any(|(id, r)| Some(*id) != except && key_of(r, cols) == key_of(row, cols))
}

/// Asserts that `result` is a unique violation that left `db` as `before`.
fn refused<T: std::fmt::Debug>(
    result: Result<T, Error>,
    db: &Database,
    before: &str,
) -> Result<(), String> {
    prop_assert!(
        matches!(result, Err(Error::UniqueViolation { .. })),
        "a unique clash is refused, got {:?}",
        result
    );
    prop_assert_eq!(
        write_database(db),
        before,
        "a refused write changes nothing"
    );
    Ok(())
}

property! {
    /// Index probes equal filtered scans in filing order — insertion
    /// order within a key, a re-keyed row at the end of its new key —
    /// across inserts, deletes, updates that change a key or leave it,
    /// truncation, an index built over existing rows and a snapshot
    /// replay (which places rows under their logged ids), with NULL keys,
    /// `Int`/`Float`-equal keys and distinct keys sharing their full
    /// 64-bit hash. Unique clashes are refused with the table unchanged.
    fn index_probes_equal_filtered_scans(src) {
        let colliding = colliding_keys(src);
        for pair in colliding.windows(2) {
            let (a, b) = (pair[0].map(Value::Float), pair[1].map(Value::Float));
            prop_assert!(a != b && key_hash(&a) == key_hash(&b), "{:?} / {:?} collide", a, b);
        }
        let mut xy: Vec<[f64; 2]> = vec![[1.0, 2.0], [2.0, 2.0], [-0.0, 0.0]];
        xy.extend(colliding);
        let pool: Vec<Vec<Value>> = xy.iter().map(|k| k.map(Value::Float).to_vec()).collect();
        let arb_row = |src: &mut Source| -> Row {
            let [x, y] = *src.choose(&xy);
            let n = if src.weighted(&[1, 4]) == 0 {
                Value::Null
            } else {
                Value::Int(src.i64_in(-3..3))
            };
            vec![Value::Float(x), Value::Float(y), n, Value::Str(src.string_of("ab", 1..3))]
        };

        let mut db = Database::new();
        db.create_table(keyed_schema()).unwrap();
        let mut model = Model { rows: BTreeMap::new(), filed: BTreeMap::new() };
        for def in &INDEXES[..3] {
            db.create_index("k", def.name, def.kind, &def.columns, def.unique).unwrap();
            model.filed.insert(def.name, Vec::new());
        }
        for _ in 0..src.usize_in(1..40) {
            let ids: Vec<RowId> = model.rows.keys().copied().collect();
            let before = write_database(&db);
            match src.weighted(&[6, 2, 4, 1, 1, 1]) {
                0 => {
                    let row = arb_row(src);
                    if clashes(&model, &row, None) {
                        refused(db.insert("k", row), &db, &before)?;
                        continue;
                    }
                    let id = db.insert("k", row.clone()).unwrap();
                    model.rows.insert(id, row);
                    model.filed.values_mut().for_each(|f| f.push(id));
                }
                1 if !ids.is_empty() => {
                    let id = *src.choose(&ids);
                    db.delete("k", id).unwrap();
                    model.rows.remove(&id);
                    model.filed.values_mut().for_each(|f| f.retain(|&r| r != id));
                }
                2 if !ids.is_empty() => {
                    // each column kept or redrawn, so some updates leave
                    // every key and some change only one
                    let id = *src.choose(&ids);
                    let fresh = arb_row(src);
                    let old = model.rows[&id].clone();
                    let row: Row = old
                        .iter()
                        .zip(fresh)
                        .map(|(o, f)| if src.bool() { o.clone() } else { f })
                        .collect();
                    if clashes(&model, &row, Some(id)) {
                        refused(db.update("k", id, row), &db, &before)?;
                        continue;
                    }
                    db.update("k", id, row.clone()).unwrap();
                    for IndexDef { name, key: cols, .. } in INDEXES {
                        if let Some(filed) = model.filed.get_mut(name) {
                            if key_of(&old, cols) != key_of(&row, cols) {
                                filed.retain(|&r| r != id);
                                filed.push(id);
                            }
                        }
                    }
                    model.rows.insert(id, row);
                }
                3 => {
                    db.table_mut("k").unwrap().truncate();
                    model.rows.clear();
                    model.filed.values_mut().for_each(Vec::clear);
                }
                4 if !model.filed.contains_key("late") => {
                    let def = &INDEXES[3];
                    db.create_index("k", def.name, def.kind, &def.columns, def.unique).unwrap();
                    let slots = db.table("k").unwrap().iter().map(|(id, _)| id).collect();
                    model.filed.insert(def.name, slots);
                }
                5 => {
                    // a snapshot load re-files each row as it reads it, in
                    // slot order
                    db = read_database(&before).unwrap();
                    prop_assert_eq!(write_database(&db), before);
                    let slots: Vec<RowId> = db.table("k").unwrap().iter().map(|(id, _)| id).collect();
                    model.filed.values_mut().for_each(|f| *f = slots.clone());
                }
                _ => continue,
            }
            check_probes(&db, &model, &pool)?;
        }
    }

    /// The durable backend recovers a random committed workload exactly:
    /// after an abrupt drop (no clean shutdown) plus a random torn tail
    /// appended to the log, `open` reproduces the committed state byte for
    /// byte — and an uncommitted trailing group vanishes whole.
    fn wal_recovery_matches_committed_state(src) {
        let dir = std::env::temp_dir().join(format!(
            "mdv-walprop-{}-{:x}",
            std::process::id(),
            src.any_i64() as u64
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.set_checkpoint_every(if src.bool() { Some(7) } else { None });
        eng.create_table(schema()).unwrap();
        eng.create_index("t", "h_class", IndexKind::Hash, &["class"], false).unwrap();
        let mut ids: Vec<RowId> = Vec::new();
        let ops = src.vec(1..30, |src| (src.usize_in(0..4), arb_row(src), src.usize_in(0..64)));
        for (kind, row, pick) in ops {
            match kind {
                0 | 1 => {
                    ids.push(StorageEngine::insert(&mut eng, "t", row).unwrap());
                }
                2 => {
                    if !ids.is_empty() {
                        let id = ids.remove(pick % ids.len());
                        StorageEngine::delete(&mut eng, "t", id).unwrap();
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let id = ids[pick % ids.len()];
                        StorageEngine::update(&mut eng, "t", id, row).unwrap();
                    }
                }
            }
        }
        let committed = write_database(eng.database());
        let epoch = eng.epoch();
        // an uncommitted group on top must vanish whole on recovery
        if src.bool() {
            eng.begin();
            let _ = StorageEngine::insert(&mut eng, "t", arb_row(src));
            let _ = StorageEngine::insert(&mut eng, "t", arb_row(src));
        }
        drop(eng); // crash: no clean shutdown hook exists by design

        if src.bool() {
            // torn final record: partial garbage appended mid-write
            let tail = src.vec(1..12, |s| s.i64_in(0..256) as u8);
            let path = dir.join(format!("wal-{epoch}"));
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&tail).unwrap();
        }

        let recovered = DurableEngine::open(&dir).unwrap();
        let got = write_database(recovered.database());
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(got, committed);
    }
}
