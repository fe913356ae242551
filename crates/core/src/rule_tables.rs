//! The filter's rule-side tables (paper §3.3.4, Figures 7 and 8):
//! `AtomicRules`, `RuleDependencies`, `RuleGroups`, and the family of
//! triggering-rule index tables `FilterRules` / `FilterRules<OP>`.
//!
//! Physical design follows the paper: the filter tables act as indexes from
//! newly registered metadata to the triggering rules it affects.
//! String-equality rules (including the `rdf#subject` rules behind OID
//! subscriptions) are probed through a hash index on
//! `(class, property, value)` — which is why OID registration cost is
//! independent of the rule-base size (Figure 11). All other operators are
//! probed through `(class, property)` and compare values after string→number
//! reconversion, which makes their cost grow with the rule-base partition
//! (Figures 12–14).

use mdv_relstore::{ColumnDef, DataType, Database, IndexKind, StorageEngine, TableSchema, Value};

use crate::atoms::{AtomicRule, AtomicRuleKind, RuleId, TriggerOp};
use crate::error::Result;
use crate::store::delete_probed;

pub const T_ATOMIC_RULES: &str = "AtomicRules";
pub const T_RULE_DEPS: &str = "RuleDependencies";
pub const T_RULE_GROUPS: &str = "RuleGroups";
pub const T_FILTER_RULES: &str = "FilterRules";

/// All trigger-table operators in a fixed order (table creation, rendering).
pub const TRIGGER_OPS: [TriggerOp; 9] = [
    TriggerOp::EqStr,
    TriggerOp::NeStr,
    TriggerOp::Contains,
    TriggerOp::EqNum,
    TriggerOp::NeNum,
    TriggerOp::Lt,
    TriggerOp::Le,
    TriggerOp::Gt,
    TriggerOp::Ge,
];

const IDX_ATOMIC_BY_RULE: &str = "AtomicRules_by_rule";
const IDX_FILTER_BY_RULE: &str = "FilterRules_by_rule";

/// The names of one operator's triggering-rule table and of its indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerTable {
    pub table: &'static str,
    /// `(class, property, value)` for string equality, `(class, property)`
    /// for every other operator.
    pub probe_index: &'static str,
    /// `rule_id`, for retraction.
    pub by_rule: &'static str,
}

/// The table of an operator's triggering rules and its index names.
pub fn trigger_table(op: TriggerOp) -> TriggerTable {
    macro_rules! names {
        ($suffix:literal, $probe:literal) => {
            TriggerTable {
                table: concat!("FilterRules", $suffix),
                probe_index: concat!("FilterRules", $suffix, $probe),
                by_rule: concat!("FilterRules", $suffix, "_by_rule"),
            }
        };
    }
    match op {
        TriggerOp::EqStr => names!("EQ", "_by_cpv"),
        TriggerOp::NeStr => names!("NE", "_by_cp"),
        TriggerOp::Contains => names!("CON", "_by_cp"),
        TriggerOp::EqNum => names!("EQN", "_by_cp"),
        TriggerOp::NeNum => names!("NEN", "_by_cp"),
        TriggerOp::Lt => names!("LT", "_by_cp"),
        TriggerOp::Le => names!("LE", "_by_cp"),
        TriggerOp::Gt => names!("GT", "_by_cp"),
        TriggerOp::Ge => names!("GE", "_by_cp"),
    }
}

/// Creates all rule-side tables in `db`.
pub fn create_rule_tables<S: StorageEngine>(db: &mut S) -> Result<()> {
    db.create_table(TableSchema::new(
        T_ATOMIC_RULES,
        vec![
            ColumnDef::new("rule_id", DataType::Int),
            ColumnDef::new("rule_text", DataType::Str),
            ColumnDef::new("type_class", DataType::Str),
            ColumnDef::new("kind", DataType::Str),
            ColumnDef::new("group_id", DataType::Int).nullable(),
        ],
    )?)?;
    db.create_index(
        T_ATOMIC_RULES,
        IDX_ATOMIC_BY_RULE,
        IndexKind::Hash,
        &["rule_id"],
        true,
    )?;

    db.create_table(TableSchema::new(
        T_RULE_DEPS,
        vec![
            ColumnDef::new("source_rule_id", DataType::Int),
            ColumnDef::new("target_rule_id", DataType::Int),
            // denormalized for efficiency, exactly as the paper notes
            ColumnDef::new("target_group_id", DataType::Int),
        ],
    )?)?;
    db.create_index(
        T_RULE_DEPS,
        "RuleDeps_by_source",
        IndexKind::Hash,
        &["source_rule_id"],
        false,
    )?;
    db.create_index(
        T_RULE_DEPS,
        "RuleDeps_by_target",
        IndexKind::Hash,
        &["target_rule_id"],
        false,
    )?;

    db.create_table(TableSchema::new(
        T_RULE_GROUPS,
        vec![
            ColumnDef::new("group_id", DataType::Int),
            ColumnDef::new("shape", DataType::Str),
        ],
    )?)?;
    db.create_index(
        T_RULE_GROUPS,
        "RuleGroups_by_id",
        IndexKind::Hash,
        &["group_id"],
        true,
    )?;

    // the predicate-less triggering rules: indexed by class
    db.create_table(TableSchema::new(
        T_FILTER_RULES,
        vec![
            ColumnDef::new("rule_id", DataType::Int),
            ColumnDef::new("class", DataType::Str),
        ],
    )?)?;
    db.create_index(
        T_FILTER_RULES,
        "FilterRules_by_class",
        IndexKind::Hash,
        &["class"],
        false,
    )?;
    db.create_index(
        T_FILTER_RULES,
        IDX_FILTER_BY_RULE,
        IndexKind::Hash,
        &["rule_id"],
        false,
    )?;

    // one table per operator
    for op in TRIGGER_OPS {
        let names = trigger_table(op);
        db.create_table(TableSchema::new(
            names.table,
            vec![
                ColumnDef::new("rule_id", DataType::Int),
                ColumnDef::new("class", DataType::Str),
                ColumnDef::new("property", DataType::Str),
                ColumnDef::new("value", DataType::Str),
            ],
        )?)?;
        if op == TriggerOp::EqStr {
            // point-probe index: flat cost in rule-base size
            db.create_index(
                names.table,
                names.probe_index,
                IndexKind::Hash,
                &["class", "property", "value"],
                false,
            )?;
        } else {
            // partition index: probe returns all rules of the partition,
            // values compared after reconversion
            db.create_index(
                names.table,
                names.probe_index,
                IndexKind::Hash,
                &["class", "property"],
                false,
            )?;
        }
        db.create_index(
            names.table,
            names.by_rule,
            IndexKind::Hash,
            &["rule_id"],
            false,
        )?;
    }
    Ok(())
}

/// Mirrors a newly created atomic rule into the rule tables.
pub fn insert_atomic<S: StorageEngine>(db: &mut S, rule: &AtomicRule, text: &str) -> Result<()> {
    db.insert(
        T_ATOMIC_RULES,
        vec![
            Value::from(rule.id.0 as i64),
            Value::from(text),
            Value::from(rule.type_class.as_str()),
            Value::from(if rule.is_trigger() { "trigger" } else { "join" }),
            rule.group.map_or(Value::Null, |g| Value::from(g.0 as i64)),
        ],
    )?;
    match &rule.kind {
        AtomicRuleKind::Trigger { class, pred: None } => {
            db.insert(
                T_FILTER_RULES,
                vec![Value::from(rule.id.0 as i64), Value::from(class.as_str())],
            )?;
        }
        AtomicRuleKind::Trigger {
            class,
            pred: Some(p),
        } => {
            db.insert(
                trigger_table(p.op).table,
                vec![
                    Value::from(rule.id.0 as i64),
                    Value::from(class.as_str()),
                    Value::from(p.property.as_str()),
                    Value::from(p.value.as_str()),
                ],
            )?;
        }
        AtomicRuleKind::Join(spec) => {
            let gid = rule.group.expect("join rules always belong to a group");
            for input in [&spec.left, &spec.right] {
                db.insert(
                    T_RULE_DEPS,
                    vec![
                        Value::from(input.rule.0 as i64),
                        Value::from(rule.id.0 as i64),
                        Value::from(gid.0 as i64),
                    ],
                )?;
            }
            // create the group row if this is its first member
            let first_member = db
                .database()
                .table(T_RULE_GROUPS)?
                .index("RuleGroups_by_id")?
                .probe(&[Value::from(gid.0 as i64)])
                .is_empty();
            if first_member {
                db.insert(
                    T_RULE_GROUPS,
                    vec![
                        Value::from(gid.0 as i64),
                        Value::from(spec.group_key().to_string()),
                    ],
                )?;
            }
        }
    }
    Ok(())
}

/// Removes a retracted atomic rule from the rule tables. `group_emptied`
/// signals that the rule was the last member of its group.
pub fn remove_atomic<S: StorageEngine>(
    db: &mut S,
    rule: &AtomicRule,
    group_emptied: bool,
) -> Result<()> {
    let key = [Value::from(rule.id.0 as i64)];
    delete_probed(db, T_ATOMIC_RULES, IDX_ATOMIC_BY_RULE, &key)?;
    match &rule.kind {
        AtomicRuleKind::Trigger { pred: None, .. } => {
            delete_probed(db, T_FILTER_RULES, IDX_FILTER_BY_RULE, &key)?;
        }
        AtomicRuleKind::Trigger { pred: Some(p), .. } => {
            let names = trigger_table(p.op);
            delete_probed(db, names.table, names.by_rule, &key)?;
        }
        AtomicRuleKind::Join(_) => {
            delete_probed(db, T_RULE_DEPS, "RuleDeps_by_target", &key)?;
            if group_emptied {
                let gid = rule.group.expect("join rules always belong to a group");
                let key = [Value::from(gid.0 as i64)];
                delete_probed(db, T_RULE_GROUPS, "RuleGroups_by_id", &key)?;
            }
        }
    }
    Ok(())
}

/// Triggering rules of a `(class)` probe on the predicate-less table.
pub fn class_triggers(db: &Database, class: &str) -> Result<Vec<RuleId>> {
    let t = db.table(T_FILTER_RULES)?;
    let rows = t
        .index("FilterRules_by_class")?
        .probe(&[Value::from(class)]);
    rows.iter()
        .map(|&rid| {
            Ok(RuleId(
                t.get(rid)?[0].as_int().expect("rule_id is INT") as u64
            ))
        })
        .collect()
}

/// Triggering rules matching one document atom in one operator table,
/// plus the number of per-rule comparisons evaluated.
/// EqStr probes `(class, property, value)` hash-exactly (zero comparisons);
/// other operators probe `(class, property)` and evaluate the comparison
/// per candidate rule. The engine calls this for the equality and
/// inequality operators; for `contains` and the ordered operators it asks
/// the trigger index instead and this scan is the test oracle
/// (DESIGN.md §10). Matches come back in rule-insertion order, which is
/// ascending rule-id order because ids are assigned monotonically.
pub fn matching_triggers(
    db: &Database,
    op: TriggerOp,
    class: &str,
    property: &str,
    doc_value: &str,
) -> Result<(Vec<RuleId>, u64)> {
    let names = trigger_table(op);
    let t = db.table(names.table)?;
    let index = t.index(names.probe_index)?;
    if op == TriggerOp::EqStr {
        let rows = index.probe(&[
            Value::from(class),
            Value::from(property),
            Value::from(doc_value),
        ]);
        let hits = rows
            .iter()
            .map(|&rid| {
                Ok(RuleId(
                    t.get(rid)?[0].as_int().expect("rule_id is INT") as u64
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        return Ok((hits, 0));
    }
    let rows = index.probe(&[Value::from(class), Value::from(property)]);
    let evals = rows.len() as u64;
    let mut out = Vec::new();
    for &rid in rows {
        let row = t.get(rid)?;
        let rule_value = row[3].as_str().expect("value is STR");
        if op.matches(doc_value, rule_value) {
            out.push(RuleId(row[0].as_int().expect("rule_id is INT") as u64));
        }
    }
    Ok((out, evals))
}

/// Renders a table as fixed-width text (for the paper-walkthrough example
/// reproducing Figures 4, 7, 8, 9).
pub fn render_table(db: &Database, name: &str) -> Result<String> {
    let t = db.table(name)?;
    let headers: Vec<&str> = t
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    let mut rows: Vec<Vec<String>> = t
        .iter()
        .map(|(_, row)| row.iter().map(|v| v.to_string()).collect())
        .collect();
    rows.sort();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&format!("{name}\n"));
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "|{}\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2) + "|")
            .collect::<String>()
    ));
    for row in &rows {
        out.push_str(&fmt_row(row, &widths));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::TriggerPred;

    fn trigger(id: u64, class: &str, pred: Option<TriggerPred>) -> AtomicRule {
        AtomicRule {
            id: RuleId(id),
            type_class: class.to_owned(),
            kind: AtomicRuleKind::Trigger {
                class: class.to_owned(),
                pred,
            },
            group: None,
        }
    }

    fn db() -> Database {
        let mut db = Database::new();
        create_rule_tables(&mut db).unwrap();
        db
    }

    #[test]
    fn figure8_trigger_tables() {
        // the triggering rules of §3.3.1: memory>64, cpu>500, contains
        let mut db = db();
        let rules = [
            trigger(
                1,
                "ServerInformation",
                Some(TriggerPred {
                    property: "memory".into(),
                    op: TriggerOp::Gt,
                    value: "64".into(),
                }),
            ),
            trigger(
                2,
                "ServerInformation",
                Some(TriggerPred {
                    property: "cpu".into(),
                    op: TriggerOp::Gt,
                    value: "500".into(),
                }),
            ),
            trigger(
                3,
                "CycleProvider",
                Some(TriggerPred {
                    property: "serverHost".into(),
                    op: TriggerOp::Contains,
                    value: "uni-passau.de".into(),
                }),
            ),
        ];
        for r in &rules {
            insert_atomic(&mut db, r, "text").unwrap();
        }
        assert_eq!(db.table("FilterRulesGT").unwrap().len(), 2);
        assert_eq!(db.table("FilterRulesCON").unwrap().len(), 1);

        // matching: memory=92 matches rule 1 only
        let (hits, evals) =
            matching_triggers(&db, TriggerOp::Gt, "ServerInformation", "memory", "92").unwrap();
        assert_eq!(hits, vec![RuleId(1)]);
        assert_eq!(evals, 1, "scan evaluates every rule of the partition");
        let (hits, _) =
            matching_triggers(&db, TriggerOp::Gt, "ServerInformation", "memory", "32").unwrap();
        assert!(hits.is_empty());
        let (hits, _) = matching_triggers(
            &db,
            TriggerOp::Contains,
            "CycleProvider",
            "serverHost",
            "pirates.uni-passau.de",
        )
        .unwrap();
        assert_eq!(hits, vec![RuleId(3)]);
    }

    #[test]
    fn eqstr_point_probe() {
        let mut db = db();
        for i in 0..100 {
            insert_atomic(
                &mut db,
                &trigger(
                    i,
                    "CycleProvider",
                    Some(TriggerPred {
                        property: "rdf#subject".into(),
                        op: TriggerOp::EqStr,
                        value: format!("doc{i}.rdf#host"),
                    }),
                ),
                "text",
            )
            .unwrap();
        }
        let (hits, evals) = matching_triggers(
            &db,
            TriggerOp::EqStr,
            "CycleProvider",
            "rdf#subject",
            "doc42.rdf#host",
        )
        .unwrap();
        assert_eq!(hits, vec![RuleId(42)]);
        assert_eq!(evals, 0, "hash point probe evaluates no comparisons");
    }

    #[test]
    fn class_trigger_probe() {
        let mut db = db();
        insert_atomic(&mut db, &trigger(5, "CycleProvider", None), "text").unwrap();
        insert_atomic(&mut db, &trigger(6, "ServerInformation", None), "text").unwrap();
        assert_eq!(
            class_triggers(&db, "CycleProvider").unwrap(),
            vec![RuleId(5)]
        );
        assert!(class_triggers(&db, "Unknown").unwrap().is_empty());
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut db = db();
        let r = trigger(
            9,
            "ServerInformation",
            Some(TriggerPred {
                property: "memory".into(),
                op: TriggerOp::Gt,
                value: "64".into(),
            }),
        );
        insert_atomic(&mut db, &r, "text").unwrap();
        assert_eq!(db.table("AtomicRules").unwrap().len(), 1);
        remove_atomic(&mut db, &r, false).unwrap();
        assert_eq!(db.table("AtomicRules").unwrap().len(), 0);
        assert_eq!(db.table("FilterRulesGT").unwrap().len(), 0);
        assert!(
            matching_triggers(&db, TriggerOp::Gt, "ServerInformation", "memory", "92")
                .unwrap()
                .0
                .is_empty()
        );
    }

    #[test]
    fn render_table_formats() {
        let mut db = db();
        insert_atomic(
            &mut db,
            &trigger(
                1,
                "ServerInformation",
                Some(TriggerPred {
                    property: "memory".into(),
                    op: TriggerOp::Gt,
                    value: "64".into(),
                }),
            ),
            "search ServerInformation s register s where s.memory > 64",
        )
        .unwrap();
        let text = render_table(&db, "FilterRulesGT").unwrap();
        assert!(text.contains("ServerInformation"));
        assert!(text.contains("memory"));
        assert!(text.contains("64"));
        assert!(text.starts_with("FilterRulesGT"));
    }
}
