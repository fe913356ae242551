//! Exactness of the indexed trigger routes (DESIGN.md §10). The engine
//! answers `contains` from inverted token postings and numeric `=`, `<`,
//! `<=`, `>`, `>=` from sorted threshold chains, both kept in memory beside
//! the `FilterRules*` tables. The relational scan
//! [`matching_triggers`] over those tables is the oracle: after every
//! subscribe, unsubscribe, registration, update and delete, for every atom
//! the workload has produced, the index must return the same rule ids in
//! the same order.
//!
//! Replayed by `ci/check.sh` under seeds 1 / 31337 / 20020226. The
//! end-to-end oracle (engine vs naive evaluator) is `filter_equals_naive`
//! in `properties.rs`.
//!
//! The generators are hand-rolled here because `mdv-workload` dev-depends
//! on this crate.

use mdv_filter::rule_tables::{insert_atomic, matching_triggers, remove_atomic};
use mdv_filter::{
    Atom, AtomicRule, AtomicRuleKind, FilterEngine, RuleId, SubscriptionId, TriggerIndex,
    TriggerOp, TriggerPred,
};
use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};
use mdv_relstore::Database;
use mdv_testkit::{prop_assert_eq, property, Source};

const CLASSES: [&str; 2] = ["CycleProvider", "ServerInformation"];
const INDEXED_OPS: [TriggerOp; 6] = [
    TriggerOp::Contains,
    TriggerOp::EqNum,
    TriggerOp::Lt,
    TriggerOp::Le,
    TriggerOp::Gt,
    TriggerOp::Ge,
];

/// Numeric spellings that compare equal without being the same string
/// (`-0.0`/`0`, `7`/`7.0`, `1e3`/`1000`), padding, the infinities' and NaN's
/// spellings, and two strings that are no number at all. Constants of raw
/// rules and values of probe atoms are drawn from here; documents carry the
/// ones a `float` property accepts.
const NUMERIC_SPELLINGS: [&str; 11] = [
    "0", "-0.0", "7", "7.0", "1e3", "1000", " 42 ", "inf", "NaN", "abc", "",
];
const FLOAT_SPELLINGS: usize = 9;
/// Further constants the rule language cannot produce for these operators.
const RAW_THRESHOLDS: [&str; 4] = [" 3 ", "1e1", "-0", "3"];
const RAW_PATTERNS: [&str; 4] = ["", "grid", ".r1.grid", "-"];

fn schema() -> RdfSchema {
    RdfSchema::builder()
        .class("ServerInformation", |c| {
            c.int("memory").int("cpu").float("load")
        })
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .build()
        .unwrap()
}

/// Hosts shaped `[x]n{j}.r{k}.grid.{org,de}[x]` — the token families the
/// `contains` patterns anchor on, so postings buckets get real collisions
/// and real misses; the optional `x` fuses with a pattern's first or last
/// token, which is why only interior tokens may anchor. Memory and cpu
/// land on and around the rule thresholds; load takes every spelling of
/// [`NUMERIC_SPELLINGS`] that is a float.
fn arb_doc(src: &mut Source, i: usize) -> Document {
    let uri = format!("doc{i}.rdf");
    let host = format!(
        "{}n{}.r{}.grid.{}{}",
        src.choose(&["", "x"]),
        src.usize_in(0..6),
        src.usize_in(0..4),
        src.choose(&["org", "de"]),
        src.choose(&["", "x"])
    );
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal("5000"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new(&uri, "info")),
                ),
        )
        .with_resource(
            Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                .with("memory", Term::literal(src.i64_in(-2..12).to_string()))
                .with("cpu", Term::literal(src.i64_in(0..1000).to_string()))
                .with(
                    "load",
                    Term::literal(*src.choose(&NUMERIC_SPELLINGS[..FLOAT_SPELLINGS])),
                ),
        )
}

/// Covering `contains` families (every refinement `n{j}.r{k}.grid` contains
/// its base `.r{k}.grid`), patterns with no interior token (always
/// candidates), ordered thresholds in integer, negative and fractional
/// spellings, numeric equality on both numeric properties (the language
/// renders `7.0` as `7` and `-0.0` as `-0`; other spellings enter as raw
/// rules below), plus string equality and join shapes so the unindexed
/// operators and the join cascade churn the rule tables too.
fn arb_rule(src: &mut Source) -> String {
    let con = |pat: String| {
        format!("search CycleProvider c register c where c.serverHost contains '{pat}'")
    };
    match src.usize_in(0..10) {
        0 => con(format!(".r{}.grid", src.usize_in(0..4))),
        1 | 2 => con(format!(
            "n{}.r{}.grid",
            src.usize_in(0..6),
            src.usize_in(0..4)
        )),
        3 => con((*src.choose(&[".org", ".grid.de", "grid", "n1", "r2.g", "."])).to_owned()),
        4 | 5 => format!(
            "search ServerInformation s register s where s.memory {} {}",
            src.choose(&[">", ">=", "<", "<="]),
            src.choose(&["0", "-1", "3", "3.0", "3.5", "7", "10", "-0.5"])
        ),
        6 => format!(
            "search CycleProvider c register c where c = 'doc{}.rdf#host'",
            src.usize_in(0..20)
        ),
        7 => format!(
            "search CycleProvider c register c \
             where c.serverHost contains '.r{}.grid' \
             and c.serverInformation.cpu >= {}",
            src.usize_in(0..4),
            src.i64_in(0..1000)
        ),
        8 => format!(
            "search ServerInformation s register s where s.load = {}",
            src.choose(&["0", "-0.0", "7", "7.0", "1000", "42", "3.5"])
        ),
        _ => format!(
            "search ServerInformation s register s where s.memory = {}",
            src.i64_in(-2..12)
        ),
    }
}

/// Index vs scan for every probe atom, under every class, for every
/// indexed operator: same rule ids, same order.
fn check(index: &TriggerIndex, db: &Database, probes: &[Atom], when: &str) -> Result<(), String> {
    for atom in probes {
        for class in CLASSES {
            for op in INDEXED_OPS {
                let (scan, _) = matching_triggers(db, op, class, &atom.property, &atom.value)
                    .map_err(|e| e.to_string())?;
                let (indexed, evals) = match op {
                    TriggerOp::Contains => index.match_contains(class, &atom.property, &atom.value),
                    _ => index.match_ordered(op, class, &atom.property, &atom.value),
                };
                prop_assert_eq!(
                    indexed,
                    scan,
                    "{}: {}.{} {} {:?}",
                    when,
                    class,
                    atom.property,
                    op,
                    atom.value
                );
                if op == TriggerOp::EqNum {
                    // the equal run and nothing else is visited
                    prop_assert_eq!(evals, scan.len() as u64, "{}: = {:?}", when, atom.value);
                }
            }
        }
    }
    Ok(())
}

/// A triggering rule as the tables take it, plus its predicate as the index
/// takes it (class = `rule.type_class`).
fn raw_rule(
    id: u64,
    class: &str,
    property: &str,
    op: TriggerOp,
    value: &str,
) -> (AtomicRule, TriggerPred) {
    let pred = TriggerPred {
        property: property.to_owned(),
        op,
        value: value.to_owned(),
    };
    let rule = AtomicRule {
        id: RuleId(id),
        type_class: class.to_owned(),
        kind: AtomicRuleKind::Trigger {
            class: class.to_owned(),
            pred: Some(pred.clone()),
        },
        group: None,
    };
    (rule, pred)
}

property! {
    fn indexed_routes_equal_the_table_scan(src) {
        let mut engine = FilterEngine::new(schema());
        let mut subs: Vec<SubscriptionId> = Vec::new();
        let mut live: Vec<usize> = Vec::new(); // registered document numbers
        let mut next_doc = 0usize;
        // every atom any document version has carried; all are probed after
        // every step, whether or not the document is still registered
        let mut probes: Vec<Atom> = Vec::new();
        // values no document may carry for an int property, or at all
        for property in ["memory", "load"] {
            for value in NUMERIC_SPELLINGS.into_iter().chain(["1e1"]) {
                probes.push(Atom {
                    uri: "probe.rdf#x".into(),
                    class: "ServerInformation".into(),
                    property: property.into(),
                    value: value.into(),
                });
            }
        }

        for _ in 0..src.usize_in(2..8) {
            subs.push(engine.register_subscription(&arb_rule(src)).unwrap().0);
        }
        for step in 0..src.usize_in(4..14) {
            let when = match src.usize_in(0..6) {
                0 | 1 => {
                    subs.push(engine.register_subscription(&arb_rule(src)).unwrap().0);
                    "subscribe"
                }
                2 if !subs.is_empty() => {
                    let id = subs.swap_remove(src.usize_in(0..subs.len()));
                    engine.unregister_subscription(id).unwrap();
                    "unsubscribe"
                }
                3 if !live.is_empty() => {
                    let i = *src.choose(&live);
                    let doc = arb_doc(src, i);
                    probes.extend(Atom::from_document(&doc));
                    engine.update_document(&doc).unwrap();
                    "update"
                }
                4 if !live.is_empty() => {
                    let i = live.swap_remove(src.usize_in(0..live.len()));
                    engine.delete_document(&format!("doc{i}.rdf")).unwrap();
                    "delete"
                }
                _ => {
                    let docs: Vec<Document> = (0..src.usize_in(1..4))
                        .map(|k| arb_doc(src, next_doc + k))
                        .collect();
                    for doc in &docs {
                        probes.extend(Atom::from_document(doc));
                    }
                    live.extend(next_doc..next_doc + docs.len());
                    next_doc += docs.len();
                    engine.register_batch(&docs).unwrap();
                    "register"
                }
            };
            check(
                engine.trigger_index(),
                engine.db(),
                &probes,
                &format!("step {step} ({when})"),
            )?;
        }

        // The rule language only lets numeric constants reach a numeric
        // operator, in its own rendering, and never produces an empty
        // pattern; the tables and the index accept any string. Churn such
        // rules through copies of both, beside whatever the steps above
        // left behind.
        let mut db = engine.db().clone();
        let mut index = engine.trigger_index().clone();
        let mut raw: Vec<(AtomicRule, TriggerPred)> = Vec::new();
        for k in 0..src.usize_in(4..14) {
            let when = if raw.is_empty() || src.usize_in(0..3) > 0 {
                let id = 1_000_000 + k as u64;
                let (rule, pred) = if src.usize_in(0..4) > 0 {
                    let op = *src.choose(&INDEXED_OPS[1..]);
                    let value = if src.usize_in(0..4) > 0 {
                        *src.choose(&NUMERIC_SPELLINGS)
                    } else {
                        *src.choose(&RAW_THRESHOLDS)
                    };
                    let property = *src.choose(&["memory", "load"]);
                    raw_rule(id, "ServerInformation", property, op, value)
                } else {
                    let pattern = *src.choose(&RAW_PATTERNS);
                    raw_rule(id, "CycleProvider", "serverHost", TriggerOp::Contains, pattern)
                };
                insert_atomic(&mut db, &rule, &AtomicRule::canonical_text(&rule.kind)).unwrap();
                index.insert(rule.id, &rule.type_class, &pred);
                raw.push((rule, pred));
                "added"
            } else {
                let (rule, pred) = raw.swap_remove(src.usize_in(0..raw.len()));
                remove_atomic(&mut db, &rule, false).unwrap();
                index.remove(rule.id, &rule.type_class, &pred);
                "removed"
            };
            check(&index, &db, &probes, &format!("raw constant {k} {when}"))?;
        }
    }
}
