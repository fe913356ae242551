//! Direct evaluation of normalized rules/queries against a base-table
//! database — no decomposition, no trigger indexes.
//!
//! Two consumers:
//! * the [`crate::NaiveEngine`] baseline, and
//! * the LMR query engine of the system tier, which evaluates MDV's
//!   declarative query language (grammatically identical to the rule
//!   language, paper §2.2) over the local cache.
//!
//! Evaluation binds the registered variable to a candidate resource and
//! backtracks over the remaining variables, deriving candidate sets from
//! equality predicates where possible (following references instead of
//! scanning). The registered variable's own candidates come from the
//! base-table indexes when a constant predicate narrows them — one on the
//! variable itself or on a variable `=` predicates lead to; every candidate
//! is still checked in full.

use std::collections::HashMap;

use mdv_rdf::{RdfSchema, RDF_SUBJECT};
use mdv_relstore::Database;
use mdv_rulelang::{Const, NormOperand, NormPred, NormalizedRule, RuleOp};

use crate::atoms::{JoinPred, TriggerOp};
use crate::error::Result;
use crate::store::BaseStore;

/// All resources matching the rule's register variable, sorted and deduped.
pub fn evaluate(db: &Database, schema: &RdfSchema, rule: &NormalizedRule) -> Result<Vec<String>> {
    let mut candidates = match seed(db, schema, rule, &rule.register, &mut Vec::new())? {
        Some(seeded) => seeded,
        None => class_scan(db, schema, rule.register_class())?,
    };
    candidates.sort();
    candidates.dedup();
    let mut out = Vec::new();
    for uri in candidates {
        if rule_matches(db, schema, rule, &uri)? {
            out.push(uri);
        }
    }
    Ok(out)
}

/// A superset of the resources `var` is bound to in any match of the rule,
/// read off the base-table indexes: the resources satisfying a constant
/// predicate on `var`, or those an `=` predicate links to another
/// variable's seed. `None` when no predicate narrows `var` (the caller scans
/// the class); `via` collects the variables tried, so each is seeded once.
fn seed<'r>(
    db: &Database,
    schema: &RdfSchema,
    rule: &'r NormalizedRule,
    var: &'r str,
    via: &mut Vec<&'r str>,
) -> Result<Option<Vec<String>>> {
    let classes = class_and_descendants(schema, rule.class_of(var).expect("bindings complete"));
    for pred in &rule.predicates {
        let NormOperand::Const(c) = &pred.rhs else {
            continue;
        };
        let prop = match &pred.lhs {
            NormOperand::Subject(v) if v == var => RDF_SUBJECT,
            NormOperand::Prop { var: v, prop, .. } if v == var => prop.as_str(),
            _ => continue,
        };
        // the operator `eval_pred` applies, so `64` finds `064` and `64.0`
        let Some(op) = TriggerOp::classify(pred.op, c.is_numeric()) else {
            continue;
        };
        let value = const_lexical(c);
        let mut out = Vec::new();
        for class in &classes {
            out.extend(BaseStore::resources_matching(db, class, prop, op, &value)?);
        }
        return Ok(Some(out));
    }
    via.push(var);
    for pred in rule.predicates.iter().filter(|p| p.op == RuleOp::Eq) {
        for (target, source) in [(&pred.lhs, &pred.rhs), (&pred.rhs, &pred.lhs)] {
            let (Some(tv), Some(sv)) = (target.var(), source.var()) else {
                continue;
            };
            if tv != var || via.contains(&sv) {
                continue;
            }
            if let Some(mut sources) = seed(db, schema, rule, sv, via)? {
                sources.sort();
                sources.dedup();
                let mut out = Vec::new();
                for source_uri in &sources {
                    out.extend(hop(db, &classes, target, source, source_uri)?);
                }
                return Ok(Some(out));
            }
        }
    }
    Ok(None)
}

/// The resources of `classes` whose `target` operand equals the `source`
/// operand of `source_uri`: a reference followed forwards or backwards.
fn hop(
    db: &Database,
    classes: &[String],
    target: &NormOperand,
    source: &NormOperand,
    source_uri: &str,
) -> Result<Vec<String>> {
    let source_values = operand_values(db, source, source_uri)?;
    let mut out = Vec::new();
    match target {
        NormOperand::Subject(_) => {
            for v in source_values {
                if BaseStore::resource_exists(db, &v)? {
                    out.push(v);
                }
            }
        }
        NormOperand::Prop { prop, .. } => {
            for c in classes {
                for v in &source_values {
                    out.extend(BaseStore::resources_with_value(db, c, prop, v)?);
                }
            }
        }
        NormOperand::Const(_) => {}
    }
    Ok(out)
}

/// Does `uri` match the rule's register variable?
pub fn rule_matches(
    db: &Database,
    schema: &RdfSchema,
    rule: &NormalizedRule,
    uri: &str,
) -> Result<bool> {
    // class membership of the register variable
    match BaseStore::resource_class(db, uri)? {
        Some(actual) if schema.is_subclass_of(&actual, rule.register_class()) => {}
        _ => return Ok(false),
    }
    let mut assignment: HashMap<&str, String> = HashMap::new();
    assignment.insert(&rule.register, uri.to_owned());
    backtrack(db, schema, rule, &mut assignment)
}

/// The class plus all transitive subclasses.
pub fn class_and_descendants(schema: &RdfSchema, class: &str) -> Vec<String> {
    schema
        .class_names()
        .into_iter()
        .filter(|c| schema.is_subclass_of(c, class))
        .map(str::to_owned)
        .collect()
}

fn backtrack<'r>(
    db: &Database,
    schema: &RdfSchema,
    rule: &'r NormalizedRule,
    assignment: &mut HashMap<&'r str, String>,
) -> Result<bool> {
    // all predicates whose variables are assigned must hold
    for pred in &rule.predicates {
        if let Some(holds) = eval_pred(db, pred, assignment)? {
            if !holds {
                return Ok(false);
            }
        }
    }
    let unassigned: Vec<&str> = rule
        .bindings
        .iter()
        .map(|b| b.var.as_str())
        .filter(|v| !assignment.contains_key(*v))
        .collect();
    let Some(&var) = unassigned.first() else {
        return Ok(true);
    };
    let class = rule.class_of(var).expect("bindings complete");
    let candidates = candidates_for(db, schema, rule, var, class, assignment)?;
    for cand in candidates {
        assignment.insert(var, cand);
        if backtrack(db, schema, rule, assignment)? {
            assignment.remove(var);
            return Ok(true);
        }
        assignment.remove(var);
    }
    Ok(false)
}

/// Candidate resources for `var`: derived from an equality predicate against
/// an assigned variable when possible, otherwise a class scan.
fn candidates_for(
    db: &Database,
    schema: &RdfSchema,
    rule: &NormalizedRule,
    var: &str,
    class: &str,
    assignment: &HashMap<&str, String>,
) -> Result<Vec<String>> {
    for pred in &rule.predicates {
        if pred.op != RuleOp::Eq {
            continue;
        }
        for (target, source) in [(&pred.lhs, &pred.rhs), (&pred.rhs, &pred.lhs)] {
            let Some(tv) = target.var() else { continue };
            if tv != var {
                continue;
            }
            let Some(sv) = source.var() else { continue };
            let Some(source_uri) = assignment.get(sv) else {
                continue;
            };
            let mut out = hop(
                db,
                &class_and_descendants(schema, class),
                target,
                source,
                source_uri,
            )?;
            out.sort();
            out.dedup();
            return Ok(out);
        }
    }
    class_scan(db, schema, class)
}

/// Every resource of `class` and its subclasses.
fn class_scan(db: &Database, schema: &RdfSchema, class: &str) -> Result<Vec<String>> {
    let mut out = Vec::new();
    for c in class_and_descendants(schema, class) {
        out.extend(BaseStore::resources_of_class(db, &c)?);
    }
    Ok(out)
}

/// Evaluates a predicate under a (possibly partial) assignment; `None` when
/// a referenced variable is not assigned yet.
fn eval_pred(
    db: &Database,
    pred: &NormPred,
    assignment: &HashMap<&str, String>,
) -> Result<Option<bool>> {
    let Some(lhs) = operand_values_opt(db, &pred.lhs, assignment)? else {
        return Ok(None);
    };
    let Some(rhs) = operand_values_opt(db, &pred.rhs, assignment)? else {
        return Ok(None);
    };
    // numeric-constant comparisons reconvert, matching the filter engine
    let numeric_const = matches!(&pred.rhs, NormOperand::Const(c) if c.is_numeric());
    let trigger_op = TriggerOp::classify(pred.op, numeric_const);
    for l in &lhs {
        for r in &rhs {
            let holds = match (&pred.rhs, trigger_op) {
                (NormOperand::Const(_), Some(op)) => op.matches(l, r),
                _ => JoinPred {
                    left_prop: String::new(),
                    op: pred.op,
                    right_prop: String::new(),
                }
                .value_matches(l, r),
            };
            if holds {
                return Ok(Some(true));
            }
        }
    }
    Ok(Some(false))
}

fn operand_values_opt(
    db: &Database,
    op: &NormOperand,
    assignment: &HashMap<&str, String>,
) -> Result<Option<Vec<String>>> {
    match op {
        NormOperand::Const(c) => Ok(Some(vec![const_lexical(c)])),
        other => match other.var().and_then(|v| assignment.get(v)) {
            Some(uri) => Ok(Some(operand_values(db, other, uri)?)),
            None => Ok(None),
        },
    }
}

fn operand_values(db: &Database, op: &NormOperand, uri: &str) -> Result<Vec<String>> {
    match op {
        NormOperand::Subject(_) => Ok(vec![uri.to_owned()]),
        NormOperand::Prop { prop, .. } => BaseStore::values_of(db, uri, prop),
        NormOperand::Const(c) => Ok(vec![const_lexical(c)]),
    }
}

fn const_lexical(c: &Const) -> String {
    c.lexical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::create_base_tables;
    use mdv_rdf::{Resource, Term, UriRef};
    use mdv_rulelang::{normalize, parse_rule};

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        create_base_tables(&mut db).unwrap();
        for (i, (host, memory)) in [
            ("a.uni-passau.de", 128),
            ("b.org", 128),
            ("c.uni-passau.de", 32),
        ]
        .iter()
        .enumerate()
        {
            let uri = format!("doc{i}.rdf");
            BaseStore::insert_resource(
                &mut db,
                &Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal(*host))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new(&uri, "info")),
                    ),
                &uri,
            )
            .unwrap();
            BaseStore::insert_resource(
                &mut db,
                &Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal("600")),
                &uri,
            )
            .unwrap();
        }
        db
    }

    fn run(query: &str) -> Vec<String> {
        let s = schema();
        let n = normalize(&parse_rule(query).unwrap(), &s).unwrap();
        evaluate(&db(), &s, &n).unwrap()
    }

    #[test]
    fn evaluate_join_query() {
        let hits = run("search CycleProvider c register c \
             where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation.memory > 64");
        assert_eq!(hits, vec!["doc0.rdf#host".to_owned()]);
    }

    #[test]
    fn evaluate_class_scan() {
        assert_eq!(run("search ServerInformation s register s").len(), 3);
    }

    #[test]
    fn evaluate_registers_referenced_side() {
        // all ServerInformations of providers in uni-passau.de
        let hits = run("search ServerInformation s, CycleProvider c register s \
             where c.serverInformation = s and c.serverHost contains 'uni-passau.de'");
        assert_eq!(
            hits,
            vec!["doc0.rdf#info".to_owned(), "doc2.rdf#info".to_owned()]
        );
    }

    #[test]
    fn rule_matches_point_check() {
        let s = schema();
        let n = normalize(
            &parse_rule("search CycleProvider c register c where c.serverInformation.memory > 64")
                .unwrap(),
            &s,
        )
        .unwrap();
        let db = db();
        assert!(rule_matches(&db, &s, &n, "doc0.rdf#host").unwrap());
        assert!(!rule_matches(&db, &s, &n, "doc2.rdf#host").unwrap());
        assert!(
            !rule_matches(&db, &s, &n, "doc0.rdf#info").unwrap(),
            "wrong class"
        );
        assert!(!rule_matches(&db, &s, &n, "missing#x").unwrap());
    }
}
