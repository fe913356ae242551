//! Fidelity tests: the worked examples printed in the paper (Figures 1,
//! 4–9, Example 1) must come out of this implementation exactly.

use mdv::filter::{Atom, FilterEngine, TriggerOp};
use mdv::prelude::*;

fn paper_schema() -> RdfSchema {
    RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory").int("cpu"))
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .build()
        .unwrap()
}

const FIGURE1: &str = r##"<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <CycleProvider rdf:ID="host">
    <serverHost>pirates.uni-passau.de</serverHost>
    <serverPort>5874</serverPort>
    <serverInformation>
      <ServerInformation rdf:ID="info">
        <memory>92</memory>
        <cpu>600</cpu>
      </ServerInformation>
    </serverInformation>
  </CycleProvider>
</rdf:RDF>"##;

const RULE_331: &str = "search CycleProvider c, ServerInformation s register c \
                        where c.serverHost contains 'uni-passau.de' \
                        and c.serverInformation = s \
                        and s.memory > 64 and s.cpu > 500";

#[test]
fn figure4_filter_data_rows() {
    let doc = parse_document("doc.rdf", FIGURE1).unwrap();
    paper_schema().validate(&doc).unwrap();
    let atoms = Atom::from_document(&doc);
    let rows: Vec<(String, String, String, String)> = atoms
        .into_iter()
        .map(|a| (a.uri, a.class, a.property, a.value))
        .collect();
    let s = |v: &str| v.to_owned();
    assert_eq!(
        rows,
        vec![
            (
                s("doc.rdf#host"),
                s("CycleProvider"),
                s("rdf#subject"),
                s("doc.rdf#host")
            ),
            (
                s("doc.rdf#host"),
                s("CycleProvider"),
                s("serverHost"),
                s("pirates.uni-passau.de")
            ),
            (
                s("doc.rdf#host"),
                s("CycleProvider"),
                s("serverPort"),
                s("5874")
            ),
            (
                s("doc.rdf#host"),
                s("CycleProvider"),
                s("serverInformation"),
                s("doc.rdf#info")
            ),
            (
                s("doc.rdf#info"),
                s("ServerInformation"),
                s("rdf#subject"),
                s("doc.rdf#info")
            ),
            (
                s("doc.rdf#info"),
                s("ServerInformation"),
                s("memory"),
                s("92")
            ),
            (
                s("doc.rdf#info"),
                s("ServerInformation"),
                s("cpu"),
                s("600")
            ),
        ],
        "the FilterData rows of Figure 4, in document order"
    );
}

#[test]
fn section_331_decomposition_yields_five_atomic_rules() {
    // RuleA, RuleB, RuleC (triggers), RuleE (identity join), RuleF (end)
    let mut engine = FilterEngine::new(paper_schema());
    engine.register_subscription(RULE_331).unwrap();
    let rules = engine.graph().rules_sorted();
    assert_eq!(rules.len(), 5);
    assert_eq!(rules.iter().filter(|r| r.is_trigger()).count(), 3);
    assert_eq!(rules.iter().filter(|r| r.is_join()).count(), 2);
    // the end rule registers CycleProvider resources
    let end = engine.subscription(SubscriptionId(0)).unwrap().end_rules[0];
    assert_eq!(
        engine.graph().rule(end).unwrap().type_class,
        "CycleProvider"
    );
}

#[test]
fn figure8_trigger_table_contents() {
    let mut engine = FilterEngine::new(paper_schema());
    engine.register_subscription(RULE_331).unwrap();
    // FilterRulesGT: memory > 64 and cpu > 500 on ServerInformation
    let gt = engine.db().table("FilterRulesGT").unwrap();
    let mut gt_rows: Vec<(String, String, String)> = gt
        .iter()
        .map(|(_, row)| (row[1].to_string(), row[2].to_string(), row[3].to_string()))
        .collect();
    gt_rows.sort();
    assert_eq!(
        gt_rows,
        vec![
            (
                "ServerInformation".to_owned(),
                "cpu".to_owned(),
                "500".to_owned()
            ),
            (
                "ServerInformation".to_owned(),
                "memory".to_owned(),
                "64".to_owned()
            ),
        ]
    );
    // FilterRulesCON: serverHost contains 'uni-passau.de' on CycleProvider
    let con = engine.db().table("FilterRulesCON").unwrap();
    let con_rows: Vec<(String, String, String)> = con
        .iter()
        .map(|(_, row)| (row[1].to_string(), row[2].to_string(), row[3].to_string()))
        .collect();
    assert_eq!(
        con_rows,
        vec![(
            "CycleProvider".to_owned(),
            "serverHost".to_owned(),
            "uni-passau.de".to_owned()
        )]
    );
}

#[test]
fn figure9_filter_trace() {
    // "The filter terminates with resource doc.rdf#host as result" after
    // an initial iteration (3 trigger matches) and two join iterations.
    let mut engine = FilterEngine::new(paper_schema());
    engine.register_subscription(RULE_331).unwrap();
    let doc = parse_document("doc.rdf", FIGURE1).unwrap();
    let (pubs, run) = engine.register_batch_traced(&[doc]).unwrap();

    assert_eq!(run.iterations.len(), 3);
    // initial iteration: info matches the two GT triggers, host the CON one
    let mut initial: Vec<&str> = run.iterations[0].iter().map(|(u, _)| u.as_str()).collect();
    initial.sort();
    assert_eq!(
        initial,
        vec!["doc.rdf#host", "doc.rdf#info", "doc.rdf#info"]
    );
    // iteration 1: the identity join over the ServerInformation triggers
    assert_eq!(run.iterations[1].len(), 1);
    assert_eq!(run.iterations[1][0].0, "doc.rdf#info");
    // iteration 2: the end rule registers the CycleProvider
    assert_eq!(run.iterations[2].len(), 1);
    assert_eq!(run.iterations[2][0].0, "doc.rdf#host");

    assert_eq!(pubs.len(), 1);
    assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);

    // the rendered trace shows the Figure 9 headers
    let text = run.render();
    assert!(text.contains("Initial Iteration"));
    assert!(text.contains("Iteration 2"));
}

#[test]
fn example1_rule_matches_figure1() {
    // "For example, the CycleProvider resource defined in the document
    // excerpt of Figure 1 matches this rule."
    let mut engine = FilterEngine::new(paper_schema());
    let (sub, _) = engine
        .register_subscription(
            "search CycleProvider c register c \
             where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation.memory > 64",
        )
        .unwrap();
    let doc = parse_document("doc.rdf", FIGURE1).unwrap();
    let pubs = engine.register_document(&doc).unwrap();
    assert_eq!(pubs.len(), 1);
    assert_eq!(pubs[0].subscription, sub);
    assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
}

#[test]
fn section_333_rule_groups() {
    // the two §3.3.3 rules share RuleA and their join rules form one group
    let mut engine = FilterEngine::new(paper_schema());
    engine
        .register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
    engine
        .register_subscription(
            "search CycleProvider c register c where c.serverInformation.cpu > 500",
        )
        .unwrap();
    // five atomic rules: shared CycleProvider trigger, two SI triggers, two joins
    assert_eq!(engine.graph().len(), 5);
    assert_eq!(engine.graph().group_count(), 1);
    let group_rows = engine.db().table("RuleGroups").unwrap().len();
    assert_eq!(group_rows, 1);
}

#[test]
fn normalization_matches_section_33() {
    // the paper shows the normalized form of Example 1 in §3.3
    let schema = paper_schema();
    let rule = parse_rule(
        "search CycleProvider c register c \
         where c.serverHost contains 'uni-passau.de' \
         and c.serverInformation.memory > 64",
    )
    .unwrap();
    let n = normalize(&rule, &schema).unwrap();
    typecheck(&n, &schema).unwrap();
    assert_eq!(
        n.bindings.len(),
        2,
        "a ServerInformation variable was introduced"
    );
    assert_eq!(n.bindings[1].class, "ServerInformation");
    assert_eq!(
        n.predicates.len(),
        3,
        "contains + reference join + memory comparison"
    );
}

#[test]
fn trigger_op_reconversion_semantics() {
    // §3.3.4: "constants are stored as strings and reconverted when joining"
    assert!(TriggerOp::Gt.matches("92", "64"));
    assert!(TriggerOp::EqNum.matches("0092", "92"));
    assert!(!TriggerOp::EqStr.matches("0092", "92"));
}

/// `n` providers in one batch; only `doc0` and `doc1` have memory 7.
fn providers(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            let uri = format!("doc{i}.rdf");
            let memory = if i < 2 { 7 } else { 100 + i };
            Document::new(uri.clone())
                .with_resource(
                    Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                        .with("serverHost", Term::literal(format!("n{i}.uni-passau.de")))
                        .with("serverPort", Term::literal("4000"))
                        .with(
                            "serverInformation",
                            Term::resource(UriRef::new(&uri, "info")),
                        ),
                )
                .with_resource(
                    Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                        .with("memory", Term::literal(memory.to_string()))
                        .with("cpu", Term::literal("600")),
                )
        })
        .collect()
}

#[test]
fn backfill_probes_count_the_matches_not_the_store() {
    // §3.4 evaluates join rules starting from the side that changed; a new
    // rule's backfill starts from its selective side the same way. A PATH
    // and a JOIN rule matching two providers probe for counterparts as
    // often over 500 providers as over 50.
    const PATH: &str = "search CycleProvider c register c where c.serverInformation.memory = 7";
    const JOIN: &str = "search CycleProvider c register c \
                        where c.serverHost contains 'uni-passau.de' \
                        and c.serverInformation.memory = 7 and c.serverInformation.cpu = 600";
    let backfill_probes = |n: usize| {
        let mut engine = FilterEngine::new(paper_schema());
        engine.register_batch(&providers(n)).unwrap();
        let before = engine.stats().probes_executed;
        for rule in [PATH, JOIN] {
            let (_, initial) = engine.register_subscription(rule).unwrap();
            assert_eq!(initial, vec!["doc0.rdf#host", "doc1.rdf#host"], "{rule}");
        }
        engine.stats().probes_executed - before
    };
    let (small, large) = (backfill_probes(50), backfill_probes(500));
    assert_eq!(small, large, "backfill probes grew with the store");
    assert_eq!(small, 6, "two matches of two rules, three joins");
}
