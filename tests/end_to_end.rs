//! End-to-end integration tests spanning all crates: RDF/XML in, 3-tier
//! routing, filter evaluation, cache maintenance, local queries out.

use mdv::prelude::*;
use mdv::workload::scenario::{marketplace_documents, MarketplaceParams};
use mdv::workload::schema::objectglobe_schema;

fn schema() -> RdfSchema {
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

fn provider_xml(i: usize, host: &str, memory: i64) -> Document {
    parse_document(
        &format!("doc{i}.rdf"),
        &format!(
            r##"<rdf:RDF>
              <CycleProvider rdf:ID="host">
                <serverHost>{host}</serverHost>
                <serverPort>{port}</serverPort>
                <serverInformation rdf:resource="#info"/>
              </CycleProvider>
              <ServerInformation rdf:ID="info">
                <memory>{memory}</memory><cpu>600</cpu>
              </ServerInformation>
            </rdf:RDF>"##,
            port = 4000 + i
        ),
    )
    .unwrap()
}

#[test]
fn xml_to_cache_roundtrip() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr", "mdp").unwrap();
    sys.subscribe(
        "lmr",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    )
    .unwrap();
    sys.register_document("mdp", &provider_xml(1, "a.org", 128))
        .unwrap();
    // the cached copy round-tripped through publication intact
    let cached = sys
        .lmr("lmr")
        .unwrap()
        .cached_resource("doc1.rdf#host")
        .unwrap()
        .unwrap();
    assert_eq!(cached.property("serverHost").unwrap().lexical(), "a.org");
    assert_eq!(cached.property("serverPort").unwrap().as_int(), Some(4001));
    // re-serializing the cached resources (host + strong companion) parses back
    let companion = sys
        .lmr("lmr")
        .unwrap()
        .cached_resource("doc1.rdf#info")
        .unwrap()
        .unwrap();
    let mut doc = Document::new("doc1.rdf");
    doc.add_resource(cached).unwrap();
    doc.add_resource(companion).unwrap();
    let xml = write_document(&doc);
    let reparsed = parse_document("doc1.rdf", &xml).unwrap();
    assert_eq!(reparsed.resources().len(), 2);
}

#[test]
fn or_rules_work_through_the_system() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr", "mdp").unwrap();
    sys.subscribe(
        "lmr",
        "search CycleProvider c register c \
         where c.serverHost contains 'alpha' or c.serverInformation.memory > 1000",
    )
    .unwrap();
    sys.register_document("mdp", &provider_xml(1, "alpha.org", 1))
        .unwrap();
    sys.register_document("mdp", &provider_xml(2, "beta.org", 2000))
        .unwrap();
    sys.register_document("mdp", &provider_xml(3, "gamma.org", 1))
        .unwrap();
    let lmr = sys.lmr("lmr").unwrap();
    assert!(
        lmr.is_cached("doc1.rdf#host"),
        "matched via the contains disjunct"
    );
    assert!(
        lmr.is_cached("doc2.rdf#host"),
        "matched via the memory disjunct"
    );
    assert!(!lmr.is_cached("doc3.rdf#host"));
}

#[test]
fn an_update_keeps_what_another_or_disjunct_still_matches() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr", "mdp").unwrap();
    sys.subscribe(
        "lmr",
        "search CycleProvider c register c \
         where c.serverInformation.memory > 64 or c.serverInformation.cpu >= 600",
    )
    .unwrap();
    sys.register_document("mdp", &provider_xml(1, "a.org", 92))
        .unwrap();
    assert!(sys.lmr("lmr").unwrap().is_cached("doc1.rdf#host"));
    // memory drops below the first disjunct; cpu 600 still satisfies the
    // second, so the provider and its strong companion stay cached
    sys.update_document("mdp", &provider_xml(1, "a.org", 32))
        .unwrap();
    let lmr = sys.lmr("lmr").unwrap();
    assert!(lmr.is_cached("doc1.rdf#host"), "{:?}", lmr.cached_uris());
    assert!(lmr.is_cached("doc1.rdf#info"), "{:?}", lmr.cached_uris());
}

#[test]
fn two_lmrs_get_independent_views() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr-big", "mdp").unwrap();
    sys.add_lmr("lmr-passau", "mdp").unwrap();
    sys.subscribe(
        "lmr-big",
        "search CycleProvider c register c where c.serverInformation.memory >= 256",
    )
    .unwrap();
    sys.subscribe(
        "lmr-passau",
        "search CycleProvider c register c where c.serverHost contains 'uni-passau.de'",
    )
    .unwrap();
    sys.register_document("mdp", &provider_xml(1, "x.uni-passau.de", 64))
        .unwrap();
    sys.register_document("mdp", &provider_xml(2, "y.example.org", 512))
        .unwrap();
    sys.register_document("mdp", &provider_xml(3, "z.uni-passau.de", 512))
        .unwrap();

    let big = sys.lmr("lmr-big").unwrap().cached_uris();
    let passau = sys.lmr("lmr-passau").unwrap().cached_uris();
    assert!(big.contains(&"doc2.rdf#host".to_owned()));
    assert!(big.contains(&"doc3.rdf#host".to_owned()));
    assert!(!big.contains(&"doc1.rdf#host".to_owned()));
    assert!(passau.contains(&"doc1.rdf#host".to_owned()));
    assert!(passau.contains(&"doc3.rdf#host".to_owned()));
    assert!(!passau.contains(&"doc2.rdf#host".to_owned()));
}

#[test]
fn update_reclassifies_across_lmrs() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr-small", "mdp").unwrap();
    sys.add_lmr("lmr-big", "mdp").unwrap();
    sys.subscribe(
        "lmr-small",
        "search CycleProvider c register c where c.serverInformation.memory < 100",
    )
    .unwrap();
    sys.subscribe(
        "lmr-big",
        "search CycleProvider c register c where c.serverInformation.memory >= 100",
    )
    .unwrap();
    sys.register_document("mdp", &provider_xml(1, "a.org", 64))
        .unwrap();
    assert!(sys.lmr("lmr-small").unwrap().is_cached("doc1.rdf#host"));
    assert!(!sys.lmr("lmr-big").unwrap().is_cached("doc1.rdf#host"));
    // the update migrates the provider from one cache to the other
    sys.update_document("mdp", &provider_xml(1, "a.org", 256))
        .unwrap();
    assert!(!sys.lmr("lmr-small").unwrap().is_cached("doc1.rdf#host"));
    assert!(sys.lmr("lmr-big").unwrap().is_cached("doc1.rdf#host"));
}

#[test]
fn marketplace_through_full_stack() {
    let mut sys = MdvSystem::new(objectglobe_schema());
    sys.add_mdp("mdp-a").unwrap();
    sys.add_mdp("mdp-b").unwrap();
    sys.add_lmr("lmr", "mdp-b").unwrap();
    sys.subscribe(
        "lmr",
        "search DataProvider d register d where d.theme = 'astronomy'",
    )
    .unwrap();

    // all documents enter at mdp-a; replication must carry them to mdp-b
    let docs = marketplace_documents(&MarketplaceParams::default());
    for doc in &docs {
        sys.register_document("mdp-a", doc).unwrap();
    }

    // cross-check: the LMR cache equals a direct query at the origin MDP
    let cached = sys.lmr("lmr").unwrap().cached_uris();
    let expected: Vec<String> = sys
        .browse_resources("mdp-a", "DataProvider")
        .unwrap()
        .into_iter()
        .filter(|d| d.property("theme").unwrap().lexical() == "astronomy")
        .map(|d| d.uri().to_string())
        .collect();
    assert!(
        !expected.is_empty(),
        "the generator produces astronomy providers"
    );
    assert_eq!(cached, expected);
}

#[test]
fn unsubscribe_cleans_everything_everywhere() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr", "mdp").unwrap();
    let rule = sys
        .subscribe(
            "lmr",
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
    sys.register_document("mdp", &provider_xml(1, "a.org", 128))
        .unwrap();
    assert_eq!(sys.lmr("lmr").unwrap().cached_uris().len(), 2);
    sys.unsubscribe("lmr", rule).unwrap();
    // the cache is empty and the MDP's rule tables are retracted
    assert!(sys.lmr("lmr").unwrap().cached_uris().is_empty());
    assert!(sys.mdp("mdp").unwrap().engine().graph().is_empty());
}

#[test]
fn late_subscriber_catches_up_through_backfill() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("early", "mdp").unwrap();
    sys.add_lmr("late", "mdp").unwrap();
    sys.subscribe(
        "early",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    )
    .unwrap();
    for i in 0..5 {
        sys.register_document("mdp", &provider_xml(i, "a.org", 128))
            .unwrap();
    }
    // the late subscriber registers the same rule afterwards
    sys.subscribe(
        "late",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    )
    .unwrap();
    assert_eq!(
        sys.lmr("early").unwrap().cached_uris(),
        sys.lmr("late").unwrap().cached_uris(),
        "backfill gives the late subscriber the identical view"
    );
}

#[test]
fn queries_use_only_local_metadata() {
    // paper §2.2: query processing never leaves the LMR
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr", "mdp").unwrap();
    sys.register_document("mdp", &provider_xml(1, "a.org", 128))
        .unwrap();
    let messages_before = sys.network_stats().messages;
    // no subscription: the cache is empty, so the query sees nothing even
    // though the MDP stores a matching provider
    let hits = sys
        .query("lmr", "search CycleProvider c register c")
        .unwrap();
    assert!(hits.is_empty());
    assert_eq!(
        sys.network_stats().messages,
        messages_before,
        "no network traffic for queries"
    );
}
