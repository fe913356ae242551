//! Placement-aware registration (DESIGN.md §11): instead of replicating
//! every document on every MDP (the default factor, R = all), the backbone
//! partitions the document shard space over the nodes with a numbered
//! replication factor, and `mdp_for_uri` tells a client which MDP is the
//! primary for a URI — a node that owns it, so its registration path needs
//! no forwarding hop.
//!
//! ```text
//! cargo run --example placement_routing
//! ```

use mdv::prelude::*;
use mdv::system::PlacementConfig;

fn provider(i: usize, host: &str, memory: i64) -> Document {
    parse_document(
        &format!("doc{i}.rdf"),
        &format!(
            r##"<rdf:RDF>
              <CycleProvider rdf:ID="host">
                <serverHost>{host}</serverHost>
                <serverPort>{port}</serverPort>
                <serverInformation rdf:resource="#info"/>
              </CycleProvider>
              <ServerInformation rdf:ID="info"><memory>{memory}</memory><cpu>700</cpu></ServerInformation>
            </rdf:RDF>"##,
            port = 4000 + i,
        ),
    )
    .expect("document is valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory").int("cpu"))
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .build()?;

    let mut sys = MdvSystem::new(schema);
    for m in ["mdp-berlin", "mdp-passau", "mdp-munich"] {
        sys.add_mdp(m)?;
    }
    sys.add_lmr("lmr", "mdp-berlin")?;
    sys.subscribe(
        "lmr",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    )?;

    // two copies of every document shard, spread over the three MDPs; the
    // LMR's home publishes the documents it owns and each document's
    // primary the rest, so the LMR still sees every match
    sys.configure_placement(PlacementConfig::new(2))?;
    let table = sys.placement_table().expect("an MDP is up");
    println!(
        "placement: {} shards x {} replicas over {} MDPs (epoch {}) — each node stores ~{:.0}% of the corpus",
        table.shard_count(),
        table.factor(),
        table.mdps().len(),
        table.epoch(),
        100.0 * table.storage_share(),
    );

    // placement-aware registration: ask the system which MDP is the
    // primary for each document and register it right there
    for i in 0..6 {
        let doc = provider(i, "pirates.uni-passau.de", 64 + 8 * i as i64);
        let home = sys.mdp_for_uri(doc.uri())?.to_owned();
        sys.register_document(&home, &doc)?;
        println!("doc{i}.rdf -> {home}");
    }

    for m in sys.mdp_names() {
        println!(
            "{m}: {} of 6 documents",
            sys.mdp(m)?.engine().document_count()
        );
    }
    let hits = sys.query(
        "lmr",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    )?;
    println!(
        "lmr cache answers with {} matches, no backbone round-trip",
        hits.len()
    );
    Ok(())
}
