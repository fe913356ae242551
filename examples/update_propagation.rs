//! Update propagation: the paper's §3.5 update/delete protocol observed
//! from the LMR cache, including the reference-counting garbage collector.
//!
//! ```text
//! cargo run --example update_propagation
//! ```
//!
//! Walks the exact scenario of §3: a ServerInformation's memory property is
//! updated 32 → 128 (a CycleProvider starts matching), then 128 → 32 (it
//! stops matching), and finally the document is deleted.

use mdv::prelude::*;

fn doc(memory: i64) -> Document {
    parse_document(
        "doc.rdf",
        &format!(
            r##"<rdf:RDF>
              <CycleProvider rdf:ID="host">
                <serverHost>pirates.uni-passau.de</serverHost>
                <serverPort>5874</serverPort>
                <serverInformation rdf:resource="#info"/>
              </CycleProvider>
              <ServerInformation rdf:ID="info"><memory>{memory}</memory><cpu>600</cpu></ServerInformation>
            </rdf:RDF>"##
        ),
    )
    .expect("document is valid")
}

fn show_cache(sys: &MdvSystem, when: &str) {
    let cached = sys.lmr("lmr").expect("lmr exists").cached_uris();
    println!("{when}: cache = {cached:?}");
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
    sys.add_mdp("mdp")?;
    sys.add_lmr("lmr", "mdp")?;

    let rule = "search CycleProvider c register c where c.serverInformation.memory > 64";
    println!("rule: {rule}\n");
    sys.subscribe("lmr", rule)?;

    // 1. memory = 32: no match
    sys.register_document("mdp", &doc(32))?;
    show_cache(&sys, "after register (memory=32)");
    assert!(sys.lmr("lmr")?.cached_uris().is_empty());

    // 2. update 32 → 128: the CycleProvider now matches; the updated
    //    ServerInformation travels along as a strong-reference companion
    sys.update_document("mdp", &doc(128))?;
    show_cache(&sys, "after update   (memory=128)");
    assert!(sys.lmr("lmr")?.is_cached("doc.rdf#host"));
    assert!(sys.lmr("lmr")?.is_cached("doc.rdf#info"));

    // 3. update 128 → 256: still matching; the LMR receives the new copy
    sys.update_document("mdp", &doc(256))?;
    let cached = sys
        .lmr("lmr")?
        .cached_resource("doc.rdf#info")?
        .expect("cached");
    println!(
        "after update   (memory=256): cached copy reports memory = {}",
        cached.property("memory").unwrap().as_int().unwrap()
    );
    assert_eq!(cached.property("memory").unwrap().as_int(), Some(256));

    // 4. update 256 → 32: the rule no longer matches; the garbage collector
    //    removes the companion that was cached only through the strong ref
    sys.update_document("mdp", &doc(32))?;
    show_cache(&sys, "after update   (memory=32)");
    assert!(sys.lmr("lmr")?.cached_uris().is_empty());

    // 5. back to matching, then delete the whole document
    sys.update_document("mdp", &doc(512))?;
    show_cache(&sys, "after update   (memory=512)");
    sys.delete_document("mdp", "doc.rdf")?;
    show_cache(&sys, "after delete");
    assert!(sys.lmr("lmr")?.cached_uris().is_empty());
    assert!(sys.mdp("mdp")?.engine().document("doc.rdf").is_none());

    println!("\nthe signed update pass (§3.5, with support counts) drove every transition above.");
    Ok(())
}
