//! Operator toolkit: the introspection and recovery features an MDV
//! administrator would use — rule explanation, a query over an LMR's
//! cache, the dependency-graph DOT export, database snapshots, and backbone
//! node recovery from exported logical state.
//!
//! ```text
//! cargo run --example operator_toolkit
//! ```

use mdv::filter::to_dot;
use mdv::prelude::*;
use mdv::relstore::{read_database, write_database};
use mdv::system::Mdp;
use mdv::workload::benchmark_schema;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = benchmark_schema();

    // --- a populated MDP ----------------------------------------------------
    let mut sys = MdvSystem::new(schema.clone());
    sys.add_mdp("mdp")?;
    sys.add_lmr("lmr", "mdp")?;
    let rule = "search CycleProvider c register c \
                where c.serverHost contains 'uni-passau.de' \
                and c.serverInformation.memory > 64";
    sys.subscribe("lmr", rule)?;
    // document i carries memory = i: two of these five match the rule
    for i in 62..67 {
        let doc = mdv::workload::benchmark_document(
            i,
            &mdv::workload::BenchParams {
                rule_count: 100,
                comp_match_fraction: 0.1,
            },
        );
        sys.register_document("mdp", &doc)?;
    }

    // --- 1. explain: what would this rule decompose into? --------------------
    println!(
        "== explain ==\n{}",
        sys.mdp("mdp")?.engine().explain_rule(rule)?
    );

    // --- 2. the same rule as a query, answered from the LMR's cache ----------
    let hits = sys.lmr("lmr")?.query(rule)?;
    assert_eq!(hits.len(), 2, "memory 65 and 66 exceed 64");
    println!("== LMR query == {} result(s):", hits.len());
    for hit in &hits {
        println!("  {}", hit.uri());
    }
    println!();

    // --- 3. the dependency graph, Graphviz-ready ------------------------------
    println!(
        "== dependency graph (DOT) ==\n{}",
        to_dot(sys.mdp("mdp")?.engine().graph())
    );

    // --- 4. a relational snapshot of the MDP's database -----------------------
    let snapshot = write_database(sys.mdp("mdp")?.engine().db());
    let restored_db = read_database(&snapshot)?;
    println!(
        "== snapshot == {} bytes, {} tables, {} rows restored\n",
        snapshot.len(),
        restored_db.table_names().len(),
        restored_db.total_rows()
    );

    // --- 5. backbone node recovery from logical state -------------------------
    let state = sys.mdp("mdp")?.export_state();
    let mut recovered = Mdp::new("mdp-recovered", schema);
    let (subs, docs) = recovered.import_state(&state)?;
    println!("== recovery == replayed {subs} subscription(s) and {docs} document(s)");
    assert_eq!(recovered.engine().document_count(), 5);
    assert_eq!(
        state,
        recovered.export_state(),
        "recovered state is a fixpoint"
    );
    println!("recovered node state matches the original export");
    Ok(())
}
