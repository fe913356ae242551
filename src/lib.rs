//! # MDV — A Publish & Subscribe Architecture for Distributed Metadata Management
//!
//! A from-scratch Rust reproduction of the MDV system (Keidl, Kreutz,
//! Kemper, Kossmann; ICDE 2002): a 3-tier distributed metadata management
//! system whose core is a scalable publish & subscribe **filter algorithm**
//! implemented on standard relational technology.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`relstore`] | `mdv-relstore` | embedded relational engine (tables, indexes, commit groups, WAL) |
//! | [`rdf`] | `mdv-rdf` | RDF model, RDF-Schema with strong/weak references, RDF/XML subset |
//! | [`rulelang`] | `mdv-rulelang` | the subscription/query language front end |
//! | [`filter`] | `mdv-filter` | the filter algorithm (decomposition, dependency graph, rule groups, support-counted updates) |
//! | [`system`] | `mdv-system` | MDPs, LMRs, clients, simulated network, garbage collector |
//! | [`workload`] | `mdv-workload` | paper benchmark workloads and the ObjectGlobe marketplace generator |
//!
//! ## Quickstart
//!
//! ```
//! use mdv::prelude::*;
//!
//! // 1. schema design (strong references travel with their referrers, §2.4)
//! let schema = RdfSchema::builder()
//!     .class("ServerInformation", |c| c.int("memory").int("cpu"))
//!     .class("CycleProvider", |c| c
//!         .str("serverHost").int("serverPort")
//!         .strong_ref("serverInformation", "ServerInformation"))
//!     .build().unwrap();
//!
//! // 2. a 3-tier deployment: one backbone MDP, one LMR near the client
//! let mut sys = MdvSystem::new(schema);
//! sys.add_mdp("mdp").unwrap();
//! sys.add_lmr("lmr", "mdp").unwrap();
//!
//! // 3. subscribe with the paper's Example 1 rule
//! sys.subscribe("lmr",
//!     "search CycleProvider c register c \
//!      where c.serverHost contains 'uni-passau.de' \
//!      and c.serverInformation.memory > 64").unwrap();
//!
//! // 4. register the paper's Figure 1 document at the backbone
//! let doc = parse_document("doc.rdf", r##"
//!     <rdf:RDF>
//!       <CycleProvider rdf:ID="host">
//!         <serverHost>pirates.uni-passau.de</serverHost>
//!         <serverPort>5874</serverPort>
//!         <serverInformation rdf:resource="#info"/>
//!       </CycleProvider>
//!       <ServerInformation rdf:ID="info">
//!         <memory>92</memory><cpu>600</cpu>
//!       </ServerInformation>
//!     </rdf:RDF>"##).unwrap();
//! sys.register_document("mdp", &doc).unwrap();
//!
//! // 5. the LMR answers queries from its cache, no backbone round-trip
//! let hits = sys.query("lmr",
//!     "search CycleProvider c register c \
//!      where c.serverInformation.memory > 64").unwrap();
//! assert_eq!(hits[0].uri().as_str(), "doc.rdf#host");
//! ```
//!
//! `DESIGN.md` §4 holds the workspace-wide module map; `README.md` has the
//! crate-by-crate architecture overview.

pub use mdv_filter as filter;
pub use mdv_rdf as rdf;
pub use mdv_relstore as relstore;
pub use mdv_rulelang as rulelang;
pub use mdv_system as system;
pub use mdv_workload as workload;

/// The most common imports for working with MDV.
pub mod prelude {
    pub use mdv_filter::{FilterEngine, NaiveEngine, Publication, SubscriptionId};
    pub use mdv_rdf::{
        parse_document, write_document, Document, RdfSchema, RefKind, Resource, Term, UriRef,
    };
    pub use mdv_rulelang::{normalize, parse_rule, split_or, typecheck, Rule};
    pub use mdv_system::{Lmr, Mdp, MdvSystem, NetConfig};
}
