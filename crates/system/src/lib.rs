//! # mdv-system
//!
//! MDV's 3-tier distributed architecture (paper §2, Figure 2):
//!
//! * **[`Mdp`]** — Metadata Providers, the replicated backbone. Each owns a
//!   [`mdv_filter::FilterEngine`], accepts metadata administration, and
//!   publishes matching insertions/updates/deletions to subscribed LMRs
//!   together with the strong-reference closure (§2.4).
//! * **[`Lmr`]** — Local Metadata Repositories, mid-tier caches close to
//!   the applications. They register subscription rules, keep their caches
//!   consistent from publications, hold local metadata, run a
//!   reference-counting garbage collector ([`gc::RefTracker`]), and answer
//!   MDV's declarative query language from the cache alone.
//! * **[`MdvSystem`]** — the deployment: nodes plus a deterministic
//!   in-process [`transport::Network`] with configurable per-link latency
//!   and a full traffic log (the documented substitution for an Internet
//!   deployment).
//!
//! ```
//! use mdv_rdf::{parse_document, RdfSchema};
//! use mdv_system::MdvSystem;
//!
//! let schema = RdfSchema::builder()
//!     .class("ServerInformation", |c| c.int("memory").int("cpu"))
//!     .class("CycleProvider", |c| c
//!         .str("serverHost")
//!         .strong_ref("serverInformation", "ServerInformation"))
//!     .build().unwrap();
//!
//! let mut sys = MdvSystem::new(schema);
//! sys.add_mdp("mdp").unwrap();
//! sys.add_lmr("lmr", "mdp").unwrap();
//! sys.subscribe("lmr",
//!     "search CycleProvider c register c \
//!      where c.serverInformation.memory > 64").unwrap();
//!
//! let doc = parse_document("doc.rdf", r##"
//!     <rdf:RDF>
//!       <CycleProvider rdf:ID="host">
//!         <serverHost>pirates.uni-passau.de</serverHost>
//!         <serverInformation rdf:resource="#info"/>
//!       </CycleProvider>
//!       <ServerInformation rdf:ID="info">
//!         <memory>92</memory><cpu>600</cpu>
//!       </ServerInformation>
//!     </rdf:RDF>"##).unwrap();
//! sys.register_document("mdp", &doc).unwrap();
//!
//! // the cache now answers locally, including the strong-ref companion
//! let hits = sys.query("lmr", "search CycleProvider c register c").unwrap();
//! assert_eq!(hits.len(), 1);
//! assert!(sys.lmr("lmr").unwrap().is_cached("doc.rdf#info"));
//! ```
//!
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

mod channel;
pub mod client;
pub mod error;
pub mod gc;
pub mod lmr;
pub mod mdp;
pub mod message;
pub mod placement;
pub mod raft;
pub mod state;
mod subscribers;
pub mod system;
pub mod transport;

pub use error::{Error, Result};
pub use gc::RefTracker;
pub use lmr::{Lmr, LmrRule, RuleStatus};
pub use mdp::Mdp;
pub use message::{Message, PublishMsg, RuleDelta, WireError};
pub use placement::{PlacementConfig, PlacementTable, DEFAULT_PLACEMENT_SHARDS};
pub use raft::{RaftProbe, RaftRole, ReplicationMode};
pub use system::MdvSystem;
pub use transport::{
    Envelope, FaultPlan, FaultTag, LinkFaults, LogRecord, NetConfig, NetStats, Network, Partition,
};
