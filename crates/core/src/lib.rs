//! # mdv-filter
//!
//! The MDV publish & subscribe **filter algorithm** — the core contribution
//! of *"A Publish & Subscribe Architecture for Distributed Metadata
//! Management"* (Keidl, Kreutz, Kemper, Kossmann; ICDE 2002), implemented on
//! top of an embedded relational engine exactly as the paper prescribes
//! (§3: "solely based on standard relational database technology").
//!
//! The pipeline:
//!
//! 1. **Documents** are decomposed into atoms — RDF statements plus the
//!    synthetic `rdf#subject` marker rows (§3.2, Figure 4) — in
//!    [`store::Atom`].
//! 2. **Rules** are normalized, decomposed into *triggering rules* and
//!    *join rules* (§3.3.1, [`decompose()`]), merged into the deduplicating
//!    global dependency graph (§3.3.2, [`DepGraph`]), and grouped into
//!    *rule groups* (§3.3.3).
//! 3. Triggering rules live in the relational `FilterRules*` tables
//!    ([`rule_tables`]) that act as indexes from new metadata to affected
//!    rules (§3.3.4, Figure 8).
//! 4. The **filter** ([`FilterEngine`]) joins document atoms against those
//!    tables, then evaluates dependent join rules iteratively along the
//!    dependency graph with materialized intermediate results (§3.4,
//!    Figure 9).
//! 5. **Updates and deletions** run the filter three times (§3.5) to
//!    compute removals, survivors, and new matches.
//!
//! A [`NaiveEngine`] baseline (evaluate every rule against every new
//! resource) quantifies what the filter saves.
//!
//! ```
//! use mdv_rdf::{parse_document, RdfSchema};
//! use mdv_filter::FilterEngine;
//!
//! let schema = RdfSchema::builder()
//!     .class("ServerInformation", |c| c.int("memory").int("cpu"))
//!     .class("CycleProvider", |c| c
//!         .str("serverHost").int("serverPort")
//!         .strong_ref("serverInformation", "ServerInformation"))
//!     .build().unwrap();
//! let mut engine = FilterEngine::new(schema);
//!
//! // the paper's Example 1
//! let (sub, initial) = engine.register_subscription(
//!     "search CycleProvider c register c \
//!      where c.serverHost contains 'uni-passau.de' \
//!      and c.serverInformation.memory > 64").unwrap();
//! assert!(initial.is_empty());
//!
//! // the paper's Figure 1 document
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
//! let pubs = engine.register_document(&doc).unwrap();
//! assert_eq!(pubs[0].subscription, sub);
//! assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
//! ```
//!
//! The filter is one sequential algorithm per engine (paper §3.4): a
//! batch is validated, inserted, matched against the triggering rules and
//! joined along the dependency graph on the calling thread.
//! Trigger matching is index-accelerated: `contains` rules sit in an
//! inverted token-postings index and the ordered operators in sorted
//! threshold chains ([`TriggerIndex`]), checked against the relational
//! scan in [`rule_tables::matching_triggers`] — `DESIGN.md` §10.
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

pub mod atoms;
pub mod decompose;
pub mod depgraph;
pub mod dot;
pub mod engine;
pub mod error;
pub mod explain;
pub mod naive;
pub mod query_eval;
pub mod registry;
pub mod rule_tables;
pub mod store;
pub mod trace;
pub mod trigger_index;
pub mod update;

pub use atoms::{
    AtomicRule, AtomicRuleKind, GroupId, JoinPred, JoinSpec, RuleId, Side, TriggerOp, TriggerPred,
};
pub use decompose::{decompose, ProtoRule, ProtoRules};
pub use depgraph::{DepGraph, MergeOutcome};
pub use dot::to_dot;
pub use engine::FilterEngine;
pub use error::{Error, Result};
pub use naive::NaiveEngine;
pub use registry::{Publication, Subscription, SubscriptionId};
pub use store::{Atom, BaseStore};
pub use trace::{FilterRun, FilterStats};
pub use trigger_index::TriggerIndex;
