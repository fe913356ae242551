//! # mdv-workload
//!
//! Synthetic workload generators reproducing the benchmark setup of the MDV
//! paper's §4:
//!
//! * [`schema::benchmark_schema`] — the Figure 1 schema (CycleProvider +
//!   ServerInformation, plus the `synthValue` property the COMP rules use),
//! * [`documents::benchmark_document`] — documents "similar to the document
//!   of Figure 1, each containing two resources",
//! * [`rules`] — the four benchmark rule types of Figure 10 (OID, COMP,
//!   PATH, JOIN) with the paper's matching discipline: OID/PATH/JOIN rules
//!   match exactly one document and vice versa; COMP rules match a
//!   configurable percentage of the rule base per document,
//! * [`scenario`] — the ObjectGlobe marketplace generator used by examples
//!   (data, function, and cycle providers).
//!
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

pub mod documents;
pub mod rules;
pub mod scenario;
pub mod schema;

pub use documents::{benchmark_document, benchmark_documents, BenchParams};
pub use rules::{benchmark_rules, RuleType};
pub use schema::{benchmark_schema, objectglobe_schema};
