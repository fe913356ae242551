//! Benchmark rule generation: the four rule types of the paper's Figure 10.
//!
//! ```text
//! OID:  search CycleProvider c register c where c = URI
//! COMP: search CycleProvider c register c where c.synthValue > INT
//! PATH: search CycleProvider c register c
//!       where c.serverInformation.memory = INT
//! JOIN: search CycleProvider c register c
//!       where c.serverHost contains 'uni-passau.de'
//!       and c.serverInformation.cpu = 600
//!       and c.serverInformation.memory = INT
//! ```
//!
//! OID and COMP are pure triggering rules (no decomposition, no join rules);
//! PATH and JOIN access properties of referenced resources, so decomposition
//! creates join rules and the complete filter algorithm runs (paper §4).

use std::fmt;

use crate::documents::provider_uri;

/// The benchmark rule types (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleType {
    Oid,
    Comp,
    Path,
    Join,
}

impl RuleType {
    pub const ALL: [RuleType; 4] = [
        RuleType::Oid,
        RuleType::Comp,
        RuleType::Path,
        RuleType::Join,
    ];

    /// True when rules of this type decompose into join rules (the complete
    /// filter algorithm runs, not just trigger matching).
    pub fn needs_joins(self) -> bool {
        matches!(self, RuleType::Path | RuleType::Join)
    }
}

impl fmt::Display for RuleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleType::Oid => "OID",
            RuleType::Comp => "COMP",
            RuleType::Path => "PATH",
            RuleType::Join => "JOIN",
        };
        f.write_str(s)
    }
}

/// Generates rule `i` of the given type.
pub fn benchmark_rule(rule_type: RuleType, i: u64) -> String {
    match rule_type {
        RuleType::Oid => format!(
            "search CycleProvider c register c where c = '{}'",
            provider_uri(i)
        ),
        RuleType::Comp => {
            format!("search CycleProvider c register c where c.synthValue > {i}")
        }
        RuleType::Path => {
            format!("search CycleProvider c register c where c.serverInformation.memory = {i}")
        }
        RuleType::Join => format!(
            "search CycleProvider c register c \
             where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation.cpu = 600 \
             and c.serverInformation.memory = {i}"
        ),
    }
}

/// Generates the full rule base `0..count`.
pub fn benchmark_rules(rule_type: RuleType, count: u64) -> Vec<String> {
    (0..count).map(|i| benchmark_rule(rule_type, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::documents::{benchmark_document, BenchParams};
    use crate::schema::benchmark_schema;
    use mdv_filter::FilterEngine;

    #[test]
    fn rule_shapes_match_figure_10() {
        assert_eq!(
            benchmark_rule(RuleType::Oid, 3),
            "search CycleProvider c register c where c = 'bench3.rdf#host'"
        );
        assert!(benchmark_rule(RuleType::Comp, 5).contains("synthValue > 5"));
        assert!(benchmark_rule(RuleType::Path, 7).contains("serverInformation.memory = 7"));
        let join = benchmark_rule(RuleType::Join, 9);
        assert!(join.contains("contains 'uni-passau.de'"));
        assert!(join.contains("cpu = 600"));
        assert!(join.contains("memory = 9"));
    }

    #[test]
    fn oid_and_comp_are_trigger_only_path_and_join_decompose() {
        let schema = benchmark_schema();
        for rt in RuleType::ALL {
            let mut e = FilterEngine::new(schema.clone());
            e.register_subscription(&benchmark_rule(rt, 1)).unwrap();
            let joins = e
                .graph()
                .rules_sorted()
                .iter()
                .filter(|r| r.is_join())
                .count();
            if rt.needs_joins() {
                assert!(joins > 0, "{rt} must decompose into join rules");
            } else {
                assert_eq!(joins, 0, "{rt} must stay a pure triggering rule");
            }
        }
    }

    #[test]
    fn one_to_one_matching_for_oid_path_join() {
        // "the CycleProvider resource in a document was matched by exactly
        // one rule and each rule matched exactly one resource" (§4)
        let schema = benchmark_schema();
        let params = BenchParams {
            rule_count: 10,
            comp_match_fraction: 0.1,
        };
        for rt in [RuleType::Oid, RuleType::Path, RuleType::Join] {
            let mut e = FilterEngine::new(schema.clone());
            for rule in benchmark_rules(rt, 10) {
                e.register_subscription(&rule).unwrap();
            }
            let docs: Vec<_> = (0..10).map(|i| benchmark_document(i, &params)).collect();
            let pubs = e.register_batch(&docs).unwrap();
            // every rule matched exactly one provider
            assert_eq!(pubs.len(), 10, "{rt}: each of the 10 rules fires once");
            for p in &pubs {
                assert_eq!(p.added.len(), 1, "{rt}: rule matches exactly one resource");
            }
            // and every provider was matched exactly once overall
            let mut matched: Vec<&String> = pubs.iter().flat_map(|p| &p.added).collect();
            matched.sort();
            matched.dedup();
            assert_eq!(matched.len(), 10);
        }
    }

    #[test]
    fn comp_matching_percentage_holds() {
        let schema = benchmark_schema();
        let params = BenchParams {
            rule_count: 100,
            comp_match_fraction: 0.1,
        };
        let mut e = FilterEngine::new(schema);
        for rule in benchmark_rules(RuleType::Comp, 100) {
            e.register_subscription(&rule).unwrap();
        }
        let pubs = e
            .register_document(&benchmark_document(0, &params))
            .unwrap();
        // synthValue = 10 matches rules with INT in 0..10 → 10 of 100 = 10%
        assert_eq!(pubs.len(), 10);
    }
}
