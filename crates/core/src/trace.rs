//! Execution traces and statistics of filter runs.

use std::fmt;

use crate::atoms::RuleId;
use crate::engine::{Names, Tuple};

/// The trace of one filter execution: the contents of `ResultObjects` after
/// each iteration (paper Figure 9).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterRun {
    /// Iteration 0 holds the affected triggering rules; iteration *k* holds
    /// the join-rule results of the *k*-th dependency-graph step.
    pub iterations: Vec<Vec<(String, RuleId)>>,
    /// Matches of end rules (rules with subscriptions attached), across all
    /// iterations.
    pub end_matches: Vec<(RuleId, String)>,
}

impl FilterRun {
    /// The trace of a run's numbered tuples, iteration by iteration, with
    /// every URI resolved; `is_end` says which rules are end rules.
    pub(crate) fn resolve(
        iterations: &[Vec<Tuple>],
        names: &Names,
        is_end: impl Fn(RuleId) -> bool,
    ) -> FilterRun {
        let mut run = FilterRun::default();
        for tuples in iterations {
            let rows: Vec<(String, RuleId)> = tuples
                .iter()
                .map(|&(rule, res)| (names.uri(res).to_owned(), rule))
                .collect();
            run.end_matches.extend(
                rows.iter()
                    .filter(|(_, rule)| is_end(*rule))
                    .map(|(uri, rule)| (*rule, uri.clone())),
            );
            run.iterations.push(rows);
        }
        run
    }

    /// Renders the trace in the style of Figure 9.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, iter) in self.iterations.iter().enumerate() {
            let title = if i == 0 {
                "Initial Iteration".to_owned()
            } else {
                format!("Iteration {i}")
            };
            out.push_str(&format!("{title}\n"));
            out.push_str("| uri_reference | rule_id |\n");
            let mut rows = iter.clone();
            rows.sort();
            for (uri, rule) in rows {
                out.push_str(&format!("| {uri} | {rule} |\n"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for FilterRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Cumulative statistics of a filter engine, for benchmarks and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Documents registered through `register_batch`.
    pub documents_registered: u64,
    /// Document atoms pushed through trigger matching.
    pub atoms_processed: u64,
    /// Tuples produced by trigger matching (iteration 0).
    pub trigger_matches: u64,
    /// Constant predicates evaluated during trigger matching: partition-scan
    /// rows (the two inequalities), inverted-index candidate verifications,
    /// threshold-chain steps, and for numeric `=` the constants of the equal
    /// run (DESIGN.md §10). String-equality hash probes and class-trigger
    /// probes count zero.
    pub trigger_evals: u64,
    /// Join look-ups: one per `(rule group, side, delta resource)` a delta
    /// rule feeds, however many members the group has. With rule groups off
    /// (Ablation B), one per `(member, side, delta resource)`.
    pub join_evaluations: u64,
    /// Look-ups that shared another look-up's counterpart probe: join
    /// look-ups minus distinct `(group, side, resource)` probes. Zero with
    /// rule groups off.
    pub probe_cache_hits: u64,
    /// Counterpart probes actually executed against the store.
    pub probes_executed: u64,
    /// Filter iterations run (including iteration 0 of each run).
    pub iterations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_figure9_shape() {
        let run = FilterRun {
            iterations: vec![
                vec![
                    ("doc.rdf#info".into(), RuleId(1)),
                    ("doc.rdf#info".into(), RuleId(2)),
                    ("doc.rdf#host".into(), RuleId(3)),
                ],
                vec![("doc.rdf#info".into(), RuleId(4))],
                vec![("doc.rdf#host".into(), RuleId(5))],
            ],
            end_matches: vec![(RuleId(5), "doc.rdf#host".into())],
        };
        let text = run.render();
        assert!(text.contains("Initial Iteration"));
        assert!(text.contains("Iteration 2"));
        assert!(text.contains("| doc.rdf#host | 5 |"));
    }
}
