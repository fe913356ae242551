//! Index structures that accelerate trigger matching (DESIGN.md §10).
//!
//! [`crate::rule_tables::matching_triggers`] walks every rule registered
//! for a `(class, property)` partition and evaluates its predicate against
//! the document value — O(rules) per atom, which at 100k+ rules dominates
//! the filter pass. This module keeps two structures, maintained
//! incrementally on subscribe/unsubscribe, that the engine consults
//! instead for the operators they cover:
//!
//! * **Inverted token postings for `contains`** ([`TriggerOp::Contains`]):
//!   every pattern is anchored on its longest *interior* token (a maximal
//!   alphanumeric run bounded by non-alphanumeric characters on both sides
//!   inside the pattern). If a document value contains the pattern, the
//!   anchor necessarily occurs in the value as a full maximal token, so the
//!   candidate set for a value is the union of the postings of its distinct
//!   tokens plus the (rare) patterns with no interior token. Candidates are
//!   then verified with a real `contains` check, so the result is exact.
//!
//! * **A sorted threshold chain per ordered numeric operator** (`<`, `<=`,
//!   `>`, `>=`): the weakest threshold comes first and matching walks the
//!   chain only as far as the document value reaches. Numeric `=` keeps
//!   the same chain and answers with the run of constants equal to the
//!   document value, found by two binary searches.
//!
//! `tests/matching_equivalence.rs` pins both against `matching_triggers`
//! — same rule ids in the same (ascending [`RuleId`]) order, which is the
//! table's emission order because row buckets preserve insertion order and
//! rule ids grow monotonically.
//!
//! # Example
//!
//! ```
//! use mdv_filter::trigger_index::TriggerIndex;
//! use mdv_filter::{RuleId, TriggerOp, TriggerPred};
//!
//! let mut idx = TriggerIndex::default();
//! let pred = |v: &str| TriggerPred {
//!     property: "serverHost".into(),
//!     op: TriggerOp::Contains,
//!     value: v.into(),
//! };
//! idx.insert(RuleId(0), "CycleProvider", &pred(".uni-passau.de"));
//! idx.insert(RuleId(1), "CycleProvider", &pred("host1.uni-passau.de"));
//! idx.insert(RuleId(2), "CycleProvider", &pred(".tum.de"));
//!
//! let (hits, evals) =
//!     idx.match_contains("CycleProvider", "serverHost", "host1.uni-passau.de");
//! assert_eq!(hits, vec![RuleId(0), RuleId(1)]);
//! assert_eq!(evals, 2); // rule 2 is anchored on "tum" and never checked
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::atoms::{RuleId, TriggerOp, TriggerPred};

/// Maximal alphanumeric runs of `s` as byte ranges.
fn token_runs(s: &str) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in s.char_indices() {
        if c.is_alphanumeric() {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(b) = start.take() {
            runs.push((b, i));
        }
    }
    if let Some(b) = start {
        runs.push((b, s.len()));
    }
    runs
}

/// Distinct maximal tokens of a document value.
fn full_tokens(s: &str) -> BTreeSet<&str> {
    token_runs(s).into_iter().map(|(b, e)| &s[b..e]).collect()
}

/// The anchor token of a pattern: its longest *interior* maximal
/// alphanumeric run (bounded by non-alphanumeric characters on both sides
/// within the pattern), ties broken towards the leftmost. Interior tokens
/// are guaranteed to appear as full maximal tokens in any string containing
/// the pattern; boundary runs may fuse with neighbouring characters.
fn anchor_token(pattern: &str) -> Option<&str> {
    token_runs(pattern)
        .into_iter()
        .filter(|&(b, e)| b > 0 && e < pattern.len())
        .max_by_key(|&(b, e)| (e - b, std::cmp::Reverse(b)))
        .map(|(b, e)| &pattern[b..e])
}

/// Inserts into a sorted `Vec` keeping it sorted; no-op on duplicates.
fn sorted_insert<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

/// Removes from a sorted `Vec`; no-op when absent.
fn sorted_remove<T: Ord>(v: &mut Vec<T>, x: &T) {
    if let Ok(pos) = v.binary_search(x) {
        v.remove(pos);
    }
}

/// Postings for the `contains` rules of one `(class, property)` partition.
#[derive(Debug, Clone, Default)]
struct ConPartition {
    /// Every rule's pattern, keyed by id.
    patterns: BTreeMap<RuleId, String>,
    /// Anchor token → rules anchored on it (sorted by id).
    postings: HashMap<String, Vec<RuleId>>,
    /// Rules whose pattern has no interior token; always candidates.
    unanchored: Vec<RuleId>,
}

impl ConPartition {
    /// Exact candidate set for a document value: union of the postings of
    /// its distinct tokens plus the unanchored rules, ascending by id.
    fn candidates(&self, value: &str) -> BTreeSet<RuleId> {
        let mut out: BTreeSet<RuleId> = self.unanchored.iter().copied().collect();
        for tok in full_tokens(value) {
            if let Some(list) = self.postings.get(tok) {
                out.extend(list.iter().copied());
            }
        }
        out
    }

    fn insert(&mut self, id: RuleId, pattern: &str) {
        match anchor_token(pattern) {
            Some(anchor) => sorted_insert(self.postings.entry(anchor.to_owned()).or_default(), id),
            None => sorted_insert(&mut self.unanchored, id),
        }
        self.patterns.insert(id, pattern.to_owned());
    }

    fn remove(&mut self, id: RuleId) {
        let Some(pattern) = self.patterns.remove(&id) else {
            return;
        };
        match anchor_token(&pattern) {
            Some(anchor) => {
                if let Some(list) = self.postings.get_mut(anchor) {
                    sorted_remove(list, &id);
                    if list.is_empty() {
                        self.postings.remove(anchor);
                    }
                }
            }
            None => sorted_remove(&mut self.unanchored, &id),
        }
    }

    /// Verifies each candidate with a real containment check.
    fn matches(&self, value: &str) -> (Vec<RuleId>, u64) {
        let cands = self.candidates(value);
        let evals = cands.len() as u64;
        let hits = cands
            .into_iter()
            .filter(|c| value.contains(self.patterns[c].as_str()))
            .collect();
        (hits, evals)
    }
}

/// Sorted threshold chain for one chained numeric operator (`=`, `<`,
/// `<=`, `>`, `>=`) of one `(class, property)` partition. The first
/// threshold a value fails rules out every stronger one, so matching walks
/// the chain from its weak end only while thresholds keep matching; `=`
/// matches one contiguous run of it. Rules whose constant does not parse
/// as a (non-NaN) number can never match (`TriggerOp::matches` is false on
/// parse failure) and are left out of the chain entirely.
#[derive(Debug, Clone, Default)]
struct Chain {
    /// `(threshold, rule)` ascending by `(f64::total_cmp, RuleId)`.
    entries: Vec<(f64, RuleId)>,
}

impl Chain {
    fn position(&self, t: f64, id: RuleId) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(et, eid)| et.total_cmp(&t).then(eid.cmp(&id)))
    }

    fn insert(&mut self, t: f64, id: RuleId) {
        if let Err(pos) = self.position(t, id) {
            self.entries.insert(pos, (t, id));
        }
    }

    fn remove(&mut self, t: f64, id: RuleId) {
        if let Ok(pos) = self.position(t, id) {
            self.entries.remove(pos);
        }
    }

    /// Walk the chain from its weak end, stopping at the first threshold
    /// the document value no longer satisfies. Sound because `total_cmp`
    /// order is numerically non-decreasing (no NaN in the chain, and the
    /// strict/non-strict comparisons treat `-0.0 == 0.0`).
    fn matches(&self, op: TriggerOp, d: f64) -> (Vec<RuleId>, u64) {
        let mut hits = Vec::new();
        let mut evals = 0u64;
        match op {
            TriggerOp::Gt | TriggerOp::Ge => {
                for &(t, id) in &self.entries {
                    evals += 1;
                    let ok = if op == TriggerOp::Gt { d > t } else { d >= t };
                    if !ok {
                        break;
                    }
                    hits.push(id);
                }
            }
            TriggerOp::Lt | TriggerOp::Le => {
                for &(t, id) in self.entries.iter().rev() {
                    evals += 1;
                    let ok = if op == TriggerOp::Lt { d < t } else { d <= t };
                    if !ok {
                        break;
                    }
                    hits.push(id);
                }
            }
            TriggerOp::EqNum => {
                // numeric comparisons, not `total_cmp`: the run of
                // thresholds equal to `d` spans `-0.0` and `0.0`
                let lo = self.entries.partition_point(|&(t, _)| t < d);
                let hi = self.entries.partition_point(|&(t, _)| t <= d);
                hits.extend(self.entries[lo..hi].iter().map(|&(_, id)| id));
                evals = hits.len() as u64;
            }
            _ => unreachable!("chains only hold numeric = and the ordered operators"),
        }
        hits.sort_unstable();
        (hits, evals)
    }
}

fn parse_num(value: &str) -> Option<f64> {
    value.trim().parse::<f64>().ok().filter(|v| !v.is_nan())
}

/// Incremental trigger-matching index: inverted token postings for
/// `contains`, sorted threshold chains for numeric `=` and the ordered
/// numeric operators.
#[derive(Debug, Clone, Default)]
pub struct TriggerIndex {
    con: HashMap<(String, String), ConPartition>,
    chains: HashMap<(String, String, TriggerOp), Chain>,
}

impl TriggerIndex {
    /// Registers an atomic trigger rule's predicate. Called for every
    /// created trigger rule; predicates the index has no structure for
    /// (string equality, the inequalities) are ignored.
    pub fn insert(&mut self, id: RuleId, class: &str, pred: &TriggerPred) {
        match pred.op {
            TriggerOp::Contains => self
                .con
                .entry((class.to_owned(), pred.property.clone()))
                .or_default()
                .insert(id, &pred.value),
            TriggerOp::EqNum | TriggerOp::Lt | TriggerOp::Le | TriggerOp::Gt | TriggerOp::Ge => {
                if let Some(t) = parse_num(&pred.value) {
                    self.chains
                        .entry((class.to_owned(), pred.property.clone(), pred.op))
                        .or_default()
                        .insert(t, id);
                }
            }
            _ => {}
        }
    }

    /// Unregisters a trigger rule's predicate; no-op when absent.
    pub fn remove(&mut self, id: RuleId, class: &str, pred: &TriggerPred) {
        match pred.op {
            TriggerOp::Contains => {
                let key = (class.to_owned(), pred.property.clone());
                if let Some(part) = self.con.get_mut(&key) {
                    part.remove(id);
                    if part.patterns.is_empty() {
                        self.con.remove(&key);
                    }
                }
            }
            TriggerOp::EqNum | TriggerOp::Lt | TriggerOp::Le | TriggerOp::Gt | TriggerOp::Ge => {
                if let Some(t) = parse_num(&pred.value) {
                    let key = (class.to_owned(), pred.property.clone(), pred.op);
                    if let Some(chain) = self.chains.get_mut(&key) {
                        chain.remove(t, id);
                        if chain.entries.is_empty() {
                            self.chains.remove(&key);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// All `contains` rules of `(class, property)` matching `value`,
    /// ascending by id, plus the number of containment checks performed
    /// (one per postings candidate).
    pub fn match_contains(&self, class: &str, property: &str, value: &str) -> (Vec<RuleId>, u64) {
        match self.con.get(&(class.to_owned(), property.to_owned())) {
            Some(part) => part.matches(value),
            None => (Vec::new(), 0),
        }
    }

    /// All rules of `(class, property, op)` matching `value`, for numeric
    /// `=` and the ordered operators, ascending by id, plus the number of
    /// thresholds visited (for `=`, the length of the equal run). A
    /// non-numeric document value matches nothing.
    pub fn match_ordered(
        &self,
        op: TriggerOp,
        class: &str,
        property: &str,
        value: &str,
    ) -> (Vec<RuleId>, u64) {
        let Some(d) = parse_num(value) else {
            return (Vec::new(), 0);
        };
        let Some(chain) = self
            .chains
            .get(&(class.to_owned(), property.to_owned(), op))
        else {
            return (Vec::new(), 0);
        };
        chain.matches(op, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(op: TriggerOp, value: &str) -> TriggerPred {
        TriggerPred {
            property: "serverHost".into(),
            op,
            value: value.into(),
        }
    }

    fn con_index(patterns: &[&str]) -> TriggerIndex {
        let mut idx = TriggerIndex::default();
        for (i, p) in patterns.iter().enumerate() {
            idx.insert(RuleId(i as u64), "C", &pred(TriggerOp::Contains, p));
        }
        idx
    }

    fn scan(patterns: &[&str], value: &str) -> Vec<RuleId> {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| value.contains(**p))
            .map(|(i, _)| RuleId(i as u64))
            .collect()
    }

    #[test]
    fn anchors_are_longest_interior_tokens() {
        assert_eq!(anchor_token(".region7.grid"), Some("region7"));
        assert_eq!(anchor_token("a.uni-passau.de"), Some("passau"));
        // boundary runs may fuse with neighbours in a containing string
        assert_eq!(anchor_token("abc"), None);
        assert_eq!(anchor_token("abc.de"), None);
        assert_eq!(anchor_token(""), None);
        // tie on length → leftmost
        assert_eq!(anchor_token(".ab.cd."), Some("ab"));
    }

    #[test]
    fn postings_match_equals_scan_through_unsubscribe() {
        let patterns = [
            ".uni-passau.de",
            "host1.uni-passau.de",
            "host",
            ".de",
            "xyz",
            "1.uni",
        ];
        let values = [
            "host1.uni-passau.de",
            "host2.uni-passau.de",
            "a.b.c",
            "",
            "xyzhost",
        ];
        let mut idx = con_index(&patterns);
        for value in values {
            let (hits, _) = idx.match_contains("C", "serverHost", value);
            assert_eq!(hits, scan(&patterns, value), "value={value:?}");
        }
        // an anchored and an unanchored rule leave; the rest still match
        idx.remove(RuleId(0), "C", &pred(TriggerOp::Contains, patterns[0]));
        idx.remove(RuleId(2), "C", &pred(TriggerOp::Contains, patterns[2]));
        for value in values {
            let (hits, _) = idx.match_contains("C", "serverHost", value);
            let expected: Vec<RuleId> = scan(&patterns, value)
                .into_iter()
                .filter(|r| ![RuleId(0), RuleId(2)].contains(r))
                .collect();
            assert_eq!(hits, expected, "value={value:?} after removal");
        }
    }

    #[test]
    fn postings_skip_rules_anchored_on_absent_tokens() {
        let idx = con_index(&[".r1.grid", "n1.r1.grid", ".r2.grid", "grid"]);
        let (hits, evals) = idx.match_contains("C", "serverHost", "n1.r1.grid.org");
        assert_eq!(hits, vec![RuleId(0), RuleId(1), RuleId(3)]);
        // two rules anchored on "r1" plus the unanchored one; ".r2.grid"
        // is never checked
        assert_eq!(evals, 3);
    }

    #[test]
    fn ordered_chains_match_scan_semantics() {
        let mut idx = TriggerIndex::default();
        let values = ["10", " 25 ", "3.5", "abc", "NaN", "25"];
        for (i, v) in values.iter().enumerate() {
            idx.insert(RuleId(i as u64), "C", &pred(TriggerOp::Gt, v));
        }
        let scan_gt = |d: &str| -> Vec<RuleId> {
            values
                .iter()
                .enumerate()
                .filter(|(_, v)| TriggerOp::Gt.matches(d, v))
                .map(|(i, _)| RuleId(i as u64))
                .collect()
        };
        for d in ["20", "3.5", "1000", "-1", "abc", "NaN"] {
            let (hits, _) = idx.match_ordered(TriggerOp::Gt, "C", "serverHost", d);
            assert_eq!(hits, scan_gt(d), "doc value {d:?}");
        }
        // removal of a mid-chain threshold
        idx.remove(RuleId(0), "C", &pred(TriggerOp::Gt, "10"));
        let (hits, _) = idx.match_ordered(TriggerOp::Gt, "C", "serverHost", "20");
        assert_eq!(hits, vec![RuleId(2)]);
    }

    #[test]
    fn numeric_equality_is_the_equal_run_of_the_chain() {
        let mut idx = TriggerIndex::default();
        let values = [
            "0", "-0.0", "7", "7.0", "1e3", "1000", " 42 ", "inf", "NaN", "abc", "",
        ];
        for (i, v) in values.iter().enumerate() {
            idx.insert(RuleId(i as u64), "C", &pred(TriggerOp::EqNum, v));
        }
        for d in values.iter().copied().chain(["-7", "8", "-inf"]) {
            let expected: Vec<RuleId> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| TriggerOp::EqNum.matches(d, v))
                .map(|(i, _)| RuleId(i as u64))
                .collect();
            let (hits, evals) = idx.match_ordered(TriggerOp::EqNum, "C", "serverHost", d);
            assert_eq!(hits, expected, "doc value {d:?}");
            assert_eq!(
                evals,
                expected.len() as u64,
                "only the equal run is visited"
            );
        }
        idx.remove(RuleId(2), "C", &pred(TriggerOp::EqNum, "7"));
        let (hits, _) = idx.match_ordered(TriggerOp::EqNum, "C", "serverHost", "7");
        assert_eq!(hits, vec![RuleId(3)]);
    }

    #[test]
    fn chain_walk_stops_early() {
        let mut idx = TriggerIndex::default();
        for i in 0..100u64 {
            idx.insert(RuleId(i), "C", &pred(TriggerOp::Gt, &i.to_string()));
        }
        let (hits, evals) = idx.match_ordered(TriggerOp::Gt, "C", "serverHost", "5");
        assert_eq!(hits, (0..5).map(RuleId).collect::<Vec<_>>());
        assert_eq!(evals, 6, "walk visits matches plus one stopping probe");
        let (hits, evals) = idx.match_ordered(TriggerOp::Lt, "C", "serverHost", "5");
        assert!(hits.is_empty());
        assert_eq!(evals, 0, "no Lt chain exists");
    }

    #[test]
    fn duplicate_values_across_ops_stay_separate() {
        let mut idx = TriggerIndex::default();
        idx.insert(RuleId(0), "C", &pred(TriggerOp::Ge, "7"));
        idx.insert(RuleId(1), "C", &pred(TriggerOp::Gt, "7"));
        let (ge, _) = idx.match_ordered(TriggerOp::Ge, "C", "serverHost", "7");
        let (gt, _) = idx.match_ordered(TriggerOp::Gt, "C", "serverHost", "7");
        assert_eq!(ge, vec![RuleId(0)]);
        assert!(gt.is_empty());
    }
}
