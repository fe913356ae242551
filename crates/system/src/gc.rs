//! LMR-side garbage collection bookkeeping (paper §2.4).
//!
//! "With strong references an LMR can receive resources where there is no
//! corresponding rule for. An LMR must take care of deleting such resources
//! if the resource that caused their transmission is deleted. MDV uses a
//! garbage collector (based on reference counting) to detect such resources
//! and remove them if necessary."
//!
//! A cached resource is *anchored* when it matches at least one subscription
//! rule, is strongly referenced by another cached resource, or is local
//! metadata. Unanchored resources are garbage.

use std::collections::{BTreeSet, HashMap, HashSet};

/// Reference-count and match bookkeeping for an LMR cache.
#[derive(Debug, Clone, Default)]
pub struct RefTracker {
    /// Number of strong references from cached resources to this URI.
    strong_rc: HashMap<String, usize>,
    /// Subscription rules (LMR-local ids) each URI currently matches.
    matches: HashMap<String, BTreeSet<u64>>,
    /// Local metadata is never collected.
    local: HashSet<String>,
}

impl RefTracker {
    pub fn new() -> Self {
        RefTracker::default()
    }

    /// Records a strong reference onto `target`.
    pub fn add_edge(&mut self, target: &str) {
        *self.strong_rc.entry(target.to_owned()).or_insert(0) += 1;
    }

    /// Removes one strong reference from `target`.
    pub fn remove_edge(&mut self, target: &str) {
        if let Some(rc) = self.strong_rc.get_mut(target) {
            *rc = rc.saturating_sub(1);
            if *rc == 0 {
                self.strong_rc.remove(target);
            }
        }
    }

    pub fn strong_count(&self, uri: &str) -> usize {
        self.strong_rc.get(uri).copied().unwrap_or(0)
    }

    /// Records that `uri` matches rule `rule`.
    pub fn add_match(&mut self, uri: &str, rule: u64) {
        self.matches.entry(uri.to_owned()).or_default().insert(rule);
    }

    /// Removes the rule-match anchor; a no-op when absent.
    pub fn remove_match(&mut self, uri: &str, rule: u64) {
        if let Some(set) = self.matches.get_mut(uri) {
            set.remove(&rule);
            if set.is_empty() {
                self.matches.remove(uri);
            }
        }
    }

    /// URIs currently anchored by a match of `rule`, sorted.
    pub fn matched_by(&self, rule: u64) -> Vec<String> {
        let mut uris: Vec<String> = self
            .matches
            .iter()
            .filter(|(_, rules)| rules.contains(&rule))
            .map(|(uri, _)| uri.clone())
            .collect();
        uris.sort_unstable();
        uris
    }

    /// Removes all match anchors of one rule (unsubscribe). Returns the
    /// affected URIs, sorted.
    pub fn remove_rule(&mut self, rule: u64) -> Vec<String> {
        let affected = self.matched_by(rule);
        for uri in &affected {
            self.remove_match(uri, rule);
        }
        affected
    }

    pub fn matching_rules(&self, uri: &str) -> Vec<u64> {
        self.matches
            .get(uri)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    pub fn mark_local(&mut self, uri: &str) {
        self.local.insert(uri.to_owned());
    }

    pub fn unmark_local(&mut self, uri: &str) {
        self.local.remove(uri);
    }

    pub fn is_local(&self, uri: &str) -> bool {
        self.local.contains(uri)
    }

    /// A resource is anchored when a rule matches it, another cached
    /// resource strongly references it, or it is local metadata.
    pub fn is_anchored(&self, uri: &str) -> bool {
        self.local.contains(uri)
            || self.matches.contains_key(uri)
            || self.strong_rc.get(uri).is_some_and(|rc| *rc > 0)
    }

    /// Drops all bookkeeping for a collected resource (its outgoing edges
    /// must be removed by the caller via [`RefTracker::remove_edge`]).
    pub fn forget(&mut self, uri: &str) {
        self.matches.remove(uri);
        self.strong_rc.remove(uri);
        self.local.remove(uri);
    }

    /// All rule ids that still anchor at least one cached resource. Lets
    /// tests assert that no retracted rule keeps matches alive.
    pub fn rules_referenced(&self) -> BTreeSet<u64> {
        self.matches.values().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchoring_by_match_edge_and_local() {
        let mut t = RefTracker::new();
        assert!(!t.is_anchored("a"));
        t.add_match("a", 1);
        assert!(t.is_anchored("a"));
        t.remove_match("a", 1);
        assert!(!t.is_anchored("a"));

        t.add_edge("a");
        t.add_edge("a");
        assert!(t.is_anchored("a"));
        assert_eq!(t.strong_count("a"), 2);
        t.remove_edge("a");
        assert!(t.is_anchored("a"));
        t.remove_edge("a");
        assert!(!t.is_anchored("a"));

        t.mark_local("a");
        assert!(t.is_anchored("a"));
        t.unmark_local("a");
        assert!(!t.is_anchored("a"));
    }

    #[test]
    fn multiple_rules_keep_anchor() {
        let mut t = RefTracker::new();
        t.add_match("a", 1);
        t.add_match("a", 2);
        t.remove_match("a", 1);
        assert!(t.is_anchored("a"), "still matched by rule 2");
        assert_eq!(t.matching_rules("a"), vec![2]);
    }

    #[test]
    fn remove_rule_returns_affected() {
        let mut t = RefTracker::new();
        t.add_match("a", 1);
        t.add_match("b", 1);
        t.add_match("b", 2);
        assert_eq!(t.matched_by(1), vec!["a".to_owned(), "b".to_owned()]);
        let affected = t.remove_rule(1);
        assert_eq!(affected, vec!["a".to_owned(), "b".to_owned()]);
        assert!(!t.is_anchored("a"));
        assert!(t.is_anchored("b"));
        assert_eq!(t.rules_referenced().into_iter().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn edge_underflow_is_safe() {
        let mut t = RefTracker::new();
        t.remove_edge("ghost");
        assert_eq!(t.strong_count("ghost"), 0);
    }

    #[test]
    fn forget_clears_everything() {
        let mut t = RefTracker::new();
        t.add_match("a", 1);
        t.add_edge("a");
        t.mark_local("a");
        t.forget("a");
        assert!(!t.is_anchored("a"));
    }
}
