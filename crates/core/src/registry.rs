//! Subscription bookkeeping: ids, registered rule texts, and the
//! publications the filter emits towards subscribers.

use std::fmt;

use crate::atoms::RuleId;

/// Identifier of a subscription (one registered rule of one LMR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// A registered subscription. One surface rule may decompose into several
/// conjunctive rules (after `or`-elimination), each with its own end rule;
/// the subscription matches the union of their results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    pub id: SubscriptionId,
    pub rule_text: String,
    pub end_rules: Vec<RuleId>,
}

/// What an MDP publishes to one subscriber after a registration, update, or
/// deletion (paper §2.2/§3.5). Resources are referenced by URI; the caller
/// resolves full resource contents (and the strong-reference closure) when
/// shipping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publication {
    pub subscription: SubscriptionId,
    /// Resources that newly match the subscription.
    pub added: Vec<String>,
    /// Resources that still match but whose content changed.
    pub updated: Vec<String>,
    /// Resources that no longer match (or were deleted).
    pub removed: Vec<String>,
}

impl Publication {
    pub fn new(subscription: SubscriptionId) -> Self {
        Publication {
            subscription,
            added: Vec::new(),
            updated: Vec::new(),
            removed: Vec::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.updated.is_empty() && self.removed.is_empty()
    }
}

/// Groups per-end-rule match lists into per-subscription publications,
/// deduplicating and sorting for deterministic output.
pub fn assemble_publications(
    mut pubs: std::collections::BTreeMap<SubscriptionId, Publication>,
) -> Vec<Publication> {
    let mut out: Vec<Publication> = pubs
        .iter_mut()
        .map(|(_, p)| {
            let mut p = std::mem::replace(p, Publication::new(p.subscription));
            for list in [&mut p.added, &mut p.updated, &mut p.removed] {
                list.sort();
                list.dedup();
            }
            // a resource that is re-added must not simultaneously be removed
            p.removed.retain(|r| {
                p.added.binary_search(r).is_err() && p.updated.binary_search(r).is_err()
            });
            p
        })
        .filter(|p| !p.is_empty())
        .collect();
    out.sort_by_key(|p| p.subscription);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn publication_emptiness() {
        let mut p = Publication::new(SubscriptionId(1));
        assert!(p.is_empty());
        p.added.push("a#1".into());
        assert!(!p.is_empty());
    }

    #[test]
    fn assemble_dedups_and_sorts() {
        let mut map = BTreeMap::new();
        let mut p = Publication::new(SubscriptionId(2));
        p.added = vec!["b".into(), "a".into(), "b".into()];
        p.removed = vec!["a".into(), "z".into()];
        map.insert(SubscriptionId(2), p);
        map.insert(SubscriptionId(1), Publication::new(SubscriptionId(1)));
        let out = assemble_publications(map);
        // the empty publication is dropped
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].added, vec!["a".to_owned(), "b".to_owned()]);
        // "a" was re-added, so it is not removed
        assert_eq!(out[0].removed, vec!["z".to_owned()]);
    }

    #[test]
    fn assemble_drops_the_re_added_from_large_lists_as_a_scan_would() {
        let mut rng = mdv_runtime::Prng::seed_from_u64(20020226);
        for round in 0..5 {
            let mut list = |len: usize| -> Vec<String> {
                (0..len)
                    .map(|_| format!("doc{}.rdf#r", rng.below(3_000)))
                    .collect()
            };
            let mut p = Publication::new(SubscriptionId(round));
            p.added = list(2_000);
            p.updated = list(500);
            p.removed = list(2_000);
            // the formula of a linear scan over the sorted, deduplicated lists
            let sorted = |mut l: Vec<String>| {
                l.sort();
                l.dedup();
                l
            };
            let (added, updated) = (sorted(p.added.clone()), sorted(p.updated.clone()));
            let mut removed = sorted(p.removed.clone());
            removed.retain(|r| !added.contains(r) && !updated.contains(r));

            let out = assemble_publications(BTreeMap::from([(p.subscription, p)]));
            assert_eq!(out[0].added, added);
            assert_eq!(out[0].updated, updated);
            assert_eq!(out[0].removed, removed, "round {round}");
            assert!(!removed.is_empty());
        }
    }
}
