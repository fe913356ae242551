//! The MDP's subscriber table: which LMR rule each filter subscription
//! ships to and for which home MDP, which subscription serves an LMR rule,
//! and which LMR rules were retracted (DESIGN.md §3b).
//!
//! `publish` asks the first question once per publication; the
//! subscription protocol asks the other two on every Subscribe,
//! Resubscribe and Unsubscribe, and the orchestrator on every mirrored
//! rule. Each is one hash look-up. LMR and MDP names are interned once per
//! table, so an entry is a few integers: a subscription adds no heap
//! allocation of its own. A rule the LMR registered here itself has no
//! home entry (this node is its home); a rule the orchestrator mirrored
//! here names the LMR's home (DESIGN.md §11).

use std::collections::{HashMap, HashSet};

use mdv_filter::SubscriptionId;

/// An interned LMR name and a rule id local to that LMR.
type Key = (u32, u64);

/// An LMR, its rule, and the home MDP of a mirrored rule.
pub(crate) type Subscriber = (String, u64, Option<String>);

#[derive(Debug, Default)]
pub(crate) struct Subscribers {
    /// Interned LMR names, indexed by the `u32` of a [`Key`].
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    /// subscription → (LMR, LMR-local rule id); serves `publish`.
    by_sub: HashMap<SubscriptionId, Key>,
    /// The interned home MDP of each mirrored subscription.
    homes: HashMap<SubscriptionId, u32>,
    /// (LMR, LMR-local rule id) → subscription; serves the protocol.
    by_rule: HashMap<Key, SubscriptionId>,
    /// Retracted rules: duplicate Subscribe/Unsubscribe retransmissions
    /// for them are re-acked without touching the filter engine.
    retired: HashSet<Key>,
}

impl Subscribers {
    fn key(&self, lmr: &str, rule: u64) -> Option<Key> {
        self.name_ids.get(lmr).map(|&id| (id, rule))
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 names");
        self.names.push(name.to_owned());
        self.name_ids.insert(name.to_owned(), id);
        id
    }

    fn resolve(&self, (id, rule): Key) -> (&str, u64) {
        (&self.names[id as usize], rule)
    }

    /// The LMR and LMR-local rule subscription `sub` ships to.
    pub(crate) fn get(&self, sub: SubscriptionId) -> Option<(&str, u64)> {
        self.by_sub.get(&sub).map(|&key| self.resolve(key))
    }

    /// The home MDP of a mirrored subscription; `None` when this node is
    /// the home.
    pub(crate) fn home(&self, sub: SubscriptionId) -> Option<&str> {
        self.homes
            .get(&sub)
            .map(|&id| self.names[id as usize].as_str())
    }

    /// The subscription registered for `lmr`'s rule `rule`.
    pub(crate) fn find(&self, lmr: &str, rule: u64) -> Option<SubscriptionId> {
        self.by_rule.get(&self.key(lmr, rule)?).copied()
    }

    /// Whether `lmr`'s rule `rule` is registered here or was retracted: a
    /// Subscribe for it is a duplicate.
    pub(crate) fn knows(&self, lmr: &str, rule: u64) -> bool {
        self.key(lmr, rule)
            .is_some_and(|key| self.by_rule.contains_key(&key) || self.retired.contains(&key))
    }

    /// Records that `sub` serves `lmr`'s rule `rule`, in both directions,
    /// mirrored for `home` or (`None`) with this node as its home.
    pub(crate) fn insert(&mut self, sub: SubscriptionId, lmr: &str, rule: u64, home: Option<&str>) {
        let key = (self.intern(lmr), rule);
        if let Some(home) = home {
            let home = self.intern(home);
            self.homes.insert(sub, home);
        }
        let stale_rule = self.by_sub.insert(sub, key);
        let stale_sub = self.by_rule.insert(key, sub);
        debug_assert!(
            stale_rule.is_none() && stale_sub.is_none(),
            "subscription {sub} or rule ({lmr}, {rule}) registered twice"
        );
    }

    /// Forgets `sub` in both directions.
    pub(crate) fn remove(&mut self, sub: SubscriptionId) {
        self.homes.remove(&sub);
        if let Some(key) = self.by_sub.remove(&sub) {
            self.by_rule.remove(&key);
        }
    }

    /// Whether `lmr`'s rule `rule` was retracted here.
    pub(crate) fn is_retired(&self, lmr: &str, rule: u64) -> bool {
        self.key(lmr, rule)
            .is_some_and(|key| self.retired.contains(&key))
    }

    /// Tombstones `lmr`'s rule `rule`; false when it already was.
    pub(crate) fn retire(&mut self, lmr: &str, rule: u64) -> bool {
        let key = (self.intern(lmr), rule);
        self.retired.insert(key)
    }

    /// Lifts the tombstone of `lmr`'s rule `rule`; false when there was none.
    pub(crate) fn unretire(&mut self, lmr: &str, rule: u64) -> bool {
        self.key(lmr, rule)
            .is_some_and(|key| self.retired.remove(&key))
    }

    /// Drops every tombstone (a Raft snapshot install replaces them).
    pub(crate) fn clear_retired(&mut self) {
        self.retired.clear();
    }

    /// Every registered subscription with its home as [`Subscribers::home`]
    /// names it, sorted by id (deterministic export).
    pub(crate) fn sorted(&self) -> Vec<(SubscriptionId, Subscriber)> {
        let mut out: Vec<_> = self
            .by_sub
            .iter()
            .map(|(&sub, &key)| {
                let (lmr, rule) = self.resolve(key);
                let home = self.home(sub).map(str::to_owned);
                (sub, (lmr.to_owned(), rule, home))
            })
            .collect();
        out.sort_by_key(|(sub, _)| *sub);
        out
    }

    /// Every tombstone, sorted by LMR name, then rule.
    pub(crate) fn retired_sorted(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self
            .retired
            .iter()
            .map(|&key| {
                let (lmr, rule) = self.resolve(key);
                (lmr.to_owned(), rule)
            })
            .collect();
        out.sort();
        out
    }
}
