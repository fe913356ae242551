//! The global dependency graph (paper §3.3.2).
//!
//! Dependency trees of newly registered rules are merged into one directed
//! acyclic graph. Atomic rules are deduplicated by canonical text, so
//! equivalent rules and predicates shared between subscriptions are
//! evaluated only once; reference counts track sharing so that
//! unregistering a subscription retracts exactly the atomic rules nothing
//! else uses. Join rules with identical shape are assigned to rule groups
//! (paper §3.3.3).

use std::collections::HashMap;

use crate::atoms::{
    AtomicRule, AtomicRuleKind, GroupId, GroupKey, InputRef, JoinSpec, RuleId, Side,
};
use crate::decompose::{ProtoRule, ProtoRules};

/// Outcome of merging one decomposed rule into the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The end rule producing the subscription's results.
    pub end: RuleId,
    /// Atomic rules newly created by this merge, in dependency order.
    pub created: Vec<RuleId>,
    /// Atomic rules reused from previous registrations.
    pub reused: Vec<RuleId>,
}

/// The global dependency graph of atomic rules.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    rules: HashMap<RuleId, AtomicRule>,
    /// Canonical rule text → rule id (paper: "no duplicates").
    canon: HashMap<String, RuleId>,
    /// input rule → join rules depending on it.
    dependents: HashMap<RuleId, Vec<RuleId>>,
    /// Reference counts: one per parent join rule plus one per subscription
    /// attached to the rule as an end rule.
    refcount: HashMap<RuleId, usize>,
    groups: HashMap<GroupKey, GroupId>,
    group_members: HashMap<GroupId, Vec<RuleId>>,
    group_keys: HashMap<GroupId, GroupKey>,
    /// `(input rule, side)` → the groups holding a member that takes the
    /// rule on that side, ascending by group id, each with the number of
    /// such members. Derived from `rules`, like `group_members`.
    fed_groups: HashMap<(RuleId, Side), Vec<(GroupId, u32)>>,
    /// `(group, left input, right input)` → the member. A group fixes
    /// classes, predicate and register side, so the input pair determines
    /// the member. Flat on purpose: nesting by group and counterpart rule
    /// cost +20 % peak memory at 6k join rules.
    member_by_inputs: HashMap<(GroupId, RuleId, RuleId), RuleId>,
    next_rule: u64,
    next_group: u64,
}

/// Counts one more member of `gid` in a list kept ascending by group id.
fn count_member(fed: &mut Vec<(GroupId, u32)>, gid: GroupId) {
    match fed.binary_search_by_key(&gid, |(g, _)| *g) {
        Ok(pos) => fed[pos].1 += 1,
        Err(pos) => fed.insert(pos, (gid, 1)),
    }
}

impl DepGraph {
    pub fn new() -> Self {
        DepGraph::default()
    }

    pub fn rule(&self, id: RuleId) -> Option<&AtomicRule> {
        self.rules.get(&id)
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Join rules that consume `id`'s results.
    pub fn dependents_of(&self, id: RuleId) -> &[RuleId] {
        self.dependents.get(&id).map_or(&[], |v| v.as_slice())
    }

    pub fn refcount_of(&self, id: RuleId) -> usize {
        self.refcount.get(&id).copied().unwrap_or(0)
    }

    pub fn group_members(&self, group: GroupId) -> &[RuleId] {
        self.group_members.get(&group).map_or(&[], |v| v.as_slice())
    }

    pub fn group_key(&self, group: GroupId) -> Option<&GroupKey> {
        self.group_keys.get(&group)
    }

    /// The groups with at least one member whose `side` input is `input`,
    /// ascending by group id — where a delta on `input` has to be looked up
    /// (paper §3.3.3).
    pub fn fed_groups(&self, input: RuleId, side: Side) -> impl Iterator<Item = GroupId> + '_ {
        self.fed_groups
            .get(&(input, side))
            .into_iter()
            .flatten()
            .map(|&(gid, _)| gid)
    }

    /// The member of `group` joining `left` with `right`, if registered.
    pub fn member(&self, group: GroupId, left: RuleId, right: RuleId) -> Option<RuleId> {
        self.member_by_inputs.get(&(group, left, right)).copied()
    }

    /// Recomputes the join index (`fed_groups`, `member`) from the rules
    /// and reports the first difference — the tests' invariant check.
    #[doc(hidden)]
    pub fn check_join_index(&self) -> Result<(), String> {
        let mut fed: HashMap<(RuleId, Side), Vec<(GroupId, u32)>> = HashMap::new();
        let mut members = HashMap::new();
        for rule in self.rules_sorted() {
            let (AtomicRuleKind::Join(spec), Some(gid)) = (&rule.kind, rule.group) else {
                continue;
            };
            for side in [Side::Left, Side::Right] {
                count_member(fed.entry((spec.input(side).rule, side)).or_default(), gid);
            }
            if let Some(twin) = members.insert((gid, spec.left.rule, spec.right.rule), rule.id) {
                return Err(format!(
                    "rules {twin} and {} share group and inputs",
                    rule.id
                ));
            }
        }
        if fed != self.fed_groups {
            return Err(format!(
                "fed_groups is {:?}, the rules give {fed:?}",
                self.fed_groups
            ));
        }
        if members != self.member_by_inputs {
            return Err(format!(
                "member_by_inputs is {:?}, the rules give {members:?}",
                self.member_by_inputs
            ));
        }
        Ok(())
    }

    /// All rules, sorted by id (deterministic iteration for tests/rendering).
    pub fn rules_sorted(&self) -> Vec<&AtomicRule> {
        let mut v: Vec<&AtomicRule> = self.rules.values().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Number of distinct rule groups.
    pub fn group_count(&self) -> usize {
        self.group_members.len()
    }

    /// Merges a decomposed rule, deduplicating against existing atomic
    /// rules. The end rule's reference count is **not** incremented here;
    /// the caller attaches subscriptions via [`DepGraph::retain`].
    pub fn merge(&mut self, proto: &ProtoRules) -> MergeOutcome {
        let mut created = Vec::new();
        let mut reused = Vec::new();
        // local proto index → global rule id
        let mut resolved: Vec<RuleId> = Vec::with_capacity(proto.rules.len());
        for proto_rule in &proto.rules {
            let kind = match proto_rule {
                ProtoRule::Trigger { class, pred } => AtomicRuleKind::Trigger {
                    class: class.clone(),
                    pred: pred.clone(),
                },
                ProtoRule::Join {
                    left,
                    right,
                    left_class,
                    right_class,
                    register,
                    pred,
                } => {
                    let spec = JoinSpec {
                        left: InputRef {
                            rule: resolved[*left],
                            class: left_class.clone(),
                        },
                        right: InputRef {
                            rule: resolved[*right],
                            class: right_class.clone(),
                        },
                        register: *register,
                        pred: pred.clone(),
                    }
                    .canonicalize();
                    AtomicRuleKind::Join(spec)
                }
            };
            let text = AtomicRule::canonical_text(&kind);
            let id = match self.canon.get(&text) {
                Some(&id) => {
                    if !reused.contains(&id) && !created.contains(&id) {
                        reused.push(id);
                    }
                    id
                }
                None => {
                    let id = self.insert_rule(kind, text);
                    created.push(id);
                    id
                }
            };
            resolved.push(id);
        }
        MergeOutcome {
            end: resolved[proto.end],
            created,
            reused,
        }
    }

    fn insert_rule(&mut self, kind: AtomicRuleKind, text: String) -> RuleId {
        let id = RuleId(self.next_rule);
        self.next_rule += 1;
        let (type_class, group) = match &kind {
            AtomicRuleKind::Trigger { class, .. } => (class.clone(), None),
            AtomicRuleKind::Join(spec) => {
                // a new parent reference for each input
                for input in [&spec.left, &spec.right] {
                    *self.refcount.entry(input.rule).or_insert(0) += 1;
                    self.dependents.entry(input.rule).or_default().push(id);
                }
                let key = spec.group_key();
                let gid = match self.groups.get(&key) {
                    Some(&gid) => gid,
                    None => {
                        let gid = GroupId(self.next_group);
                        self.next_group += 1;
                        self.groups.insert(key.clone(), gid);
                        self.group_keys.insert(gid, key.clone());
                        gid
                    }
                };
                self.group_members.entry(gid).or_default().push(id);
                for side in [Side::Left, Side::Right] {
                    let key = (spec.input(side).rule, side);
                    count_member(self.fed_groups.entry(key).or_default(), gid);
                }
                let twin = self
                    .member_by_inputs
                    .insert((gid, spec.left.rule, spec.right.rule), id);
                assert!(
                    twin.is_none(),
                    "group {gid} and inputs determine the member, yet {twin:?} and {id} share them"
                );
                (spec.register_input().class.clone(), Some(gid))
            }
        };
        self.canon.insert(text, id);
        self.refcount.entry(id).or_insert(0);
        self.rules.insert(
            id,
            AtomicRule {
                id,
                kind,
                type_class,
                group,
            },
        );
        id
    }

    /// Attaches one external reference (a subscription) to a rule.
    pub fn retain(&mut self, id: RuleId) {
        *self.refcount.entry(id).or_insert(0) += 1;
    }

    /// Releases one external reference. Rules whose reference count drops to
    /// zero are removed, cascading releases to their inputs. Returns the
    /// removed rules (most-derived first).
    pub fn release(&mut self, id: RuleId) -> Vec<AtomicRule> {
        let mut removed = Vec::new();
        self.release_inner(id, &mut removed);
        removed
    }

    fn release_inner(&mut self, id: RuleId, removed: &mut Vec<AtomicRule>) {
        let rc = self.refcount.get_mut(&id).expect("releasing unknown rule");
        assert!(*rc > 0, "refcount underflow for rule {id}");
        *rc -= 1;
        if *rc > 0 {
            return;
        }
        // remove the rule entirely
        self.refcount.remove(&id);
        let rule = self.rules.remove(&id).expect("rule exists");
        self.canon.remove(&AtomicRule::canonical_text(&rule.kind));
        self.dependents.remove(&id);
        if let AtomicRuleKind::Join(spec) = &rule.kind {
            if let Some(gid) = rule.group {
                let members = self.group_members.get_mut(&gid).expect("group exists");
                members.retain(|m| *m != id);
                if members.is_empty() {
                    self.group_members.remove(&gid);
                    let key = self.group_keys.remove(&gid).expect("group key exists");
                    self.groups.remove(&key);
                }
                for side in [Side::Left, Side::Right] {
                    let key = (spec.input(side).rule, side);
                    if let Some(fed) = self.fed_groups.get_mut(&key) {
                        if let Ok(pos) = fed.binary_search_by_key(&gid, |(g, _)| *g) {
                            fed[pos].1 -= 1;
                            if fed[pos].1 == 0 {
                                fed.remove(pos);
                            }
                        }
                        if fed.is_empty() {
                            self.fed_groups.remove(&key);
                        }
                    }
                }
                self.member_by_inputs
                    .remove(&(gid, spec.left.rule, spec.right.rule));
            }
            let inputs = [spec.left.rule, spec.right.rule];
            for input in inputs {
                if let Some(deps) = self.dependents.get_mut(&input) {
                    // remove one occurrence (an identity self-join references
                    // the same input twice and holds two refs)
                    if let Some(pos) = deps.iter().position(|d| *d == id) {
                        deps.remove(pos);
                    }
                }
            }
            removed.push(rule);
            for input in inputs {
                self.release_inner(input, removed);
            }
        } else {
            removed.push(rule);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use mdv_rdf::RdfSchema;
    use mdv_rulelang::{normalize, parse_rule};

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .int("serverPort")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    fn proto(text: &str) -> ProtoRules {
        decompose(&normalize(&parse_rule(text).unwrap(), &schema()).unwrap()).unwrap()
    }

    #[test]
    fn merge_assigns_ids_in_dependency_order() {
        let mut g = DepGraph::new();
        let out = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        ));
        assert_eq!(out.created.len(), 3); // 2 triggers + 1 join
        assert!(out.reused.is_empty());
        assert_eq!(g.len(), 3);
        let end = g.rule(out.end).unwrap();
        assert!(end.is_join());
        assert_eq!(end.type_class, "CycleProvider");
    }

    #[test]
    fn identical_rules_fully_dedupe() {
        let mut g = DepGraph::new();
        let text = "search CycleProvider c register c where c.serverInformation.memory > 64";
        let a = g.merge(&proto(text));
        let b = g.merge(&proto(text));
        assert_eq!(a.end, b.end);
        assert!(b.created.is_empty());
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn alpha_equivalent_rules_dedupe() {
        // variable names need not be equal (paper footnote 3)
        let mut g = DepGraph::new();
        let a = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        ));
        let b = g.merge(&proto(
            "search CycleProvider xyz register xyz where xyz.serverInformation.memory > 64",
        ));
        assert_eq!(a.end, b.end);
        assert!(b.created.is_empty());
    }

    #[test]
    fn paper_333_shared_trigger_and_rule_groups() {
        // §3.3.3: the two rules share RuleA (the CycleProvider trigger) and
        // their join rules fall into one rule group
        let mut g = DepGraph::new();
        let a = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        ));
        let b = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.cpu > 500",
        ));
        // the predicate-less CycleProvider trigger is shared
        assert_eq!(b.reused.len(), 1);
        assert_eq!(b.created.len(), 2);
        // five distinct atomic rules total (RuleA, B1, C1, B2, C2)
        assert_eq!(g.len(), 5);
        // both end rules are join rules in the same group
        let (ea, eb) = (g.rule(a.end).unwrap(), g.rule(b.end).unwrap());
        assert_ne!(a.end, b.end);
        assert_eq!(ea.group, eb.group);
        let gid = ea.group.unwrap();
        assert_eq!(g.group_members(gid).len(), 2);
        assert_eq!(g.group_count(), 1);
    }

    #[test]
    fn dependents_track_join_inputs() {
        let mut g = DepGraph::new();
        let out = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        ));
        let end = g.rule(out.end).unwrap();
        let AtomicRuleKind::Join(spec) = &end.kind else {
            panic!("end is a join")
        };
        assert_eq!(g.dependents_of(spec.left.rule), &[out.end]);
        assert_eq!(g.dependents_of(spec.right.rule), &[out.end]);
        assert!(g.dependents_of(out.end).is_empty());
    }

    #[test]
    fn release_cascades_and_respects_sharing() {
        let mut g = DepGraph::new();
        let a = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        ));
        g.retain(a.end);
        let b = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.cpu > 500",
        ));
        g.retain(b.end);
        assert_eq!(g.len(), 5);

        // releasing b removes its join + cpu trigger but keeps the shared
        // CycleProvider trigger (still referenced by a's join)
        let removed = g.release(b.end);
        assert_eq!(removed.len(), 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.group_count(), 1);

        // releasing a empties the graph
        let removed = g.release(a.end);
        assert_eq!(removed.len(), 3);
        assert!(g.is_empty());
        assert_eq!(g.group_count(), 0);
    }

    #[test]
    fn double_subscription_to_same_rule() {
        let mut g = DepGraph::new();
        let text = "search CycleProvider c register c where c.serverPort > 1024";
        let a = g.merge(&proto(text));
        g.retain(a.end);
        let b = g.merge(&proto(text));
        g.retain(b.end);
        assert_eq!(a.end, b.end);
        assert_eq!(g.refcount_of(a.end), 2);
        assert!(g.release(a.end).is_empty(), "still referenced");
        assert_eq!(g.release(b.end).len(), 1);
        assert!(g.is_empty());
    }

    #[test]
    fn group_key_rendering() {
        let mut g = DepGraph::new();
        let out = g.merge(&proto(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        ));
        let gid = g.rule(out.end).unwrap().group.unwrap();
        let key = g.group_key(gid).unwrap();
        let text = key.to_string();
        assert!(
            text.contains("CycleProvider"),
            "group shape mentions classes: {text}"
        );
    }
}
