//! Updates and deletions (paper §3.5).
//!
//! A change can remove matches as well as add them, also of resources it
//! does not touch (a CycleProvider stops matching when its ServerInformation
//! loses memory). Every materialized tuple carries a *support count*, the
//! number of its immediate derivations (counting-based maintenance of a
//! non-recursive Datalog materialisation), and an update runs the filter
//! twice over the *touched* resources — the changed ones plus the strong
//! referrers of updated ones: over their old atoms with sign −1 on the old
//! state, then, after the base tables change, over their new atoms with
//! sign +1 on the new state. A tuple propagates only when its count leaves
//! or reaches zero, so an unchanged match has no delta at all.
//!
//! A touched resource loses every derivation in the −1 run and regains
//! every one in the +1 run: the two deltas say whether it matched before
//! and matches after. An untouched one changes only through join
//! counterparts; one support query on the new state settles it when its
//! net delta is not zero. Removals and additions are classified per
//! subscription over the union of its end rules (an `or` rule has one per
//! disjunct). An updated resource is published as an update to every
//! subscription one of its strong referrers (itself included) matches
//! after the change, as the +1 run reports.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use mdv_rdf::{diff, diff_delete_all, Document, DocumentDiff, Resource};
use mdv_relstore::StorageEngine;
use mdv_runtime::MixHashMap;

use crate::atoms::RuleId;
use crate::engine::{rules_of, FilterEngine, Names, Res, Tuple};
use crate::error::{Error, Result};
use crate::registry::{assemble_publications, Publication, SubscriptionId};
use crate::store::{Atom, BaseStore};

impl<S: StorageEngine> FilterEngine<S> {
    /// Re-registers a modified version of a document (paper §2.2: "updating
    /// metadata essentially means re-registering a modified version").
    pub fn update_document(&mut self, new_doc: &Document) -> Result<Vec<Publication>> {
        self.store.begin();
        let out = self.update_document_inner(new_doc);
        self.store.commit()?;
        out
    }

    fn update_document_inner(&mut self, new_doc: &Document) -> Result<Vec<Publication>> {
        let old = self.documents.get(new_doc.uri()).cloned().ok_or_else(|| {
            Error::Document(format!(
                "document '{}' is not registered; use register_document",
                new_doc.uri()
            ))
        })?;
        new_doc.check_internal_references()?;
        self.schema().validate(new_doc).map_err(Error::Rdf)?;
        let d = diff(&old, new_doc);
        // resources added by the update must not belong to other documents
        for res in &d.added {
            if BaseStore::resource_exists(self.db(), res.uri().as_str())? {
                return Err(Error::Document(format!(
                    "resource '{}' is already registered elsewhere",
                    res.uri()
                )));
            }
        }
        self.apply_diff(new_doc.uri(), &d, Some(new_doc))
    }

    /// Deletes a whole document; all contained resources are deleted
    /// (paper §3.5).
    pub fn delete_document(&mut self, uri: &str) -> Result<Vec<Publication>> {
        self.store.begin();
        let out = self.delete_document_inner(uri);
        self.store.commit()?;
        out
    }

    fn delete_document_inner(&mut self, uri: &str) -> Result<Vec<Publication>> {
        let old = self
            .documents
            .get(uri)
            .cloned()
            .ok_or_else(|| Error::Document(format!("document '{uri}' is not registered")))?;
        let d = diff_delete_all(&old);
        self.apply_diff(uri, &d, None)
    }

    /// Replaces the registered version of document `doc_uri` (`None`
    /// deletes it) and filters the difference `d` between the two.
    fn apply_diff(
        &mut self,
        doc_uri: &str,
        d: &DocumentDiff,
        new_doc: Option<&Document>,
    ) -> Result<Vec<Publication>> {
        if d.is_empty() {
            // no resource changed; just refresh (or drop) the stored document
            self.set_document(doc_uri, new_doc);
            return Ok(Vec::new());
        }

        // the touched resources: the changed ones, and the unchanged ones
        // that strongly reference an updated or added one — walked on the
        // old state from both, every strong referrer of an updated resource
        // on the new state
        let old: Vec<&Resource> = d
            .deleted
            .iter()
            .chain(d.updated.iter().map(|u| &u.0))
            .collect();
        let new: Vec<&Resource> = d
            .added
            .iter()
            .chain(d.updated.iter().map(|u| &u.1))
            .collect();
        let changed: HashSet<&str> = old.iter().chain(&new).map(|r| r.uri().as_str()).collect();
        let mut referrers: BTreeSet<String> = BTreeSet::new();
        for res in &new {
            let walk = self.strong_referrers(res.uri().as_str())?;
            referrers.extend(walk.into_iter().filter(|r| !changed.contains(r.as_str())));
        }
        let mut old_atoms = Vec::new();
        for uri in &referrers {
            if let Some(res) = self.resource(uri)? {
                old_atoms.extend(Atom::from_resource(&res));
            }
        }
        let mut new_atoms = old_atoms.clone();
        old_atoms.extend(old.iter().flat_map(|res| Atom::from_resource(res)));
        new_atoms.extend(new.iter().flat_map(|res| Atom::from_resource(res)));
        // both runs number resources in one table, the touched ones first:
        // a resource is touched when its number is below `touched`
        let mut names = Names::default();
        for uri in old.iter().chain(&new).map(|r| r.uri().as_str()) {
            names.number(uri);
        }
        for uri in &referrers {
            names.number(uri.as_str());
        }
        let touched = names.len();

        // ---- 1. retract the touched atoms from the old state ----
        let (_, lost) = self.run_filter(&old_atoms, -1, &mut names)?;

        // ---- 2. apply the changes to the base tables ----
        for res in &d.deleted {
            BaseStore::remove_resource(&mut self.store, res.uri().as_str())?;
        }
        for (old_res, new_res) in &d.updated {
            BaseStore::remove_resource(&mut self.store, old_res.uri().as_str())?;
            let doc_uri = new_res.uri().document_uri().to_owned();
            BaseStore::insert_resource(&mut self.store, new_res, &doc_uri)?;
        }
        for res in &d.added {
            let doc_uri = res.uri().document_uri().to_owned();
            BaseStore::insert_resource(&mut self.store, res, &doc_uri)?;
        }
        self.set_document(doc_uri, new_doc);

        // ---- 3. re-add the touched atoms on the new state ----
        let (_, gained) = self.run_filter(&new_atoms, 1, &mut names)?;

        // ---- whether each end-rule tuple held before and holds after ----
        let mut deltas: MixHashMap<Tuple, (i64, i64)> = MixHashMap::default();
        for (tuple, n) in lost {
            deltas.entry(tuple).or_default().0 += n;
        }
        for (&tuple, &n) in &gained {
            deltas.entry(tuple).or_default().1 += n;
        }
        let mut held: MixHashMap<Tuple, (bool, bool)> = MixHashMap::default();
        let mut flipped: Vec<(SubscriptionId, Res)> = Vec::new();
        for ((rule, res), (lost, gained)) in deltas {
            let (before, after) = if res < touched {
                (-lost, gained)
            } else if lost + gained == 0 {
                continue; // same support, same answer
            } else {
                let after = self.support(rule, names.uri(res))?;
                (after - lost - gained, after)
            };
            if (before > 0) != (after > 0) {
                for sub in self.end_subs.get(&rule).into_iter().flatten() {
                    flipped.push((*sub, res));
                }
            }
            held.insert((rule, res), (before > 0, after > 0));
        }
        flipped.sort_unstable();
        flipped.dedup();

        // ---- classify per subscription ----
        fn entry(
            pubs: &mut BTreeMap<SubscriptionId, Publication>,
            sub: SubscriptionId,
        ) -> &mut Publication {
            pubs.entry(sub).or_insert_with(|| Publication::new(sub))
        }
        let mut pubs: BTreeMap<SubscriptionId, Publication> = BTreeMap::new();
        // a subscription matches a resource when any of its end rules does;
        // an end rule no run changed for it answers the same before and after
        for (sub, res) in flipped {
            let ends = self
                .subscription(sub)
                .map(|s| s.end_rules.clone())
                .unwrap_or_default();
            let uri = names.uri(res);
            let (mut before, mut after) = (false, false);
            for end in ends {
                let (b, a) = match held.get(&(end, res)) {
                    Some(&answer) => answer,
                    None if res < touched => (false, false),
                    None => {
                        let holds = self.support(end, uri)? > 0;
                        (holds, holds)
                    }
                };
                before |= b;
                after |= a;
            }
            match (before, after) {
                (true, false) => entry(&mut pubs, sub).removed.push(uri.to_owned()),
                (false, true) => entry(&mut pubs, sub).added.push(uri.to_owned()),
                _ => {}
            }
        }
        // updates: an updated resource must be re-shipped to every
        // subscription whose matched resources reach it over strong
        // references (it sits in their cached closure, §2.4). Every such
        // referrer is touched, so the +1 run counted its end matches.
        let mut ends_of: Vec<(Res, RuleId)> =
            gained.keys().map(|&(rule, res)| (res, rule)).collect();
        ends_of.sort_unstable();
        for (_, new_res) in &d.updated {
            let u = new_res.uri().to_string();
            for r in self.strong_referrers(&u)? {
                let Some(res) = names.find(&r) else {
                    continue;
                };
                for end in rules_of(&ends_of, res) {
                    for sub in self.end_subs.get(&end).into_iter().flatten() {
                        entry(&mut pubs, *sub).updated.push(u.clone());
                    }
                }
            }
        }

        Ok(assemble_publications(pubs))
    }

    fn set_document(&mut self, uri: &str, doc: Option<&Document>) {
        match doc {
            Some(doc) => self.documents.insert(uri.to_owned(), doc.clone()),
            None => self.documents.remove(uri),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_rdf::{RdfSchema, Resource, Term, UriRef};

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

    fn doc(memory: i64) -> Document {
        Document::new("doc.rdf")
            .with_resource(
                Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                    .with("serverHost", Term::literal("pirates.uni-passau.de"))
                    .with("serverPort", Term::literal("5874"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new("doc.rdf", "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal("600")),
            )
    }

    const PATH_RULE: &str =
        "search CycleProvider c register c where c.serverInformation.memory > 64";

    #[test]
    fn referenced_update_gains_match() {
        // §3.5: "if the ServerInformation resource's memory property is
        // updated from 32 to 128, CycleProvider resources can now match"
        let mut e = FilterEngine::new(schema());
        let (sub, _) = e.register_subscription(PATH_RULE).unwrap();
        assert!(e.register_document(&doc(32)).unwrap().is_empty());
        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        assert!(pubs[0].removed.is_empty());
    }

    #[test]
    fn referenced_update_loses_match() {
        // memory set from 92 to 32: the CycleProvider no longer matches
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        let pubs = e.update_document(&doc(32)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].removed, vec!["doc.rdf#host".to_owned()]);
        assert!(pubs[0].added.is_empty());
    }

    #[test]
    fn still_matching_update_ships_new_version() {
        // memory 92 → 128: still matching; the updated ServerInformation is
        // in the subscription's strong closure and must be re-shipped
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert!(pubs[0].added.is_empty());
        assert!(pubs[0].removed.is_empty());
        assert_eq!(pubs[0].updated, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn alternative_derivation_survives_update() {
        // a CycleProvider referencing two ServerInformations stays matched
        // when one of them drops below the threshold
        let schema = RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref_set("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap();
        let make = |m1: i64, m2: i64| {
            Document::new("d.rdf")
                .with_resource(
                    Resource::new(UriRef::new("d.rdf", "host"), "CycleProvider")
                        .with("serverHost", Term::literal("h"))
                        .with(
                            "serverInformation",
                            Term::resource(UriRef::new("d.rdf", "i1")),
                        )
                        .with(
                            "serverInformation",
                            Term::resource(UriRef::new("d.rdf", "i2")),
                        ),
                )
                .with_resource(
                    Resource::new(UriRef::new("d.rdf", "i1"), "ServerInformation")
                        .with("memory", Term::literal(m1.to_string()))
                        .with("cpu", Term::literal("1")),
                )
                .with_resource(
                    Resource::new(UriRef::new("d.rdf", "i2"), "ServerInformation")
                        .with("memory", Term::literal(m2.to_string()))
                        .with("cpu", Term::literal("1")),
                )
        };
        let mut e = FilterEngine::new(schema);
        e.register_subscription(
            "search CycleProvider c register c where c.serverInformation?.memory > 64",
        )
        .unwrap();
        let pubs = e.register_document(&make(92, 128)).unwrap();
        assert_eq!(pubs[0].added, vec!["d.rdf#host".to_owned()]);
        // i1 drops to 32 but i2 still qualifies: no removal; i1 is updated
        // and still strongly referenced, so it ships as an update
        let pubs = e.update_document(&make(32, 128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert!(
            pubs[0].removed.is_empty(),
            "host still matches via i2: {pubs:?}"
        );
        assert_eq!(pubs[0].updated, vec!["d.rdf#i1".to_owned()]);
        // now both drop: removal of host
        let pubs = e.update_document(&make(32, 16)).unwrap();
        assert_eq!(pubs[0].removed, vec!["d.rdf#host".to_owned()]);
    }

    #[test]
    fn an_unaffected_match_is_not_announced_again() {
        // memory 92 → 32 removes `host` from the PATH subscription; the OID
        // subscription still matches `host`, which strongly references the
        // updated `info`: an update for it, and no addition
        let mut e = FilterEngine::new(schema());
        let (oid, _) = e
            .register_subscription("search CycleProvider c register c where c = 'doc.rdf#host'")
            .unwrap();
        let (path, _) = e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        let mut expected = Publication::new(oid);
        expected.updated = vec!["doc.rdf#info".to_owned()];
        let mut removal = Publication::new(path);
        removal.removed = vec!["doc.rdf#host".to_owned()];
        assert_eq!(
            e.update_document(&doc(32)).unwrap(),
            vec![expected, removal]
        );
    }

    #[test]
    fn update_keeps_a_resource_another_disjunct_still_matches() {
        // memory 92 → 32 loses the first disjunct, but cpu 600 still
        // satisfies the second: `host` stays matched, only `info` changed
        let mut e = FilterEngine::new(schema());
        let (sub, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverInformation.memory > 64 or c.serverInformation.cpu >= 600",
            )
            .unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        let pubs = e.update_document(&doc(32)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert!(pubs[0].removed.is_empty(), "host still matches: {pubs:?}");
        assert!(
            pubs[0].added.is_empty(),
            "host was matched before: {pubs:?}"
        );
        assert_eq!(pubs[0].updated, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn delete_document_removes_matches() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        let pubs = e.delete_document("doc.rdf").unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].removed, vec!["doc.rdf#host".to_owned()]);
        // base tables are clean; the document can be re-registered
        assert_eq!(e.db().table("Resources").unwrap().len(), 0);
        assert_eq!(e.db().table("Statements").unwrap().len(), 0);
        assert_eq!(e.db().table("RuleResults").unwrap().len(), 0);
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn update_unknown_document_rejected() {
        let mut e = FilterEngine::new(schema());
        assert!(matches!(
            e.update_document(&doc(92)),
            Err(Error::Document(_))
        ));
        assert!(matches!(
            e.delete_document("doc.rdf"),
            Err(Error::Document(_))
        ));
    }

    #[test]
    fn empty_document_can_be_deleted_and_registered_again() {
        let mut e = FilterEngine::new(schema());
        let empty = Document::new("e.rdf");
        assert!(e.register_document(&empty).unwrap().is_empty());
        assert!(e.delete_document("e.rdf").unwrap().is_empty());
        assert_eq!(e.document_count(), 0);
        assert!(e.register_document(&empty).unwrap().is_empty());
    }

    /// A provider in `prov.rdf` referencing the `info` of `doc.rdf`.
    fn remote_provider() -> Document {
        Document::new("prov.rdf").with_resource(
            Resource::new(UriRef::new("prov.rdf", "p"), "CycleProvider")
                .with("serverHost", Term::literal("remote.uni-passau.de"))
                .with("serverPort", Term::literal("1"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("doc.rdf", "info")),
                ),
        )
    }

    #[test]
    fn update_reaches_referrers_matched_by_their_own_atoms() {
        // `prov.rdf#p` matches by OID and by `contains` — trigger rules over
        // its own atoms, which an update of the referenced `doc.rdf#info`
        // does not change; as a strong referrer it is touched all the same
        let mut e = FilterEngine::new(schema());
        let (oid, _) = e
            .register_subscription("search CycleProvider c register c where c = 'prov.rdf#p'")
            .unwrap();
        let (con, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverHost contains 'remote'",
            )
            .unwrap();
        let (other, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverHost contains 'nowhere'",
            )
            .unwrap();
        e.register_document(&doc(92)).unwrap();
        e.register_document(&remote_provider()).unwrap();
        let pubs = e.update_document(&doc(128)).unwrap();
        let updated: Vec<_> = pubs
            .iter()
            .map(|p| (p.subscription, p.updated.clone()))
            .collect();
        assert_eq!(
            updated,
            vec![
                (oid, vec!["doc.rdf#info".to_owned()]),
                (con, vec!["doc.rdf#info".to_owned()]),
            ],
            "not {other}: {pubs:?}"
        );
        assert!(pubs
            .iter()
            .all(|p| p.added.is_empty() && p.removed.is_empty()));
    }

    #[test]
    fn update_of_a_resource_matched_by_a_rule_with_dependents() {
        // `info` matches `memory > 64`, which the PATH rule's join depends
        // on: its support count leaves zero in the −1 run and comes back in
        // the +1 run, which is no change for either subscription
        let mut e = FilterEngine::new(schema());
        let (path, _) = e.register_subscription(PATH_RULE).unwrap();
        let (direct, _) = e
            .register_subscription("search ServerInformation s register s where s.memory > 64")
            .unwrap();
        e.register_document(&doc(92)).unwrap();
        e.register_document(&remote_provider()).unwrap();
        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 2);
        for (publication, sub) in pubs.iter().zip([path, direct]) {
            assert_eq!(publication.subscription, sub);
            assert_eq!(publication.updated, vec!["doc.rdf#info".to_owned()]);
            assert!(publication.added.is_empty() && publication.removed.is_empty());
        }
    }

    #[test]
    fn no_change_update_is_silent() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        assert!(e.update_document(&doc(92)).unwrap().is_empty());
    }

    #[test]
    fn update_adding_resources_publishes_them() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription("search ServerInformation s register s where s.memory > 64")
            .unwrap();
        e.register_document(&doc(92)).unwrap();
        // add a second ServerInformation to the document
        let mut new_doc = doc(92);
        new_doc
            .add_resource(
                Resource::new(UriRef::new("doc.rdf", "info2"), "ServerInformation")
                    .with("memory", Term::literal("256"))
                    .with("cpu", Term::literal("1")),
            )
            .unwrap();
        let pubs = e.update_document(&new_doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["doc.rdf#info2".to_owned()]);
    }

    #[test]
    fn update_removing_resource_publishes_removal() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription("search ServerInformation s register s where s.memory > 64")
            .unwrap();
        e.register_document(&doc(92)).unwrap();
        // drop the info resource (and the reference to it)
        let new_doc = Document::new("doc.rdf").with_resource(
            Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("pirates.uni-passau.de"))
                .with("serverPort", Term::literal("5874")),
        );
        let pubs = e.update_document(&new_doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].removed, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn oid_subscription_sees_update_lifecycle() {
        let mut e = FilterEngine::new(schema());
        let (_sub, _) = e
            .register_subscription("search CycleProvider c register c where c = 'doc.rdf#host'")
            .unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        // host itself updated (port change): still matches OID → update
        let mut new_doc = Document::new("doc.rdf").with_resource(
            Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("pirates.uni-passau.de"))
                .with("serverPort", Term::literal("9999"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("doc.rdf", "info")),
                ),
        );
        new_doc
            .add_resource(
                Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                    .with("memory", Term::literal("92"))
                    .with("cpu", Term::literal("600")),
            )
            .unwrap();
        let pubs = e.update_document(&new_doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].updated, vec!["doc.rdf#host".to_owned()]);
        // deletion removes it
        let pubs = e.delete_document("doc.rdf").unwrap();
        assert_eq!(pubs[0].removed, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn materializations_stay_consistent_after_updates() {
        // after a lose-then-gain cycle the engine's incremental state must
        // equal a from-scratch registration
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        e.update_document(&doc(32)).unwrap();
        e.update_document(&doc(128)).unwrap();

        let mut fresh = FilterEngine::new(schema());
        fresh.register_subscription(PATH_RULE).unwrap();
        fresh.register_document(&doc(128)).unwrap();

        let mut a: Vec<_> = e
            .db()
            .table("RuleResults")
            .unwrap()
            .iter()
            .map(|(_, row)| format!("{row:?}"))
            .collect();
        let mut b: Vec<_> = fresh
            .db()
            .table("RuleResults")
            .unwrap()
            .iter()
            .map(|(_, row)| format!("{row:?}"))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
