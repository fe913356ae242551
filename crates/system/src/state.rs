//! Logical MDP state export/import — backbone node recovery and the Raft
//! snapshot.
//!
//! An MDP's durable state is *logical*: the subscriptions it serves and the
//! documents registered with it. Export writes both in replayable form
//! (rule texts plus RDF/XML documents); import replays them through the
//! normal registration paths on a fresh node, rebuilding every filter table,
//! the dependency graph, and all materializations. Publications are
//! suppressed during import: subscribers already hold their caches. The
//! same export, behind the apply hash chain value, is the data of a Raft
//! InstallSnapshot (DESIGN.md §9.2), so import also decodes what arrives
//! off the wire: malformed input is an error, never a panic.
//!
//! Format (one record a line; `\t`, `\n` and `\\` escaped where marked):
//!
//! ```text
//! #mdv-mdp-state v2
//! pubseq <lmr>\t<next publication sequence>
//! docver <uri>\t<version>\t<deleted 0|1>
//! replseq <peer>\t<next replication sequence>
//! replfloor <peer>\t<next expected replication sequence>
//! placement <escaped placement table wire form>
//! document <escaped uri>\t<escaped RDF/XML>
//! subscription <lmr>\t<lmr_rule>\t<escaped rule text>
//! retired <lmr>\t<lmr_rule>
//! ```
//!
//! The `pubseq` records carry the at-least-once publication counters (one
//! per subscriber LMR): a recovered MDP must continue the per-LMR sequence
//! numbering where it left off, otherwise live LMRs would discard its
//! publications as duplicates. The `docver` records carry the per-URI
//! convergence keys of the reliable backbone (including tombstones of
//! deleted documents), and `replseq`/`replfloor` the per-peer replication
//! stream counters, for the same reason. The `retired` records are the
//! tombstones of retracted rules: without them a late duplicate Subscribe
//! would bring a retracted rule back. Documents come before subscriptions,
//! the order a Raft install has always replayed, so an installed voter's
//! filter tables and statistics match the leader's. Unacked in-flight
//! messages are *not* part of durable state — recovery assumes a quiescent
//! export.
//!
//! An LMR exports the receiving ends of the same streams:
//!
//! ```text
//! #mdv-lmr-state v2
//! pubseq <next publication sequence expected from the home MDP>
//! altseq <mdp>\t<next publication sequence expected from that MDP>
//! rule <id>\t<pending|active|failed:<escaped error>>\t<escaped rule text>
//! local <escaped uri>\t<escaped RDF/XML>
//! match <uri>\t<rule>
//! cache-snapshot
//! <relational snapshot of the cache …>
//! ```
//!
//! The `altseq` records are the floors of a placed LMR's alternate
//! streams, one per non-home shard primary that has published to it
//! (DESIGN.md §11). Without them a restored LMR would expect sequence 0
//! from every such MDP and withhold its acks forever. An export without
//! `altseq` records imports with every alternate floor at 0.
//!
//! Version 1 framed each document as RDF/XML lines closed by a `.` line,
//! which a literal holding such a line cut short, and dropped the MDP's
//! rule tombstones. It is not read: a v1 file fails with the "unsupported
//! header" error.

use mdv_rdf::{parse_document, write_document, Document};
use mdv_relstore::StorageEngine;

use crate::error::{Error, Result};
use crate::mdp::{Mdp, T_PUBSEQ, T_RFLOOR, T_RSEQ};
use crate::message::{escape, unescape};

const HEADER: &str = "#mdv-mdp-state v2";

/// The stream-counter records of an MDP export and the mirror table each
/// restores into.
const COUNTER_RECORDS: [(&str, &str); 3] = [
    ("pubseq", T_PUBSEQ),
    ("replseq", T_RSEQ),
    ("replfloor", T_RFLOOR),
];

/// Parses the `<node>\t<number>` body of a stream-counter or `retired`
/// record.
fn counter_record<'a>(tag: &str, rest: &'a str) -> Result<(&'a str, u64)> {
    let malformed = || Error::Topology(format!("malformed {tag} record"));
    let (node, next_seq) = rest.split_once('\t').ok_or_else(malformed)?;
    Ok((node, next_seq.parse().map_err(|_| malformed())?))
}

/// One escaped `<uri>\t<RDF/XML>` line: an MDP `document`, an LMR `local`.
fn document_line(doc: &Document) -> String {
    format!("{}\t{}", escape(doc.uri()), escape(&write_document(doc)))
}

fn parse_document_line(tag: &str, rest: &str) -> Result<Document> {
    let (uri, xml) = rest
        .split_once('\t')
        .ok_or_else(|| Error::Topology(format!("malformed {tag} record")))?;
    Ok(parse_document(&unescape(uri), &unescape(xml)).map_err(mdv_filter::Error::from)?)
}

impl<S: StorageEngine + Send + Sync> Mdp<S> {
    /// Serializes the node's logical state.
    pub fn export_state(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (lmr, next_seq) in self.counters_sorted(T_PUBSEQ) {
            out.push_str(&format!("pubseq {lmr}\t{next_seq}\n"));
        }
        for (uri, meta) in self.doc_meta_sorted() {
            out.push_str(&format!(
                "docver {uri}\t{}\t{}\n",
                meta.version,
                u8::from(meta.deleted)
            ));
        }
        for (tag, table) in &COUNTER_RECORDS[1..] {
            for (peer, next_seq) in self.counters_sorted(table) {
                out.push_str(&format!("{tag} {peer}\t{next_seq}\n"));
            }
        }
        if let Some(table) = self.placement() {
            out.push_str(&format!("placement {}\n", escape(&table.to_wire())));
        }
        let mut docs: Vec<&Document> = self.engine().documents().collect();
        docs.sort_unstable_by(|a, b| a.uri().cmp(b.uri()));
        for doc in docs {
            out.push_str(&format!("document {}\n", document_line(doc)));
        }
        for (sub, (lmr, lmr_rule)) in self.subscribers_sorted() {
            let text = self
                .engine()
                .subscription(sub)
                .map_or("", |s| s.rule_text.as_str());
            out.push_str(&format!(
                "subscription {lmr}\t{lmr_rule}\t{}\n",
                escape(text)
            ));
        }
        for (lmr, lmr_rule) in self.subscribers.retired_sorted() {
            out.push_str(&format!("retired {lmr}\t{lmr_rule}\n"));
        }
        out
    }

    /// Rebuilds a node's state on `self`, which must hold no document and
    /// no subscription (freshly created with the same schema, or torn down
    /// by a Raft install). Returns `(subscriptions, documents)` restored.
    pub fn import_state(&mut self, text: &str) -> Result<(usize, usize)> {
        if self.engine().document_count() > 0 || self.engine().subscriptions().next().is_some() {
            return Err(Error::Topology(
                "import_state requires a freshly created MDP".into(),
            ));
        }
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(Error::Topology("unsupported MDP state header".into()));
        }
        let mut subs = 0;
        let mut docs = 0;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            if let Some((_, table)) = COUNTER_RECORDS.iter().find(|(t, _)| *t == tag) {
                let (node, next_seq) = counter_record(tag, rest)?;
                self.restore_counter(table, node, next_seq)?;
            } else if tag == "docver" {
                let mut fields = rest.splitn(3, '\t');
                let (Some(uri), Some(version), Some(deleted)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return Err(Error::Topology("malformed docver record".into()));
                };
                let version: u64 = version
                    .parse()
                    .map_err(|_| Error::Topology("malformed docver version".into()))?;
                let deleted = match deleted {
                    "0" => false,
                    "1" => true,
                    _ => return Err(Error::Topology("malformed docver tombstone flag".into())),
                };
                self.restore_doc_meta(uri, version, deleted)?;
            } else if tag == "placement" {
                let table = crate::placement::PlacementTable::from_wire(&unescape(rest))?;
                self.set_placement(Some(table))?;
            } else if tag == "document" {
                self.restore_document(&parse_document_line(tag, rest)?)?;
                docs += 1;
            } else if tag == "subscription" {
                let mut fields = rest.splitn(3, '\t');
                let (Some(lmr), Some(rule), Some(rule_text)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return Err(Error::Topology("malformed subscription record".into()));
                };
                let lmr_rule: u64 = rule
                    .parse()
                    .map_err(|_| Error::Topology("malformed subscription rule id".into()))?;
                self.check_new_rule(lmr, lmr_rule)?;
                self.restore_subscription(lmr, lmr_rule, &unescape(rule_text))?;
                subs += 1;
            } else if tag == "retired" {
                let (lmr, lmr_rule) = counter_record(tag, rest)?;
                self.check_new_rule(lmr, lmr_rule)?;
                self.restore_retired(lmr, lmr_rule)?;
            } else {
                return Err(Error::Topology(format!("unknown state record: {line}")));
            }
        }
        Ok((subs, docs))
    }

    /// An export lists each `(lmr, rule)` once, live or retired.
    fn check_new_rule(&self, lmr: &str, lmr_rule: u64) -> Result<()> {
        if self.subscribers.knows(lmr, lmr_rule) {
            return Err(Error::Topology(format!(
                "rule {lmr_rule} of '{lmr}' listed twice in state"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::transport::{Envelope, NetConfig, Network};
    use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    fn doc(i: usize, memory: i64) -> Document {
        let uri = format!("doc{i}.rdf");
        Document::new(uri.clone())
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal("a.org"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new(&uri, "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal("600")),
            )
    }

    fn populated_mdp(net: &Network) -> Mdp {
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.handle(
            Envelope {
                from: "lmr1".into(),
                to: "mdp1".into(),
                message: Message::Subscribe {
                    lmr_rule: 7,
                    rule_text: "search CycleProvider c register c \
                                where c.serverInformation.memory > 64"
                        .into(),
                },
                deliver_at_ms: 0,
            },
            net,
        )
        .unwrap();
        mdp.register_document(&doc(1, 128), net, false).unwrap();
        mdp.register_document(&doc(2, 16), net, false).unwrap();
        mdp
    }

    #[test]
    fn export_import_roundtrip() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let mdp = populated_mdp(&net);
        let state = mdp.export_state();

        let mut restored = Mdp::new("mdp1-recovered", schema());
        let (subs, docs) = restored.import_state(&state).unwrap();
        assert_eq!((subs, docs), (1, 2));
        assert!(restored.engine().document("doc1.rdf").is_some());
        assert!(restored.engine().document("doc2.rdf").is_some());
        // the exported state of the restored node matches
        assert_eq!(state, restored.export_state());
        // and the rule base is live again: a new registration publishes
        let before = net.traffic_by_kind().get("publish").copied().unwrap_or(0);
        restored
            .register_document(&doc(3, 256), &net, false)
            .unwrap();
        assert_eq!(net.traffic_by_kind()["publish"], before + 1);
    }

    #[test]
    fn import_suppresses_publications() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let state = populated_mdp(&net).export_state();
        let before = net.log().len();
        let mut restored = Mdp::new("mdp2", schema());
        restored.import_state(&state).unwrap();
        assert_eq!(net.log().len(), before, "import sends no messages");
    }

    #[test]
    fn import_requires_fresh_node() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let mdp = populated_mdp(&net);
        let state = mdp.export_state();
        let mut not_fresh = populated_mdp(&net);
        assert!(not_fresh.import_state(&state).is_err());
    }

    #[test]
    fn corrupt_state_rejected() {
        let mut mdp = Mdp::new("m", schema());
        assert!(mdp.import_state("garbage").is_err());
        assert!(
            mdp.import_state("#mdv-mdp-state v2\ndocument d.rdf\n")
                .is_err(),
            "a document record without its XML"
        );
        assert!(mdp.import_state("#mdv-mdp-state v2\nwat\n").is_err());
        let twice = "#mdv-mdp-state v2\nretired l\t1\nretired l\t1\n";
        assert!(mdp.import_state(twice).is_err(), "a rule listed twice");
    }

    #[test]
    fn version_one_is_rejected() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let v1 = populated_mdp(&net).export_state().replacen("v2", "v1", 1);
        let err = Mdp::new("m", schema()).import_state(&v1).unwrap_err();
        assert!(
            err.to_string().contains("unsupported MDP state header"),
            "{err}"
        );
    }

    #[test]
    fn restored_tombstone_keeps_a_late_duplicate_subscribe_retired() {
        let net = Network::new(NetConfig::default());
        let rx = net.register("lmr1").unwrap();
        let subscribe = Message::Subscribe {
            lmr_rule: 3,
            rule_text: "search CycleProvider c register c".into(),
        };
        let from_lmr = |message| Envelope {
            from: "lmr1".into(),
            to: "mdp1".into(),
            message,
            deliver_at_ms: 0,
        };
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.handle(from_lmr(subscribe.clone()), &net).unwrap();
        mdp.handle(from_lmr(Message::Unsubscribe { lmr_rule: 3 }), &net)
            .unwrap();
        let mut restored = Mdp::new("mdp1", schema());
        restored.import_state(&mdp.export_state()).unwrap();
        while rx.try_recv().is_ok() {}

        // the Subscribe the LMR sent before its Unsubscribe, delivered late
        restored.handle(from_lmr(subscribe), &net).unwrap();
        let sent: Vec<Message> = rx.try_iter().map(|env| env.message).collect();
        assert_eq!(
            sent,
            [Message::SubscribeAck {
                lmr_rule: 3,
                error: None
            }]
        );
        assert!(restored.subscribers_sorted().is_empty());
        assert_eq!(restored.engine().subscriptions().count(), 0);
    }

    #[test]
    fn a_literal_line_holding_a_dot_roundtrips() {
        let net = Network::new(NetConfig::default());
        let mut mdp = Mdp::new("mdp1", schema());
        let dotted = Document::new("doc1.rdf").with_resource(
            Resource::new(UriRef::new("doc1.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("a\n.\nb")),
        );
        mdp.register_document(&dotted, &net, false).unwrap();
        let mut restored = Mdp::new("mdp1", schema());
        restored.import_state(&mdp.export_state()).unwrap();
        let back = restored.engine().document("doc1.rdf").unwrap();
        assert_eq!(write_document(back), write_document(&dotted));
    }

    #[test]
    fn rule_text_with_tabs_roundtrips() {
        let text = "search CycleProvider c register c\twhere c.serverHost contains 'x'";
        assert_eq!(unescape(&escape(text)), text);
    }
}

// ---------------------------------------------------------------------------
// LMR state
// ---------------------------------------------------------------------------

const LMR_HEADER: &str = "#mdv-lmr-state v2";

impl crate::lmr::Lmr {
    /// Serializes the LMR's durable state: subscription rules, local
    /// documents, rule-match anchors, and a relational snapshot of the
    /// cache. Strong-reference counts are *not* stored — they are derivable
    /// from the cache and the schema and are rebuilt on import.
    pub fn export_state(&self) -> String {
        let mut out = String::from(LMR_HEADER);
        out.push('\n');
        // the next publication sequence expected from the MDP: a recovered
        // LMR must keep the counter, or it would park all further
        // publications behind a gap that never closes
        out.push_str(&format!("pubseq {}\n", self.next_pub_seq()));
        for (mdp, next_seq) in self.alt.floors() {
            out.push_str(&format!("altseq {mdp}\t{next_seq}\n"));
        }
        for (id, rule) in self.rules() {
            let status = match &rule.status {
                crate::lmr::RuleStatus::Pending => "pending".to_owned(),
                crate::lmr::RuleStatus::Active => "active".to_owned(),
                crate::lmr::RuleStatus::Failed(e) => format!("failed:{}", escape(e)),
            };
            out.push_str(&format!("rule {id}\t{status}\t{}\n", escape(&rule.text)));
        }
        let mut local_uris: Vec<&String> = self.local_docs.keys().collect();
        local_uris.sort();
        for uri in local_uris {
            out.push_str(&format!("local {}\n", document_line(&self.local_docs[uri])));
        }
        for uri in self.cached_uris() {
            for rule in self.tracker.matching_rules(&uri) {
                out.push_str(&format!("match {uri}\t{rule}\n"));
            }
        }
        out.push_str("cache-snapshot\n");
        out.push_str(&mdv_relstore::write_database(&self.cache));
        out
    }

    /// Rebuilds a freshly created LMR from exported state.
    pub fn import_state(&mut self, text: &str) -> Result<()> {
        if !self.cached_uris().is_empty() || self.rules().next().is_some() {
            return Err(Error::Topology("import_state requires a fresh LMR".into()));
        }
        let mut lines = text.lines();
        if lines.next() != Some(LMR_HEADER) {
            return Err(Error::Topology("unsupported LMR state header".into()));
        }
        let mut matches: Vec<(String, u64)> = Vec::new();
        while let Some(line) = lines.next() {
            if line.is_empty() {
                continue;
            }
            if let Some(next_seq) = line.strip_prefix("pubseq ") {
                let next_seq = next_seq
                    .parse()
                    .map_err(|_| Error::Topology("malformed pubseq counter".into()))?;
                self.home.set_floor((), next_seq);
            } else if let Some(rest) = line.strip_prefix("altseq ") {
                let (mdp, next_seq) = counter_record("altseq", rest)?;
                self.alt.set_floor(mdp.to_owned(), next_seq);
            } else if let Some(rest) = line.strip_prefix("rule ") {
                let mut fields = rest.splitn(3, '\t');
                let (Some(id), Some(status), Some(rule_text)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return Err(Error::Topology("malformed rule record".into()));
                };
                let id: u64 = id
                    .parse()
                    .map_err(|_| Error::Topology("bad rule id".into()))?;
                let status = if status == "pending" {
                    crate::lmr::RuleStatus::Pending
                } else if status == "active" {
                    crate::lmr::RuleStatus::Active
                } else if let Some(e) = status.strip_prefix("failed:") {
                    crate::lmr::RuleStatus::Failed(unescape(e))
                } else {
                    return Err(Error::Topology("bad rule status".into()));
                };
                self.rules.insert(
                    id,
                    crate::lmr::LmrRule {
                        text: unescape(rule_text),
                        status,
                    },
                );
                self.next_rule = self.next_rule.max(id + 1);
            } else if let Some(rest) = line.strip_prefix("local ") {
                let doc = parse_document_line("local", rest)?;
                self.local_docs.insert(doc.uri().to_owned(), doc);
            } else if let Some(rest) = line.strip_prefix("match ") {
                let (uri, rule) = rest
                    .split_once('\t')
                    .ok_or_else(|| Error::Topology("malformed match record".into()))?;
                let rule: u64 = rule
                    .parse()
                    .map_err(|_| Error::Topology("bad match rule id".into()))?;
                matches.push((uri.to_owned(), rule));
            } else if line == "cache-snapshot" {
                let snapshot: String = lines.map(|l| format!("{l}\n")).collect();
                self.cache =
                    mdv_relstore::read_database(&snapshot).map_err(mdv_filter::Error::from)?;
                break;
            } else {
                return Err(Error::Topology(format!("unknown LMR state record: {line}")));
            }
        }
        // rebuild the tracker from cache contents + schema + match anchors
        self.rebuild_tracker(&matches)?;
        Ok(())
    }
}

#[cfg(test)]
mod lmr_state_tests {
    use crate::lmr::{Lmr, RuleStatus};
    use crate::message::{Message, PublishMsg, RuleDelta};
    use crate::transport::{Envelope, NetConfig, Network};
    use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    fn populated_lmr() -> Lmr {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        let mut l = Lmr::new("lmr1", "mdp1", schema());
        let id = l
            .subscribe("search CycleProvider c register c", &net)
            .unwrap();
        l.handle(
            Envelope {
                from: "mdp1".into(),
                to: "lmr1".into(),
                message: Message::SubscribeAck {
                    lmr_rule: id,
                    error: None,
                },
                deliver_at_ms: 0,
            },
            &net,
        )
        .unwrap();
        let host = Resource::new(UriRef::new("d.rdf", "host"), "CycleProvider")
            .with("serverHost", Term::literal("a.org"))
            .with(
                "serverInformation",
                Term::resource(UriRef::new("d.rdf", "info")),
            );
        let info = Resource::new(UriRef::new("d.rdf", "info"), "ServerInformation")
            .with("memory", Term::literal("92"))
            .with("cpu", Term::literal("600"));
        l.handle(
            Envelope {
                from: "mdp1".into(),
                to: "lmr1".into(),
                message: Message::Publish(PublishMsg {
                    rules: vec![RuleDelta {
                        lmr_rule: id,
                        matched: vec!["d.rdf#host".into()],
                        companions: vec!["d.rdf#info".into()],
                        ..RuleDelta::default()
                    }],
                    resources: vec![host, info],
                    ..PublishMsg::default()
                }),
                deliver_at_ms: 0,
            },
            &net,
        )
        .unwrap();
        l.register_local_metadata(
            &Document::new("local.rdf").with_resource(
                Resource::new(UriRef::new("local.rdf", "s"), "ServerInformation")
                    .with("memory", Term::literal("1"))
                    .with("cpu", Term::literal("1")),
            ),
        )
        .unwrap();
        l
    }

    #[test]
    fn lmr_state_roundtrips() {
        let l = populated_lmr();
        let state = l.export_state();
        let mut restored = Lmr::new("lmr1", "mdp1", schema());
        restored.import_state(&state).unwrap();
        assert_eq!(l.cached_uris(), restored.cached_uris());
        assert_eq!(restored.rule(0).unwrap().status, RuleStatus::Active);
        // queries work and local metadata is still protected
        assert_eq!(
            restored
                .query("search CycleProvider c register c")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            restored.collect_garbage().unwrap(),
            0,
            "nothing spuriously collected"
        );
        // match anchors survived: removing the match evicts host + companion
        // but not the local resource
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        restored
            .handle(
                Envelope {
                    from: "mdp1".into(),
                    to: "lmr1".into(),
                    message: Message::Publish(PublishMsg {
                        // the restored LMR expects the sequence numbering to
                        // continue where the exported state left off
                        seq: 1,
                        rules: vec![RuleDelta {
                            lmr_rule: 0,
                            removed: vec!["d.rdf#host".into()],
                            ..RuleDelta::default()
                        }],
                        ..PublishMsg::default()
                    }),
                    deliver_at_ms: 0,
                },
                &net,
            )
            .unwrap();
        assert_eq!(restored.cached_uris(), vec!["local.rdf#s".to_owned()]);
        // and the re-export is a fixpoint
        let l2 = populated_lmr();
        assert_eq!(l2.export_state(), {
            let mut r = Lmr::new("x", "mdp1", schema());
            r.import_state(&l2.export_state()).unwrap();
            r.export_state()
        });
    }

    #[test]
    fn a_local_literal_line_holding_a_dot_roundtrips() {
        let mut l = Lmr::new("lmr1", "mdp1", schema());
        let dotted = Document::new("local.rdf").with_resource(
            Resource::new(UriRef::new("local.rdf", "s"), "CycleProvider")
                .with("serverHost", Term::literal("a\n.\nb")),
        );
        l.register_local_metadata(&dotted).unwrap();
        let mut restored = Lmr::new("lmr1", "mdp1", schema());
        restored.import_state(&l.export_state()).unwrap();
        assert_eq!(
            mdv_rdf::write_document(&restored.local_docs["local.rdf"]),
            mdv_rdf::write_document(&dotted)
        );
    }

    #[test]
    fn lmr_import_requires_fresh() {
        let l = populated_lmr();
        let mut not_fresh = populated_lmr();
        assert!(not_fresh.import_state(&l.export_state()).is_err());
    }

    #[test]
    fn lmr_corrupt_state_rejected() {
        let mut l = Lmr::new("l", "m", schema());
        assert!(l.import_state("nope").is_err());
        assert!(l.import_state("#mdv-lmr-state v2\nwat\n").is_err());
        assert!(l.import_state("#mdv-lmr-state v2\nlocal d.rdf\n").is_err());
        let v1 = populated_lmr().export_state().replacen("v2", "v1", 1);
        let err = l.import_state(&v1).unwrap_err();
        assert!(
            err.to_string().contains("unsupported LMR state header"),
            "{err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Whole-system persistence
// ---------------------------------------------------------------------------

impl crate::system::MdvSystem {
    /// Saves the deployment to a directory: the schema (textual schema
    /// language), the topology, and per-node state files.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> Result<()> {
        let io = |e: std::io::Error| Error::Topology(format!("save: {e}"));
        std::fs::create_dir_all(dir).map_err(io)?;
        std::fs::write(dir.join("schema.mdv"), mdv_rdf::write_schema(self.schema())).map_err(io)?;
        let mut topology = String::from("#mdv-system v1\n");
        for name in self.mdp_names() {
            topology.push_str(&format!("mdp {name}\n"));
            std::fs::write(
                dir.join(format!("{name}.mdp")),
                self.mdp(name).expect("listed MDP exists").export_state(),
            )
            .map_err(io)?;
        }
        for name in self.lmr_names() {
            let lmr = self.lmr(name).expect("listed LMR exists");
            topology.push_str(&format!("lmr {name} {}\n", lmr.mdp()));
            std::fs::write(dir.join(format!("{name}.lmr")), lmr.export_state()).map_err(io)?;
        }
        std::fs::write(dir.join("topology.mdv"), topology).map_err(io)
    }

    /// Loads a deployment saved with [`save_to_dir`](Self::save_to_dir). The
    /// network
    /// starts fresh (counters at zero); all node state is restored.
    pub fn load_from_dir(dir: &std::path::Path) -> Result<crate::system::MdvSystem> {
        let io = |e: std::io::Error| Error::Topology(format!("load: {e}"));
        let schema_text = std::fs::read_to_string(dir.join("schema.mdv")).map_err(io)?;
        let schema = mdv_rdf::parse_schema(&schema_text).map_err(mdv_filter::Error::from)?;
        let mut sys = crate::system::MdvSystem::new(schema);
        let topology = std::fs::read_to_string(dir.join("topology.mdv")).map_err(io)?;
        let mut lines = topology.lines();
        if lines.next() != Some("#mdv-system v1") {
            return Err(Error::Topology("unsupported topology header".into()));
        }
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("mdp ") {
                sys.add_mdp(name)?;
                let state = std::fs::read_to_string(dir.join(format!("{name}.mdp"))).map_err(io)?;
                sys.restore_mdp_state(name, &state)?;
            } else if let Some(rest) = line.strip_prefix("lmr ") {
                let (name, mdp) = rest
                    .split_once(' ')
                    .ok_or_else(|| Error::Topology("malformed lmr record".into()))?;
                sys.add_lmr(name, mdp)?;
                let state = std::fs::read_to_string(dir.join(format!("{name}.lmr"))).map_err(io)?;
                sys.restore_lmr_state(name, &state)?;
            } else {
                return Err(Error::Topology(format!("unknown topology record: {line}")));
            }
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod system_state_tests {
    use crate::system::MdvSystem;
    use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    fn doc(i: usize, memory: i64) -> Document {
        let uri = format!("doc{i}.rdf");
        Document::new(uri.clone())
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal("a.org"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new(&uri, "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal("600")),
            )
    }

    #[test]
    fn whole_system_save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mdv-sys-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("mdp-eu").unwrap();
        sys.add_mdp("mdp-us").unwrap();
        sys.add_lmr("lmr1", "mdp-eu").unwrap();
        sys.subscribe(
            "lmr1",
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        sys.register_document("mdp-eu", &doc(1, 128)).unwrap();
        sys.register_document("mdp-us", &doc(2, 256)).unwrap();
        sys.save_to_dir(&dir).unwrap();

        let mut restored = MdvSystem::load_from_dir(&dir).unwrap();
        assert_eq!(restored.mdp_names(), vec!["mdp-eu", "mdp-us"]);
        assert_eq!(restored.lmr_names(), vec!["lmr1"]);
        assert_eq!(
            sys.lmr("lmr1").unwrap().cached_uris(),
            restored.lmr("lmr1").unwrap().cached_uris()
        );
        // both MDPs hold both documents (replication state survived)
        for m in ["mdp-eu", "mdp-us"] {
            assert!(restored
                .mdp(m)
                .unwrap()
                .engine()
                .document("doc1.rdf")
                .is_some());
            assert!(restored
                .mdp(m)
                .unwrap()
                .engine()
                .document("doc2.rdf")
                .is_some());
        }
        // the restored system keeps working end to end: a new registration
        // replicates and reaches the restored LMR's cache
        restored.register_document("mdp-us", &doc(3, 512)).unwrap();
        assert!(restored.lmr("lmr1").unwrap().is_cached("doc3.rdf#host"));
        // and updates/removals drive the restored cache correctly
        restored.update_document("mdp-eu", &doc(1, 8)).unwrap();
        assert!(!restored.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_dir_fails_cleanly() {
        let err = match MdvSystem::load_from_dir(std::path::Path::new("/nonexistent/mdv")) {
            Err(e) => e,
            Ok(_) => panic!("loading a missing directory must fail"),
        };
        assert!(err.to_string().contains("load:"));
    }
}
