//! Messages exchanged between MDV nodes.
//!
//! Resources travel as structured values inside publications; whole
//! documents (backbone replication) travel in the RDF/XML wire syntax,
//! exercising the same parser/writer an internet deployment would use.

use std::collections::HashSet;
use std::sync::Arc;

use mdv_rdf::{parse_document, Document, Resource, Term, UriRef};

use crate::mdp::fnv1a64;

/// A message between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// LMR → MDP: register a subscription rule. `lmr_rule` is the LMR-local
    /// rule id the MDP echoes in publications.
    Subscribe { lmr_rule: u64, rule_text: String },
    /// MDP → LMR: subscription outcome (errors are carried back).
    SubscribeAck {
        lmr_rule: u64,
        error: Option<String>,
    },
    /// LMR → MDP: retract a subscription.
    Unsubscribe { lmr_rule: u64 },
    /// MDP → LMR: confirms a retraction (so the LMR can stop retrying).
    UnsubscribeAck { lmr_rule: u64 },
    /// MDP → LMR: one envelope of matched / updated / removed resources,
    /// one delta per subscription of the LMR.
    Publish(PublishMsg),
    /// LMR → MDP: confirms receipt of the envelope with sequence `seq`,
    /// completing the at-least-once delivery handshake.
    PublishAck { seq: u64 },
    /// MDP → MDP backbone replication: one document put. `seq` is the
    /// per-(origin, peer) replication sequence number of the at-least-once
    /// handshake; the put's `version` is the origin's per-URI document
    /// version used for conflict resolution (DESIGN.md §7).
    Replicate { seq: u64, put: Put },
    /// MDP → MDP: confirms receipt of the replicated put with sequence
    /// `seq`, completing the at-least-once handshake.
    ReplicateAck { seq: u64 },
    /// MDP → MDP anti-entropy (DESIGN.md §7.2, §11): a digest of the
    /// sender's whole document set (per-URI version + content hash;
    /// deletions appear as tombstones), stamped with the sender's placement
    /// epoch. Receivers on a different epoch ignore it, and receivers on
    /// the same epoch pull only documents in shards they own — which is
    /// also how shards move when the table changes.
    PlacementDigest {
        epoch: u64,
        entries: Vec<DigestEntry>,
    },
    /// MDP → MDP anti-entropy: pull the listed documents, which the
    /// requester's diff against a [`Message::PlacementDigest`] showed to be
    /// missing or stale locally.
    RepairRequest { uris: Vec<String> },
    /// MDP → MDP anti-entropy: repair payload answering a
    /// [`Message::RepairRequest`].
    RepairDocs { docs: Vec<Put> },
    /// LMR → MDP failover handshake: "you are my home MDP now; the last
    /// publication sequence I applied was `last_seq - 1`".
    FailoverHello { last_seq: u64 },
    /// MDP → LMR: floor synchronization answering a failover hello —
    /// `next_seq` is the next publication sequence this MDP will assign
    /// for the LMR, so the LMR can fast-forward its dedup floor.
    FailoverWelcome { next_seq: u64 },
    /// LMR → MDP: re-register a rule after failover. `last_seq` keys the
    /// catch-up: a subscriber that is already known and fully caught up
    /// skips the snapshot backfill.
    Resubscribe {
        lmr_rule: u64,
        rule_text: String,
        last_seq: u64,
    },
    /// MDP → MDP (Raft mode): a candidate solicits a vote for `term`.
    /// `last_log_index`/`last_log_term` implement the up-to-date check of
    /// the Raft election restriction (§5.4.1 of the Raft paper).
    RequestVote {
        term: u64,
        last_log_index: u64,
        last_log_term: u64,
    },
    /// MDP → MDP (Raft mode): vote reply. `term` is the voter's current
    /// term so a stale candidate can step down.
    RequestVoteReply { term: u64, granted: bool },
    /// MDP → MDP (Raft mode): leader log replication and heartbeat.
    /// `entries` carries `(term, command wire form)` pairs appended after
    /// the consistency-check point `(prev_log_index, prev_log_term)`.
    AppendEntries {
        term: u64,
        prev_log_index: u64,
        prev_log_term: u64,
        leader_commit: u64,
        entries: Vec<(u64, String)>,
    },
    /// MDP → MDP (Raft mode): append reply. `match_index` is the highest
    /// log index known replicated on the follower when `success`, or a
    /// hint for the leader's `next_index` backoff when not.
    AppendEntriesReply {
        term: u64,
        success: bool,
        match_index: u64,
    },
    /// MDP → MDP (Raft mode): leader ships a state-machine snapshot to a
    /// follower whose `next_index` precedes the leader's compacted log
    /// base. `data` is the serialized applied state, shared with the
    /// leader's cached snapshot rather than copied into every send.
    InstallSnapshot {
        term: u64,
        last_index: u64,
        last_term: u64,
        data: Arc<str>,
    },
    /// MDP → MDP (Raft mode): snapshot install reply; `match_index` is the
    /// snapshot anchor the follower now sits at.
    InstallSnapshotReply { term: u64, match_index: u64 },
}

/// One entry of an anti-entropy digest: the origin's view of one URI.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestEntry {
    pub uri: String,
    /// Per-URI document version (monotone across the backbone).
    pub version: u64,
    /// True if the entry is a deletion tombstone.
    pub deleted: bool,
    /// FNV-1a (64-bit) over the canonical RDF/XML serialization; 0 for
    /// tombstones.
    pub hash: u64,
}

/// One document state, the value every document write path carries: a
/// replicated operation, an anti-entropy repair, a Raft log entry and the
/// `doc` / `replout` state records (DESIGN.md §7.1). A register, an update
/// and a delete are all puts; `xml` of `None` is a tombstone.
#[derive(Debug, Clone, PartialEq)]
pub struct Put {
    pub uri: String,
    /// Per-URI document version (monotone across the backbone; a Raft
    /// entry's is its log index, assigned at apply).
    pub version: u64,
    /// Canonical RDF/XML content; `None` for a tombstone.
    pub xml: Option<String>,
}

impl Put {
    /// The content half of the `(version, deleted, hash)` order: FNV-1a
    /// over the XML, 0 for a tombstone.
    pub(crate) fn hash(&self) -> u64 {
        self.xml.as_ref().map_or(0, |x| fnv1a64(x.as_bytes()))
    }

    /// The document the put carries, parsed; `None` for a tombstone.
    pub(crate) fn document(&self) -> Result<Option<Document>, mdv_rdf::Error> {
        let parse = |xml: &String| parse_document(&self.uri, xml);
        self.xml.as_ref().map(parse).transpose()
    }

    fn xml_len(&self) -> usize {
        self.xml.as_ref().map_or(0, String::len)
    }
}

impl Message {
    /// Short tag for logs and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Subscribe { .. } => "subscribe",
            Message::SubscribeAck { .. } => "subscribe-ack",
            Message::Unsubscribe { .. } => "unsubscribe",
            Message::UnsubscribeAck { .. } => "unsubscribe-ack",
            Message::Publish(_) => "publish",
            Message::PublishAck { .. } => "publish-ack",
            Message::Replicate { .. } => "replicate",
            Message::ReplicateAck { .. } => "replicate-ack",
            Message::PlacementDigest { .. } => "placement-digest",
            Message::RepairRequest { .. } => "repair-request",
            Message::RepairDocs { .. } => "repair-docs",
            Message::FailoverHello { .. } => "failover-hello",
            Message::FailoverWelcome { .. } => "failover-welcome",
            Message::Resubscribe { .. } => "resubscribe",
            Message::RequestVote { .. } => "request-vote",
            Message::RequestVoteReply { .. } => "request-vote-reply",
            Message::AppendEntries { .. } => "append-entries",
            Message::AppendEntriesReply { .. } => "append-entries-reply",
            Message::InstallSnapshot { .. } => "install-snapshot",
            Message::InstallSnapshotReply { .. } => "install-snapshot-reply",
        }
    }

    /// Rough payload size in bytes, for the network statistics.
    pub fn approx_size(&self) -> usize {
        fn resource_size(r: &Resource) -> usize {
            r.uri().as_str().len()
                + r.class().len()
                + r.properties()
                    .iter()
                    .map(|(p, t)| p.len() + t.lexical().len())
                    .sum::<usize>()
        }
        match self {
            Message::Subscribe { rule_text, .. } => rule_text.len() + 8,
            Message::SubscribeAck { error, .. } => 8 + error.as_ref().map_or(0, |e| e.len()),
            Message::Unsubscribe { .. } => 8,
            Message::UnsubscribeAck { .. } => 8,
            Message::PublishAck { .. } => 8,
            Message::Publish(p) => {
                8 + p.resources.iter().map(resource_size).sum::<usize>()
                    + p.rules
                        .iter()
                        .map(|d| {
                            9 + d.shipped().map(str::len).sum::<usize>()
                                + d.removed.iter().map(String::len).sum::<usize>()
                        })
                        .sum::<usize>()
            }
            Message::Replicate { put, .. } => put.xml_len() + put.uri.len() + 16,
            Message::ReplicateAck { .. } => 8,
            Message::PlacementDigest { entries, .. } => {
                8 + entries.iter().map(|e| e.uri.len() + 17).sum::<usize>()
            }
            Message::RepairRequest { uris } => uris.iter().map(String::len).sum::<usize>(),
            Message::RepairDocs { docs } => docs
                .iter()
                .map(|d| d.uri.len() + d.xml_len() + 9)
                .sum::<usize>(),
            Message::FailoverHello { .. } => 8,
            Message::FailoverWelcome { .. } => 8,
            Message::Resubscribe { rule_text, .. } => rule_text.len() + 16,
            Message::RequestVote { .. } => 24,
            Message::RequestVoteReply { .. } => 9,
            Message::AppendEntries { entries, .. } => {
                32 + entries.iter().map(|(_, cmd)| cmd.len() + 8).sum::<usize>()
            }
            Message::AppendEntriesReply { .. } => 17,
            Message::InstallSnapshot { data, .. } => data.len() + 24,
            Message::InstallSnapshotReply { .. } => 16,
        }
    }
}

/// An envelope of publications towards one LMR: everything one filter run
/// (or one subscription fill) ships to it, under one sequence number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PublishMsg {
    /// Per-(MDP, LMR) publication sequence number; the LMR acks it and
    /// applies envelopes in sequence order exactly once.
    pub seq: u64,
    /// Whether the envelope rides the sender's alternate stream: it serves
    /// rules mirrored at a sender other than the LMR's home (DESIGN.md
    /// §11). Any other envelope from a non-home sender is a stray.
    pub alt: bool,
    /// Every resource a delta ships, each once.
    pub resources: Vec<Resource>,
    /// One delta per matched subscription, in subscription order.
    pub rules: Vec<RuleDelta>,
}

/// What one LMR rule gains and loses in an envelope. Every list holds
/// URIs; the contents of the shipped ones travel in
/// [`PublishMsg::resources`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleDelta {
    /// The LMR-local id of the rule.
    pub lmr_rule: u64,
    /// Resources matching the rule (new matches or the initial fill).
    pub matched: Vec<String>,
    /// Resources shipped along because they are in the strong-reference
    /// closure of a matched/updated resource (paper §2.4).
    pub companions: Vec<String>,
    /// Resources that still match but whose content changed.
    pub updated: Vec<String>,
    /// Resources that no longer match the rule.
    pub removed: Vec<String>,
    /// True for a reconciling snapshot sent after failover: `matched` +
    /// `companions` are the *complete* current state of the rule, and the
    /// LMR drops anchors of the rule that the snapshot does not list.
    pub snapshot: bool,
}

impl RuleDelta {
    /// The URIs whose contents this delta ships: matched, companions,
    /// updated.
    pub fn shipped(&self) -> impl Iterator<Item = &str> {
        self.matched
            .iter()
            .chain(&self.companions)
            .chain(&self.updated)
            .map(String::as_str)
    }
}

/// Why a publication wire form does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Truncated, corrupted, or otherwise not an envelope.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed publication: {what}"),
        }
    }
}

impl PublishMsg {
    /// Checks the shape every apply relies on: each resource travels once,
    /// and every URI a delta ships is among the resources.
    pub(crate) fn validate(&self) -> std::result::Result<(), WireError> {
        let mut uris = HashSet::new();
        for r in &self.resources {
            if !uris.insert(r.uri().as_str()) {
                return Err(WireError::Malformed(format!(
                    "resource '{}' twice",
                    r.uri()
                )));
            }
        }
        for d in &self.rules {
            if let Some(uri) = d.shipped().find(|u| !uris.contains(u)) {
                return Err(WireError::Malformed(format!(
                    "rule {} ships '{uri}' without its content",
                    d.lmr_rule
                )));
            }
        }
        Ok(())
    }

    /// Serializes the envelope into the line-oriented wire form the
    /// `outbox` state records hold (`crate::state`). One record per line:
    ///
    /// ```text
    /// envelope <seq>[ alt]       -- ` alt` on the alternate stream
    /// r <uri>\t<class>           -- a resource
    /// p <name>\t<R|L>\t<value>   -- property of the preceding resource
    /// rule <lmr_rule>\t<0|1>     -- a delta; 1 marks a snapshot
    /// m|c|u|x <uri>              -- matched/companion/updated/removed
    /// end <fnv1a64 of every line above>
    /// ```
    ///
    /// The trailer makes a truncated or corrupted row fail to decode.
    pub fn to_wire(&self) -> String {
        let alt = if self.alt { " alt" } else { "" };
        let mut out = format!("envelope {}{alt}\n", self.seq);
        for r in &self.resources {
            out.push_str(&format!(
                "r {}\t{}\n",
                escape(r.uri().as_str()),
                escape(r.class())
            ));
            for (name, term) in r.properties() {
                let kind = if term.is_resource() { 'R' } else { 'L' };
                out.push_str(&format!(
                    "p {}\t{kind}\t{}\n",
                    escape(name),
                    escape(term.lexical())
                ));
            }
        }
        for d in &self.rules {
            out.push_str(&format!("rule {}\t{}\n", d.lmr_rule, u8::from(d.snapshot)));
            for (tag, uris) in [
                ('m', &d.matched),
                ('c', &d.companions),
                ('u', &d.updated),
                ('x', &d.removed),
            ] {
                for uri in uris {
                    out.push_str(&format!("{tag} {}\n", escape(uri)));
                }
            }
        }
        let sum = fnv1a64(out.as_bytes());
        out.push_str(&format!("end {sum}\n"));
        out
    }

    /// Parses the wire form produced by [`PublishMsg::to_wire`].
    pub fn from_wire(text: &str) -> std::result::Result<PublishMsg, WireError> {
        let bad = |what: &str| WireError::Malformed(what.to_owned());
        let (body, trailer) = text
            .strip_suffix('\n')
            .and_then(|t| t.rsplit_once('\n'))
            .ok_or_else(|| bad("no trailer"))?;
        let sum = fnv1a64(&text.as_bytes()[..body.len() + 1]);
        if trailer != format!("end {sum}") {
            return Err(bad("checksum mismatch"));
        }
        let mut lines = body.lines();
        let header = lines
            .next()
            .and_then(|l| l.strip_prefix("envelope "))
            .ok_or_else(|| bad("no envelope header"))?;
        let (seq, alt) = match header.strip_suffix(" alt") {
            Some(seq) => (seq, true),
            None => (header, false),
        };
        let mut msg = PublishMsg {
            seq: seq.parse().map_err(|_| bad("no envelope header"))?,
            alt,
            ..PublishMsg::default()
        };
        for line in lines {
            let (tag, rest) = line
                .split_once(' ')
                .ok_or_else(|| bad(&format!("record '{line}'")))?;
            match tag {
                "r" if msg.rules.is_empty() => {
                    let (uri, class) = rest
                        .split_once('\t')
                        .ok_or_else(|| bad("resource record"))?;
                    let uri = UriRef::parse(&unescape(uri))
                        .ok_or_else(|| bad(&format!("resource uri '{uri}'")))?;
                    msg.resources.push(Resource::new(uri, unescape(class)));
                }
                "p" if msg.rules.is_empty() => {
                    let mut fields = rest.splitn(3, '\t');
                    let (Some(name), Some(kind), Some(value)) =
                        (fields.next(), fields.next(), fields.next())
                    else {
                        return Err(bad("property record"));
                    };
                    let term = match kind {
                        "R" => Term::resource(
                            UriRef::parse(&unescape(value))
                                .ok_or_else(|| bad(&format!("reference '{value}'")))?,
                        ),
                        "L" => Term::literal(unescape(value)),
                        other => return Err(bad(&format!("property kind '{other}'"))),
                    };
                    msg.resources
                        .last_mut()
                        .ok_or_else(|| bad("property before any resource"))?
                        .add(unescape(name), term);
                }
                "rule" => {
                    let (rule, snapshot) =
                        rest.split_once('\t').ok_or_else(|| bad("rule record"))?;
                    msg.rules.push(RuleDelta {
                        lmr_rule: rule.parse().map_err(|_| bad("rule id"))?,
                        snapshot: match snapshot {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad("snapshot flag")),
                        },
                        ..RuleDelta::default()
                    });
                }
                "m" | "c" | "u" | "x" => {
                    let d = msg
                        .rules
                        .last_mut()
                        .ok_or_else(|| bad("uri before any rule"))?;
                    let list = match tag {
                        "m" => &mut d.matched,
                        "c" => &mut d.companions,
                        "u" => &mut d.updated,
                        _ => &mut d.removed,
                    };
                    list.push(unescape(rest));
                }
                other => return Err(bad(&format!("record '{other}'"))),
            }
        }
        msg.validate()?;
        Ok(msg)
    }
}

/// Escapes tabs, newlines, and backslashes for the line-oriented state and
/// wire formats.
pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

/// Inverse of [`escape`].
pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_rdf::{Term, UriRef};

    #[test]
    fn kinds_and_sizes() {
        let m = Message::Subscribe {
            lmr_rule: 1,
            rule_text: "search C c register c".into(),
        };
        assert_eq!(m.kind(), "subscribe");
        assert!(m.approx_size() > 8);

        let res = Resource::new(UriRef::new("d", "x"), "C").with("p", Term::literal("v"));
        let p = Message::Publish(PublishMsg {
            resources: vec![res],
            rules: vec![RuleDelta {
                matched: vec!["d#x".into()],
                ..RuleDelta::default()
            }],
            ..PublishMsg::default()
        });
        assert_eq!(p.kind(), "publish");
        assert!(p.approx_size() > 4);
    }

    /// Two deltas sharing a resource: a snapshot of rule 7 and an update
    /// plus removals of rule 9.
    fn envelope() -> PublishMsg {
        let host = Resource::new(UriRef::new("d.rdf", "host"), "CycleProvider")
            .with("serverHost", Term::literal("a\torg\nb"))
            .with(
                "serverInformation",
                Term::resource(UriRef::new("d.rdf", "i")),
            );
        let info = Resource::new(UriRef::new("d.rdf", "i"), "ServerInformation")
            .with("memory", Term::literal("92"));
        PublishMsg {
            seq: 42,
            alt: true,
            resources: vec![host, info],
            rules: vec![
                RuleDelta {
                    lmr_rule: 7,
                    matched: vec!["d.rdf#host".into()],
                    companions: vec!["d.rdf#i".into()],
                    snapshot: true,
                    ..RuleDelta::default()
                },
                RuleDelta {
                    lmr_rule: 9,
                    updated: vec!["d.rdf#host".into()],
                    companions: vec!["d.rdf#i".into()],
                    removed: vec!["old.rdf#gone".into(), "w\teird#x".into()],
                    ..RuleDelta::default()
                },
            ],
        }
    }

    #[test]
    fn publish_wire_roundtrip() {
        let msg = envelope();
        assert_eq!(PublishMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        // an empty envelope roundtrips too
        assert_eq!(
            PublishMsg::from_wire(&PublishMsg::default().to_wire()).unwrap(),
            PublishMsg::default()
        );
    }

    #[test]
    fn publish_wire_rejects_truncation_and_the_per_rule_format() {
        let wire = envelope().to_wire();
        for cut in 0..wire.len() {
            if wire.is_char_boundary(cut) {
                assert!(
                    PublishMsg::from_wire(&wire[..cut]).is_err(),
                    "a prefix of {cut} bytes decoded"
                );
            }
        }
        // the one-rule-per-publication form of earlier versions has no
        // checksum trailer
        let per_rule = "seq 3\t7\nm d.rdf#host\tCycleProvider\np serverHost\tL\ta.org\n";
        assert!(matches!(
            PublishMsg::from_wire(per_rule),
            Err(WireError::Malformed(_))
        ));
        assert!(PublishMsg::from_wire("nope").is_err());
        assert!(PublishMsg::from_wire("p orphan\tL\tv\n").is_err());
    }

    #[test]
    fn publish_wire_rejects_envelopes_that_do_not_validate() {
        // a body that checksums but breaks the shape, re-sealed by hand
        let seal = |body: &str| format!("{body}end {}\n", fnv1a64(body.as_bytes()));
        let ok = "envelope 1\nr d#x\tC\nrule 0\t0\nm d#x\n";
        assert!(PublishMsg::from_wire(&seal(ok)).is_ok());
        for body in [
            "envelope 1\nrule 0\t0\nm d#x\n",    // shipped, not carried
            "envelope 1\nr d#x\tC\nr d#x\tC\n",  // carried twice
            "envelope 1\nrule 0\t0\nr d#x\tC\n", // resource after a rule
            "envelope 1\nr d#x\tC\nrule 0\t2\n", // bad snapshot flag
            "envelope 1\nm d#x\n",               // uri before any rule
            "envelope x\n",                      // bad sequence number
        ] {
            assert!(PublishMsg::from_wire(&seal(body)).is_err(), "{body:?}");
        }
    }
}
