//! Node state as records — the one format of an MDP's and an LMR's state:
//! their export/import, the Raft snapshot, and the durable state tables
//! crash recovery reads (DESIGN.md §6.4).
//!
//! Each piece of node state is one record `<tag> <fields>`, one a line,
//! with `\t`, `\n` and `\\` escaped in the fields marked escaped. Its *key*
//! is the tag plus the fields that identify it (`subscription <lmr>\t<rule>`,
//! `pubseq <lmr>`, the bare tag for a singleton such as `placement`). An
//! export is a header line and every record; import replays the lines
//! through one dispatcher per node kind. A durable node keeps the same
//! records in its state table, one `(key, fields)` row each, written as
//! the state changes; crash recovery reopens the node on its own store and
//! feeds the table's rows through the same dispatcher, in the export's
//! order, writing none back. This module owns the record format in memory
//! and on disk: the state table is created, written and read here. Import and
//! recovery decode what may be damaged — an InstallSnapshot arrives off the
//! wire, a table off a disk — so a malformed record is an error, never a
//! panic.
//!
//! An MDP's state is *logical*: the subscriptions it serves and the
//! documents registered with it, replayed through the normal registration
//! paths (publications suppressed: subscribers already hold their caches),
//! which rebuilds every filter table, the dependency graph and all
//! materializations. The same export, behind the apply hash chain value, is
//! the data of a Raft InstallSnapshot (DESIGN.md §9.2).
//!
//! ```text
//! #mdv-mdp-state v4
//! pubseq <lmr>\t<next publication sequence>
//! replseq <peer>\t<next replication sequence>
//! placement <escaped placement table wire form>
//! doc <escaped uri>\t<version>\t<deleted 0|1>\t<escaped RDF/XML, only when deleted is 0>
//! subscription <lmr>\t<lmr_rule>\t<escaped rule text>[\t<home mdp of a mirrored rule>]
//! retired <lmr>\t<lmr_rule>
//! ```
//!
//! The `pubseq` records carry the at-least-once publication counters (one
//! per subscriber LMR): a recovered MDP must continue the per-LMR sequence
//! numbering where it left off, otherwise live LMRs would discard its
//! publications as duplicates; `replseq` holds the per-peer replication
//! stream counters for the same reason. `placement` is the table the
//! orchestrator installed (a node's own epoch-0 table is not recorded). A
//! `subscription` record names the home MDP when the rule is mirrored (a
//! rule the LMR registered here has none; DESIGN.md §11). A `doc` record
//! is one document put: a document with its per-URI convergence key, or
//! the tombstone of a deleted one. A receiver keeps no replication floor: the `doc`
//! versions gate every arrival (DESIGN.md §3b). The `retired` records are
//! the tombstones of retracted rules: without them a late duplicate
//! Subscribe would bring a retracted rule back. Documents come before
//! subscriptions, the order a Raft install has always replayed, so an
//! installed voter's filter tables and statistics match the leader's.
//!
//! Four more MDP kinds are durable-only: only crash recovery reads them,
//! a quiescent export never holds one, and import rejects them. Two hold
//! the sender's messages in flight — unacked publications and unacked
//! replicated operations — and recovery re-arms each. Two are a Raft
//! voter's: its hard state and one record per retained log entry, replayed
//! in index order (a gap is an error) for `raft_enable` to re-seat the
//! voter (DESIGN.md §9.3).
//!
//! ```text
//! outbox <lmr>\t<seq>\t<escaped envelope wire form>
//! replout <peer>\t<seq>\t<escaped uri>\t<version>\t<deleted 0|1>\t<escaped RDF/XML, only when deleted is 0>
//! raft <term>\t<vote, or empty>\t<led terms, comma-separated>\t<applied>\t<hash chain>\t<offset>\t<offset term>
//! raftlog <index>\t<term>\t<escaped command wire form>
//! ```
//!
//! An LMR exports the receiving ends of the same streams, its rules, and a
//! relational snapshot of its cache after the records (a durable LMR keeps
//! its cache tables in the same store instead):
//!
//! ```text
//! #mdv-lmr-state v3
//! pubseq <next publication sequence expected from the home MDP>
//! nextrule <next rule id>
//! home <home mdp>\t<backup mdp, or empty>\t<awaiting a failover welcome 0|1>
//! altseq <mdp>\t<next publication sequence expected from that MDP>
//! rule <id>\t<pending|active|failed:<escaped error>>\t<escaped rule text>
//! dead <rule>
//! local <escaped uri>\t<escaped RDF/XML>
//! match <uri>\t<rule>
//! cache-snapshot
//! <relational snapshot of the cache …>
//! ```
//!
//! `nextrule` and the `dead` tombstones keep a restored LMR from reusing
//! the id of a retracted rule, which the MDP's tombstone would swallow.
//! The `altseq` records are the floors of the alternate streams, one per
//! non-home MDP that has published a mirrored rule's matches to it
//! (DESIGN.md §11). An LMR has no kind in flight: it keeps no early
//! arrival, so what is in flight to it is in its senders' `outbox` records.
//!
//! Earlier versions are not read and fail with the "unsupported header"
//! error: MDP v1 framed each document as RDF/XML lines closed by a `.`
//! line, which a literal holding such a line cut short, and dropped the
//! rule tombstones; MDP v2 carried a replication floor per peer; MDP v3
//! split a document into a `docver` and a `document` record; LMR v2
//! dropped `nextrule`, `dead` and `home`. An LMR `placement` record (the
//! alternate-stream mode an LMR once kept) fails import and recovery as an
//! unknown record. A state table holding a kind no longer written — the
//! floors and early arrivals the receivers once kept, the split document
//! records — fails recovery as an unknown record. A durable store holding any table beside the node's own
//! and its state table — the per-kind or typed Raft tables of earlier
//! layouts — fails recovery the same way ("unsupported store layout").

use std::collections::HashSet;
use std::fmt::Display;

use mdv_rdf::{parse_document, write_document, Document};
use mdv_relstore::{
    ColumnDef, DataType, Database, IndexKind, RowId, StorageEngine, TableSchema, Value,
};

use crate::error::{store_err, Error, Result};
use crate::lmr::{Lmr, LmrRule, RuleStatus};
use crate::mdp::Mdp;
use crate::message::{escape, unescape, PublishMsg, Put};
use crate::placement::PlacementTable;
use crate::raft::RaftState;

const HEADER: &str = "#mdv-mdp-state v4";
const LMR_HEADER: &str = "#mdv-lmr-state v3";

/// The tags of the MDP grammar in export (and recovery) order; the last
/// four are durable-only: two in flight, then a Raft voter's hard state
/// and log.
const MDP_TAGS: [&str; 10] = [
    "pubseq",
    "replseq",
    "placement",
    "doc",
    "subscription",
    "retired",
    "outbox",
    "replout",
    "raft",
    "raftlog",
];

/// The tags of the LMR grammar in export (and recovery) order.
const LMR_TAGS: [&str; 8] = [
    "pubseq", "nextrule", "home", "altseq", "rule", "dead", "local", "match",
];

// ---------------------------------------------------------------------------
// The record grammar
// ---------------------------------------------------------------------------

/// One record: its key (tag plus identifying fields) and the rest of its
/// fields — a row of a state table, or a line of an export.
#[derive(Debug)]
pub(crate) struct Record {
    pub(crate) key: String,
    pub(crate) fields: String,
}

impl Record {
    fn new(key: String, fields: impl Into<String>) -> Self {
        let fields = fields.into();
        Record { key, fields }
    }

    /// The record's line: the key, then the other fields after a tab, or
    /// after a space when the key is the bare tag.
    fn line(&self) -> String {
        if self.fields.is_empty() {
            return self.key.clone();
        }
        let sep = if self.key.contains(' ') { '\t' } else { ' ' };
        format!("{}{sep}{}", self.key, self.fields)
    }
}

/// A record key: the tag, a space, and the identifying fields joined by
/// tabs.
pub(crate) fn key(tag: &str, ids: &[&dyn Display]) -> String {
    let mut key = tag.to_owned();
    for (n, id) in ids.iter().enumerate() {
        key.push(if n == 0 { ' ' } else { '\t' });
        key.push_str(&id.to_string());
    }
    key
}

// ---------------------------------------------------------------------------
// The state table
// ---------------------------------------------------------------------------

/// The name of a state table's hash index on its `key` column.
const KEY_INDEX: &str = "key";

/// Creates a node's state table: one `(key, fields)` row per record, found
/// by key through a hash index, never by a scan.
pub(crate) fn create_table<S: StorageEngine>(store: &mut S, table: &str) -> Result<()> {
    let cols = vec![
        ColumnDef::new("key", DataType::Str),
        ColumnDef::new("fields", DataType::Str),
    ];
    let schema = TableSchema::new(table, cols).map_err(store_err)?;
    store.create_table(schema).map_err(store_err)?;
    store
        .create_index(table, KEY_INDEX, IndexKind::Hash, &["key"], false)
        .map_err(store_err)
}

/// The row holding the record `key`, if any.
fn find<S: StorageEngine>(store: &S, table: &str, key: &str) -> Result<Option<RowId>> {
    let t = store.database().table(table).map_err(store_err)?;
    let index = t.index(KEY_INDEX).map_err(store_err)?;
    Ok(index.probe(&[Value::Str(key.to_owned())]).first().copied())
}

/// Writes `record` into a state table, replacing the fields of its key.
pub(crate) fn put<S: StorageEngine>(store: &mut S, table: &str, record: Record) -> Result<()> {
    let Record { key, fields } = record;
    let found = find(store, table, &key)?;
    let row = vec![Value::Str(key), Value::Str(fields)];
    match found {
        Some(id) => store.update(table, id, row).map(drop),
        None => store.insert(table, row).map(drop),
    }
    .map_err(store_err)
}

/// Deletes the record `key` of a state table (a no-op when absent).
pub(crate) fn delete<S: StorageEngine>(store: &mut S, table: &str, key: &str) -> Result<()> {
    if let Some(id) = find(store, table, key)? {
        store.delete(table, id).map_err(store_err)?;
    }
    Ok(())
}

/// Every `(key, fields)` row of a state table, or `None` when the store
/// has no such table. A row that is not two strings is corrupt.
fn rows(db: &Database, table: &str) -> Result<Option<Vec<Record>>> {
    let Ok(t) = db.table(table) else {
        return Ok(None);
    };
    t.iter()
        .map(|(_, row)| match row.as_slice() {
            [Value::Str(key), Value::Str(fields)] => Ok(Record::new(key.clone(), fields.clone())),
            _ => Err(Error::Topology(format!("corrupt row in {table}"))),
        })
        .collect::<Result<_>>()
        .map(Some)
}

/// The encoders of the MDP grammar.
pub(crate) mod mdp_records {
    use super::*;

    /// `pubseq` or `replseq`: a stream counter per node.
    pub(crate) fn counter(tag: &str, node: &str, next_seq: u64) -> Record {
        Record::new(key(tag, &[&node]), next_seq.to_string())
    }

    pub(crate) fn placement(table: &PlacementTable) -> Record {
        Record::new(key("placement", &[]), escape(&table.to_wire()))
    }

    pub(crate) fn doc_key(uri: &str) -> String {
        key("doc", &[&escape(uri)])
    }

    /// One document put: version `version` of `uri`, `doc` of `None` its
    /// tombstone.
    pub(crate) fn doc(uri: &str, version: u64, doc: Option<&Document>) -> Record {
        let xml = doc.map(write_document);
        Record::new(doc_key(uri), put_fields(version, xml.as_deref()))
    }

    /// `subscription` or `retired`: the key of an LMR's rule.
    pub(crate) fn rule_key(tag: &str, lmr: &str, rule: u64) -> String {
        key(tag, &[&lmr, &rule])
    }

    /// An LMR's rule, with the LMR's home MDP when it is mirrored here.
    pub(crate) fn subscription(lmr: &str, rule: u64, text: &str, home: Option<&str>) -> Record {
        let fields = match home {
            Some(home) => format!("{}\t{home}", escape(text)),
            None => escape(text),
        };
        Record::new(rule_key("subscription", lmr, rule), fields)
    }

    pub(crate) fn retired(lmr: &str, rule: u64) -> Record {
        Record::new(rule_key("retired", lmr, rule), "")
    }

    /// `outbox` or `replout`: the key of a message in flight.
    pub(crate) fn seq_key(tag: &str, node: &str, seq: u64) -> String {
        key(tag, &[&node, &seq])
    }

    pub(crate) fn outbox(lmr: &str, msg: &PublishMsg) -> Record {
        Record::new(seq_key("outbox", lmr, msg.seq), escape(&msg.to_wire()))
    }

    /// A replicated put in flight to `peer`.
    pub(crate) fn replout(peer: &str, seq: u64, put: &Put) -> Record {
        let tail = put_fields(put.version, put.xml.as_deref());
        let fields = format!("{}\t{tail}", escape(&put.uri));
        Record::new(seq_key("replout", peer, seq), fields)
    }

    /// The fields of a put after its URI: the version, the tombstone flag,
    /// and the escaped RDF/XML of a live document.
    fn put_fields(version: u64, xml: Option<&str>) -> String {
        match xml {
            Some(xml) => format!("{version}\t0\t{}", escape(xml)),
            None => format!("{version}\t1"),
        }
    }

    /// A Raft voter's hard state.
    pub(crate) fn raft(r: &RaftState) -> Record {
        let led: Vec<String> = r.led_terms.iter().map(u64::to_string).collect();
        let fields = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.term,
            r.voted_for.as_deref().unwrap_or_default(),
            led.join(","),
            r.applied,
            r.cum_hash,
            r.offset,
            r.offset_term
        );
        Record::new(key("raft", &[]), fields)
    }

    pub(crate) fn raftlog_key(index: u64) -> String {
        key("raftlog", &[&index])
    }

    /// A Raft log entry: its term and escaped command wire form.
    pub(crate) fn raftlog(index: u64, term: u64, wire: &str) -> Record {
        Record::new(raftlog_key(index), format!("{term}\t{}", escape(wire)))
    }
}

/// The encoders of the LMR grammar.
pub(crate) mod lmr_records {
    use super::*;

    pub(crate) fn pubseq(next_seq: u64) -> Record {
        Record::new(key("pubseq", &[]), next_seq.to_string())
    }

    pub(crate) fn next_rule(next: u64) -> Record {
        Record::new(key("nextrule", &[]), next.to_string())
    }

    pub(crate) fn home(mdp: &str, backup: Option<&str>, awaiting: bool) -> Record {
        let fields = format!(
            "{mdp}\t{}\t{}",
            backup.unwrap_or_default(),
            u8::from(awaiting)
        );
        Record::new(key("home", &[]), fields)
    }

    pub(crate) fn altseq(mdp: &str, next_seq: u64) -> Record {
        Record::new(key("altseq", &[&mdp]), next_seq.to_string())
    }

    pub(crate) fn rule_key(id: u64) -> String {
        key("rule", &[&id])
    }

    pub(crate) fn rule(id: u64, rule: &LmrRule) -> Record {
        let status = match &rule.status {
            RuleStatus::Pending => "pending".to_owned(),
            RuleStatus::Active => "active".to_owned(),
            RuleStatus::Failed(e) => format!("failed:{}", escape(e)),
        };
        Record::new(rule_key(id), format!("{status}\t{}", escape(&rule.text)))
    }

    pub(crate) fn dead(rule: u64) -> Record {
        Record::new(key("dead", &[&rule]), "")
    }

    pub(crate) fn local(doc: &Document) -> Record {
        let xml = escape(&write_document(doc));
        Record::new(key("local", &[&escape(doc.uri())]), xml)
    }

    /// A match anchor.
    pub(crate) fn anchor(uri: &str, rule: u64) -> Record {
        Record::new(key("match", &[&uri, &rule]), "")
    }
}

/// The tab-separated fields of one record line, taken in order.
struct Fields<'a> {
    tag: &'a str,
    rest: Option<&'a str>,
}

impl<'a> Fields<'a> {
    /// Splits a line into its tag and fields.
    fn of(line: &'a str) -> Self {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let rest = (!rest.is_empty()).then_some(rest);
        Fields { tag, rest }
    }

    fn malformed(&self) -> Error {
        Error::Topology(format!("malformed {} record", self.tag))
    }

    fn str(&mut self) -> Result<&'a str> {
        let rest = self.rest.take().ok_or_else(|| self.malformed())?;
        Ok(match rest.split_once('\t') {
            Some((field, more)) => {
                self.rest = Some(more);
                field
            }
            None => rest,
        })
    }

    fn text(&mut self) -> Result<String> {
        self.str().map(unescape)
    }

    fn num(&mut self) -> Result<u64> {
        self.str()?.parse().map_err(|_| self.malformed())
    }

    fn flag(&mut self) -> Result<bool> {
        match self.str()? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.malformed()),
        }
    }

    fn document(&mut self) -> Result<Document> {
        let uri = self.text()?;
        let xml = self.text()?;
        Ok(parse_document(&uri, &xml)?)
    }

    /// A put: its escaped URI, version and tombstone flag, then the
    /// escaped RDF/XML exactly when the flag is 0.
    fn put(&mut self) -> Result<Put> {
        let (uri, version) = (self.text()?, self.num()?);
        let xml = match self.flag()? {
            true => None,
            false => Some(self.text()?),
        };
        Ok(Put { uri, version, xml })
    }

    fn envelope(&mut self, seq: u64) -> Result<PublishMsg> {
        let msg = PublishMsg::from_wire(&self.text()?)
            .map_err(|e| Error::Topology(format!("corrupt {} envelope: {e}", self.tag)))?;
        if msg.seq != seq {
            return Err(self.malformed());
        }
        Ok(msg)
    }

    /// Every field was read.
    fn end(self) -> Result<()> {
        match self.rest {
            None => Ok(()),
            Some(_) => Err(self.malformed()),
        }
    }
}

/// Reads a node's state table back as record lines in the export's order:
/// by tag as `tags` lists them, then by key, numbers compared as numbers.
/// `None` when the store has no state table. A store holding a table that
/// is neither one of the node's own (those of `own`) nor its state table
/// was written in an earlier layout — per-kind tables, typed Raft tables —
/// and is refused.
fn read_records(
    db: &Database,
    table: &str,
    own: &Database,
    tags: &[&str],
) -> Result<Option<Vec<String>>> {
    if let Some(foreign) = db
        .table_names()
        .into_iter()
        .find(|t| *t != table && own.table(t).is_err())
    {
        return Err(Error::Topology(format!(
            "unsupported store layout: table {foreign} beside {table}"
        )));
    }
    let Some(mut records) = rows(db, table)? else {
        return Ok(None);
    };
    records.sort_by_cached_key(|r| {
        let mut parts = r.key.split([' ', '\t']);
        let tag = parts.next().unwrap_or_default();
        let rank = tags.iter().position(|t| *t == tag).unwrap_or(tags.len());
        let ids: Vec<(u8, u64, String)> = parts
            .map(|id| {
                id.parse()
                    .map_or((1, 0, id.to_owned()), |n| (0, n, String::new()))
            })
            .collect();
        (rank, ids)
    });
    Ok(Some(records.iter().map(Record::line).collect()))
}

// ---------------------------------------------------------------------------
// MDP state
// ---------------------------------------------------------------------------

impl<S: StorageEngine + Send + Sync> Mdp<S> {
    /// The node's state as records, in export order (no record in flight).
    fn state_records(&self) -> Vec<Record> {
        use mdp_records as rec;
        let mut out = Vec::new();
        for (lmr, next_seq) in self.next_pub_seq.sorted() {
            out.push(rec::counter("pubseq", &lmr, next_seq));
        }
        for (peer, next_seq) in self.repl_seq.sorted() {
            out.push(rec::counter("replseq", &peer, next_seq));
        }
        if self.placement().epoch() > 0 {
            out.push(rec::placement(self.placement()));
        }
        for (uri, meta) in &self.doc_meta {
            let doc = self.engine().document(uri).filter(|_| !meta.deleted);
            out.push(rec::doc(uri, meta.version, doc));
        }
        for (sub, (lmr, lmr_rule, home)) in self.subscribers_sorted() {
            let text = self
                .engine()
                .subscription(sub)
                .map_or("", |s| s.rule_text.as_str());
            out.push(rec::subscription(&lmr, lmr_rule, text, home.as_deref()));
        }
        for (lmr, lmr_rule) in self.subscribers.retired_sorted() {
            out.push(rec::retired(&lmr, lmr_rule));
        }
        out
    }

    /// Serializes the node's logical state.
    pub fn export_state(&self) -> String {
        let mut out = format!("{HEADER}\n");
        for record in self.state_records() {
            out.push_str(&record.line());
            out.push('\n');
        }
        out
    }

    /// Rebuilds a node's state on `self`, which must hold no subscription
    /// and have numbered no message (freshly created, or torn down by a
    /// Raft install); a document it holds (a join's repair) merges with
    /// the export's by version. Returns the subscriptions restored and the
    /// documents then held.
    pub fn import_state(&mut self, text: &str) -> Result<(usize, usize)> {
        let numbered = !self.next_pub_seq.sorted().is_empty() || !self.repl_seq.sorted().is_empty();
        if self.engine().subscriptions().next().is_some() || numbered {
            return Err(Error::Topology(
                "import_state requires a freshly created MDP".into(),
            ));
        }
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(Error::Topology("unsupported MDP state header".into()));
        }
        self.apply_records(lines.filter(|l| !l.is_empty()), None)
    }

    /// Reopens an MDP over the crash-recovered store of a durable one,
    /// which keeps serving as its log, as [`Lmr::reopen`] does for an LMR.
    /// The filter tables, unlogged and so recovered empty, are marked
    /// unlogged again and adopted by the engine. The state table's records
    /// replay through the import's dispatcher in the export's order,
    /// refilling memory and the filter tables without writing a record
    /// back; the messages that were in flight re-enter their outboxes, due
    /// for retransmission after `retry_backoff_ms` (the receiver tolerates
    /// the duplicate). A Raft voter's hard state and log come back for
    /// `raft_enable` to re-seat. A record that does not decode is an error,
    /// never a partial guess.
    pub fn reopen(
        name: &str,
        schema: mdv_rdf::RdfSchema,
        store: S,
        retry_backoff_ms: u64,
    ) -> Result<Self> {
        let table = crate::mdp::T_STATE;
        let own = mdv_filter::FilterEngine::new(schema.clone());
        let lines =
            read_records(store.database(), table, own.db(), &MDP_TAGS)?.ok_or_else(|| {
                Error::Topology(format!(
                    "'{name}' is not a durable MDP store (no {table} table)"
                ))
            })?;
        let mut mdp = Self::on_store(name, store, schema)?;
        mdp.apply_records(lines.iter().map(String::as_str), Some(retry_backoff_ms))?;
        mdp.mirror = true;
        Ok(mdp)
    }

    /// Feeds record lines through [`Mdp::apply_record`], except that a run
    /// of consecutive `subscription` records registers as one batch
    /// ([`FilterEngine::register_subscriptions`]): a replayed rule base is
    /// materialized over the replayed documents by joins, not by one
    /// backfill per rule. Returns `(subscriptions, documents)` restored.
    ///
    /// [`FilterEngine::register_subscriptions`]: mdv_filter::FilterEngine::register_subscriptions
    fn apply_records<'a>(
        &mut self,
        lines: impl Iterator<Item = &'a str>,
        rearm: Option<u64>,
    ) -> Result<(usize, usize)> {
        let mut subs = 0;
        let mut run: Vec<Subscription<'a>> = Vec::new();
        let mut listed: HashSet<(&'a str, u64)> = HashSet::new();
        for line in lines {
            let mut f = Fields::of(line);
            if f.tag == "subscription" {
                let (lmr, lmr_rule, text) = (f.str()?, f.num()?, f.text()?);
                let home = f.rest.is_some().then(|| f.str()).transpose()?;
                f.end()?;
                self.check_new_rule(lmr, lmr_rule)?;
                if !listed.insert((lmr, lmr_rule)) {
                    return Err(listed_twice(lmr, lmr_rule));
                }
                run.push((lmr, lmr_rule, text, home));
                continue;
            }
            subs += self.subscribe_run(std::mem::take(&mut run))?;
            self.apply_record(line, rearm)?;
        }
        subs += self.subscribe_run(run)?;
        Ok((subs, self.engine.document_count()))
    }

    /// Registers a run of `subscription` records as one batch. No ack and
    /// no initial fill: the subscribers hold their caches.
    fn subscribe_run(&mut self, run: Vec<Subscription>) -> Result<usize> {
        if run.is_empty() {
            return Ok(0);
        }
        let texts: Vec<&str> = run.iter().map(|(_, _, text, _)| text.as_str()).collect();
        let registered = self.engine.register_subscriptions(&texts)?;
        for ((lmr, lmr_rule, text, home), (sub, _initial)) in run.iter().zip(registered) {
            self.subscribers.insert(sub, lmr, *lmr_rule, *home);
            self.state_put(|| mdp_records::subscription(lmr, *lmr_rule, text, *home))?;
        }
        Ok(run.len())
    }

    /// The dispatcher of the MDP grammar: applies one record line to this
    /// node (and to its state table, unless it is reopening on one) and
    /// returns the record's tag. The durable-only kinds are accepted only
    /// from crash recovery, which passes the backoff the in-flight ones
    /// retransmit with as `rearm`.
    fn apply_record<'l>(&mut self, line: &'l str, rearm: Option<u64>) -> Result<&'l str> {
        use mdp_records as rec;
        let mut f = Fields::of(line);
        let tag = f.tag;
        match (tag, rearm) {
            ("pubseq" | "replseq", _) => {
                let (node, next_seq) = (f.str()?, f.num()?);
                match tag {
                    "pubseq" => self.next_pub_seq.set(node, next_seq),
                    _ => self.repl_seq.set(node, next_seq),
                }
                self.state_put(|| rec::counter(tag, node, next_seq))?;
            }
            ("placement", _) => {
                let table = PlacementTable::from_wire(&f.text()?)?;
                self.set_placement(table)?;
            }
            ("doc", _) => {
                let put = f.put()?;
                if self.is_newer(&put.uri, put.version, put.xml.is_none(), || put.hash()) {
                    let _pubs = self.apply_put(&put.uri, put.version, put.document()?.as_ref())?;
                }
            }
            // (`subscription` records register in runs: `apply_records`)
            ("retired", _) => {
                let (lmr, lmr_rule) = (f.str()?, f.num()?);
                self.check_new_rule(lmr, lmr_rule)?;
                self.subscribers.retire(lmr, lmr_rule);
                self.state_put(|| rec::retired(lmr, lmr_rule))?;
            }
            ("outbox", Some(backoff)) => {
                let (lmr, seq) = (f.str()?, f.num()?);
                let msg = f.envelope(seq)?;
                self.state_put(|| rec::outbox(lmr, &msg))?;
                self.outbox.restore((lmr.to_owned(), seq), msg, backoff);
            }
            ("replout", Some(backoff)) => {
                let (peer, seq, put) = (f.str()?, f.num()?, f.put()?);
                self.state_put(|| rec::replout(peer, seq, &put))?;
                self.repl_out.restore((peer.to_owned(), seq), put, backoff);
            }
            // seed and election deadline: `raft_enable` re-seats the voter
            ("raft", Some(_)) => {
                let mut r = RaftState::new(0, &self.name, 0);
                r.term = f.num()?;
                let vote = f.str()?;
                r.voted_for = (!vote.is_empty()).then(|| vote.to_owned());
                let led = f.str()?;
                for term in led.split(',').filter(|t| !t.is_empty()) {
                    r.led_terms.insert(term.parse().map_err(|_| f.malformed())?);
                }
                (r.applied, r.cum_hash) = (f.num()?, f.num()?);
                (r.offset, r.offset_term) = (f.num()?, f.num()?);
                self.raft = Some(r);
            }
            ("raftlog", Some(_)) => {
                let (index, term, wire) = (f.num()?, f.num()?, f.text()?);
                let r = self.raft.as_mut().ok_or_else(|| f.malformed())?;
                if index != r.last_index() + 1 {
                    return Err(Error::Topology(format!(
                        "raft log entry {index} does not follow entry {}",
                        r.last_index()
                    )));
                }
                r.log.push((term, wire));
            }
            _ => return Err(Error::Topology(format!("unknown state record: {line}"))),
        }
        f.end()?;
        Ok(tag)
    }

    /// An export lists each `(lmr, rule)` once, live or retired.
    fn check_new_rule(&self, lmr: &str, lmr_rule: u64) -> Result<()> {
        if self.subscribers.knows(lmr, lmr_rule) {
            return Err(listed_twice(lmr, lmr_rule));
        }
        Ok(())
    }
}

/// A `subscription` record: LMR, rule, text and the home of a mirrored
/// rule.
type Subscription<'a> = (&'a str, u64, String, Option<&'a str>);

fn listed_twice(lmr: &str, lmr_rule: u64) -> Error {
    Error::Topology(format!("rule {lmr_rule} of '{lmr}' listed twice in state"))
}

// ---------------------------------------------------------------------------
// LMR state
// ---------------------------------------------------------------------------

impl<S: StorageEngine> Lmr<S> {
    /// The node's state as records, in export order (no record in flight).
    fn state_records(&self) -> Vec<Record> {
        use lmr_records as rec;
        let mut out = vec![
            rec::pubseq(self.next_pub_seq()),
            rec::next_rule(self.next_rule),
            rec::home(&self.mdp, self.backup.as_deref(), self.awaiting_welcome),
        ];
        for (mdp, next_seq) in self.alt.floors() {
            out.push(rec::altseq(mdp, next_seq));
        }
        for (id, rule) in self.rules() {
            out.push(rec::rule(id, rule));
        }
        let mut dead: Vec<u64> = self.dead_rules.iter().copied().collect();
        dead.sort_unstable();
        out.extend(dead.into_iter().map(rec::dead));
        let mut local: Vec<&Document> = self.local_docs.values().collect();
        local.sort_unstable_by(|a, b| a.uri().cmp(b.uri()));
        out.extend(local.into_iter().map(rec::local));
        for uri in self.cached_uris() {
            for rule in self.tracker.matching_rules(&uri) {
                out.push(rec::anchor(&uri, rule));
            }
        }
        out
    }

    /// Serializes the LMR's state: its records, then a relational snapshot
    /// of the cache. Strong-reference counts are *not* stored — they are
    /// derivable from the cache and the schema and are rebuilt on import.
    pub fn export_state(&self) -> String {
        let mut out = format!("{LMR_HEADER}\n");
        for record in self.state_records() {
            out.push_str(&record.line());
            out.push('\n');
        }
        out.push_str("cache-snapshot\n");
        out.push_str(&mdv_relstore::write_database(self.cache.database()));
        out
    }

    /// Reopens an LMR over a crash-recovered durable store: the cache
    /// tables are already in place (snapshot + WAL replay), the node state
    /// replays from the state table through the import's dispatcher, and
    /// the engine keeps appending to the same log. The recorded home wins
    /// over `mdp`: after a crash mid-failover the LMR comes back attached
    /// to the MDP it last pointed at. Retry timers are transient; the
    /// caller re-arms the in-flight control messages via
    /// [`Lmr::rearm_after_recovery`].
    pub fn reopen(name: &str, mdp: &str, schema: mdv_rdf::RdfSchema, store: S) -> Result<Self> {
        let table = crate::lmr::T_STATE;
        let mut own = Database::new();
        mdv_filter::store::create_base_tables(&mut own)?;
        let lines = read_records(store.database(), table, &own, &LMR_TAGS)?.ok_or_else(|| {
            Error::Topology(format!(
                "'{name}' is not a durable LMR store (no {table} table)"
            ))
        })?;
        let mut lmr = Self::from_store(name, mdp, schema, store, true);
        for line in &lines {
            lmr.apply_record(line)?;
        }
        lmr.restore_anchors()?;
        Ok(lmr)
    }

    /// The dispatcher of the LMR grammar: applies one record line to this
    /// node's memory (the records it reads are in its state table already,
    /// or the node has none). Match anchors go to the tracker, whose strong
    /// counts and local marks [`Lmr::restore_anchors`] adds once the cache
    /// is in place.
    fn apply_record(&mut self, line: &str) -> Result<()> {
        let mut f = Fields::of(line);
        match f.tag {
            "pubseq" => self.home_floor = f.num()?,
            "nextrule" => self.next_rule = self.next_rule.max(f.num()?),
            "home" => {
                self.mdp = f.str()?.to_owned();
                let backup = f.str()?;
                self.backup = (!backup.is_empty()).then(|| backup.to_owned());
                self.awaiting_welcome = f.flag()?;
            }
            "altseq" => {
                let mdp = f.str()?.to_owned();
                self.alt.set_floor(mdp, f.num()?);
            }
            "rule" => {
                let id = f.num()?;
                let status = match f.str()? {
                    "pending" => RuleStatus::Pending,
                    "active" => RuleStatus::Active,
                    other => match other.strip_prefix("failed:") {
                        Some(e) => RuleStatus::Failed(unescape(e)),
                        None => return Err(f.malformed()),
                    },
                };
                let text = f.text()?;
                self.rules.insert(id, LmrRule { text, status });
                self.next_rule = self.next_rule.max(id + 1);
            }
            "dead" => {
                self.dead_rules.insert(f.num()?);
            }
            "local" => {
                let doc = f.document()?;
                self.local_docs.insert(doc.uri().to_owned(), doc);
            }
            "match" => {
                let (uri, rule) = (f.str()?, f.num()?);
                self.tracker.add_match(uri, rule);
            }
            _ => return Err(Error::Topology(format!("unknown LMR state record: {line}"))),
        }
        f.end()
    }
}

impl Lmr {
    /// Rebuilds a freshly created LMR from exported state.
    pub fn import_state(&mut self, text: &str) -> Result<()> {
        if !self.cached_uris().is_empty() || self.rules().next().is_some() {
            return Err(Error::Topology("import_state requires a fresh LMR".into()));
        }
        let mut lines = text.lines();
        if lines.next() != Some(LMR_HEADER) {
            return Err(Error::Topology("unsupported LMR state header".into()));
        }
        while let Some(line) = lines.next() {
            if line == "cache-snapshot" {
                let snapshot: String = lines.map(|l| format!("{l}\n")).collect();
                self.cache =
                    mdv_relstore::read_database(&snapshot).map_err(mdv_filter::Error::from)?;
                break;
            }
            if !line.is_empty() {
                self.apply_record(line)?;
            }
        }
        self.restore_anchors()
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
        let mut mdp = populated_mdp(&net);
        mdp.register_document(&doc(4, 8), &net, false).unwrap();
        mdp.delete_document("doc4.rdf", &net, false).unwrap();
        let state = mdp.export_state();
        assert!(state.contains("\ndoc doc4.rdf\t2\t1\n"), "{state}");

        let mut restored = Mdp::new("mdp1-recovered", schema());
        let (subs, docs) = restored.import_state(&state).unwrap();
        assert_eq!((subs, docs), (1, 2));
        assert!(restored.engine().document("doc1.rdf").is_some());
        assert!(restored.engine().document("doc2.rdf").is_some());
        assert_eq!(restored.doc_meta, mdp.doc_meta, "the tombstone too");
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
            mdp.import_state("#mdv-mdp-state v4\ndoc d.rdf\t1\t0\n")
                .is_err(),
            "a live doc record without its XML"
        );
        assert!(mdp.import_state("#mdv-mdp-state v4\nwat\n").is_err());
        let twice = "#mdv-mdp-state v4\nretired l\t1\nretired l\t1\n";
        assert!(mdp.import_state(twice).is_err(), "a rule listed twice");
    }

    #[test]
    fn earlier_versions_are_rejected() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        for old in ["v1", "v2", "v3"] {
            let text = populated_mdp(&net).export_state().replacen("v4", old, 1);
            let err = Mdp::new("m", schema()).import_state(&text).unwrap_err();
            assert!(
                err.to_string().contains("unsupported MDP state header"),
                "{old}: {err}"
            );
        }
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
    fn a_store_of_another_layout_is_refused() {
        let mdp = Mdp::with_storage("m", Database::new(), schema()).unwrap();
        let store = mdp.engine().storage().clone();
        assert!(Mdp::reopen("m", schema(), store.clone(), 10).is_ok());
        // a table beside the filter tables and the state table: a typed
        // table of an earlier layout
        let mut old = store;
        let cols = vec![
            ColumnDef::new("key", DataType::Str),
            ColumnDef::new("num", DataType::Int),
        ];
        old.create_table(TableSchema::new("SysPubSeq", cols).unwrap())
            .unwrap();
        let err = Mdp::reopen("m", schema(), old, 10).unwrap_err();
        assert!(
            err.to_string().contains("unsupported store layout"),
            "{err}"
        );
        // and a store that never was a durable MDP's
        let err = Mdp::reopen("m", schema(), Database::new(), 10).unwrap_err();
        assert!(err.to_string().contains("not a durable MDP store"), "{err}");
    }

    #[test]
    fn a_row_of_another_shape_is_corrupt() {
        let mut store = Database::new();
        assert!(rows(&store, "State").unwrap().is_none());
        let cols = vec![ColumnDef::new("key", DataType::Str)];
        store
            .create_table(TableSchema::new("State", cols).unwrap())
            .unwrap();
        store
            .insert("State", vec![Value::Str("pubseq l1".into())])
            .unwrap();
        assert!(rows(&store, "State").is_err());
    }

    #[test]
    fn rule_text_with_tabs_roundtrips() {
        let text = "search CycleProvider c register c\twhere c.serverHost contains 'x'";
        assert_eq!(unescape(&escape(text)), text);
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
        assert!(l.import_state("#mdv-lmr-state v3\nwat\n").is_err());
        assert!(l.import_state("#mdv-lmr-state v3\nlocal d.rdf\n").is_err());
        assert!(l.import_state("#mdv-lmr-state v3\nplacement x\n").is_err());
        for old in ["v1", "v2"] {
            let text = populated_lmr().export_state().replacen("v3", old, 1);
            let err = l.import_state(&text).unwrap_err();
            assert!(
                err.to_string().contains("unsupported LMR state header"),
                "{err}"
            );
        }
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
    /// network starts fresh (counters at zero); all node state is restored.
    /// The MDPs come first, every one added before any is restored (adding
    /// one repairs the backbone, which would fill a restored node's peers):
    /// the deployment takes its placement configuration and epoch from the
    /// tables they restored, before its LMRs join.
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
        let (mut mdps, mut lmrs) = (Vec::new(), Vec::new());
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("mdp ") {
                sys.add_mdp(name)?;
                mdps.push(name);
            } else if let Some(rest) = line.strip_prefix("lmr ") {
                let (name, mdp) = rest
                    .split_once(' ')
                    .ok_or_else(|| Error::Topology("malformed lmr record".into()))?;
                lmrs.push((name, mdp));
            } else {
                return Err(Error::Topology(format!("unknown topology record: {line}")));
            }
        }
        for name in mdps {
            let state = std::fs::read_to_string(dir.join(format!("{name}.mdp"))).map_err(io)?;
            sys.import_mdp_state(name, &state)?;
        }
        sys.adopt_restored_placement();
        for (name, mdp) in lmrs {
            sys.add_lmr(name, mdp)?;
            let state = std::fs::read_to_string(dir.join(format!("{name}.lmr"))).map_err(io)?;
            sys.restore_lmr_state(name, &state)?;
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod system_state_tests {
    use crate::lmr::RuleStatus;
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
    fn a_restored_lmr_never_reuses_a_retired_rule_id() {
        // The MDP keeps a tombstone of a retracted rule and acks a later
        // Subscribe of the same id without registering it: a reloaded LMR
        // that handed out that id again would show the rule active and
        // never get a publication for it.
        let dir = std::env::temp_dir().join(format!("mdv-rule-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b_org = "search CycleProvider c register c where c.serverHost contains 'b.org'";
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("m1").unwrap();
        sys.add_lmr("l1", "m1").unwrap();
        sys.subscribe(
            "l1",
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        let retracted = sys.subscribe("l1", b_org).unwrap();
        sys.unsubscribe("l1", retracted).unwrap();
        sys.save_to_dir(&dir).unwrap();

        let mut restored = MdvSystem::load_from_dir(&dir).unwrap();
        let id = restored.subscribe("l1", b_org).unwrap();
        let lmr = restored.lmr("l1").unwrap();
        assert_eq!(lmr.rule(id).unwrap().status, RuleStatus::Active);
        let b_doc = Document::new("doc5.rdf").with_resource(
            Resource::new(UriRef::new("doc5.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("b.org")),
        );
        restored.register_document("m1", &b_doc).unwrap();
        assert!(
            restored.lmr("l1").unwrap().is_cached("doc5.rdf#host"),
            "the new rule publishes"
        );
        assert_eq!(id, 2, "a fresh id, not the retracted rule's");
        let _ = std::fs::remove_dir_all(&dir);
    }

    const RULE: &str = "search CycleProvider c register c where c.serverInformation.memory > 64";

    #[test]
    fn a_state_restored_under_another_name_serves_the_new_deployment() {
        // m1's export carries m1's placement table ({m1}). Restored into m2
        // of another deployment, m2 serves under that deployment's table: a
        // write entering at m2 applies there, replicates to m3 and reaches
        // an LMR homed at m2; a repair brings the restored document to m3.
        let mut old = MdvSystem::new(schema());
        old.add_mdp("m1").unwrap();
        old.register_document("m1", &doc(1, 128)).unwrap();
        let state = old.mdp("m1").unwrap().export_state();

        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("m2").unwrap();
        sys.add_mdp("m3").unwrap();
        assert_eq!(sys.restore_mdp_state("m2", &state).unwrap(), (0, 1));
        for m in ["m2", "m3"] {
            let table = sys.mdp(m).unwrap().placement();
            assert_eq!(table.mdps(), ["m2", "m3"], "the table on {m}");
        }
        sys.add_lmr("l2", "m2").unwrap();
        sys.subscribe("l2", RULE).unwrap();
        sys.register_document("m2", &doc(2, 256)).unwrap();
        let l2 = sys.lmr("l2").unwrap();
        assert!(l2.is_cached("doc1.rdf#host"), "the restored document");
        assert!(l2.is_cached("doc2.rdf#host"), "a write entering at m2");
        sys.repair_backbone(8).unwrap();
        for m in ["m2", "m3"] {
            for d in ["doc1.rdf", "doc2.rdf"] {
                let held = sys.mdp(m).unwrap().engine().document(d).is_some();
                assert!(held, "{m} holds {d}");
            }
        }
        assert!(sys.backbone_converged());
    }

    #[test]
    fn a_state_restored_into_a_joined_mdp_merges_with_its_copies() {
        // m2 joins a backbone that holds a document, so its join copies the
        // document onto it; m1's export then restores into m2 all the same,
        // the export's copy of the document merging with the one m2 holds,
        // and m2 keeps the backbone's table.
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("m1").unwrap();
        sys.add_lmr("l1", "m1").unwrap();
        sys.subscribe("l1", RULE).unwrap();
        sys.register_document("m1", &doc(1, 128)).unwrap();
        let state = sys.mdp("m1").unwrap().export_state();
        sys.add_mdp("m2").unwrap();
        assert!(sys
            .mdp("m2")
            .unwrap()
            .engine()
            .document("doc1.rdf")
            .is_some());
        assert_eq!(sys.restore_mdp_state("m2", &state).unwrap(), (1, 1));
        let epoch = sys.placement_epoch();
        for m in ["m1", "m2"] {
            let table = sys.mdp(m).unwrap().placement();
            assert_eq!(
                (table.mdps(), table.epoch()),
                (&["m1".to_owned(), "m2".to_owned()][..], epoch)
            );
        }
        sys.register_document("m2", &doc(2, 256)).unwrap();
        assert!(sys.lmr("l1").unwrap().is_cached("doc2.rdf#host"));
        assert!(sys.backbone_converged());
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

#[cfg(test)]
mod drift_tests {
    use super::*;
    use crate::system::MdvSystem;
    use crate::transport::{LinkFaults, NetConfig};
    use mdv_rdf::{RdfSchema, Resource, Term, UriRef};
    use mdv_relstore::{DurableEngine, FaultVfs};
    use mdv_testkit::{prop_assert_eq, property};

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

    fn doc(i: u64, host: &str, memory: u64) -> Document {
        let uri = format!("doc{i}.rdf");
        Document::new(uri.clone())
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal(host))
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

    const RULES: [&str; 3] = [
        "search CycleProvider c register c where c.serverInformation.memory > 64",
        "search CycleProvider c register c where c.serverHost contains 'b.org'",
        "search ServerInformation s register s where s.memory > 100",
    ];

    /// The records of a node's state table other than the durable-only
    /// kinds, as sorted lines.
    fn table_lines(db: &Database, table: &str, durable_only: &[&str]) -> Vec<String> {
        let mut lines: Vec<String> = rows(db, table)
            .unwrap()
            .unwrap()
            .into_iter()
            .filter(|r| !durable_only.contains(&r.key.split(' ').next().unwrap_or_default()))
            .map(|r| r.line())
            .collect();
        lines.sort();
        lines
    }

    /// The record lines of an export — no header, no cache snapshot — sorted.
    fn export_lines(text: &str) -> Vec<String> {
        let mut lines: Vec<String> = text
            .lines()
            .skip(1)
            .take_while(|l| *l != "cache-snapshot")
            .map(str::to_owned)
            .collect();
        lines.sort();
        lines
    }

    property! {
        /// One durable MDP and two durable LMRs under a seeded script of
        /// subscribe, unsubscribe, register, update, delete and the odd
        /// crash-restart over a lossy transport. At every quiescent point
        /// each node's state table holds exactly the records of its export
        /// (the in-flight kinds aside), and the export imported into a fresh
        /// node exports the same text.
        fn the_state_table_holds_the_exports_records(src) cases = 24; {
            let mut config = NetConfig::default();
            config.faults.seed = src.bits();
            config.faults.default_link = LinkFaults {
                drop_prob: 0.25,
                dup_prob: 0.20,
                jitter_ms: 30,
                spike_prob: 0.10,
                spike_ms: 120,
            };
            let disk = FaultVfs::new(src.bits());
            let mut sys: MdvSystem<DurableEngine<FaultVfs>> =
                MdvSystem::durable_on(schema(), config);
            sys.add_mdp_durable_on("m", "/m", disk.clone()).unwrap();
            let lmrs = ["l1", "l2"];
            for l in lmrs {
                sys.add_lmr_durable_on(l, "m", format!("/{l}"), disk.clone()).unwrap();
            }
            let (mut rules, mut docs, mut next) = (Vec::new(), Vec::new(), 0);
            for step in 0..src.usize_in(1..14) {
                let what = match src.weighted(&[3, 1, 4, 2, 1, 1]) {
                    0 => {
                        let (lmr, rule) = (*src.choose(&lmrs), *src.choose(&RULES));
                        let id = sys.subscribe(lmr, rule).unwrap();
                        rules.push((lmr, id));
                        format!("subscribe {lmr}")
                    }
                    1 if !rules.is_empty() => {
                        let (lmr, id) = rules.swap_remove(src.usize_in(0..rules.len()));
                        sys.unsubscribe(lmr, id).unwrap();
                        format!("unsubscribe {lmr} {id}")
                    }
                    2 => {
                        let host = *src.choose(&["a.org", "b.org"]);
                        sys.register_document("m", &doc(next, host, src.u64_in(0..200))).unwrap();
                        docs.push(next);
                        next += 1;
                        format!("register {}", next - 1)
                    }
                    3 if !docs.is_empty() => {
                        let i = *src.choose(&docs);
                        let host = *src.choose(&["a.org", "b.org"]);
                        sys.update_document("m", &doc(i, host, src.u64_in(0..200))).unwrap();
                        format!("update {i}")
                    }
                    4 if !docs.is_empty() => {
                        let i = docs.swap_remove(src.usize_in(0..docs.len()));
                        sys.delete_document("m", &format!("doc{i}.rdf")).unwrap();
                        format!("delete {i}")
                    }
                    5 => {
                        let node = *src.choose(&["m", "l1", "l2"]);
                        if node == "m" {
                            sys.crash_and_restart_mdp(node).unwrap();
                        } else {
                            sys.crash_and_restart_lmr(node).unwrap();
                        }
                        format!("crash-restart {node}")
                    }
                    _ => continue,
                };
                sys.run_to_quiescence().unwrap();

                let mdp = sys.mdp("m").unwrap();
                let export = mdp.export_state();
                let db = mdp.engine().storage().database();
                prop_assert_eq!(
                    table_lines(db, crate::mdp::T_STATE, &MDP_TAGS[7..]),
                    export_lines(&export),
                    "step {step}: {what}: the MDP's table"
                );
                let mut fresh = Mdp::new("m", schema());
                fresh.import_state(&export).unwrap();
                prop_assert_eq!(fresh.export_state(), export, "step {step}: {what}: MDP import");
                for l in lmrs {
                    let lmr = sys.lmr(l).unwrap();
                    let export = lmr.export_state();
                    let db = lmr.storage().database();
                    prop_assert_eq!(
                        table_lines(db, crate::lmr::T_STATE, &[]),
                        export_lines(&export),
                        "step {step}: {what}: {l}'s table"
                    );
                    let mut fresh = Lmr::new(l, "m", schema());
                    fresh.import_state(&export).unwrap();
                    prop_assert_eq!(fresh.export_state(), export, "step {step}: {what}: {l} import");
                }
            }
        }
    }

    /// A voter's `raft` and `raftlog` records, read back as its probe shows
    /// them: `(term, vote, led terms, applied, hash chain, offset)` and the
    /// log as `(index, term, command wire form)`.
    type RaftRecords = (
        (u64, Option<String>, Vec<u64>, u64, u64, u64),
        Vec<(u64, u64, String)>,
    );

    fn raft_records(db: &Database) -> RaftRecords {
        let mut hard = None;
        let mut log = Vec::new();
        for r in rows(db, crate::mdp::T_STATE).unwrap().unwrap() {
            let mut f = r.fields.split('\t');
            let mut num = || f.next().unwrap().parse::<u64>().unwrap();
            if r.key == "raft" {
                let term = num();
                let vote = f.next().unwrap();
                let led = f.next().unwrap().split(',').filter(|t| !t.is_empty());
                let led = led.map(|t| t.parse().unwrap()).collect();
                let mut num = || f.next().unwrap().parse::<u64>().unwrap();
                let vote = (!vote.is_empty()).then(|| vote.to_owned());
                hard = Some((term, vote, led, num(), num(), num()));
            } else if let Some(index) = r.key.strip_prefix("raftlog ") {
                let term = num();
                log.push((index.parse().unwrap(), term, unescape(f.next().unwrap())));
            }
        }
        log.sort_unstable();
        (hard.expect("a raft record"), log)
    }

    property! {
        /// Three durable Raft voters and a durable LMR under a seeded script
        /// of subscribe, register, update, delete, a follower failed and
        /// healed (so it catches up by InstallSnapshot behind a log compacted
        /// every two entries) and crash-restarts of voters and the LMR. At
        /// every quiescent point each voter's `raft` and `raftlog` records
        /// equal its probe — term, vote, led terms, applied index, hash
        /// chain, offset and log — and its other records its export.
        fn raft_records_equal_the_voters_probe(src) cases = 24; {
            let disk = FaultVfs::new(src.bits());
            let mut sys: MdvSystem<DurableEngine<FaultVfs>> =
                MdvSystem::durable_on(schema(), NetConfig::default());
            sys.enable_raft(src.bits()).unwrap();
            sys.set_raft_compact_threshold(2);
            let voters = ["m1", "m2", "m3"];
            for m in voters {
                sys.add_mdp_durable_on(m, format!("/{m}"), disk.clone()).unwrap();
            }
            sys.add_lmr_durable_on("l1", "m1", "/l1", disk.clone()).unwrap();
            sys.run_to_quiescence().unwrap();
            let (mut docs, mut next, mut failed) = (Vec::new(), 0, None);
            for step in 0..src.usize_in(4..20) {
                let leader = sys.raft_leader().unwrap();
                let what = match src.weighted(&[2, 5, 2, 1, 3, 2]) {
                    0 => {
                        let rule = *src.choose(&RULES);
                        sys.subscribe("l1", rule).unwrap();
                        "subscribe".to_owned()
                    }
                    1 => {
                        let host = *src.choose(&["a.org", "b.org"]);
                        sys.register_document(&leader, &doc(next, host, src.u64_in(0..200))).unwrap();
                        docs.push(next);
                        next += 1;
                        format!("register {}", next - 1)
                    }
                    2 if !docs.is_empty() => {
                        let i = *src.choose(&docs);
                        sys.update_document(&leader, &doc(i, "b.org", src.u64_in(0..200))).unwrap();
                        format!("update {i}")
                    }
                    3 if !docs.is_empty() => {
                        let i = docs.swap_remove(src.usize_in(0..docs.len()));
                        sys.delete_document(&leader, &format!("doc{i}.rdf")).unwrap();
                        format!("delete {i}")
                    }
                    4 => match failed.take() {
                        Some(m) => {
                            sys.heal_mdp(m).unwrap();
                            format!("heal {m}")
                        }
                        None => {
                            let m = *src.choose(&voters);
                            if m == leader.as_str() {
                                continue;
                            }
                            sys.fail_mdp(m).unwrap();
                            failed = Some(m);
                            format!("fail {m}")
                        }
                    },
                    _ => {
                        let node = *src.choose(&["m1", "m2", "m3", "l1"]);
                        if node == "l1" {
                            sys.crash_and_restart_lmr(node).unwrap();
                        } else if failed != Some(node) {
                            sys.crash_and_restart_mdp(node).unwrap();
                        }
                        format!("crash-restart {node}")
                    }
                };
                sys.run_to_quiescence().unwrap();

                for m in voters {
                    let mdp = sys.mdp(m).unwrap();
                    let p = mdp.raft_probe().unwrap();
                    let (hard, log) = raft_records(mdp.engine().storage().database());
                    let want = (p.term, p.voted_for, p.led_terms, p.applied, p.cum_hash, p.offset);
                    prop_assert_eq!(hard, want, "step {step}: {what}: {m}'s raft record");
                    prop_assert_eq!(log, p.log, "step {step}: {what}: {m}'s raftlog records");
                    prop_assert_eq!(
                        table_lines(mdp.engine().storage().database(), crate::mdp::T_STATE, &MDP_TAGS[7..]),
                        export_lines(&mdp.export_state()),
                        "step {step}: {what}: {m}'s table"
                    );
                }
            }
        }
    }
}
