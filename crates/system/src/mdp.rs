//! Metadata Providers (paper §2.2): the backbone nodes.
//!
//! An MDP owns a [`FilterEngine`], accepts metadata administration
//! (register / update / delete documents), evaluates subscriptions through
//! the filter, ships publications to subscribed LMRs (with the
//! strong-reference closure of transmitted resources, §2.4), and replicates
//! every document change to its backbone peers as one put (DESIGN.md
//! §7.1).

use std::collections::{BTreeMap, HashMap, HashSet};

use mdv_filter::{BaseStore, FilterEngine, Publication, SubscriptionId};
use mdv_rdf::{write_document, Document, RdfSchema, Resource};
use mdv_relstore::{Database, StorageEngine};

use crate::channel::{Outbox, SeqCounters};
use crate::error::{store_err, Error, Result};
use crate::message::{DigestEntry, Message, PublishMsg, Put, RuleDelta};
use crate::placement::{PlacementConfig, PlacementTable, DEFAULT_PLACEMENT_SHARDS};
use crate::raft::RaftCmd;
use crate::state::{self, mdp_records as rec, Record};
use crate::subscribers::{Subscriber, Subscribers};
use crate::transport::{Envelope, Network};

/// The state table of a durable MDP (created only on mirror-enabled
/// backends, see DESIGN.md §6.4): one row per record of the MDP grammar of
/// `crate::state`, in the same database as the filter tables, so it shares
/// the WAL and survives crashes.
pub(crate) const T_STATE: &str = "SysState";

/// What building the envelopes of one document operation has looked up in
/// the engine so far. A document that fires many rules closes over the same
/// shipped resources once per rule, and ships the same resources to every
/// subscribed LMR; the base data does not change between the envelopes of
/// one call, so each URI is resolved and each distinct seed list closed
/// over once, and the envelopes take clones.
#[derive(Default)]
pub(crate) struct PublishMemo {
    resources: HashMap<String, Resource>,
    /// Shipped URIs (added, then updated) → their companions.
    companions: HashMap<Vec<String>, Vec<String>>,
}

impl PublishMemo {
    fn resolve<S: StorageEngine + Send + Sync>(
        &mut self,
        engine: &FilterEngine<S>,
        uri: &str,
    ) -> Result<Resource> {
        if let Some(res) = self.resources.get(uri) {
            return Ok(res.clone());
        }
        let res = engine
            .resource(uri)?
            .ok_or_else(|| Error::Topology(format!("published resource '{uri}' vanished")))?;
        self.resources.insert(uri.to_owned(), res.clone());
        Ok(res)
    }

    /// The strong closure of everything shipped, minus the shipped
    /// resources themselves.
    fn companions<S: StorageEngine + Send + Sync>(
        &mut self,
        engine: &FilterEngine<S>,
        shipped: Vec<String>,
    ) -> Result<Vec<String>> {
        if let Some(companions) = self.companions.get(&shipped) {
            return Ok(companions.clone());
        }
        let shipped_set: HashSet<&String> = shipped.iter().collect();
        let companions: Vec<String> = engine
            .strong_closure(&shipped)?
            .into_iter()
            .filter(|u| !shipped_set.contains(u))
            .collect();
        self.companions.insert(shipped, companions.clone());
        Ok(companions)
    }
}

/// Per-URI replication metadata: a monotone version plus a tombstone flag.
/// Together with the content hash it forms the total order `(version,
/// deleted, hash)` that makes replicated applies commute (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DocMeta {
    pub version: u64,
    pub deleted: bool,
}

/// FNV-1a (64-bit) over a canonical RDF/XML serialization; the content
/// half of the anti-entropy digest entries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The document URI of a resource URI: resources live at `doc.rdf#frag`,
/// and placement partitions whole documents, never individual resources.
pub(crate) fn doc_uri_of(resource_uri: &str) -> &str {
    resource_uri.split('#').next().unwrap_or(resource_uri)
}

/// A Metadata Provider, generic over the storage backend of its filter
/// engine (in-memory [`Database`] by default; a durable WAL+snapshot
/// engine via [`Mdp::with_storage`], reopened after a crash by
/// [`Mdp::reopen`]).
#[derive(Debug)]
pub struct Mdp<S: StorageEngine = Database> {
    pub(crate) name: String,
    pub(crate) engine: FilterEngine<S>,
    /// Write node state into the state table: set by [`Mdp::with_storage`],
    /// and by [`Mdp::reopen`] once its records are replayed. The memory
    /// path never creates the table, so its databases stay byte-identical
    /// to the pre-storage-engine layout.
    pub(crate) mirror: bool,
    /// The filter tables a durable node declared unlogged: they recover
    /// empty, and [`Mdp::reopen`] refills them.
    pub(crate) derived_tables: Vec<String>,
    /// Which LMR rule each subscription ships to, and back, plus the
    /// tombstones of retracted rules.
    pub(crate) subscribers: Subscribers,
    /// Periodic-batch mode (paper §4: "decide if the filter should be
    /// started either when a new document is registered or periodically, to
    /// process several documents in one batch"): when set, registrations
    /// queue up and the filter runs once per `batch_size` documents (or on
    /// an explicit [`Mdp::flush`]).
    batch_size: Option<usize>,
    /// Queued documents, versioned and replicated once their batch is
    /// accepted.
    pending: Vec<Document>,
    /// Next publication sequence number per subscriber LMR.
    pub(crate) next_pub_seq: SeqCounters,
    /// Unacked publications keyed `(lmr, seq)`.
    pub(crate) outbox: Outbox<(String, u64), PublishMsg>,
    /// Per-URI replication metadata (version + tombstone); tombstones are
    /// retained so deletions win over stale replicated registrations.
    pub(crate) doc_meta: BTreeMap<String, DocMeta>,
    /// Next outgoing replication sequence number per backbone peer.
    pub(crate) repl_seq: SeqCounters,
    /// Unacked replicated puts keyed `(peer, seq)`.
    pub(crate) repl_out: Outbox<(String, u64), Put>,
    /// Raft consensus state when the backbone runs in
    /// [`crate::raft::ReplicationMode::Raft`]; `None` in LWW mode, where the
    /// replication fields above carry the backbone instead.
    pub(crate) raft: Option<crate::raft::RaftState>,
    /// The placement table (DESIGN.md §11): who owns, replicates and
    /// publishes which document, and the backbone's members. A node starts
    /// with a table of itself alone at epoch 0, which it never records;
    /// the orchestrator installs the backbone's.
    placement: PlacementTable,
}

impl Mdp {
    pub fn new(name: &str, schema: RdfSchema) -> Self {
        Self::from_engine(name, FilterEngine::new(schema), false)
    }
}

impl<S: StorageEngine + Send + Sync> Mdp<S> {
    /// Builds an MDP whose filter engine runs on an explicit storage
    /// backend and mirrors node state into the state table of the same
    /// database — on a durable backend the whole node becomes
    /// crash-recoverable (DESIGN.md §6).
    pub fn with_storage(name: &str, store: S, schema: RdfSchema) -> Result<Self> {
        let mut mdp = Self::on_store(name, store, schema)?;
        let store = mdp.engine.storage_mut();
        store.begin();
        state::create_table(store, T_STATE)?;
        store.commit().map_err(store_err)?;
        mdp.mirror = true;
        Ok(mdp)
    }

    /// An MDP on a durable store, fresh or reopened, that writes no record
    /// yet. The filter tables are derived state, a function of the document
    /// and subscription records: the store journals only their DDL, and
    /// [`Mdp::reopen`] refills them (DESIGN.md §6.4).
    pub(crate) fn on_store(name: &str, store: S, schema: RdfSchema) -> Result<Self> {
        let mut engine = FilterEngine::try_with_storage(store, schema)?;
        let store = engine.storage_mut();
        let derived: Vec<String> = store
            .database()
            .table_names()
            .into_iter()
            .filter(|t| *t != T_STATE)
            .map(str::to_owned)
            .collect();
        for table in &derived {
            store.set_unlogged(table).map_err(store_err)?;
        }
        let mut mdp = Self::from_engine(name, engine, false);
        mdp.derived_tables = derived;
        Ok(mdp)
    }

    fn from_engine(name: &str, engine: FilterEngine<S>, mirror: bool) -> Self {
        Mdp {
            name: name.to_owned(),
            engine,
            mirror,
            derived_tables: Vec::new(),
            subscribers: Subscribers::default(),
            batch_size: None,
            pending: Vec::new(),
            next_pub_seq: SeqCounters::default(),
            outbox: Outbox::default(),
            doc_meta: BTreeMap::new(),
            repl_seq: SeqCounters::default(),
            repl_out: Outbox::default(),
            raft: None,
            placement: PlacementTable::compute(
                &[name],
                DEFAULT_PLACEMENT_SHARDS,
                PlacementConfig::ALL,
                0,
            ),
        }
    }

    /// Runs `body` inside one storage commit group (depth-counted; see
    /// `StorageEngine::begin`), so the engine mutations and mirror writes
    /// of a whole node operation become durable atomically. Commits even
    /// when the body fails — the memory path keeps partial state on error,
    /// and the durable path must agree with it.
    pub(crate) fn with_group<T>(&mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.engine.storage_mut().begin();
        let out = body(self);
        self.engine.storage_mut().commit().map_err(store_err)?;
        out
    }

    // ---- state-table writes (no-ops on memory-backed nodes) --------------

    /// Writes the record `record` encodes into the state table. The
    /// encoder runs only on a durable node.
    pub(crate) fn state_put(&mut self, record: impl FnOnce() -> Record) -> Result<()> {
        if !self.mirror {
            return Ok(());
        }
        state::put(self.engine.storage_mut(), T_STATE, record())
    }

    /// Deletes the record with the key `key` builds from the state table.
    pub(crate) fn state_delete(&mut self, key: impl FnOnce() -> String) -> Result<()> {
        if !self.mirror {
            return Ok(());
        }
        state::delete(self.engine.storage_mut(), T_STATE, &key())
    }

    /// Switches between immediate filtering (`None`, the default) and
    /// periodic batch filtering with the given batch size. Switching back
    /// to immediate mode does not flush; call [`Mdp::flush`] first.
    pub fn set_batch_size(&mut self, batch_size: Option<usize>) {
        self.batch_size = batch_size;
    }

    pub fn batch_size(&self) -> Option<usize> {
        self.batch_size
    }

    /// Documents queued for the next batch run.
    pub fn pending_documents(&self) -> usize {
        self.pending.len()
    }

    /// Runs the filter over all queued documents and publishes the results.
    /// Only an accepted batch versions its documents and replicates them:
    /// a rejected one changes no state, here or at a peer.
    pub fn flush(&mut self, net: &Network) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        self.with_group(|this| {
            let pubs = this.engine.register_batch(&batch)?;
            // queued documents reach durability only here: a crash loses an
            // unflushed batch wholesale, like any uncommitted group
            for doc in &batch {
                this.record_put(doc.uri(), this.next_version(doc.uri()), Some(doc))?;
            }
            this.publish(pubs, true, net)
        })?;
        for doc in &batch {
            self.replicate_to_peers(doc.uri(), net)?;
        }
        Ok(())
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn engine(&self) -> &FilterEngine<S> {
        &self.engine
    }

    /// Mutable access to the filter engine, for storage-level tuning
    /// (e.g. checkpoint thresholds) on a live node.
    pub fn engine_mut(&mut self) -> &mut FilterEngine<S> {
        &mut self.engine
    }

    /// Snapshot-as-compaction: checkpoints the storage backend — writes a
    /// fresh snapshot (GC'd of every deleted row) and truncates the WAL.
    pub fn compact(&mut self) -> Result<()> {
        self.engine.storage_mut().checkpoint().map_err(store_err)
    }

    /// Installs the backbone's placement table. Kept as the `placement`
    /// record, so a crash-recovered node rejoins the backbone with the
    /// table it last acknowledged.
    pub(crate) fn set_placement(&mut self, table: PlacementTable) -> Result<()> {
        self.with_group(|this| {
            this.state_put(|| rec::placement(&table))?;
            this.placement = table;
            Ok(())
        })
    }

    /// The placement table installed on this node (DESIGN.md §11).
    pub fn placement(&self) -> &PlacementTable {
        &self.placement
    }

    /// Registers a new document: filter, publish, and replicate to the
    /// backbone peers. In batch mode the document is checked and queued,
    /// and versioned and replicated when its batch is accepted. `_replicate`
    /// is ignored (a local operation always replicates); it stays while
    /// the benchmark harness calls this three-argument form.
    pub fn register_document(
        &mut self,
        doc: &Document,
        net: &Network,
        _replicate: bool,
    ) -> Result<()> {
        self.local_put(doc.uri(), Some(doc), false, net)
    }

    /// Re-registers a modified document (paper §3.5). `_replicate` is
    /// ignored, as in [`Mdp::register_document`].
    pub fn update_document(
        &mut self,
        doc: &Document,
        net: &Network,
        _replicate: bool,
    ) -> Result<()> {
        self.local_put(doc.uri(), Some(doc), true, net)
    }

    /// Deletes a document with all its resources. `_replicate` is ignored,
    /// as in [`Mdp::register_document`].
    pub fn delete_document(&mut self, uri: &str, net: &Network, _replicate: bool) -> Result<()> {
        self.local_put(uri, None, true, net)
    }

    /// The one body of the local document operations: `doc` of `None`
    /// deletes, and `registered` is whether the operation names a
    /// registered document (an update or a delete) or a new one (a
    /// register). After the entry check the put takes the next version of
    /// `uri`, goes through [`Mdp::put`], and ships to the backbone.
    pub(crate) fn local_put(
        &mut self,
        uri: &str,
        doc: Option<&Document>,
        registered: bool,
        net: &Network,
    ) -> Result<()> {
        if let (Some(batch_size), Some(doc), false) = (self.batch_size, doc, registered) {
            // a document the filter would refuse joins no batch, so a flush
            // fails only on storage
            self.check_document(uri, false)?;
            doc.check_internal_references()?;
            self.engine.schema().validate(doc)?;
            self.pending.push(doc.clone());
            if self.pending.len() >= batch_size {
                self.flush(net)?;
            }
            return Ok(());
        }
        // a pending batch must be filtered before its documents can change
        self.flush(net)?;
        self.check_document(uri, registered)?;
        self.put(uri, self.next_version(uri), doc, true, net)?;
        self.replicate_to_peers(uri, net)
    }

    /// The entry check of a document operation, the same under LWW (at the
    /// MDP the operation is routed to) and Raft (at the leader, before it
    /// proposes): a register must name an unknown document, an update or a
    /// delete a registered one. A document queued for the next batch is
    /// registered.
    pub(crate) fn check_document(&self, uri: &str, registered: bool) -> Result<()> {
        let known =
            self.engine.document(uri).is_some() || self.pending.iter().any(|d| d.uri() == uri);
        let error = match (registered, known) {
            (false, true) => format!("document '{uri}' is already registered; use update_document"),
            (true, false) => format!("document '{uri}' is not registered"),
            _ => return Ok(()),
        };
        Err(mdv_filter::Error::Document(error).into())
    }

    /// This node's state of `uri` as a put, `None` for a URI it has never
    /// seen.
    fn current_put(&self, uri: &str) -> Option<Put> {
        let DocMeta { version, deleted } = *self.doc_meta.get(uri)?;
        let xml = match deleted {
            true => None,
            false => Some(write_document(self.engine.document(uri)?)),
        };
        let uri = uri.to_owned();
        Some(Put { uri, version, xml })
    }

    /// The version a local put of `uri` takes: one past the current one
    /// (a tombstone's included).
    fn next_version(&self, uri: &str) -> u64 {
        self.doc_meta.get(uri).map_or(0, |m| m.version) + 1
    }

    /// Queues the current state of `uri` as one replicated put per other
    /// owner of its shard, in name order, on the reliable at-least-once
    /// channel and ships the first copy of each. The document is serialised
    /// only when there is a peer to ship to.
    fn replicate_to_peers(&mut self, uri: &str, net: &Network) -> Result<()> {
        let peers = self.placement.replica_peers(&self.name, uri);
        if peers.is_empty() {
            return Ok(());
        }
        let Some(put) = self.current_put(uri) else {
            return Ok(());
        };
        self.with_group(|this| {
            for peer in &peers {
                let seq = this.repl_seq.take(peer);
                this.state_put(|| rec::counter("replseq", peer, seq + 1))?;
                this.state_put(|| rec::replout(peer, seq, &put))?;
                let key = (peer.clone(), seq);
                let initial = net.config().retry_initial_ms;
                this.repl_out.push(key, put.clone(), net.now_ms(), initial);
                let put = put.clone();
                net.send(&this.name, peer, Message::Replicate { seq, put })?;
            }
            Ok(())
        })
    }

    /// Subscribers sorted by subscription id (deterministic export).
    pub(crate) fn subscribers_sorted(&self) -> Vec<(SubscriptionId, Subscriber)> {
        self.subscribers.sorted()
    }

    /// Browsing support (paper §2.2: "real users can also browse metadata at
    /// an MDP and select it for caching").
    pub fn browse_classes(&self) -> Vec<String> {
        self.engine
            .schema()
            .class_names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    pub fn browse_resources(&self, class: &str) -> Result<Vec<Resource>> {
        let mut uris = BaseStore::resources_of_class(self.engine.db(), class)?;
        uris.sort();
        uris.into_iter()
            .map(|u| {
                self.engine
                    .resource(&u)?
                    .ok_or_else(|| Error::Topology(format!("resource '{u}' vanished")))
            })
            .collect()
    }

    /// The class of a registered resource (browse + OID-rule generation).
    pub fn class_of_resource(&self, uri: &str) -> Result<Option<String>> {
        Ok(BaseStore::resource_class(self.engine.db(), uri)?)
    }

    /// Processes one incoming message. Each message is handled inside one
    /// storage commit group, so a crash never persists half an operation.
    pub fn handle(&mut self, env: Envelope, net: &Network) -> Result<()> {
        self.with_group(|this| this.handle_inner(env, net))
    }

    fn handle_inner(&mut self, env: Envelope, net: &Network) -> Result<()> {
        match env.message {
            // ---- consensus-mode arms (DESIGN.md §9): a subscription change
            // is proposed to the replicated log by the leader; every other
            // voter silently drops it (the LMR retransmits, and re-homing
            // steers it to the leader). A duplicate changes no state: it
            // falls through to the shared transition, which re-acks it.
            Message::Subscribe {
                lmr_rule,
                rule_text,
            } if self.raft.is_some() && !self.subscribers.knows(&env.from, lmr_rule) => self
                .raft_forward(
                    RaftCmd::Subscribe {
                        lmr: env.from,
                        lmr_rule,
                        rule_text,
                    },
                    net,
                ),
            Message::Unsubscribe { lmr_rule }
                if self.raft.is_some() && !self.subscribers.is_retired(&env.from, lmr_rule) =>
            {
                self.raft_forward(
                    RaftCmd::Unsubscribe {
                        lmr: env.from,
                        lmr_rule,
                    },
                    net,
                )
            }
            Message::Resubscribe {
                lmr_rule,
                rule_text,
                last_seq,
            } if self.raft.is_some() && !self.caught_up(&env.from, lmr_rule, last_seq) => self
                .raft_forward(
                    RaftCmd::Resubscribe {
                        lmr: env.from,
                        lmr_rule,
                        rule_text,
                        last_seq,
                    },
                    net,
                ),
            // under Raft only the leader welcomes a re-homing LMR; a stale
            // or deposed voter stays silent and the LMR's hello retry finds
            // the leader
            Message::FailoverHello { last_seq: _ } => {
                if self.raft.is_some() && !self.raft_is_leader() {
                    return Ok(());
                }
                let next_seq = self.next_pub_seq.get(&env.from);
                net.send(&self.name, &env.from, Message::FailoverWelcome { next_seq })
            }
            Message::RequestVote { .. }
            | Message::RequestVoteReply { .. }
            | Message::AppendEntries { .. }
            | Message::AppendEntriesReply { .. }
            | Message::InstallSnapshot { .. }
            | Message::InstallSnapshotReply { .. }
                if self.raft.is_some() =>
            {
                self.raft_handle(&env.from, env.message, net)
            }
            // ---- the shared transitions (LWW, or a duplicate under Raft)
            // and the mode-independent protocol -------------------------
            Message::Subscribe {
                lmr_rule,
                rule_text,
            } => self.subscribe_rule(&env.from, lmr_rule, &rule_text, true, net),
            Message::Unsubscribe { lmr_rule } => {
                self.unsubscribe_rule(&env.from, lmr_rule, true, net)
            }
            Message::PublishAck { seq } => {
                self.outbox.ack(&(env.from.clone(), seq));
                self.state_delete(|| rec::seq_key("outbox", &env.from, seq))
            }
            Message::Replicate { seq, put } => {
                // acks every copy; the sequence number only names the ack
                net.send(&self.name, &env.from, Message::ReplicateAck { seq })?;
                self.receive_put(&put, true, net).map(|_| ())
            }
            Message::ReplicateAck { seq } => {
                self.repl_out.ack(&(env.from.clone(), seq));
                self.state_delete(|| rec::seq_key("replout", &env.from, seq))
            }
            // a node pulls only the shards it owns, and ignores a digest of
            // another placement epoch (the orchestrator re-runs anti-entropy
            // once every node holds the matching table)
            Message::PlacementDigest { epoch, entries } if epoch == self.placement.epoch() => {
                let table = &self.placement;
                let owned = entries
                    .iter()
                    .filter(|e| table.owns_doc(&self.name, &e.uri));
                self.pull_newer(&env.from, owned, net)
            }
            Message::PlacementDigest { .. } => Ok(()),
            Message::RepairRequest { uris } => self.handle_repair_request(&env.from, &uris, net),
            Message::RepairDocs { docs } => {
                for put in &docs {
                    if self.receive_put(put, true, net)? {
                        net.note_repair();
                    }
                }
                Ok(())
            }
            Message::Resubscribe {
                lmr_rule,
                rule_text,
                last_seq,
            } => self.resubscribe_rule(&env.from, lmr_rule, &rule_text, last_seq, true, net),
            other => Err(Error::Topology(format!(
                "MDP '{}' received unexpected message kind '{}'",
                self.name,
                other.kind()
            ))),
        }
    }

    /// Whether state `(version, deleted, hash())` of `uri` is newer than
    /// this node's under the total order `(version, deleted, hash)` (an
    /// unknown URI is all-zero). The hashes are computed only when the
    /// versions tie.
    pub(crate) fn is_newer(
        &self,
        uri: &str,
        version: u64,
        deleted: bool,
        hash: impl FnOnce() -> u64,
    ) -> bool {
        let local = self.doc_meta.get(uri).copied().unwrap_or_default();
        if version != local.version {
            return version > local.version;
        }
        (deleted, hash()) > (local.deleted, self.content_hash(uri, local.deleted))
    }

    /// The content half of the order for this node's state of `uri`: 0 for
    /// a tombstone or an unknown URI.
    fn content_hash(&self, uri: &str, deleted: bool) -> u64 {
        match self.engine.document(uri) {
            Some(d) if !deleted => fnv1a64(write_document(d).as_bytes()),
            _ => 0,
        }
    }

    /// Applies a put decided elsewhere — a replicated arrival, an
    /// anti-entropy repair, or a committed Raft entry, whose version is its
    /// log index — if it is newer than the local state; stale and
    /// duplicate puts are skipped, which makes replicated applies (and
    /// repairs racing them) idempotent and commutative (DESIGN.md §3b).
    /// `talks` is whether this node talks to LMRs: a Raft follower only
    /// numbers what the leader ships. Returns whether the put applied.
    pub(crate) fn receive_put(&mut self, put: &Put, talks: bool, net: &Network) -> Result<bool> {
        if !self.is_newer(&put.uri, put.version, put.xml.is_none(), || put.hash()) {
            return Ok(false);
        }
        let doc = put.document()?;
        self.put(&put.uri, put.version, doc.as_ref(), talks, net)?;
        Ok(true)
    }

    /// The one document transition every write path ends in: puts state
    /// `version` of `uri` (`doc` of `None` is a tombstone) into the engine
    /// — a register when the URI is unknown, an update when it is known, a
    /// delete of a known one; deleting the absent only writes the
    /// tombstone — records it, and publishes the change.
    fn put(
        &mut self,
        uri: &str,
        version: u64,
        doc: Option<&Document>,
        talks: bool,
        net: &Network,
    ) -> Result<()> {
        // a put never mixes into a pending local batch
        self.flush(net)?;
        self.with_group(|this| {
            let pubs = this.apply_put(uri, version, doc)?;
            this.publish(pubs, talks, net)
        })
    }

    /// The engine half of [`Mdp::put`], which a state import runs alone:
    /// registers, updates or deletes `uri` by whether it is present,
    /// records the put, and returns the filter's publications.
    pub(crate) fn apply_put(
        &mut self,
        uri: &str,
        version: u64,
        doc: Option<&Document>,
    ) -> Result<Vec<Publication>> {
        let known = self.engine.document(uri).is_some();
        let pubs = match doc {
            Some(doc) if known => self.engine.update_document(doc)?,
            Some(doc) => self.engine.register_document(doc)?,
            None if known => self.engine.delete_document(uri)?,
            None => Vec::new(),
        };
        self.record_put(uri, version, doc)?;
        Ok(pubs)
    }

    /// The per-document half of every put, the batch flush's included:
    /// sets the replication metadata of `uri` (a tombstone is kept so the
    /// deletion wins over stale puts) and writes its one `doc` record.
    pub(crate) fn record_put(
        &mut self,
        uri: &str,
        version: u64,
        doc: Option<&Document>,
    ) -> Result<()> {
        let deleted = doc.is_none();
        self.doc_meta
            .insert(uri.to_owned(), DocMeta { version, deleted });
        self.state_put(|| rec::doc(uri, version, doc))
    }

    /// This node's anti-entropy digest: one `(version, deleted, hash)`
    /// entry per URI it has ever seen (tombstones included), sorted by URI.
    pub(crate) fn digest(&self) -> Vec<DigestEntry> {
        self.doc_meta
            .iter()
            .map(|(uri, meta)| DigestEntry {
                uri: uri.clone(),
                version: meta.version,
                deleted: meta.deleted,
                hash: self.content_hash(uri, meta.deleted),
            })
            .collect()
    }

    /// Diffs digest entries of a peer against local state and pulls every
    /// URI whose advertised key is newer (pull-only: the reverse digest
    /// covers the other direction).
    fn pull_newer<'e>(
        &self,
        peer: &str,
        entries: impl IntoIterator<Item = &'e DigestEntry>,
        net: &Network,
    ) -> Result<()> {
        let uris: Vec<String> = entries
            .into_iter()
            .filter(|e| self.is_newer(&e.uri, e.version, e.deleted, || e.hash))
            .map(|e| e.uri.clone())
            .collect();
        if uris.is_empty() {
            return Ok(());
        }
        net.send(&self.name, peer, Message::RepairRequest { uris })
    }

    /// Answers an anti-entropy pull with the *current* local state of the
    /// requested URIs (which may be newer than the digest that was sent).
    fn handle_repair_request(&mut self, peer: &str, uris: &[String], net: &Network) -> Result<()> {
        let docs: Vec<Put> = uris
            .iter()
            .filter_map(|uri| self.current_put(uri))
            .collect();
        if docs.is_empty() {
            return Ok(());
        }
        net.send(&self.name, peer, Message::RepairDocs { docs })
    }

    /// Drops every document this node no longer owns under the installed
    /// placement table: engine rows, state records, and replication metadata
    /// are all *erased* (not tombstoned — the shard's owners keep the
    /// authoritative copies, and an erased URI can be re-acquired wholesale
    /// if ownership ever returns). Publications from the drops are
    /// discarded: subscriber caches are maintained by the owners, not by
    /// nodes shedding their copy. Returns the number of URIs dropped.
    pub(crate) fn prune_unowned(&mut self) -> Result<usize> {
        let victims: Vec<String> = self
            .doc_meta
            .keys()
            .filter(|u| !self.placement.owns_doc(&self.name, u.as_str()))
            .cloned()
            .collect();
        if victims.is_empty() {
            return Ok(0);
        }
        self.with_group(|this| {
            for uri in &victims {
                if this.engine.document(uri).is_some() {
                    let _pubs = this.engine.delete_document(uri)?;
                }
                this.doc_meta.remove(uri);
                this.state_delete(|| rec::doc_key(uri))?;
            }
            Ok(victims.len())
        })
    }

    /// Registers a subscription whose LMR is homed at `home` on behalf of
    /// the orchestrator: at an MDP the placement table makes a publisher
    /// for that LMR (DESIGN.md §11), or at the home itself when it never
    /// heard of the rule (a restored LMR's). Idempotent; the initial fill
    /// covers the documents this node publishes to the LMR, on its
    /// alternate stream unless this node is the home.
    pub(crate) fn register_remote_subscription(
        &mut self,
        lmr: &str,
        lmr_rule: u64,
        rule_text: &str,
        home: &str,
        net: &Network,
    ) -> Result<()> {
        if self.subscribers.knows(lmr, lmr_rule) {
            return Ok(());
        }
        let home = (home != self.name).then_some(home);
        self.with_group(|this| {
            let (sub, initial) = this.engine.register_subscription(rule_text)?;
            this.subscribers.insert(sub, lmr, lmr_rule, home);
            this.state_put(|| rec::subscription(lmr, lmr_rule, rule_text, home))?;
            this.send_fill(sub, initial, false, true, net)
        })
    }

    /// Undoes [`Mdp::register_remote_subscription`] (the LMR unsubscribed,
    /// or the table no longer asks for the mirror) without retiring the
    /// rule, so a later table can mirror it here again; a no-op unless
    /// this node holds `lmr`'s rule as a mirror.
    pub(crate) fn remove_remote_subscription(&mut self, lmr: &str, lmr_rule: u64) -> Result<()> {
        match self.subscribers.find(lmr, lmr_rule) {
            Some(sub) if self.subscribers.home(sub).is_some() => self.with_group(|this| {
                this.subscribers.remove(sub);
                this.engine.unregister_subscription(sub)?;
                this.state_delete(|| rec::rule_key("subscription", lmr, lmr_rule))
            }),
            _ => Ok(()),
        }
    }

    /// Acks a Subscribe or Resubscribe of `lmr`'s rule, with its rejection
    /// if it has one, when this node `talks` to LMRs.
    fn ack_subscribe(
        &self,
        talks: bool,
        lmr: &str,
        lmr_rule: u64,
        error: Option<String>,
        net: &Network,
    ) -> Result<()> {
        if !talks {
            return Ok(());
        }
        net.send(&self.name, lmr, Message::SubscribeAck { lmr_rule, error })
    }

    // ---- the subscription transitions both backbones share --------------
    //
    // An LWW node runs them as it receives the LMR's message, a Raft voter
    // as it applies the committed entry. `talks` is whether this node talks
    // to LMRs — always under LWW, only on the Raft leader: a follower makes
    // the same state change and takes the sequence number of each envelope
    // the leader ships, so a new leader continues every stream.

    /// Registers `lmr`'s rule and ships its initial cache fill (the
    /// documents this node owns; the primaries of the others ship theirs).
    /// A duplicate of a known or retired rule is re-acked without touching
    /// the engine, which keeps the LMR's retransmissions idempotent; a
    /// rejected rule changes no state and is acked with its error.
    pub(crate) fn subscribe_rule(
        &mut self,
        lmr: &str,
        lmr_rule: u64,
        rule_text: &str,
        talks: bool,
        net: &Network,
    ) -> Result<()> {
        if self.subscribers.knows(lmr, lmr_rule) {
            return self.ack_subscribe(talks, lmr, lmr_rule, None, net);
        }
        match self.engine.register_subscription(rule_text) {
            Ok((sub, initial)) => {
                self.subscribers.insert(sub, lmr, lmr_rule, None);
                self.state_put(|| rec::subscription(lmr, lmr_rule, rule_text, None))?;
                self.ack_subscribe(talks, lmr, lmr_rule, None, net)?;
                self.send_fill(sub, initial, false, talks, net)
            }
            Err(e) => self.ack_subscribe(talks, lmr, lmr_rule, Some(e.to_string()), net),
        }
    }

    /// Retracts `lmr`'s rule and tombstones it. A retransmitted or
    /// duplicated Unsubscribe finds the rule retired already and is
    /// re-acked. An unknown rule is tombstoned and acked too: a failover
    /// cleanup unsubscribe can reach an MDP that never saw the subscription
    /// (e.g. after a crash); rule ids are never reused, so retiring is
    /// always safe.
    pub(crate) fn unsubscribe_rule(
        &mut self,
        lmr: &str,
        lmr_rule: u64,
        talks: bool,
        net: &Network,
    ) -> Result<()> {
        self.retract_rule(lmr, lmr_rule)?;
        if !talks {
            return Ok(());
        }
        net.send(&self.name, lmr, Message::UnsubscribeAck { lmr_rule })
    }

    /// Re-registers a rule for a failed-over (or failed-back) LMR and
    /// ships a reconciling snapshot unless the subscriber is provably
    /// caught up (`last_seq` equals the current stream position of an
    /// already-registered rule).
    pub(crate) fn resubscribe_rule(
        &mut self,
        lmr: &str,
        lmr_rule: u64,
        rule_text: &str,
        last_seq: u64,
        talks: bool,
        net: &Network,
    ) -> Result<()> {
        if self.caught_up(lmr, lmr_rule, last_seq) {
            return self.ack_subscribe(talks, lmr, lmr_rule, None, net);
        }
        let existing = self.subscribers.find(lmr, lmr_rule);
        // a mirrored rule whose LMR re-homes here becomes its own
        let mirrored = existing.is_some_and(|sub| self.subscribers.home(sub).is_some());
        // re-registering returns the full current match set, which the
        // snapshot needs anyway; a rule retired by a cleanup unsubscribe
        // comes back to life when its LMR fails back home
        if let Some(sub) = existing {
            self.subscribers.remove(sub);
            self.engine.unregister_subscription(sub)?;
        }
        if self.subscribers.unretire(lmr, lmr_rule) {
            self.state_delete(|| rec::rule_key("retired", lmr, lmr_rule))?;
        }
        match self.engine.register_subscription(rule_text) {
            Err(e) => self.ack_subscribe(talks, lmr, lmr_rule, Some(e.to_string()), net),
            Ok((sub, initial)) => {
                self.subscribers.insert(sub, lmr, lmr_rule, None);
                if existing.is_none() || mirrored {
                    self.state_put(|| rec::subscription(lmr, lmr_rule, rule_text, None))?;
                }
                self.ack_subscribe(talks, lmr, lmr_rule, None, net)?;
                self.send_fill(sub, initial, true, talks, net)
            }
        }
    }

    /// Whether `lmr`'s rule is subscribed here with this node as its home
    /// and `last_seq` is the current position of its stream: a Resubscribe
    /// with nothing to resync.
    fn caught_up(&self, lmr: &str, lmr_rule: u64, last_seq: u64) -> bool {
        self.subscribers
            .find(lmr, lmr_rule)
            .is_some_and(|sub| self.subscribers.home(sub).is_none())
            && last_seq == self.next_pub_seq.get(lmr)
    }

    /// Unregisters `lmr`'s rule if it is live and tombstones it.
    fn retract_rule(&mut self, lmr: &str, lmr_rule: u64) -> Result<()> {
        if let Some(sub) = self.subscribers.find(lmr, lmr_rule) {
            self.subscribers.remove(sub);
            self.engine.unregister_subscription(sub)?;
        }
        if self.subscribers.retire(lmr, lmr_rule) {
            self.state_delete(|| rec::rule_key("subscription", lmr, lmr_rule))?;
            self.state_put(|| rec::retired(lmr, lmr_rule))?;
        }
        Ok(())
    }

    /// Ships the filter output of one document operation: what the
    /// placement table's publication rule gives this node to ship, as one
    /// envelope per subscribed LMR (per stream: a mirrored rule rides the
    /// alternate one), one delta per publication in subscription order
    /// (BTreeMap by LMR name, so the send order is deterministic). With
    /// `ship` off — a Raft follower — nothing is built: the node only takes
    /// the sequence number of each envelope the leader ships, so numbering
    /// survives a leader change at no build cost.
    pub(crate) fn publish(
        &mut self,
        pubs: Vec<Publication>,
        ship: bool,
        net: &Network,
    ) -> Result<()> {
        let mut by_lmr: BTreeMap<(&str, bool), Vec<RuleDelta>> = BTreeMap::new();
        for mut p in pubs {
            // a subscription without a live subscriber (e.g. engine-level
            // tests) has nowhere to go
            let Some((lmr, lmr_rule)) = self.subscribers.get(p.subscription) else {
                continue;
            };
            let home = self.subscribers.home(p.subscription);
            for uris in [&mut p.added, &mut p.updated, &mut p.removed] {
                let to = home.unwrap_or(&self.name);
                self.placement.publishes(&self.name, to, uris);
            }
            // companions come from `added`/`updated`, so a delta is empty
            // iff all three lists are
            if p.added.is_empty() && p.updated.is_empty() && p.removed.is_empty() {
                continue;
            }
            by_lmr
                .entry((lmr, home.is_some()))
                .or_default()
                .push(RuleDelta {
                    lmr_rule,
                    matched: p.added,
                    updated: p.updated,
                    removed: p.removed,
                    ..RuleDelta::default()
                });
        }
        let by_lmr: Vec<(String, bool, Vec<RuleDelta>)> = by_lmr
            .into_iter()
            .map(|((lmr, alt), rules)| (lmr.to_owned(), alt, rules))
            .collect();
        let mut memo = PublishMemo::default();
        for (lmr, alt, rules) in by_lmr {
            if ship {
                let msg = self.build_envelope(&mut memo, rules, alt)?;
                self.send_publication(&lmr, msg, net)?;
            } else {
                self.take_pub_seq(&lmr)?;
            }
        }
        Ok(())
    }

    /// Ships the one-delta envelope of subscription `sub`'s initial cache
    /// fill — the matches `initial` the publication rule gives this node,
    /// none sent when there are none — or with `snapshot` the reconciling
    /// snapshot a resubscription answers with, sent even when empty (the
    /// subscriber drops the stale anchors it does not list). With `ship`
    /// off only the sequence number is taken, as in [`Mdp::publish`].
    fn send_fill(
        &mut self,
        sub: SubscriptionId,
        mut initial: Vec<String>,
        snapshot: bool,
        ship: bool,
        net: &Network,
    ) -> Result<()> {
        let Some((lmr, lmr_rule)) = self.subscribers.get(sub) else {
            return Ok(());
        };
        let home = self.subscribers.home(sub);
        let alt = home.is_some();
        let to = home.unwrap_or(&self.name);
        self.placement.publishes(&self.name, to, &mut initial);
        if initial.is_empty() && !snapshot {
            return Ok(());
        }
        let lmr = lmr.to_owned();
        if !ship {
            return self.take_pub_seq(&lmr).map(|_| ());
        }
        let delta = RuleDelta {
            lmr_rule,
            matched: initial,
            snapshot,
            ..RuleDelta::default()
        };
        let msg = self.build_envelope(&mut PublishMemo::default(), vec![delta], alt)?;
        self.send_publication(&lmr, msg, net)
    }

    /// Takes the next sequence number of `lmr`'s publication stream.
    fn take_pub_seq(&mut self, lmr: &str) -> Result<u64> {
        let seq = self.next_pub_seq.take(lmr);
        self.state_put(|| rec::counter("pubseq", lmr, seq + 1))?;
        Ok(seq)
    }

    /// Numbers the envelope, remembers it in the outbox until it is acked,
    /// and ships it.
    pub(crate) fn send_publication(
        &mut self,
        lmr: &str,
        mut msg: PublishMsg,
        net: &Network,
    ) -> Result<()> {
        msg.seq = self.take_pub_seq(lmr)?;
        self.state_put(|| rec::outbox(lmr, &msg))?;
        let initial = net.config().retry_initial_ms;
        let key = (lmr.to_owned(), msg.seq);
        self.outbox.push(key, msg.clone(), net.now_ms(), initial);
        net.send(&self.name, lmr, Message::Publish(msg))
    }

    /// Publications sent but not yet acked by their LMR.
    pub fn unacked_publications(&self) -> usize {
        self.outbox.len()
    }

    /// Replicated puts sent but not yet acked by their peer.
    pub fn unacked_replications(&self) -> usize {
        self.repl_out.len()
    }

    /// Earliest scheduled retransmission over both outboxes. Entries whose
    /// destination is marked down are held back (excluded), so quiescence is
    /// reachable while a node is failed; they become due again on heal.
    pub fn next_retry_at(&self, net: &Network) -> Option<u64> {
        let pubs = self.outbox.next_retry_at(|(lmr, _), _| net.is_down(lmr));
        let repls = self
            .repl_out
            .next_retry_at(|(peer, _), _| net.is_down(peer));
        pubs.into_iter().chain(repls).min()
    }

    /// Retransmits every outbox entry whose retry timer is due; returns
    /// whether anything was resent. Backoff doubles per attempt up to the
    /// configured cap. Entries targeting a down node are skipped.
    pub fn retransmit_due(&mut self, net: &Network) -> Result<bool> {
        let (now, max) = (net.now_ms(), net.config().retry_max_ms);
        let name = &self.name;
        let pubs = self.outbox.retransmit_due(
            now,
            max,
            |(lmr, _), _| net.is_down(lmr),
            |(lmr, _), msg, _| net.send_retry(name, lmr, Message::Publish(msg.clone())),
        )?;
        let repls = self.repl_out.retransmit_due(
            now,
            max,
            |(peer, _), _| net.is_down(peer),
            |(peer, seq), put, _| {
                let (seq, put) = (*seq, put.clone());
                net.send_retry(name, peer, Message::Replicate { seq, put })
            },
        )?;
        Ok(pubs || repls)
    }

    /// Builds the envelope of `rules` (the sequence number is assigned on
    /// send): each delta's companions are the strong closure of what it
    /// matches and updates, and every resource a delta ships travels once.
    pub(crate) fn build_envelope(
        &self,
        memo: &mut PublishMemo,
        mut rules: Vec<RuleDelta>,
        alt: bool,
    ) -> Result<PublishMsg> {
        for d in &mut rules {
            d.companions = memo.companions(&self.engine, [&d.matched[..], &d.updated].concat())?;
        }
        let mut seen = HashSet::new();
        let mut resources = Vec::new();
        for uri in rules.iter().flat_map(RuleDelta::shipped) {
            if seen.insert(uri) {
                resources.push(memo.resolve(&self.engine, uri)?);
            }
        }
        Ok(PublishMsg {
            seq: 0,
            alt,
            resources,
            rules,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{NetConfig, Network};
    use mdv_rdf::{Term, UriRef};
    use std::collections::BTreeSet;

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

    fn doc(i: usize, host: &str, memory: i64) -> Document {
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

    fn subscribe_env(rule: &str) -> Envelope {
        Envelope {
            from: "lmr1".into(),
            to: "mdp1".into(),
            message: Message::Subscribe {
                lmr_rule: 0,
                rule_text: rule.into(),
            },
            deliver_at_ms: 0,
        }
    }

    #[test]
    fn subscribe_publish_flow() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.handle(
            subscribe_env(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            ),
            &net,
        )
        .unwrap();
        mdp.register_document(&doc(1, "a.org", 128), &net, false)
            .unwrap();
        let kinds = net.traffic_by_kind();
        assert_eq!(kinds["subscribe-ack"], 1);
        assert_eq!(kinds["publish"], 1);
        // the publish carries the matched host plus its companion info
        let log = net.log();
        let publish = log.iter().find(|r| r.kind == "publish").unwrap();
        assert_eq!(publish.to, "lmr1");
    }

    #[test]
    fn one_document_operation_sends_one_envelope_per_lmr() {
        use crate::lmr::Lmr;
        use mdv_runtime::channel::Receiver;
        let net = Network::new(NetConfig::default());
        let mdp_rx = net.register("mdp1").unwrap();
        let mut mdp = Mdp::new("mdp1", schema());
        let mut lmrs: Vec<_> = ["l1", "l2"]
            .map(|name| {
                (
                    net.register(name).unwrap(),
                    Lmr::new(name, "mdp1", schema()),
                )
            })
            .into();
        // delivers everything queued; returns the envelopes the LMRs got
        let pump = |mdp: &mut Mdp, lmrs: &mut [(Receiver<Envelope>, Lmr)]| {
            let mut shipped = Vec::new();
            loop {
                let mut idle = true;
                for env in mdp_rx.try_iter() {
                    idle = false;
                    mdp.handle(env, &net).unwrap();
                }
                for (rx, lmr) in lmrs.iter_mut() {
                    for env in rx.try_iter() {
                        idle = false;
                        if let Message::Publish(msg) = &env.message {
                            shipped.push((env.to.clone(), msg.clone()));
                        }
                        lmr.handle(env, &net).unwrap();
                    }
                }
                if idle {
                    return shipped;
                }
            }
        };
        let k = 5;
        for (_, lmr) in lmrs.iter_mut() {
            for rule in 0..k {
                let text = format!(
                    "search CycleProvider c register c where c.serverInformation.memory > {}",
                    60 + rule
                );
                lmr.subscribe(&text, &net).unwrap();
            }
        }
        assert!(pump(&mut mdp, &mut lmrs).is_empty(), "nothing matches yet");

        // every rule of both LMRs matches the document
        let before = net.traffic_by_kind();
        mdp.register_document(&doc(1, "a.org", 128), &net, false)
            .unwrap();
        let shipped = pump(&mut mdp, &mut lmrs);
        let after = net.traffic_by_kind();
        for kind in ["publish", "publish-ack"] {
            let sent = after[kind] - before.get(kind).copied().unwrap_or(0);
            assert_eq!(sent, 2, "{kind}: one per LMR, not one per rule");
        }
        assert_eq!(mdp.unacked_publications(), 0);
        let (host, info) = ("doc1.rdf#host".to_owned(), "doc1.rdf#info".to_owned());
        for ((to, msg), lmr) in shipped.iter().zip(["l1", "l2"]) {
            assert_eq!(to, lmr);
            let carried: Vec<&str> = msg.resources.iter().map(|r| r.uri().as_str()).collect();
            assert_eq!(
                carried,
                [host.as_str(), info.as_str()],
                "each resource once"
            );
            let rules: Vec<u64> = msg.rules.iter().map(|d| d.lmr_rule).collect();
            assert_eq!(
                rules,
                (0..k).collect::<Vec<_>>(),
                "one delta per rule, in order"
            );
            for d in &msg.rules {
                assert_eq!(
                    (&d.matched, &d.companions),
                    (&vec![host.clone()], &vec![info.clone()])
                );
            }
        }
        for (_, lmr) in &lmrs {
            assert_eq!(lmr.cached_uris(), [host.clone(), info.clone()]);
            assert_eq!(
                lmr.tracker().matching_rules(&host),
                (0..k).collect::<Vec<_>>()
            );
            assert_eq!(lmr.tracker().strong_count(&info), 1);
        }
    }

    #[test]
    fn bad_rule_gets_error_ack() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.handle(subscribe_env("search Nope n register n"), &net)
            .unwrap();
        assert_eq!(net.traffic_by_kind()["subscribe-ack"], 1);
    }

    #[test]
    fn replication_to_peers() {
        let net = Network::new(NetConfig::default());
        let _rx2 = net.register("mdp2").unwrap();
        let _rx3 = net.register("mdp3").unwrap();
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.set_placement(backbone(&["mdp1", "mdp2", "mdp3"]))
            .unwrap();
        mdp.register_document(&doc(1, "a.org", 1), &net, true)
            .unwrap();
        assert_eq!(net.traffic_by_kind()["replicate"], 2);
        mdp.update_document(&doc(1, "a.org", 2), &net, true)
            .unwrap();
        assert_eq!(net.traffic_by_kind()["replicate"], 4);
        mdp.delete_document("doc1.rdf", &net, true).unwrap();
        assert_eq!(net.traffic_by_kind()["replicate"], 6);
        let meta = mdp.doc_meta["doc1.rdf"];
        assert_eq!((meta.version, meta.deleted), (3, true), "the tombstone");
    }

    #[test]
    fn replicated_registration_does_not_re_replicate() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        let mut mdp2 = Mdp::new("mdp2", schema());
        mdp2.set_placement(backbone(&["mdp1", "mdp2"])).unwrap();
        let xml = write_document(&doc(1, "a.org", 1));
        mdp2.handle(replicated(0, 1, Some(&xml)), &net).unwrap();
        // no put went back out, only the ack
        assert!(!net.traffic_by_kind().contains_key("replicate"));
        assert_eq!(net.traffic_by_kind()["replicate-ack"], 1);
        assert!(mdp2.engine().document("doc1.rdf").is_some());
    }

    /// The R = all table over `mdps`, as the orchestrator installs it.
    fn backbone(mdps: &[&str]) -> PlacementTable {
        PlacementTable::compute(mdps, DEFAULT_PLACEMENT_SHARDS, PlacementConfig::ALL, 1)
    }

    /// mdp1's put of version `version` of `doc1.rdf` to mdp2, number `seq`
    /// of its stream; `xml` of `None` is the tombstone.
    fn replicated(seq: u64, version: u64, xml: Option<&str>) -> Envelope {
        let (uri, xml) = ("doc1.rdf".into(), xml.map(str::to_owned));
        let put = Put { uri, version, xml };
        Envelope {
            from: "mdp1".into(),
            to: "mdp2".into(),
            message: Message::Replicate { seq, put },
            deliver_at_ms: 0,
        }
    }

    #[test]
    fn duplicated_delete_then_recreate_is_idempotent() {
        // the delete/recreate race across the backbone: a replicated delete
        // delivered twice, interleaved with the re-registration of the same
        // URI, must leave exactly the recreated document behind
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        let mut mdp2 = Mdp::new("mdp2", schema());
        let v1 = write_document(&doc(1, "a.org", 1));
        let v3 = write_document(&doc(1, "b.org", 9));
        mdp2.handle(replicated(0, 1, Some(&v1)), &net).unwrap();
        mdp2.handle(replicated(1, 2, None), &net).unwrap();
        // duplicate of the delete: acked, and the version gate skips it
        mdp2.handle(replicated(1, 2, None), &net).unwrap();
        // recreation of the same URI wins over the tombstone
        mdp2.handle(replicated(2, 3, Some(&v3)), &net).unwrap();
        // late duplicate of the delete again, after the recreation
        mdp2.handle(replicated(1, 2, None), &net).unwrap();
        let doc = mdp2.engine().document("doc1.rdf").expect("doc recreated");
        assert_eq!(write_document(doc), v3);
        assert_eq!(mdp2.doc_meta["doc1.rdf"].version, 3);
        assert_eq!(net.traffic_by_kind()["replicate-ack"], 5);
        assert_eq!(mdp2.unacked_replications(), 0);
    }

    #[test]
    fn a_delete_overtaking_its_register_leaves_the_tombstone() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        let lmr_mail = net.register("lmr1").unwrap();
        let mut mdp2 = Mdp::new("mdp2", schema());
        let rule = "search CycleProvider c register c";
        mdp2.subscribe_rule("lmr1", 1, rule, true, &net).unwrap();
        let publications = || {
            let mail = std::iter::from_fn(|| lmr_mail.try_recv().ok());
            mail.filter(|env| matches!(env.message, Message::Publish(_)))
                .count()
        };
        assert_eq!(publications(), 0);
        let xml = write_document(&doc(1, "a.org", 1));
        let register = |seq, version| replicated(seq, version, Some(&xml));
        // seq 1 (the delete, v2) arrives before seq 0 (its register, v1),
        // and each arrives twice
        let delete = replicated(1, 2, None);
        for env in [delete.clone(), delete, register(0, 1), register(0, 1)] {
            mdp2.handle(env, &net).unwrap();
        }
        assert!(mdp2.engine().document("doc1.rdf").is_none());
        let meta = mdp2.doc_meta["doc1.rdf"];
        assert_eq!((meta.version, meta.deleted), (2, true), "the tombstone");
        assert_eq!(net.traffic_by_kind()["replicate-ack"], 4);
        // the stale register published nothing; a newer one does
        assert_eq!(publications(), 0);
        mdp2.handle(register(2, 3), &net).unwrap();
        assert_eq!(publications(), 1);
    }

    #[test]
    fn browse_apis() {
        let net = Network::new(NetConfig::default());
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.register_document(&doc(1, "a.org", 1), &net, false)
            .unwrap();
        assert_eq!(
            mdp.browse_classes(),
            vec!["CycleProvider", "ServerInformation"]
        );
        let cps = mdp.browse_resources("CycleProvider").unwrap();
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].uri().as_str(), "doc1.rdf#host");
        assert_eq!(
            mdp.class_of_resource("doc1.rdf#info").unwrap().as_deref(),
            Some("ServerInformation")
        );
    }

    #[test]
    fn unsubscribe_unknown_is_acked_and_retired() {
        // failover cleanup unsubscribes can reach an MDP that never saw the
        // subscription; the retraction must be idempotent, and the
        // tombstone must keep a later duplicate Subscribe from resurrecting
        let net = Network::new(NetConfig::default());
        let _rx = net.register("lmr1").unwrap();
        let mut mdp = Mdp::new("mdp1", schema());
        mdp.handle(
            Envelope {
                from: "lmr1".into(),
                to: "mdp1".into(),
                message: Message::Unsubscribe { lmr_rule: 9 },
                deliver_at_ms: 0,
            },
            &net,
        )
        .unwrap();
        assert_eq!(net.traffic_by_kind()["unsubscribe-ack"], 1);
        mdp.handle(
            Envelope {
                from: "lmr1".into(),
                to: "mdp1".into(),
                message: Message::Subscribe {
                    lmr_rule: 9,
                    rule_text: "search CycleProvider c register c".into(),
                },
                deliver_at_ms: 0,
            },
            &net,
        )
        .unwrap();
        // re-acked without registering (rule 9 stays retired)
        assert_eq!(net.traffic_by_kind()["subscribe-ack"], 1);
        assert!(mdp.subscribers_sorted().is_empty());
    }

    // ---- the subscriber table against the parent's linear scans ---------

    const LMRS: [&str; 3] = ["l1", "l2", "l3"];
    const RULES: u64 = 4;

    /// Even rules match the one pre-loaded document (registering one ships
    /// an initial fill); odd rules match nothing.
    fn matches_doc(rule: u64) -> bool {
        rule.is_multiple_of(2)
    }

    /// The text LMR rule `rule` subscribes.
    fn rule_text(rule: u64) -> String {
        let bound = if matches_doc(rule) { 64 } else { 4096 };
        format!("search CycleProvider c register c where c.serverInformation.memory > {bound}")
    }

    /// The home MDP the orchestrator names for a mirrored rule.
    const HOME: &str = "mdp0";

    /// What the MDP did before it had a subscriber table: one `Vec`
    /// searched linearly (each rule with the home of a mirrored one), a
    /// tombstone list beside it, and the engine's sequential subscription
    /// ids and per-LMR publication counters predicted. Each operation
    /// returns the messages it implies.
    #[derive(Default)]
    struct Reference {
        subscribers: Vec<(SubscriptionId, Subscriber)>,
        retired: Vec<(String, u64)>,
        next_sub: u64,
        pub_seq: HashMap<String, u64>,
    }

    impl Reference {
        fn find(&self, lmr: &str, rule: u64) -> Option<SubscriptionId> {
            self.subscribers
                .iter()
                .find(|(_, (l, r, _))| l == lmr && *r == rule)
                .map(|(sub, _)| *sub)
        }

        fn get(&self, sub: SubscriptionId) -> Option<(&str, u64)> {
            self.subscribers
                .iter()
                .find(|(s, _)| *s == sub)
                .map(|(_, (l, r, _))| (l.as_str(), *r))
        }

        fn is_mirrored(&self, lmr: &str, rule: u64) -> bool {
            self.subscribers
                .iter()
                .any(|(_, (l, r, home))| l == lmr && *r == rule && home.is_some())
        }

        fn is_retired(&self, lmr: &str, rule: u64) -> bool {
            self.retired.iter().any(|(l, r)| l == lmr && *r == rule)
        }

        fn register(&mut self, lmr: &str, rule: u64, home: Option<&str>) {
            let sub = SubscriptionId(self.next_sub);
            self.next_sub += 1;
            let home = home.map(str::to_owned);
            self.subscribers.push((sub, (lmr.to_owned(), rule, home)));
        }

        fn unregister(&mut self, lmr: &str, rule: u64) {
            self.subscribers
                .retain(|(_, (l, r, _))| !(l == lmr && *r == rule));
        }

        fn retire(&mut self, lmr: &str, rule: u64) {
            if !self.is_retired(lmr, rule) {
                self.retired.push((lmr.to_owned(), rule));
            }
        }

        fn publish(&mut self, lmr: &str, rule: u64, snapshot: bool, alt: bool) -> String {
            let seq = self.pub_seq.entry(lmr.to_owned()).or_insert(0);
            *seq += 1;
            let matched = usize::from(matches_doc(rule));
            format!(
                "publish {rule} seq={} matched={matched} snapshot={snapshot} alt={alt}",
                *seq - 1
            )
        }

        fn subscribe(&mut self, lmr: &str, rule: u64) -> Vec<String> {
            let mut out = vec![format!("subscribe-ack {rule}")];
            if !(self.is_retired(lmr, rule) || self.find(lmr, rule).is_some()) {
                self.register(lmr, rule, None);
                if matches_doc(rule) {
                    out.push(self.publish(lmr, rule, false, false));
                }
            }
            out
        }

        fn unsubscribe(&mut self, lmr: &str, rule: u64) -> Vec<String> {
            self.unregister(lmr, rule);
            self.retire(lmr, rule);
            vec![format!("unsubscribe-ack {rule}")]
        }

        fn resubscribe(&mut self, lmr: &str, rule: u64, last_seq: u64) -> Vec<String> {
            let ack = format!("subscribe-ack {rule}");
            let cur = self.pub_seq.get(lmr).copied().unwrap_or(0);
            let home = self.find(lmr, rule).is_some() && !self.is_mirrored(lmr, rule);
            if home && last_seq == cur {
                return vec![ack];
            }
            self.unregister(lmr, rule);
            self.retired.retain(|(l, r)| !(l == lmr && *r == rule));
            self.register(lmr, rule, None);
            vec![ack, self.publish(lmr, rule, true, false)]
        }

        fn register_remote(&mut self, lmr: &str, rule: u64) -> Vec<String> {
            if self.is_retired(lmr, rule) || self.find(lmr, rule).is_some() {
                return Vec::new();
            }
            self.register(lmr, rule, Some(HOME));
            if matches_doc(rule) {
                vec![self.publish(lmr, rule, false, true)]
            } else {
                Vec::new()
            }
        }

        /// A dropped mirror is not retired: a later table may mirror it
        /// again.
        fn remove_remote(&mut self, lmr: &str, rule: u64) -> Vec<String> {
            if self.is_mirrored(lmr, rule) {
                self.unregister(lmr, rule);
            }
            Vec::new()
        }
    }

    /// The messages the LMRs received since the last call, in the
    /// reference's notation.
    fn received(rxs: &[mdv_runtime::channel::Receiver<Envelope>]) -> Vec<String> {
        rxs.iter()
            .flat_map(|rx| rx.try_iter())
            .map(|env| {
                let what = match env.message {
                    Message::SubscribeAck { lmr_rule, error } => {
                        assert!(error.is_none(), "{error:?}");
                        format!("subscribe-ack {lmr_rule}")
                    }
                    Message::UnsubscribeAck { lmr_rule } => format!("unsubscribe-ack {lmr_rule}"),
                    Message::Publish(msg) => {
                        let [d] = &msg.rules[..] else {
                            panic!("a fill is a one-delta envelope: {msg:?}")
                        };
                        format!(
                            "publish {} seq={} matched={} snapshot={} alt={}",
                            d.lmr_rule,
                            msg.seq,
                            d.matched.len(),
                            d.snapshot,
                            msg.alt
                        )
                    }
                    other => format!("unexpected {}", other.kind()),
                };
                format!("{}: {what}", env.to)
            })
            .collect()
    }

    /// Both directions of the table, the tombstones and the engine's
    /// subscriptions all equal the reference.
    fn table_matches(mdp: &Mdp, reference: &Reference) -> mdv_testkit::TestResult {
        let mut want = reference.subscribers.clone();
        want.sort_by_key(|(sub, _)| *sub);
        mdv_testkit::prop_assert_eq!(mdp.subscribers_sorted(), want);
        for id in 0..=reference.next_sub {
            let sub = SubscriptionId(id);
            mdv_testkit::prop_assert_eq!(
                mdp.subscribers.get(sub),
                reference.get(sub),
                "forward look-up of {sub}"
            );
        }
        for lmr in LMRS.iter().chain(&["l9"]) {
            for rule in 0..=RULES {
                let find = reference.find(lmr, rule);
                let retired = reference.is_retired(lmr, rule);
                mdv_testkit::prop_assert_eq!(
                    mdp.subscribers.find(lmr, rule),
                    find,
                    "reverse look-up of ({lmr}, {rule})"
                );
                mdv_testkit::prop_assert_eq!(mdp.subscribers.is_retired(lmr, rule), retired);
                mdv_testkit::prop_assert_eq!(
                    mdp.subscribers.knows(lmr, rule),
                    find.is_some() || retired
                );
            }
        }
        let mut retired = reference.retired.clone();
        retired.sort();
        mdv_testkit::prop_assert_eq!(mdp.subscribers.retired_sorted(), retired);
        let engine: BTreeSet<SubscriptionId> = mdp.engine().subscriptions().map(|s| s.id).collect();
        let registered: BTreeSet<SubscriptionId> =
            reference.subscribers.iter().map(|(sub, _)| *sub).collect();
        mdv_testkit::prop_assert_eq!(engine, registered);
        Ok(())
    }

    mdv_testkit::property! {
        /// One LWW MDP under random Subscribe (new, duplicate, retired),
        /// Unsubscribe (known, duplicate, unknown), Resubscribe (caught up,
        /// behind, of a mirrored rule) and mirrored register / remove (of a
        /// mirrored rule, of the LMR's own): after every step both
        /// directions of the subscriber table equal the linear-scan
        /// reference, and the messages sent equal what it implies.
        fn subscriber_table_equals_the_linear_scan_reference(src) {
            let net = Network::new(NetConfig::default());
            let rxs: Vec<_> = LMRS.iter().map(|l| net.register(l).unwrap()).collect();
            let mut mdp = Mdp::new("mdp1", schema());
            mdp.register_document(&doc(1, "a.org", 128), &net, false).unwrap();
            let mut reference = Reference::default();
            for step in 0..src.usize_in(1..60) {
                let at = src.usize_in(0..LMRS.len());
                let (lmr, rule) = (LMRS[at], src.u64_in(0..RULES));
                let deliver = |message| Envelope {
                    from: lmr.into(),
                    to: "mdp1".into(),
                    message,
                    deliver_at_ms: 0,
                };
                let (what, want) = match src.weighted(&[4, 3, 2, 2, 1]) {
                    0 => {
                        let message = Message::Subscribe { lmr_rule: rule, rule_text: rule_text(rule) };
                        mdp.handle(deliver(message), &net).unwrap();
                        ("subscribe", reference.subscribe(lmr, rule))
                    }
                    1 => {
                        mdp.handle(deliver(Message::Unsubscribe { lmr_rule: rule }), &net).unwrap();
                        ("unsubscribe", reference.unsubscribe(lmr, rule))
                    }
                    2 => {
                        let cur = reference.pub_seq.get(lmr).copied().unwrap_or(0);
                        let last_seq = if src.bool() { cur } else { cur + 1 };
                        let message = Message::Resubscribe {
                            lmr_rule: rule,
                            rule_text: rule_text(rule),
                            last_seq,
                        };
                        mdp.handle(deliver(message), &net).unwrap();
                        ("resubscribe", reference.resubscribe(lmr, rule, last_seq))
                    }
                    3 => {
                        mdp.register_remote_subscription(lmr, rule, &rule_text(rule), HOME, &net).unwrap();
                        ("register_remote", reference.register_remote(lmr, rule))
                    }
                    _ => {
                        mdp.remove_remote_subscription(lmr, rule).unwrap();
                        ("remove_remote", reference.remove_remote(lmr, rule))
                    }
                };
                // every message goes to the LMR the step speaks for
                let want: Vec<String> = want.into_iter().map(|m| format!("{lmr}: {m}")).collect();
                mdv_testkit::prop_assert_eq!(
                    received(&rxs),
                    want,
                    "step {step}: {what} ({lmr}, {rule}) sent"
                );
                table_matches(&mdp, &reference)
                    .map_err(|e| format!("step {step}: {what} ({lmr}, {rule}): {e}"))?;
            }
        }
    }
}
