//! Local Metadata Repositories (paper §2.2): the mid-tier caches that do the
//! actual metadata query processing.
//!
//! An LMR caches global metadata matching its subscription rules, applies
//! publications from its MDP to keep the cache consistent, stores local
//! metadata that is never forwarded to the backbone, and answers queries
//! from local clients against the cache only.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use mdv_filter::{query_eval, store::create_base_tables, BaseStore};
use mdv_rdf::{Document, RdfSchema, RefKind, Resource};
use mdv_relstore::{Database, StorageEngine};
use mdv_rulelang::{normalize, parse_rule, split_or, typecheck};

use crate::channel::{Inbox, Outbox};
use crate::error::{store_err, Error, Result};
use crate::gc::RefTracker;
use crate::message::{Message, PublishMsg, RuleDelta};
use crate::state::{self, lmr_records as rec, Record};
use crate::transport::{Envelope, Network};

/// The state table of a durable LMR (created only on mirror-enabled
/// backends, see DESIGN.md §6.4): one row per record of the LMR grammar of
/// `crate::state`, next to the cache's base tables, sharing their WAL.
pub(crate) const T_STATE: &str = "LmrState";

/// Lifecycle of a subscription rule at the LMR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleStatus {
    /// Sent to the MDP, no ack yet.
    Pending,
    /// Accepted by the MDP; publications flow.
    Active,
    /// Rejected by the MDP (error message attached).
    Failed(String),
}

/// A subscription rule registered by this LMR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmrRule {
    pub text: String,
    pub status: RuleStatus,
}

/// The key of an unacked control message in the LMR's outbox. The derived
/// order — every Subscribe (or Resubscribe), then every Unsubscribe, then
/// the FailoverHello — is the order of retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Control {
    Sub(u64),
    Unsub(u64),
    Hello,
}

/// A Local Metadata Repository, generic over its cache's storage backend
/// (in-memory [`Database`] by default; a durable WAL+snapshot engine via
/// [`Lmr::with_storage`]).
#[derive(Debug)]
pub struct Lmr<S: StorageEngine = Database> {
    name: String,
    /// The MDP this LMR is subscribed to (its current home; may change on
    /// failover).
    pub(crate) mdp: String,
    /// Backup MDP to fail over to when the home goes silent.
    pub(crate) backup: Option<String>,
    /// Failover in progress: the FailoverHello is out, the dedup floor is
    /// not yet synced with the new home, so publications are discarded.
    pub(crate) awaiting_welcome: bool,
    schema: RdfSchema,
    pub(crate) cache: S,
    /// Mirror node state into the state table (durable backends only).
    mirror: bool,
    pub(crate) tracker: RefTracker,
    pub(crate) rules: BTreeMap<u64, LmrRule>,
    pub(crate) next_rule: u64,
    pub(crate) local_docs: HashMap<String, Document>,
    /// The floor of the home MDP's publication stream (whichever MDP is
    /// home): the next sequence number expected from it.
    pub(crate) home_floor: u64,
    /// Rules retracted locally: late/duplicated publications for them are
    /// acked and discarded instead of resurrecting cache entries.
    pub(crate) dead_rules: HashSet<u64>,
    /// Control messages awaiting their ack: Subscribe/Resubscribe and
    /// Unsubscribe per rule, and the FailoverHello. Reaching the configured
    /// `failover_attempts` retransmissions of a rule's message counts as
    /// detected silence of the home MDP (DESIGN.md §7).
    control: Outbox<Control, Message>,
    /// The floors of the alternate streams: one per MDP other than the
    /// home that ships the matches of rules mirrored there (DESIGN.md §11).
    pub(crate) alt: Inbox<String>,
    /// Envelopes withheld so far: arrivals ahead of their stream's floor.
    pub(crate) withheld: u64,
}

impl Lmr {
    pub fn new(name: &str, mdp: &str, schema: RdfSchema) -> Self {
        let mut cache = Database::new();
        // infallible: a brand-new in-memory database (no I/O) can only
        // refuse a duplicate table, and there are none yet
        create_base_tables(&mut cache).expect("fresh database accepts base tables");
        Self::from_store(name, mdp, schema, cache, false)
    }
}

impl<S: StorageEngine> Lmr<S> {
    /// Builds an LMR whose cache runs on an explicit storage backend and
    /// mirrors node state into the state table of the same database — on a
    /// durable backend the whole node becomes crash-recoverable
    /// (DESIGN.md §6).
    pub fn with_storage(name: &str, mdp: &str, schema: RdfSchema, store: S) -> Result<Self> {
        let mut lmr = Self::from_store(name, mdp, schema, store, true);
        lmr.with_group(|this| {
            create_base_tables(&mut this.cache).map_err(Error::from)?;
            state::create_table(&mut this.cache, T_STATE)?;
            this.state_put(|| rec::pubseq(0))?;
            this.state_put(|| rec::next_rule(0))?;
            this.mirror_home()
        })?;
        Ok(lmr)
    }

    pub(crate) fn from_store(
        name: &str,
        mdp: &str,
        schema: RdfSchema,
        cache: S,
        mirror: bool,
    ) -> Self {
        Lmr {
            name: name.to_owned(),
            mdp: mdp.to_owned(),
            backup: None,
            awaiting_welcome: false,
            schema,
            cache,
            mirror,
            tracker: RefTracker::new(),
            rules: BTreeMap::new(),
            next_rule: 0,
            local_docs: HashMap::new(),
            home_floor: 0,
            dead_rules: HashSet::new(),
            control: Outbox::default(),
            alt: Inbox::default(),
            withheld: 0,
        }
    }

    /// Read access to the storage backend (e.g. the WAL directory or byte
    /// counters of a durable cache).
    pub fn storage(&self) -> &S {
        &self.cache
    }

    /// Mutable access to the cache store, for storage-level tuning (e.g.
    /// checkpoint thresholds) on a live node.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.cache
    }

    /// Snapshot-as-compaction: checkpoints the cache store — writes a fresh
    /// snapshot reflecting every GC deletion and truncates the WAL.
    pub fn compact(&mut self) -> Result<()> {
        self.cache.checkpoint().map_err(store_err)
    }

    /// Runs `body` inside one storage commit group, so the cache mutations
    /// and mirror writes of a whole node operation become durable
    /// atomically.
    fn with_group<T>(&mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.cache.begin();
        let out = body(self);
        self.cache.commit().map_err(store_err)?;
        out
    }

    /// Re-sends the control messages that were in flight when the node
    /// crashed: Resubscribe for every still-pending rule, Unsubscribe for
    /// every retracted rule, FailoverHello if a failover handshake was open
    /// (the MDP re-acks duplicates, so over-sending is harmless). Pending
    /// rules are re-sent as Resubscribe rather than Subscribe because a
    /// crash mid-failover can leave a pending rule whose cache still holds
    /// anchors from the previous home — only the Resubscribe snapshot
    /// clears those.
    pub fn rearm_after_recovery(&mut self, net: &Network) -> Result<()> {
        if self.awaiting_welcome {
            let last_seq = self.next_pub_seq();
            self.send_control(Control::Hello, Message::FailoverHello { last_seq }, net)?;
            // resubscribes follow once the welcome syncs the floor
            return self.rearm_dead_rules(net);
        }
        let pending = self.rule_ids(|r| r.status == RuleStatus::Pending);
        for id in pending {
            self.send_resubscribe(id, net)?;
        }
        self.rearm_dead_rules(net)
    }

    fn rearm_dead_rules(&mut self, net: &Network) -> Result<()> {
        let mut dead: Vec<u64> = self.dead_rules.iter().copied().collect();
        dead.sort_unstable();
        for rule in dead {
            let msg = Message::Unsubscribe { lmr_rule: rule };
            self.send_control(Control::Unsub(rule), msg, net)?;
        }
        Ok(())
    }

    /// Sends a control message to the home MDP and keeps it for
    /// retransmission until its ack arrives.
    fn send_control(&mut self, key: Control, msg: Message, net: &Network) -> Result<()> {
        net.send(&self.name, &self.mdp, msg.clone())?;
        let initial = net.config().retry_initial_ms;
        self.control.push(key, msg, net.now_ms(), initial);
        Ok(())
    }

    /// Sends rule `id` to the home MDP as a Resubscribe keyed by the next
    /// sequence number this LMR expects, and keeps it for retransmission.
    fn send_resubscribe(&mut self, id: u64, net: &Network) -> Result<()> {
        let Some(rule) = self.rules.get(&id) else {
            return Ok(());
        };
        let msg = Message::Resubscribe {
            lmr_rule: id,
            rule_text: rule.text.clone(),
            last_seq: self.next_pub_seq(),
        };
        self.send_control(Control::Sub(id), msg, net)
    }

    /// The ids of the rules `keep` selects, in id order.
    fn rule_ids(&self, keep: impl Fn(&LmrRule) -> bool) -> Vec<u64> {
        self.rules
            .iter()
            .filter(|(_, r)| keep(r))
            .map(|(id, _)| *id)
            .collect()
    }

    /// The next publication sequence number expected from the home MDP.
    pub(crate) fn next_pub_seq(&self) -> u64 {
        self.home_floor
    }

    // ---- state-table writes (no-ops on memory-backed nodes) --------------

    /// Writes the record `record` encodes into the state table. The
    /// encoder runs only on a durable node.
    fn state_put(&mut self, record: impl FnOnce() -> Record) -> Result<()> {
        if !self.mirror {
            return Ok(());
        }
        state::put(&mut self.cache, T_STATE, record())
    }

    /// Deletes the record with the key `key` builds from the state table.
    fn state_delete(&mut self, key: impl FnOnce() -> String) -> Result<()> {
        if !self.mirror {
            return Ok(());
        }
        state::delete(&mut self.cache, T_STATE, &key())
    }

    fn mirror_home(&mut self) -> Result<()> {
        if !self.mirror {
            return Ok(());
        }
        let record = rec::home(&self.mdp, self.backup.as_deref(), self.awaiting_welcome);
        self.state_put(|| record)
    }

    fn mirror_rule(&mut self, id: u64) -> Result<()> {
        match self.rules.get(&id) {
            Some(rule) if self.mirror => {
                let record = rec::rule(id, rule);
                self.state_put(|| record)
            }
            _ => Ok(()),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn mdp(&self) -> &str {
        &self.mdp
    }

    /// The configured backup MDP, if any.
    pub fn backup(&self) -> Option<&str> {
        self.backup.as_deref()
    }

    /// Configures (or clears) the backup MDP this LMR fails over to when
    /// its home goes silent.
    pub fn set_backup(&mut self, backup: Option<&str>) -> Result<()> {
        self.with_group(|this| {
            this.backup = backup.map(str::to_owned);
            this.mirror_home()
        })
    }

    /// True while a failover handshake is in flight (hello sent, welcome
    /// not yet received).
    pub fn failing_over(&self) -> bool {
        self.awaiting_welcome
    }

    pub fn rule(&self, id: u64) -> Option<&LmrRule> {
        self.rules.get(&id)
    }

    pub fn rules(&self) -> impl Iterator<Item = (u64, &LmrRule)> {
        self.rules.iter().map(|(id, r)| (*id, r))
    }

    /// URIs currently cached (global and local).
    pub fn cached_uris(&self) -> Vec<String> {
        // a cache recovered from a very early crash image may predate the
        // base tables' commit group: treat that as an empty cache rather
        // than panicking (the torture harness exercises this)
        let mut out: Vec<String> = self
            .cache
            .database()
            .table("Resources")
            .map(|t| t.iter().map(|(_, row)| row[0].to_string()).collect())
            .unwrap_or_default();
        out.sort();
        out
    }

    pub fn is_cached(&self, uri: &str) -> bool {
        BaseStore::resource_exists(self.cache.database(), uri).unwrap_or(false)
    }

    /// The cached copy of a resource.
    pub fn cached_resource(&self, uri: &str) -> Result<Option<Resource>> {
        Ok(BaseStore::resource(self.cache.database(), uri)?)
    }

    /// Registers a subscription rule: records it as pending and sends it to
    /// the MDP. Returns the LMR-local rule id.
    pub fn subscribe(&mut self, rule_text: &str, net: &Network) -> Result<u64> {
        self.with_group(|this| {
            let id = this.next_rule;
            this.next_rule += 1;
            this.rules.insert(
                id,
                LmrRule {
                    text: rule_text.to_owned(),
                    status: RuleStatus::Pending,
                },
            );
            let next_rule = this.next_rule;
            this.state_put(|| rec::next_rule(next_rule))?;
            this.mirror_rule(id)?;
            let msg = Message::Subscribe {
                lmr_rule: id,
                rule_text: rule_text.to_owned(),
            };
            this.send_control(Control::Sub(id), msg, net)?;
            Ok(id)
        })
    }

    /// Retracts a subscription rule and garbage-collects resources that were
    /// cached only because of it.
    pub fn unsubscribe(&mut self, rule: u64, net: &Network) -> Result<()> {
        if self.rules.remove(&rule).is_none() {
            return Err(Error::Subscription(format!(
                "LMR '{}' has no rule {rule}",
                self.name
            )));
        }
        self.with_group(|this| {
            // the rule's anchors go by the keys the tracker lists
            let unmatched = this.tracker.remove_rule(rule);
            this.state_delete(|| rec::rule_key(rule))?;
            for uri in &unmatched {
                this.state_delete(|| rec::anchor(uri, rule).key)?;
            }
            this.state_put(|| rec::dead(rule))?;
            this.collect_from(unmatched)?;
            this.control.ack(&Control::Sub(rule));
            this.dead_rules.insert(rule);
            let msg = Message::Unsubscribe { lmr_rule: rule };
            this.send_control(Control::Unsub(rule), msg, net)
        })
    }

    /// Registers metadata that must stay local (paper §2.2: "local metadata
    /// must be explicitly marked as such at registration time" and is not
    /// forwarded to the backbone).
    pub fn register_local_metadata(&mut self, doc: &Document) -> Result<()> {
        doc.check_internal_references()?;
        self.schema.validate(doc)?;
        if self.local_docs.contains_key(doc.uri()) {
            return Err(Error::Local(format!(
                "local document '{}' already registered",
                doc.uri()
            )));
        }
        for res in doc.resources() {
            if self.is_cached(res.uri().as_str()) {
                return Err(Error::Local(format!(
                    "resource '{}' already exists in the cache",
                    res.uri()
                )));
            }
        }
        self.with_group(|this| {
            for res in doc.resources() {
                // nothing to collect: the URIs are new (checked above), so
                // no edge is dropped, and local marks anchor them
                this.upsert_resource(res, &mut Vec::new())?;
                this.tracker.mark_local(res.uri().as_str());
            }
            this.state_put(|| rec::local(doc))?;
            this.local_docs.insert(doc.uri().to_owned(), doc.clone());
            Ok(())
        })
    }

    /// Evaluates a declarative query against the local cache only
    /// (paper §2.2: "LMRs use only locally available metadata for query
    /// processing"). Returns full resources.
    pub fn query(&self, query_text: &str) -> Result<Vec<Resource>> {
        let query = parse_rule(query_text)?;
        let mut uris = Vec::new();
        for conj in split_or(&query) {
            let normalized = match normalize(&conj, &self.schema) {
                Ok(n) => n,
                Err(mdv_rulelang::Error::Unsatisfiable) => continue,
                Err(e) => return Err(e.into()),
            };
            typecheck(&normalized, &self.schema)?;
            uris.extend(query_eval::evaluate(
                self.cache.database(),
                &self.schema,
                &normalized,
            )?);
        }
        uris.sort();
        uris.dedup();
        uris.into_iter()
            .map(|u| {
                BaseStore::resource(self.cache.database(), &u)?
                    .ok_or_else(|| Error::Local(format!("cache lost resource '{u}'")))
            })
            .collect()
    }

    /// Processes one incoming message. On a durable backend the whole
    /// handler runs as one WAL commit group.
    pub fn handle(&mut self, env: Envelope, net: &Network) -> Result<()> {
        self.with_group(|this| this.handle_inner(env, net))
    }

    fn handle_inner(&mut self, env: Envelope, net: &Network) -> Result<()> {
        match env.message {
            Message::SubscribeAck { lmr_rule, error } => {
                self.control.ack(&Control::Sub(lmr_rule));
                if let Some(rule) = self.rules.get_mut(&lmr_rule) {
                    rule.status = match error {
                        None => RuleStatus::Active,
                        Some(e) => RuleStatus::Failed(e),
                    };
                    self.mirror_rule(lmr_rule)?;
                }
                Ok(())
            }
            Message::UnsubscribeAck { lmr_rule } => {
                self.control.ack(&Control::Unsub(lmr_rule));
                Ok(())
            }
            Message::FailoverWelcome { next_seq } => self.receive_welcome(&env.from, next_seq, net),
            Message::Publish(msg) => self.receive_publication(&env.from, msg, net),
            other => Err(Error::Topology(format!(
                "LMR '{}' received unexpected message kind '{}'",
                self.name,
                other.kind()
            ))),
        }
    }

    /// Completes the failover handshake: the new home reports the next
    /// publication sequence it will assign, the LMR adopts it as its dedup
    /// floor and re-registers every live rule at the new home as a
    /// snapshot-requesting Resubscribe (DESIGN.md §7). Syncing the floor *before* resubscribing is what lets
    /// the snapshots flow as ordinary in-order sequenced publications.
    fn receive_welcome(&mut self, from: &str, next_seq: u64, net: &Network) -> Result<()> {
        if from != self.mdp || !self.awaiting_welcome {
            return Ok(()); // stale handshake from a previous home
        }
        self.control.ack(&Control::Hello);
        self.awaiting_welcome = false;
        self.home_floor = next_seq;
        self.state_put(|| rec::pubseq(next_seq))?;
        self.mirror_home()?;
        let live = self.rule_ids(|r| !matches!(r.status, RuleStatus::Failed(_)));
        for id in live {
            if let Some(rule) = self.rules.get_mut(&id) {
                rule.status = RuleStatus::Pending;
            }
            self.mirror_rule(id)?;
            self.send_resubscribe(id, net)?;
        }
        Ok(())
    }

    /// The receiving half of the at-least-once protocol, one path for the
    /// home stream and the alternate stream of every other MDP that ships
    /// the matches of a mirrored rule (DESIGN.md §3b, §11.4). An envelope
    /// below its stream's floor is acked and discarded; one ahead of it is
    /// neither acked nor kept, and the sender's in-order retransmission
    /// brings it back once the gap closes; the one at the floor is acked,
    /// moves the floor past itself and is applied. Envelopes thus apply
    /// exactly once, in sequence order. Any other envelope from a node
    /// other than the home (a previous home still retransmitting after a
    /// failover) is acked and discarded, and the sender is told to retire
    /// every subscription it lists.
    fn receive_publication(&mut self, from: &str, msg: PublishMsg, net: &Network) -> Result<()> {
        let ack = Message::PublishAck { seq: msg.seq };
        let home = from == self.mdp;
        if !home && !msg.alt {
            net.send(&self.name, from, ack)?;
            // One-shot cleanup unsubscribe, deliberately not retried:
            // further strays re-trigger it. Suppressed while a failover
            // handshake is open, so a delayed cleanup can never race a
            // fresh resubscription at a new home.
            if !self.awaiting_welcome {
                for d in &msg.rules {
                    net.send(
                        &self.name,
                        from,
                        Message::Unsubscribe {
                            lmr_rule: d.lmr_rule,
                        },
                    )?;
                }
            }
            return Ok(());
        }
        if home && self.awaiting_welcome {
            // Floor not synced with the new home yet; the Resubscribe
            // snapshot that follows the welcome supersedes this.
            return net.send(&self.name, from, ack);
        }
        let floor = if home {
            self.home_floor
        } else {
            self.alt.floor(from)
        };
        match msg.seq.cmp(&floor) {
            Ordering::Greater => {
                self.withheld += 1;
                Ok(())
            }
            Ordering::Less => net.send(&self.name, from, ack),
            Ordering::Equal => {
                net.send(&self.name, from, ack)?;
                let next = msg.seq + 1;
                if home {
                    self.home_floor = next;
                    self.state_put(|| rec::pubseq(next))?;
                } else {
                    self.alt.set_floor(from.to_owned(), next);
                    self.state_put(|| rec::altseq(from, next))?;
                }
                self.apply_envelope(msg)
            }
        }
    }

    /// Earliest scheduled control-message retransmission, if any. Entries
    /// held back against a down home with no failover target are excluded,
    /// so that a stranded LMR does not drive the clock while nothing can
    /// make progress; they resume automatically once the home heals.
    pub fn next_retry_at(&self, net: &Network) -> Option<u64> {
        let held = self.held_after(net);
        self.control
            .next_retry_at(|_, p| held.is_some_and(|n| p.attempts >= n))
    }

    /// Whether the home MDP can be failed away from: a backup is configured
    /// and reachable.
    fn can_fail_over(&self, net: &Network) -> bool {
        self.backup
            .as_ref()
            .is_some_and(|b| *b != self.mdp && !net.is_down(b))
    }

    /// The attempt count from which control messages are held back, if any:
    /// entries to a silent home with no failover target stop retrying once
    /// the budget is spent, and resume when the home heals.
    fn held_after(&self, net: &Network) -> Option<u32> {
        (net.is_down(&self.mdp) && !self.can_fail_over(net)).then(|| net.config().failover_attempts)
    }

    /// Retransmits every unacked Subscribe/Unsubscribe/FailoverHello whose
    /// timer is due; returns whether anything was resent. Exhausting the
    /// retransmission budget of any entry counts as detected silence of the
    /// home MDP and triggers failover to the configured backup, if one is
    /// reachable (DESIGN.md §7).
    pub fn retransmit_due(&mut self, net: &Network) -> Result<bool> {
        let budget = net.config().failover_attempts;
        let held = self.held_after(net);
        let can_fail_over = self.can_fail_over(net);
        let mut exhausted = false;
        let (name, home) = (&self.name, &self.mdp);
        let resent = self.control.retransmit_due(
            net.now_ms(),
            net.config().retry_max_ms,
            |_, p| held.is_some_and(|n| p.attempts >= n),
            |_, msg, attempts| {
                exhausted |= attempts >= budget;
                net.send_retry(name, home, msg.clone())
            },
        )?;
        match self.backup.clone() {
            Some(backup) if exhausted && can_fail_over && !self.awaiting_welcome => {
                self.rehome_to(&backup, net)?;
                Ok(true)
            }
            _ => Ok(resent),
        }
    }

    /// Switches home to `target` and opens the failover handshake: to the
    /// configured backup once the home goes silent, or — the automatic
    /// failover of Raft mode (DESIGN.md §9) — to the leader the orchestrator
    /// steers every LMR to. In-flight retries against the old home are
    /// dropped: live rules are re-registered wholesale once the welcome
    /// arrives, and retracted rules get retired at the old home lazily, by
    /// the cleanup unsubscribes its stray publications trigger after a heal.
    pub(crate) fn rehome_to(&mut self, target: &str, net: &Network) -> Result<()> {
        if target == self.mdp {
            return Ok(());
        }
        let target = target.to_owned();
        self.with_group(|this| {
            this.mdp = target;
            this.awaiting_welcome = true;
            this.mirror_home()?;
            this.control = Outbox::default();
            let last_seq = this.next_pub_seq();
            this.send_control(Control::Hello, Message::FailoverHello { last_seq }, net)
        })
    }

    /// Applies an envelope as its deltas would apply if each came alone, in
    /// order (DESIGN.md §7.4), in one pass: every resource a live delta
    /// ships is upserted once, then each live delta moves its rule's match
    /// anchors — a snapshot delta first drops the anchors of its rule that
    /// it does not list, stale state inherited from a previous home — and
    /// the garbage collector runs once, over every URI the envelope touched.
    /// Deltas of retracted rules are late and change nothing.
    fn apply_envelope(&mut self, msg: PublishMsg) -> Result<()> {
        msg.validate()
            .map_err(|e| Error::Topology(format!("LMR '{}': {e}", self.name)))?;
        let PublishMsg {
            resources, rules, ..
        } = msg;
        let live: Vec<RuleDelta> = rules
            .into_iter()
            .filter(|d| !self.dead_rules.contains(&d.lmr_rule))
            .collect();
        let mut candidates = Vec::new();
        {
            let shipped: HashSet<&str> = live.iter().flat_map(RuleDelta::shipped).collect();
            for res in &resources {
                if shipped.contains(res.uri().as_str()) {
                    self.upsert_resource(res, &mut candidates)?;
                }
            }
        }
        for d in live {
            let rule = d.lmr_rule;
            if d.snapshot {
                let listed: HashSet<&str> = d.matched.iter().map(String::as_str).collect();
                let mut stale = self.tracker.matched_by(rule);
                stale.retain(|u| !listed.contains(u.as_str()));
                for uri in &stale {
                    self.tracker.remove_match(uri, rule);
                    self.state_delete(|| rec::anchor(uri, rule).key)?;
                }
                candidates.extend(stale);
            }
            for uri in &d.matched {
                self.tracker.add_match(uri, rule);
                self.state_put(|| rec::anchor(uri, rule))?;
            }
            for uri in d.removed {
                self.tracker.remove_match(&uri, rule);
                self.state_delete(|| rec::anchor(&uri, rule).key)?;
                candidates.push(uri);
            }
        }
        self.collect_from(candidates)?;
        Ok(())
    }

    /// Inserts or replaces a resource in the cache, maintaining the strong
    /// reference counts of its targets. Pushes onto `candidates` every URI
    /// whose anchoring this may have left at zero: the resource itself (it
    /// may arrive with no anchor) and the targets of the edges a replaced
    /// copy held.
    fn upsert_resource(&mut self, res: &Resource, candidates: &mut Vec<String>) -> Result<()> {
        let uri = res.uri().as_str();
        let doc_uri = res.uri().document_uri();
        candidates.push(uri.to_owned());
        // Consecutive envelopes often ship a resource the cache already
        // holds byte for byte (a second rule's fill, an update that left
        // it unchanged). Strong counts are a function of the stored rows,
        // so equal rows need neither the rewrite (and its WAL ops) nor the
        // tracker.
        if BaseStore::holds_resource(self.cache.database(), res, doc_uri)? {
            return Ok(());
        }
        if self.is_cached(uri) {
            candidates.extend(self.drop_edges(uri)?);
            BaseStore::remove_resource(&mut self.cache, uri)?;
        }
        BaseStore::insert_resource(&mut self.cache, res, doc_uri)?;
        // counted by stored value, like `drop_edges` and `rebuild_tracker`
        // read it back — not by term kind, which depends on whether the
        // target existed at the MDP when this copy was built
        for (prop, term) in res.properties() {
            if self.schema.ref_kind(res.class(), prop) == Some(RefKind::Strong) {
                self.tracker.add_edge(term.lexical());
            }
        }
        Ok(())
    }

    /// Removes the strong-reference counts contributed by a cached resource
    /// and returns their targets.
    fn drop_edges(&mut self, uri: &str) -> Result<Vec<String>> {
        let Some(class) = BaseStore::resource_class(self.cache.database(), uri)? else {
            return Ok(Vec::new());
        };
        let mut targets = Vec::new();
        for (prop, value) in BaseStore::statements_of(self.cache.database(), uri)? {
            if self.schema.ref_kind(&class, &prop) == Some(RefKind::Strong) {
                self.tracker.remove_edge(&value);
                targets.push(value);
            }
        }
        Ok(targets)
    }

    /// The reference-counting garbage collector (paper §2.4) as a full
    /// sweep: every cached URI is a candidate. Handlers keep the cache
    /// collected on their own (DESIGN.md §7.4),
    /// so on a live node this evicts nothing; it is the maintenance entry
    /// point and the oracle the incremental seeding is tested against.
    pub fn collect_garbage(&mut self) -> Result<usize> {
        // Its own commit group, so a GC wave invoked outside a node
        // operation (e.g. by a maintenance sweep) is still one atomic,
        // WAL-logged batch of deletions on a durable backend.
        self.with_group(|this| {
            let all = this.cached_uris();
            this.collect_from(all)
        })
    }

    /// The collector proper: evicts every candidate that is cached but
    /// matches no rule, is not strongly referenced, and is not local —
    /// cascading, since evicting a resource drops its outgoing references
    /// and makes their targets candidates. Returns how many it evicted.
    ///
    /// A URI can only lose its last anchor by losing a match or an incoming
    /// edge, so a caller that passes every URI it did that to (plus every
    /// URI it inserted) leaves the cache exactly as a full sweep would.
    fn collect_from(&mut self, candidates: Vec<String>) -> Result<usize> {
        let mut worklist = VecDeque::from(candidates);
        let mut collected = 0;
        while let Some(uri) = worklist.pop_front() {
            if self.tracker.is_anchored(&uri) || !self.is_cached(&uri) {
                continue;
            }
            worklist.extend(self.drop_edges(&uri)?);
            BaseStore::remove_resource(&mut self.cache, &uri)?;
            // unanchored, so no match record names it
            self.tracker.forget(&uri);
            collected += 1;
        }
        Ok(collected)
    }

    /// Test/diagnostic access to the tracker.
    pub fn tracker(&self) -> &RefTracker {
        &self.tracker
    }

    /// Completes the reference tracker of a restored node, which holds
    /// only the match anchors its records listed: adds the strong counts
    /// the cache contents and the schema imply and the local marks of the
    /// local-document registry (strong counts are derivable, matches are
    /// not).
    pub(crate) fn restore_anchors(&mut self) -> Result<()> {
        for uri in self.cached_uris() {
            let Some(class) = BaseStore::resource_class(self.cache.database(), &uri)? else {
                continue;
            };
            for (prop, value) in BaseStore::statements_of(self.cache.database(), &uri)? {
                if self.schema.ref_kind(&class, &prop) == Some(RefKind::Strong) {
                    self.tracker.add_edge(&value);
                }
            }
        }
        for doc in self.local_docs.values() {
            for res in doc.resources() {
                self.tracker.mark_local(res.uri().as_str());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NetConfig;
    use mdv_rdf::{Term, UriRef};

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

    fn provider(i: usize, host: &str, memory: i64) -> (Resource, Resource) {
        let uri = format!("doc{i}.rdf");
        (
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new(&uri, "info")),
                ),
            Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                .with("memory", Term::literal(memory.to_string()))
                .with("cpu", Term::literal("600")),
        )
    }

    fn lmr() -> Lmr {
        Lmr::new("lmr1", "mdp1", schema())
    }

    fn uris(resources: &[Resource]) -> Vec<String> {
        resources.iter().map(|r| r.uri().to_string()).collect()
    }

    /// A one-delta envelope: rule `lmr_rule` matches `matched`, and
    /// `companions` ship along.
    fn publish(lmr_rule: u64, matched: Vec<Resource>, companions: Vec<Resource>) -> PublishMsg {
        let delta = RuleDelta {
            lmr_rule,
            matched: uris(&matched),
            companions: uris(&companions),
            ..RuleDelta::default()
        };
        PublishMsg {
            resources: [matched, companions].concat(),
            rules: vec![delta],
            ..PublishMsg::default()
        }
    }

    fn removal(lmr_rule: u64, uri: &str) -> PublishMsg {
        PublishMsg {
            rules: vec![RuleDelta {
                lmr_rule,
                removed: vec![uri.into()],
                ..RuleDelta::default()
            }],
            ..PublishMsg::default()
        }
    }

    #[test]
    fn an_old_layout_store_is_rejected() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        let mut l = Lmr::with_storage("lmr1", "mdp1", schema(), Database::new()).unwrap();
        l.subscribe("search CycleProvider c register c", &net)
            .unwrap();
        let store = l.storage().clone();
        assert!(Lmr::reopen("lmr1", "mdp1", schema(), store).is_ok());
        // a store written before the state table: per-kind tables instead
        let mut old = Database::new();
        create_base_tables(&mut old).unwrap();
        let meta = vec![
            mdv_relstore::ColumnDef::new("key", mdv_relstore::DataType::Str),
            mdv_relstore::ColumnDef::new("val", mdv_relstore::DataType::Int),
        ];
        let meta = mdv_relstore::TableSchema::new("LmrMeta", meta).unwrap();
        old.create_table(meta).unwrap();
        let err = Lmr::reopen("lmr1", "mdp1", schema(), old).unwrap_err();
        assert!(
            err.to_string().contains("unsupported store layout"),
            "{err}"
        );
        // and a store that never was a durable LMR's
        let err = Lmr::reopen("lmr1", "mdp1", schema(), Database::new()).unwrap_err();
        assert!(err.to_string().contains("not a durable LMR store"), "{err}");
    }

    #[test]
    fn publish_fills_cache_and_anchors() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.org", 92);
        l.apply_envelope(publish(0, vec![host], vec![info]))
            .unwrap();
        assert!(l.is_cached("doc1.rdf#host"));
        assert!(
            l.is_cached("doc1.rdf#info"),
            "companion cached via strong ref"
        );
        assert_eq!(l.tracker().matching_rules("doc1.rdf#host"), vec![0]);
        assert_eq!(l.tracker().strong_count("doc1.rdf#info"), 1);
    }

    #[test]
    fn removal_collects_companions() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.org", 92);
        l.apply_envelope(publish(0, vec![host], vec![info]))
            .unwrap();
        // the rule no longer matches host: both host and its companion go
        let msg = removal(0, "doc1.rdf#host");
        l.apply_envelope(msg).unwrap();
        assert!(!l.is_cached("doc1.rdf#host"));
        assert!(!l.is_cached("doc1.rdf#info"), "garbage-collected companion");
    }

    #[test]
    fn resource_matched_by_two_rules_survives_one_removal() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.org", 92);
        l.apply_envelope(publish(0, vec![host.clone()], vec![info.clone()]))
            .unwrap();
        l.apply_envelope(publish(1, vec![host], vec![info]))
            .unwrap();
        let msg = removal(0, "doc1.rdf#host");
        l.apply_envelope(msg).unwrap();
        assert!(l.is_cached("doc1.rdf#host"), "still matched by rule 1");
        let msg = removal(1, "doc1.rdf#host");
        l.apply_envelope(msg).unwrap();
        assert!(!l.is_cached("doc1.rdf#host"));
    }

    #[test]
    fn shared_companion_survives_one_referrer() {
        let mut l = lmr();
        // two providers share one ServerInformation
        let info = Resource::new(UriRef::new("s.rdf", "i"), "ServerInformation")
            .with("memory", Term::literal("92"))
            .with("cpu", Term::literal("600"));
        let mk_host = |i: usize| {
            Resource::new(UriRef::new(&format!("doc{i}.rdf"), "host"), "CycleProvider")
                .with("serverHost", Term::literal("a.org"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("s.rdf", "i")),
                )
        };
        l.apply_envelope(publish(0, vec![mk_host(1), mk_host(2)], vec![info]))
            .unwrap();
        assert_eq!(l.tracker().strong_count("s.rdf#i"), 2);
        let msg = removal(0, "doc1.rdf#host");
        l.apply_envelope(msg).unwrap();
        assert!(l.is_cached("s.rdf#i"), "still referenced by doc2's host");
        let msg = removal(0, "doc2.rdf#host");
        l.apply_envelope(msg).unwrap();
        assert!(!l.is_cached("s.rdf#i"));
    }

    #[test]
    fn unchanged_copy_is_not_rewritten_and_keeps_its_edges() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.org", 92);
        // the MDP built this copy before doc1.rdf#info existed there, so
        // the strong reference arrives as a literal (`BaseStore::resource`)
        let early = Resource::new(host.uri().clone(), "CycleProvider")
            .with("serverHost", Term::literal("a.org"))
            .with("serverInformation", Term::literal("doc1.rdf#info"));
        l.apply_envelope(publish(0, vec![early], vec![])).unwrap();
        assert_eq!(l.tracker().strong_count("doc1.rdf#info"), 1);
        let row_of = |l: &Lmr| {
            let table = l.cache.table("Resources").unwrap();
            table.iter().map(|(rid, _)| rid).collect::<Vec<_>>()
        };
        let rows = row_of(&l);

        // a second rule ships the same rows, now with the companion
        l.apply_envelope(publish(1, vec![host], vec![info]))
            .unwrap();
        assert_eq!(row_of(&l)[0], rows[0], "host row kept, not reinserted");
        assert_eq!(l.tracker().strong_count("doc1.rdf#info"), 1);
        assert!(l.is_cached("doc1.rdf#info"), "anchored by the kept copy");
        assert_eq!(l.collect_garbage().unwrap(), 0);
    }

    #[test]
    fn update_replaces_content_and_edges() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.org", 92);
        l.apply_envelope(publish(0, vec![host], vec![info]))
            .unwrap();
        // host's update drops the reference to info
        let new_host = Resource::new(UriRef::new("doc1.rdf", "host"), "CycleProvider")
            .with("serverHost", Term::literal("b.org"));
        let msg = PublishMsg {
            rules: vec![RuleDelta {
                lmr_rule: 0,
                updated: uris(std::slice::from_ref(&new_host)),
                ..RuleDelta::default()
            }],
            resources: vec![new_host],
            ..PublishMsg::default()
        };
        l.apply_envelope(msg).unwrap();
        let cached = l.cached_resource("doc1.rdf#host").unwrap().unwrap();
        assert_eq!(cached.property("serverHost").unwrap().lexical(), "b.org");
        assert!(
            !l.is_cached("doc1.rdf#info"),
            "orphaned companion collected"
        );
    }

    #[test]
    fn local_metadata_is_never_collected_and_queryable() {
        let mut l = lmr();
        let doc = Document::new("local.rdf").with_resource(
            Resource::new(UriRef::new("local.rdf", "s"), "ServerInformation")
                .with("memory", Term::literal("512"))
                .with("cpu", Term::literal("1000")),
        );
        l.register_local_metadata(&doc).unwrap();
        assert_eq!(l.collect_garbage().unwrap(), 0);
        assert!(l.is_cached("local.rdf#s"));
        let hits = l
            .query("search ServerInformation s register s where s.memory > 100")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uri().as_str(), "local.rdf#s");
        // duplicate registration rejected
        assert!(l.register_local_metadata(&doc).is_err());
    }

    #[test]
    fn query_sees_cached_and_local_metadata_only() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.uni-passau.de", 92);
        l.apply_envelope(publish(0, vec![host], vec![info]))
            .unwrap();
        let hits = l
            .query(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uri().as_str(), "doc1.rdf#host");
        // nothing else is visible
        assert!(l
            .query("search CycleProvider c register c where c.serverHost contains 'nothere'")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_results_are_pinned() {
        let mut l = lmr();
        let (host, info) = provider(1, "a.uni-passau.de", 92);
        let (host2, info2) = provider(2, "b.org", 128);
        l.apply_envelope(publish(0, vec![host, host2], vec![info, info2]))
            .unwrap();
        let both_hosts = ["doc1.rdf#host", "doc2.rdf#host"];
        let cases: [(&str, &[&str]); 6] = [
            ("search CycleProvider c register c", &both_hosts),
            (
                "search CycleProvider c register c where c.serverHost contains 'uni-passau.de'",
                &["doc1.rdf#host"],
            ),
            (
                "search CycleProvider c register c where c.serverInformation.memory > 100",
                &["doc2.rdf#host"],
            ),
            (
                "search ServerInformation s register s where s.cpu = 600",
                &["doc1.rdf#info", "doc2.rdf#info"],
            ),
            // doc1 matches both disjuncts and is returned once
            (
                "search CycleProvider c register c where c.serverHost contains 'uni-passau.de' \
                 or c.serverInformation.memory > 50",
                &both_hosts,
            ),
            // `1 = 2` normalizes to unsatisfiable: that disjunct is skipped
            // and the result is the satisfiable disjunct's
            (
                "search CycleProvider c register c where c.serverInformation.memory > 100 \
                 or 1 = 2",
                &["doc2.rdf#host"],
            ),
        ];
        for (q, expected) in cases {
            assert_eq!(uris(&l.query(q).unwrap()), expected, "query: {q}");
        }
    }

    #[test]
    fn subscribe_unsubscribe_lifecycle() {
        let net = Network::new(NetConfig::default());
        let _rx = net.register("mdp1").unwrap();
        let mut l = lmr();
        let id = l
            .subscribe("search CycleProvider c register c", &net)
            .unwrap();
        assert_eq!(l.rule(id).unwrap().status, RuleStatus::Pending);
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
        assert_eq!(l.rule(id).unwrap().status, RuleStatus::Active);
        l.unsubscribe(id, &net).unwrap();
        assert!(l.rule(id).is_none());
        assert!(l.unsubscribe(id, &net).is_err());
    }
}
