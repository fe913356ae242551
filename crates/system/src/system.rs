//! The MDV system orchestrator: wires MDPs, LMRs, and the simulated network
//! into the 3-tier architecture of Figure 2, and drives message delivery
//! deterministically.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

use mdv_rdf::{write_document, Document, RdfSchema, Resource};
use mdv_relstore::{write_database, Database, DurableEngine, StdFs, StorageEngine, Vfs};
use mdv_runtime::channel::Receiver;

use crate::error::{store_err, Error, Result};
use crate::lmr::{Lmr, RuleStatus};
use crate::mdp::{doc_uri_of, Mdp};
use crate::message::Message;
use crate::placement::{PlacementConfig, PlacementTable, MAX_PLACEMENT_SHARDS};
use crate::raft::{
    RaftCmd, RaftProbe, RaftRole, ReplicationMode, DEFAULT_COMPACT_THRESHOLD, HEARTBEAT_MS,
};
use crate::transport::{Envelope, NetConfig, NetStats, Network};

/// Consecutive quiescence rounds without a single mailbox delivery before
/// the loop declares the remaining work held back and returns (DESIGN.md §9):
/// a permanently partitioned minority can retransmit forever, and without
/// this cap [`MdvSystem::run_to_quiescence`] would spin on it. An envelope
/// an LMR withholds (ahead of its floor) is no delivery: a retransmission
/// that keeps arriving ahead of a floor its sender can no longer close
/// would otherwise reset the count forever.
const STALL_ROUND_BUDGET: u32 = 256;
/// Per-quiescence-call caps on consensus activity, so a leader that can
/// never reach a quorum (or a candidate that can never win) stops driving
/// the clock instead of heartbeating/campaigning forever.
const PUMP_BUDGET: u32 = 256;
const ELECTION_BUDGET: u32 = 64;

/// A complete MDV deployment: backbone MDPs, mid-tier LMRs, network. The
/// node tier is generic over the storage backend: in-memory [`Database`]
/// nodes by default, or WAL-durable nodes via
/// [`MdvSystem::<DurableEngine>::new_durable`] — a deployment is uniform, so
/// crash/restart semantics hold for every node (DESIGN.md §6).
pub struct MdvSystem<S: StorageEngine = Database> {
    schema: RdfSchema,
    network: Network,
    receivers: HashMap<String, Receiver<Envelope>>,
    mdps: BTreeMap<String, Mdp<S>>,
    lmrs: BTreeMap<String, Lmr<S>>,
    /// How the backbone replicates: LWW gossip (default) or single-group
    /// Raft (DESIGN.md §9). Fixed before the first node is added.
    mode: ReplicationMode,
    raft_seed: u64,
    raft_compact_threshold: u64,
    /// The placement configuration (DESIGN.md §11): the replication factor,
    /// R = all (the default: full replication) or a number, and the shard
    /// space. Every MDP holds the table it yields from its first `add_mdp`.
    placement: PlacementConfig,
    /// `(lmr, rule)` pairs subscribed but not yet offered to the MDPs the
    /// table makes publishers for their LMR. Empty unless a `subscribe`
    /// returned with its rule still pending (say, behind a partitioned home
    /// link) or an LMR's state was restored: the next `subscribe` mirrors
    /// whichever of them the home MDP has accepted by then.
    unmirrored: BTreeSet<(String, u64)>,
}

impl MdvSystem {
    pub fn new(schema: RdfSchema) -> Self {
        Self::with_net_config(schema, NetConfig::default())
    }

    pub fn with_net_config(schema: RdfSchema, config: NetConfig) -> Self {
        Self::empty(schema, config)
    }

    /// Adds a Metadata Provider to the backbone (flat hierarchy, paper
    /// §2.2) and installs the recomputed placement table: at the default
    /// R = all every MDP holds every document.
    pub fn add_mdp(&mut self, name: &str) -> Result<()> {
        let mdp = Mdp::new(name, self.schema.clone());
        self.install_mdp(name, mdp)
    }

    /// Adds a Local Metadata Repository connected to `mdp`.
    pub fn add_lmr(&mut self, name: &str, mdp: &str) -> Result<()> {
        self.check_lmr_slot(name, mdp)?;
        let lmr = Lmr::new(name, mdp, self.schema.clone());
        self.install_lmr(name, lmr)
    }

    /// Replays exported MDP state (see [`crate::state`]) into an added MDP
    /// that holds no subscription, then installs this deployment's table
    /// again: the export's names the deployment it came from. Nothing is
    /// sent; a rebalance or [`MdvSystem::repair_backbone`] brings the
    /// restored documents to the other owners.
    pub fn restore_mdp_state(&mut self, mdp: &str, state: &str) -> Result<(usize, usize)> {
        let restored = self.import_mdp_state(mdp, state)?;
        let members = match self.mode {
            ReplicationMode::Lww => self.live_mdps(),
            ReplicationMode::Raft => self.mdps.keys().cloned().collect(),
        };
        self.install_table(&members)?;
        Ok(restored)
    }

    /// Replays exported MDP state into `mdp`, keeping its table.
    pub(crate) fn import_mdp_state(&mut self, mdp: &str, state: &str) -> Result<(usize, usize)> {
        node_mut(&mut self.mdps, "MDP", mdp)?.import_state(state)
    }

    /// Replays exported LMR state into a freshly added LMR node.
    pub fn restore_lmr_state(&mut self, lmr: &str, state: &str) -> Result<()> {
        let node = node_mut(&mut self.lmrs, "LMR", lmr)?;
        node.import_state(state)?;
        self.unmirrored
            .extend(node.rules().map(|(id, _)| (lmr.to_owned(), id)));
        Ok(())
    }
}

impl MdvSystem<DurableEngine> {
    /// A deployment whose nodes all run on the durable WAL+snapshot backend.
    pub fn new_durable(schema: RdfSchema) -> Self {
        Self::durable_with_net_config(schema, NetConfig::default())
    }

    pub fn durable_with_net_config(schema: RdfSchema, config: NetConfig) -> Self {
        Self::empty(schema, config)
    }

    /// Adds an MDP persisting to `dir` on the real filesystem.
    pub fn add_mdp_durable(&mut self, name: &str, dir: impl Into<PathBuf>) -> Result<()> {
        self.add_mdp_durable_on(name, dir, StdFs)
    }

    /// Adds an LMR connected to `mdp`, persisting its cache to `dir` on the
    /// real filesystem.
    pub fn add_lmr_durable(
        &mut self,
        name: &str,
        mdp: &str,
        dir: impl Into<PathBuf>,
    ) -> Result<()> {
        self.add_lmr_durable_on(name, mdp, dir, StdFs)
    }
}

impl<V: Vfs + Clone + Send + Sync> MdvSystem<DurableEngine<V>> {
    /// A durable deployment over an explicit [`Vfs`] backend — the storage
    /// torture tests run whole systems on a seeded `FaultVfs` this way
    /// (DESIGN.md §12). `MdvSystem::<DurableEngine<FaultVfs>>::durable_on(..)`.
    pub fn durable_on(schema: RdfSchema, config: NetConfig) -> Self {
        Self::empty(schema, config)
    }

    /// Adds an MDP persisting to `dir` (created fresh; must not hold an
    /// existing store) through `vfs`.
    pub fn add_mdp_durable_on(
        &mut self,
        name: &str,
        dir: impl Into<PathBuf>,
        vfs: V,
    ) -> Result<()> {
        let store = DurableEngine::create_with(vfs, dir).map_err(store_err)?;
        let mdp = Mdp::with_storage(name, store, self.schema.clone())?;
        self.install_mdp(name, mdp)
    }

    /// Adds an LMR connected to `mdp`, persisting its cache to `dir`
    /// through `vfs`.
    pub fn add_lmr_durable_on(
        &mut self,
        name: &str,
        mdp: &str,
        dir: impl Into<PathBuf>,
        vfs: V,
    ) -> Result<()> {
        self.check_lmr_slot(name, mdp)?;
        let store = DurableEngine::create_with(vfs, dir).map_err(store_err)?;
        let lmr = Lmr::with_storage(name, mdp, self.schema.clone(), store)?;
        self.install_lmr(name, lmr)
    }

    /// Sets the auto-checkpoint threshold on every durable store of every
    /// node, present and (not) future — the torture harness sets this low
    /// to force compaction windows into its fault schedules.
    pub fn set_checkpoint_every(&mut self, every: Option<u64>) {
        for mdp in self.mdps.values_mut() {
            mdp.engine_mut().storage_mut().set_checkpoint_every(every);
        }
        for lmr in self.lmrs.values_mut() {
            lmr.storage_mut().set_checkpoint_every(every);
        }
    }

    /// Crashes an MDP — dropping every byte of in-memory state and any mail
    /// in its inbox — and restarts it from its durable store, which keeps
    /// serving as the node's log ([`Mdp::reopen`]). Batch mode resets to
    /// immediate filtering, like a freshly added node.
    ///
    /// Recovery is checked twice over: the snapshot+WAL replay must
    /// reproduce byte-for-byte what the pre-crash store journaled — its
    /// database with the unlogged filter tables empty (the node is assumed
    /// quiescent, i.e. no commit group open) — and the node reopened on the
    /// state table's records must carry base tables logically identical to
    /// the pre-crash engine's. Both checks are skipped for a wedged store,
    /// whose memory may be ahead of its disk.
    pub fn crash_and_restart_mdp(&mut self, name: &str) -> Result<()> {
        let old = self
            .mdps
            .remove(name)
            .ok_or_else(|| Error::Topology(format!("unknown MDP '{name}'")))?;
        let store = old.engine().storage();
        let vfs = store.vfs().clone();
        let dir = store.dir().to_path_buf();
        let reference = (!store.is_degraded()).then(|| {
            let mut journaled = store.database().clone();
            for table in &old.derived_tables {
                if let Ok(t) = journaled.table_mut(table) {
                    t.truncate();
                }
            }
            let rebuilt = ["Resources", "Statements"].map(|t| logical_rows(store.database(), t));
            (write_database(&journaled), rebuilt)
        });
        drop(old); // the crash: all volatile state gone
        self.drain_mailbox(name);

        let recovered = DurableEngine::open_with(vfs, &dir).map_err(store_err)?;
        if let Some((journaled, _)) = &reference {
            if write_database(recovered.database()) != *journaled {
                return Err(Error::Topology(format!(
                    "MDP '{name}': recovered database diverges from pre-crash state"
                )));
            }
        }
        let retry_ms = self.network.config().retry_initial_ms;
        let mut mdp = Mdp::reopen(name, self.schema.clone(), recovered, retry_ms)?;
        if self.mode == ReplicationMode::Raft {
            // the recorded term/vote/led-terms/log come back exactly, so a
            // restarted voter cannot double-vote in a term it already voted in
            mdp.raft_enable(self.raft_seed, self.network.now_ms());
            mdp.raft_set_compact_threshold(self.raft_compact_threshold);
        }
        if let Some((_, before)) = reference {
            for (table, want) in ["Resources", "Statements"].into_iter().zip(before) {
                if logical_rows(mdp.engine().db(), table) != want {
                    return Err(Error::Topology(format!(
                        "MDP '{name}': rebuilt {table} table diverges from the pre-crash engine"
                    )));
                }
            }
        }
        self.mdps.insert(name.to_owned(), mdp);
        Ok(())
    }

    /// Checkpoints an MDP's store: snapshot + WAL truncation.
    pub fn compact_mdp(&mut self, name: &str) -> Result<()> {
        node_mut(&mut self.mdps, "MDP", name)?.compact()
    }

    /// Checkpoints an LMR's store: snapshot + WAL truncation. Together with
    /// the WAL-logged GC deletions this is the durable tier's compaction
    /// story — a post-GC snapshot simply no longer contains collected rows.
    pub fn compact_lmr(&mut self, name: &str) -> Result<()> {
        node_mut(&mut self.lmrs, "LMR", name)?.compact()
    }

    /// Crashes an LMR and restarts it from its durable store, which keeps
    /// serving as the node's log: cache rows carry no reassigned ids, so the
    /// reopened engine appends where the crashed one stopped. In-flight
    /// Subscribe/Unsubscribe handshakes are re-armed; everything else
    /// reconverges through the at-least-once publication protocol.
    pub fn crash_and_restart_lmr(&mut self, name: &str) -> Result<()> {
        let old = self
            .lmrs
            .remove(name)
            .ok_or_else(|| Error::Topology(format!("unknown LMR '{name}'")))?;
        let vfs = old.storage().vfs().clone();
        let dir = old.storage().dir().to_path_buf();
        let mdp = old.mdp().to_owned();
        let reference =
            (!old.storage().is_degraded()).then(|| write_database(old.storage().database()));
        drop(old);
        self.drain_mailbox(name);

        let recovered = DurableEngine::open_with(vfs, &dir).map_err(store_err)?;
        if let Some(reference) = reference {
            if write_database(recovered.database()) != reference {
                return Err(Error::Topology(format!(
                    "LMR '{name}': recovered database diverges from pre-crash state"
                )));
            }
        }
        let mut lmr = Lmr::reopen(name, &mdp, self.schema.clone(), recovered)?;
        lmr.rearm_after_recovery(&self.network)?;
        self.lmrs.insert(name.to_owned(), lmr);
        Ok(())
    }
}

/// `name`'s node in `nodes`, or the topology error naming it a `kind`
/// ("MDP" or "LMR") that does not exist.
fn node_mut<'a, T>(
    nodes: &'a mut BTreeMap<String, T>,
    kind: &str,
    name: &str,
) -> Result<&'a mut T> {
    nodes
        .get_mut(name)
        .ok_or_else(|| Error::Topology(format!("unknown {kind} '{name}'")))
}

/// A table's rows without their engine-assigned row ids, sorted.
fn logical_rows(db: &Database, table: &str) -> Vec<Vec<mdv_relstore::Value>> {
    let mut rows: Vec<Vec<mdv_relstore::Value>> = match db.table(table) {
        Ok(t) => t.iter().map(|(_, r)| r.clone()).collect(),
        Err(_) => Vec::new(),
    };
    rows.sort_unstable();
    rows
}

impl<S: StorageEngine + Send + Sync> MdvSystem<S> {
    fn empty(schema: RdfSchema, config: NetConfig) -> Self {
        MdvSystem {
            schema,
            network: Network::new(config),
            receivers: HashMap::new(),
            mdps: BTreeMap::new(),
            lmrs: BTreeMap::new(),
            mode: ReplicationMode::default(),
            raft_seed: 0,
            raft_compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            placement: PlacementConfig::default(),
            unmirrored: BTreeSet::new(),
        }
    }

    /// Switches the backbone into Raft mode (DESIGN.md §9). Must be called
    /// before any node is added: every MDP joins the consensus group as a
    /// voter at install time. `seed` drives the deterministic election
    /// timeouts, so whole fault schedules replay bit-identically.
    pub fn enable_raft(&mut self, seed: u64) -> Result<()> {
        if !self.mdps.is_empty() || !self.lmrs.is_empty() {
            return Err(Error::Topology(
                "enable_raft must be called before nodes are added".into(),
            ));
        }
        self.mode = ReplicationMode::Raft;
        self.raft_seed = seed;
        Ok(())
    }

    pub fn replication_mode(&self) -> ReplicationMode {
        self.mode
    }

    /// Sets how many applied log entries a voter accumulates before it
    /// truncates its log. A peer that falls behind the truncated prefix is
    /// caught up by InstallSnapshot, so small values are how tests reach
    /// that path. Applies to existing and future MDPs.
    pub fn set_raft_compact_threshold(&mut self, threshold: u64) {
        self.raft_compact_threshold = threshold.max(1);
        for mdp in self.mdps.values_mut() {
            mdp.raft_set_compact_threshold(self.raft_compact_threshold);
        }
    }

    /// The live leader of the highest term, if any voter currently leads.
    pub fn raft_leader(&self) -> Option<String> {
        self.mdps
            .iter()
            .filter(|(n, m)| !self.network.is_down(n) && m.raft_is_leader())
            .max_by_key(|(_, m)| m.raft.as_ref().map_or(0, |r| r.term))
            .map(|(n, _)| n.clone())
    }

    /// Read-only view of one voter's Raft state (`None` in LWW mode).
    pub fn raft_probe(&self, mdp: &str) -> Result<Option<RaftProbe>> {
        Ok(self.mdp(mdp)?.raft_probe())
    }

    fn install_mdp(&mut self, name: &str, mut mdp: Mdp<S>) -> Result<()> {
        if self.lmrs.contains_key(name) {
            return Err(Error::Topology(format!("'{name}' is already an LMR")));
        }
        if self.mode == ReplicationMode::Raft {
            mdp.raft_enable(self.raft_seed, self.network.now_ms());
            mdp.raft_set_compact_threshold(self.raft_compact_threshold);
        }
        let rx = self.network.register(name)?;
        self.network.mark_backbone(name);
        self.receivers.insert(name.to_owned(), rx);
        self.mdps.insert(name.to_owned(), mdp);
        match self.mode {
            // the new node takes over the shards it now owns (§11)
            ReplicationMode::Lww => self.rebalance(true),
            // a Raft group's voters are the table's members, down or not
            ReplicationMode::Raft => {
                let members: Vec<String> = self.mdps.keys().cloned().collect();
                self.install_table(&members)
            }
        }
    }

    /// A failed MDP accepts no administration requests.
    fn check_mdp_up(&self, mdp: &str) -> Result<()> {
        if self.network.is_down(mdp) {
            return Err(Error::Topology(format!("MDP '{mdp}' is down")));
        }
        Ok(())
    }

    fn check_lmr_slot(&self, name: &str, mdp: &str) -> Result<()> {
        self.mdp(mdp)?;
        if self.mdps.contains_key(name) {
            return Err(Error::Topology(format!("'{name}' is already an MDP")));
        }
        Ok(())
    }

    fn install_lmr(&mut self, name: &str, lmr: Lmr<S>) -> Result<()> {
        let rx = self.network.register(name)?;
        self.receivers.insert(name.to_owned(), rx);
        self.lmrs.insert(name.to_owned(), lmr);
        Ok(())
    }

    fn drain_mailbox(&mut self, name: &str) {
        if let Some(rx) = self.receivers.get(name) {
            while rx.try_recv().is_ok() {}
        }
    }

    pub fn schema(&self) -> &RdfSchema {
        &self.schema
    }

    pub fn mdp(&self, name: &str) -> Result<&Mdp<S>> {
        self.mdps
            .get(name)
            .ok_or_else(|| Error::Topology(format!("unknown MDP '{name}'")))
    }

    pub fn lmr(&self, name: &str) -> Result<&Lmr<S>> {
        self.lmrs
            .get(name)
            .ok_or_else(|| Error::Topology(format!("unknown LMR '{name}'")))
    }

    pub fn mdp_names(&self) -> Vec<&str> {
        self.mdps.keys().map(|s| s.as_str()).collect()
    }

    pub fn lmr_names(&self) -> Vec<&str> {
        self.lmrs.keys().map(|s| s.as_str()).collect()
    }

    pub fn network_stats(&self) -> NetStats {
        self.network.stats()
    }

    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Marks an MDP as failed: every message to or from it is black-holed
    /// and the mail already sitting in its inbox is lost, exactly as if the
    /// process had died with the machine. Under LWW the survivors rebalance
    /// the placement table without it. Its durable store (if any) is
    /// untouched — a failed MDP still holds its pre-failure state and serves
    /// it again after [`MdvSystem::heal_mdp`].
    pub fn fail_mdp(&mut self, name: &str) -> Result<()> {
        self.mdp(name)?;
        self.network.set_down(name, true);
        self.drain_mailbox(name);
        // under LWW the survivors immediately re-cover the failed node's
        // shards (epoch bump + repair); survivors keep any extra copies they
        // hold — pruning waits until the topology heals, so a flapping node
        // never triggers destructive churn (§11). A Raft group keeps its
        // voters.
        self.rebalance(false)
    }

    /// Brings a failed MDP back: held-back retransmissions against it resume,
    /// the system runs to quiescence, and under LWW the node rejoins the
    /// placement table, whose rebalance repairs the backbone by anti-entropy
    /// rounds until it converges (writes made while the node was down
    /// never reached it — only the digest exchange recovers those).
    pub fn heal_mdp(&mut self, name: &str) -> Result<()> {
        self.mdp(name)?;
        self.network.set_down(name, false);
        self.run_to_quiescence()?;
        // fold the healed node back into the table, hand its shards back
        // via repair, then prune the copies nobody owns anymore
        self.rebalance(true)
    }

    /// True when the network currently black-holes this node.
    pub fn is_down(&self, name: &str) -> bool {
        self.network.is_down(name)
    }

    /// Configures the MDP an LMR fails over to when its home goes silent
    /// (retransmission-budget exhaustion, DESIGN.md §7).
    pub fn set_backup_mdp(&mut self, lmr: &str, backup: &str) -> Result<()> {
        if self.placement.factor != PlacementConfig::ALL {
            return Err(Error::Config(
                "LMR backup failover needs R = all: a failover snapshot would \
                 clobber the per-sender alternate publication streams (§11)"
                    .into(),
            ));
        }
        self.mdp(backup)?;
        node_mut(&mut self.lmrs, "LMR", lmr)?.set_backup(Some(backup))
    }

    /// Sets the placement configuration (DESIGN.md §11): document shards
    /// (FNV-1a of the subject URI over `config.shards` buckets) are
    /// rendezvous-hashed onto `config.factor` live MDPs each, and the table
    /// is recomputed and installed. A write applies at its entry MDP when
    /// that MDP owns the document, else at the document's primary, and
    /// replicates to the other owners; an LMR's home publishes the
    /// documents it owns, and a document's primary the rest, so an LMR's
    /// rules are mirrored at every MDP that can publish to it. The default,
    /// R = [`PlacementConfig::ALL`], is full replication.
    ///
    /// The factor may change at any time; the shard space is fixed once an
    /// MDP exists. A numbered factor excludes periodic batch filtering and
    /// LMR backup failover, and placement is an LWW backbone: in Raft mode
    /// this returns [`Error::Config`].
    pub fn configure_placement(&mut self, config: PlacementConfig) -> Result<()> {
        if self.mode == ReplicationMode::Raft {
            return Err(Error::Config(
                "placement is LWW-only: under Raft every voter stores and the \
                 leader publishes everything, so a placement table would \
                 change nothing (§11.5)"
                    .into(),
            ));
        }
        if config.factor == 0 {
            return Err(Error::Config(
                "replication factor must be at least 1".into(),
            ));
        }
        if config.shards == 0 || config.shards > MAX_PLACEMENT_SHARDS {
            return Err(Error::Config(format!(
                "placement shard count must be between 1 and {MAX_PLACEMENT_SHARDS}"
            )));
        }
        if !self.mdps.is_empty() && config.shards != self.placement.shards {
            return Err(Error::Config(format!(
                "the placement shard space is fixed once an MDP exists (currently {}, requested {})",
                self.placement.shards, config.shards
            )));
        }
        if config.factor != PlacementConfig::ALL {
            if let Some(name) = self
                .mdps
                .iter()
                .find_map(|(n, m)| m.batch_size().map(|_| n))
            {
                return Err(Error::Config(format!(
                    "MDP '{name}' uses periodic batch filtering, which needs R = all"
                )));
            }
            if let Some(name) = self.lmrs.iter().find_map(|(n, l)| l.backup().map(|_| n)) {
                return Err(Error::Config(format!(
                    "LMR '{name}' has backup failover configured, which needs R = all"
                )));
            }
        }
        self.placement = config;
        self.rebalance(true)
    }

    /// Takes the placement configuration from the newest table the MDPs
    /// restored (state import), so a reloaded deployment keeps its factor.
    pub(crate) fn adopt_restored_placement(&mut self) {
        let newest = self
            .mdps
            .values()
            .map(|m| m.placement())
            .max_by_key(|t| t.epoch());
        if let Some(table) = newest {
            self.placement = PlacementConfig {
                factor: table.factor(),
                shards: table.shard_count(),
            };
        }
    }

    /// The placement configuration.
    pub fn placement_config(&self) -> PlacementConfig {
        self.placement
    }

    /// The placement table currently installed on the live backbone
    /// (`None` while no MDP is up).
    pub fn placement_table(&self) -> Option<&PlacementTable> {
        self.mdps
            .iter()
            .find(|(n, _)| !self.network.is_down(n))
            .map(|(_, m)| m.placement())
    }

    /// Epoch of the newest placement table an MDP holds (0 before the
    /// first MDP); every install takes the next one.
    pub fn placement_epoch(&self) -> u64 {
        let epochs = self.mdps.values().map(|m| m.placement().epoch());
        epochs.max().unwrap_or(0)
    }

    /// The MDP a resource URI routes to: the primary of the URI's document
    /// shard, whose registration path never takes a forwarding hop.
    pub fn mdp_for_uri(&self, uri: &str) -> Result<&str> {
        let table = self
            .placement_table()
            .ok_or_else(|| Error::Topology("no live MDP in the system".into()))?;
        let primary = table.primary_for(doc_uri_of(uri));
        self.mdps
            .get_key_value(primary)
            .map(|(k, _)| k.as_str())
            .ok_or_else(|| Error::Topology(format!("unknown MDP '{primary}'")))
    }

    fn live_mdps(&self) -> Vec<String> {
        self.mdps
            .keys()
            .filter(|n| !self.network.is_down(n))
            .cloned()
            .collect()
    }

    /// Computes the placement table over `members` at a fresh epoch and
    /// installs it on each of them.
    fn install_table(&mut self, members: &[String]) -> Result<()> {
        let PlacementConfig { factor, shards } = self.placement;
        let epoch = self.placement_epoch() + 1;
        let table = PlacementTable::compute(members, shards, factor, epoch);
        for (name, mdp) in self.mdps.iter_mut() {
            if members.contains(name) {
                mdp.set_placement(table.clone())?;
            }
        }
        Ok(())
    }

    /// Recomputes the placement table over the live MDP set at a fresh
    /// epoch, installs it, mirrors subscriptions where the table makes new
    /// publishers, and repairs the backbone so every owner holds its
    /// shards. With `prune`, copies on nodes outside their shard's replica
    /// set are then erased — done after heals and joins, never after a
    /// failure (no-prune-on-fail keeps a flapping node from shedding data
    /// the survivors may still need). LWW only: a Raft group keeps its
    /// voters, and its log and snapshot shipping is the repair.
    fn rebalance(&mut self, prune: bool) -> Result<()> {
        let live = self.live_mdps();
        if live.is_empty() || self.mode == ReplicationMode::Raft {
            return Ok(());
        }
        self.install_table(&live)?;
        self.sync_remote_subscriptions()?;
        self.run_to_quiescence()?;
        self.repair_backbone(64)?;
        if prune {
            for (name, mdp) in self.mdps.iter_mut() {
                if live.contains(name) {
                    mdp.prune_unowned()?;
                }
            }
        }
        Ok(())
    }

    /// Offers every active subscription rule to the MDPs the table makes
    /// publishers for its LMR (idempotent). A rebalance is where that set
    /// changes, or where a node's rule table can fall behind (it was down),
    /// so this re-offers the whole rule base; `subscribe` mirrors only
    /// what is new.
    fn sync_remote_subscriptions(&mut self) -> Result<()> {
        self.drop_stale_mirrors()?;
        // every accepted rule is mirrored below; only pending ones stay
        self.take_accepted_unmirrored();
        let subs: Vec<(String, u64)> = self
            .lmrs
            .iter()
            .flat_map(|(name, l)| {
                l.rules()
                    .filter(|(_, r)| matches!(r.status, RuleStatus::Active))
                    .map(|(id, _)| (name.clone(), id))
                    .collect::<Vec<_>>()
            })
            .collect();
        self.mirror_rules(&subs).map(drop)
    }

    /// Drops every mirrored rule of a known LMR at a live MDP the installed
    /// table no longer makes a publisher for that LMR, or that holds it for
    /// a former home; `mirror_rules` then registers it again under the
    /// LMR's current home where the table asks for it. (After a backup
    /// failover nothing needs registering: failover runs at R = all, where
    /// the new home owns every document.)
    fn drop_stale_mirrors(&mut self) -> Result<()> {
        let Some(table) = self.placement_table().cloned() else {
            return Ok(());
        };
        let mut mirrors: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for (name, mdp) in self.mdps.iter_mut() {
            if self.network.is_down(name) {
                continue;
            }
            for (_, (lmr, id, home)) in mdp.subscribers_sorted() {
                let (Some(home), Some(l)) = (home, self.lmrs.get(&lmr)) else {
                    continue;
                };
                let at = (mirrors.entry(l.mdp())).or_insert_with(|| table.mirrors_for(l.mdp()));
                if home != l.mdp() || !at.contains(name) {
                    mdp.remove_remote_subscription(&lmr, id)?;
                }
            }
        }
        Ok(())
    }

    /// Removes from `unmirrored` every rule that is no longer pending and
    /// returns the accepted ones as `(lmr, rule)`, in that order. Rejected
    /// and retracted rules are simply forgotten.
    fn take_accepted_unmirrored(&mut self) -> Vec<(String, u64)> {
        let lmrs = &self.lmrs;
        let mut accepted = Vec::new();
        self.unmirrored
            .retain(|(lmr, id)| match lmrs.get(lmr).and_then(|l| l.rule(*id)) {
                Some(rule) if rule.status == RuleStatus::Pending => true,
                Some(rule) if rule.status == RuleStatus::Active => {
                    accepted.push((lmr.clone(), *id));
                    false
                }
                _ => false,
            });
        accepted
    }

    /// Registers each of `rules`, an LMR's rule each, at every live MDP
    /// that publishes to the LMR and does not hold the rule yet: its home
    /// (which holds it unless the LMR's state was restored) and every MDP
    /// the placement table makes a publisher for it (§11), MDP by MDP in
    /// name order. Returns whether some MDP was new to a rule. A Raft group
    /// registers rules through its log only.
    fn mirror_rules(&mut self, rules: &[(String, u64)]) -> Result<bool> {
        if self.mode == ReplicationMode::Raft {
            return Ok(false);
        }
        // (mdp, lmr, rule, text, home), computed before any node changes
        let mut targets = Vec::new();
        if let Some(table) = self.placement_table() {
            let mut mirrors: BTreeMap<&str, Vec<String>> = BTreeMap::new();
            for (lmr, id) in rules {
                let Some(l) = self.lmrs.get(lmr) else {
                    continue;
                };
                let (home, id) = (l.mdp(), *id);
                let at = mirrors
                    .entry(home)
                    .or_insert_with(|| table.mirrors_for(home));
                for name in at.iter().map(String::as_str).chain([home]) {
                    let new = self
                        .mdps
                        .get(name)
                        .is_some_and(|m| !m.subscribers.knows(lmr, id));
                    if let (true, false, Some(rule)) = (new, self.network.is_down(name), l.rule(id))
                    {
                        let text = rule.text.clone();
                        targets.push((name.to_owned(), lmr.as_str(), id, text, home.to_owned()));
                    }
                }
            }
        }
        targets.sort();
        let registered = !targets.is_empty();
        for (name, lmr, id, text, home) in targets {
            if let Some(mdp) = self.mdps.get_mut(&name) {
                mdp.register_remote_subscription(lmr, id, &text, &home, &self.network)?;
            }
        }
        Ok(registered)
    }

    /// The MDP that applies an LWW write entering at `entry` (which must
    /// exist and be up — it is the node the client talks to): the entry
    /// itself when it owns the document, else the document's primary
    /// (§11).
    fn write_target(&self, entry: &str, resource_uri: &str) -> Result<String> {
        self.check_mdp_up(entry)?;
        let table = self.mdp(entry)?.placement();
        let doc = doc_uri_of(resource_uri);
        if table.owns_doc(entry, doc) {
            return Ok(entry.to_owned());
        }
        let primary = table.primary_for(doc).to_owned();
        self.check_mdp_up(&primary)?;
        Ok(primary)
    }

    /// One anti-entropy round: every live MDP sends its document digest,
    /// stamped with its table's epoch, to every other live MDP; receivers
    /// pull the newer documents they own via RepairRequest/RepairDocs
    /// (DESIGN.md §7.2). Runs to quiescence. The round itself is
    /// best-effort — under an active fault plan its messages can drop;
    /// [`MdvSystem::repair_backbone`] loops rounds to convergence. LWW
    /// only: under Raft digest/repair would bypass the replicated log.
    fn anti_entropy_round(&mut self) -> Result<()> {
        let alive = self.live_mdps();
        if alive.len() > 1 {
            self.network.note_anti_entropy_round();
            let digests: Vec<(&String, u64, Vec<crate::message::DigestEntry>)> = self
                .mdps
                .iter()
                .filter(|(n, _)| alive.contains(n))
                .map(|(n, m)| (n, m.placement().epoch(), m.digest()))
                .collect();
            for (from, epoch, entries) in &digests {
                for to in alive.iter().filter(|to| to != from) {
                    let (epoch, entries) = (*epoch, entries.clone());
                    self.network
                        .send(from, to, Message::PlacementDigest { epoch, entries })?;
                }
            }
        }
        self.run_to_quiescence()
    }

    /// Runs anti-entropy rounds until the backbone converges (see
    /// [`MdvSystem::backbone_converged`]), up to `max_rounds`; returns how
    /// many rounds it took.
    pub fn repair_backbone(&mut self, max_rounds: usize) -> Result<usize> {
        if self.mode == ReplicationMode::Raft {
            self.run_to_quiescence()?;
            return Ok(0);
        }
        for round in 0..max_rounds {
            if self.backbone_converged() {
                return Ok(round);
            }
            self.anti_entropy_round()?;
        }
        if self.backbone_converged() {
            Ok(max_rounds)
        } else {
            Err(Error::Topology(format!(
                "backbone still divergent after {max_rounds} anti-entropy rounds"
            )))
        }
    }

    /// True when every live owner of every document holds it at the
    /// backbone's newest `(version, deleted, hash)`, the total order the
    /// LWW merge uses (tombstones included). Non-owners are free to hold
    /// stale or no copies; at R = all every live MDP owns every document.
    pub fn backbone_converged(&self) -> bool {
        let live: Vec<(&String, &Mdp<S>)> = self
            .mdps
            .iter()
            .filter(|(n, _)| !self.network.is_down(n))
            .collect();
        let Some((_, first)) = live.first() else {
            return true;
        };
        let table = first.placement();
        let digests: BTreeMap<&str, BTreeMap<String, (u64, u8, u64)>> = live
            .iter()
            .map(|(n, m)| {
                let keys = m
                    .digest()
                    .into_iter()
                    .map(|e| (e.uri, (e.version, u8::from(e.deleted), e.hash)))
                    .collect();
                (n.as_str(), keys)
            })
            .collect();
        let mut newest: BTreeMap<&str, (u64, u8, u64)> = BTreeMap::new();
        for keys in digests.values() {
            for (uri, key) in keys {
                let entry = newest.entry(uri.as_str()).or_insert(*key);
                if *key > *entry {
                    *entry = *key;
                }
            }
        }
        newest.iter().all(|(uri, key)| {
            table
                .owners(table.shard_of(uri))
                .filter(|owner| !self.network.is_down(owner))
                .all(|owner| digests.get(owner).and_then(|keys| keys.get(*uri)) == Some(key))
        })
    }

    /// Registers a subscription rule at an LMR (which forwards it to its
    /// MDP) and runs the system to quiescence. Fails when the MDP rejected
    /// the rule.
    pub fn subscribe(&mut self, lmr: &str, rule_text: &str) -> Result<u64> {
        let id = node_mut(&mut self.lmrs, "LMR", lmr)?.subscribe(rule_text, &self.network)?;
        self.run_to_quiescence()?;
        let status = self.lmr(lmr)?.rule(id).map(|r| r.status.clone());
        match status {
            Some(RuleStatus::Active) => {
                // mirror the accepted rule — and any rule accepted since its
                // own subscribe returned pending — at every MDP the table
                // makes a publisher for the LMR (§11); none at R = all
                let mut accepted = self.take_accepted_unmirrored();
                accepted.push((lmr.to_owned(), id));
                if self.mirror_rules(&accepted)? {
                    self.run_to_quiescence()?;
                }
                Ok(id)
            }
            Some(RuleStatus::Failed(e)) => Err(Error::Subscription(e)),
            Some(RuleStatus::Pending) => {
                self.unmirrored.insert((lmr.to_owned(), id));
                Err(Error::Subscription(
                    "subscription still pending after quiescence".into(),
                ))
            }
            None => Err(Error::Subscription(format!("LMR '{lmr}' has no rule {id}"))),
        }
    }

    /// Retracts a subscription.
    pub fn unsubscribe(&mut self, lmr: &str, rule: u64) -> Result<()> {
        node_mut(&mut self.lmrs, "LMR", lmr)?.unsubscribe(rule, &self.network)?;
        // retract the mirror copies; the home MDP hears the regular
        // Unsubscribe message
        for (name, mdp) in self.mdps.iter_mut() {
            if !self.network.is_down(name) {
                mdp.remove_remote_subscription(lmr, rule)?;
            }
        }
        self.run_to_quiescence()
    }

    /// Registers a document at an MDP (metadata administration, §2.2); the
    /// MDP filters, publishes, and replicates across the backbone.
    pub fn register_document(&mut self, mdp: &str, doc: &Document) -> Result<()> {
        self.put_document(mdp, doc.uri(), Some(doc), false)
    }

    /// Re-registers a modified document.
    pub fn update_document(&mut self, mdp: &str, doc: &Document) -> Result<()> {
        self.put_document(mdp, doc.uri(), Some(doc), true)
    }

    /// Deletes a document everywhere.
    pub fn delete_document(&mut self, mdp: &str, uri: &str) -> Result<()> {
        self.put_document(mdp, uri, None, true)
    }

    /// The one body of the document operations: `doc` of `None` deletes,
    /// and `registered` is whether the operation names a registered
    /// document. Under LWW the MDP that owns the document — the entry, or
    /// else the document's primary — checks and applies the put, and the
    /// system runs to quiescence. Under Raft the entry MDP
    /// (the administration endpoint the client talks to) must exist and be
    /// up; after quiescence it forwards the put to the leader, which checks
    /// it against its own state and proposes it, and the system is driven
    /// until the entry commits (or provably cannot). An `Unavailable` error
    /// means the write has *not* taken effect yet and may be retried after
    /// connectivity returns; the entry may still commit later, so a retry
    /// can meet the entry check's error.
    fn put_document(
        &mut self,
        entry: &str,
        uri: &str,
        doc: Option<&Document>,
        registered: bool,
    ) -> Result<()> {
        if self.mode == ReplicationMode::Lww {
            let target = self.write_target(entry, uri)?;
            node_mut(&mut self.mdps, "MDP", &target)?.local_put(
                uri,
                doc,
                registered,
                &self.network,
            )?;
            return self.run_to_quiescence();
        }
        self.mdp(entry)?;
        self.check_mdp_up(entry)?;
        self.run_to_quiescence()?;
        let leader = self.raft_leader().ok_or_else(|| {
            Error::Unavailable("no raft leader (quorum unreachable or election pending)".into())
        })?;
        // the administration request travels through its entry MDP: a
        // partitioned entry cannot forward to the leader, so the client
        // sees unavailability rather than a silently rerouted write
        if entry != leader && self.network.link_blocked_until(entry, &leader).is_some() {
            return Err(Error::Unavailable(format!(
                "entry MDP '{entry}' cannot reach the leader '{leader}'"
            )));
        }
        let m = node_mut(&mut self.mdps, "MDP", &leader)?;
        m.check_document(uri, registered)?;
        let (uri, xml) = (uri.to_owned(), doc.map(write_document));
        let (index, term) = m.raft_propose(RaftCmd::Put { uri, xml }, &self.network)?;
        self.run_to_quiescence()?;
        let committed = self.mdps.iter().any(|(name, m)| {
            !self.network.is_down(name)
                && m.raft
                    .as_ref()
                    .is_some_and(|r| r.commit >= index && r.term_at(index) == Some(term))
        });
        if committed {
            Ok(())
        } else {
            Err(Error::Unavailable(format!(
                "write at log index {index} (term {term}) did not reach a quorum"
            )))
        }
    }

    /// Switches an MDP between immediate filtering (the default) and
    /// periodic batch filtering (paper §4): with `Some(n)`, registrations
    /// queue and the filter runs once every `n` documents or on
    /// [`MdvSystem::flush`].
    pub fn set_batch_size(&mut self, mdp: &str, batch_size: Option<usize>) -> Result<()> {
        if self.mode == ReplicationMode::Raft && batch_size.is_some() {
            return Err(Error::Topology(
                "periodic batch filtering bypasses the replicated log; unavailable in Raft mode"
                    .into(),
            ));
        }
        if self.placement.factor != PlacementConfig::ALL && batch_size.is_some() {
            return Err(Error::Config(
                "periodic batch filtering needs R = all: a queued batch would \
                 flush after a rebalance moved its shard (§11)"
                    .into(),
            ));
        }
        node_mut(&mut self.mdps, "MDP", mdp)?.set_batch_size(batch_size);
        Ok(())
    }

    /// Filters and publishes an MDP's pending document batch.
    pub fn flush(&mut self, mdp: &str) -> Result<()> {
        self.check_mdp_up(mdp)?;
        node_mut(&mut self.mdps, "MDP", mdp)?.flush(&self.network)?;
        self.run_to_quiescence()
    }

    /// Runs an LMR's reference-counting garbage collector; returns how many
    /// resources it evicted.
    pub fn collect_garbage_at(&mut self, lmr: &str) -> Result<usize> {
        node_mut(&mut self.lmrs, "LMR", lmr)?.collect_garbage()
    }

    /// Registers metadata that stays local to one LMR.
    pub fn register_local_metadata(&mut self, lmr: &str, doc: &Document) -> Result<()> {
        node_mut(&mut self.lmrs, "LMR", lmr)?.register_local_metadata(doc)
    }

    /// Evaluates a query at an LMR against its local cache.
    pub fn query(&self, lmr: &str, query_text: &str) -> Result<Vec<Resource>> {
        self.lmr(lmr)?.query(query_text)
    }

    /// Delivers queued messages until no node has pending mail *and* no
    /// protocol message is awaiting an ack. Nodes are drained in name order
    /// and each mailbox batch is processed in delivery-time order, so runs
    /// are deterministic (and injected jitter actually reorders handling).
    ///
    /// When every mailbox is empty but unacked protocol messages remain
    /// (their originals were dropped by the fault plan), the loop fires due
    /// retransmissions — advancing the logical clock to the next retry
    /// deadline when needed — until the at-least-once handshakes complete.
    /// With an inert fault plan nothing is ever unacked at drain time, so
    /// no retransmission fires and the schedule matches the fault-free
    /// transport exactly.
    ///
    /// An LMR that failed over to its backup on the way is served by its
    /// new home alone: the mirrors held for its former home are dropped.
    pub fn run_to_quiescence(&mut self) -> Result<()> {
        if self.pump()? {
            self.drop_stale_mirrors()?;
        }
        Ok(())
    }

    /// The loop of [`MdvSystem::run_to_quiescence`]; returns whether an LMR
    /// failed over to its backup.
    fn pump(&mut self) -> Result<bool> {
        let mode = self.mode;
        let MdvSystem {
            network,
            receivers,
            mdps,
            lmrs,
            ..
        } = self;
        let mut names: Vec<String> = receivers.keys().cloned().collect();
        names.sort();
        // Per-call budgets: a partitioned minority keeps retransmitting (and,
        // in Raft mode, a minority leader keeps heartbeating) forever, so
        // rounds that only resend — never deliver — are capped. With the
        // inert fault plan nothing is ever unacked at drain time and these
        // counters stay untouched, keeping the fault-free schedule
        // byte-identical.
        let mut election_budget = ELECTION_BUDGET;
        let mut pump_budget = PUMP_BUDGET;
        let mut stall_rounds: u32 = 0;
        let mut failed_over = false;
        loop {
            let mut progressed = false;
            for name in &names {
                if network.is_down(name) {
                    continue; // a failed node executes nothing
                }
                let rx = &receivers[name];
                let mut batch = Vec::new();
                while let Ok(env) = rx.try_recv() {
                    batch.push(env);
                }
                // stable: equal delivery times keep their send order, which
                // is the pre-fault-plan behaviour
                batch.sort_by_key(|env| env.deliver_at_ms);
                for env in batch {
                    network.advance_clock(env.deliver_at_ms);
                    // a name can linger in `receivers` after its node is gone
                    // (a crash_and_restart that failed its recovery oracle
                    // removes the handler but keeps the mailbox). Drained mail
                    // for such a ghost is discarded and does NOT count as
                    // progress — otherwise a peer retransmitting to the dead
                    // node would reset the stall budget forever.
                    if let Some(mdp) = mdps.get_mut(name) {
                        progressed = true;
                        mdp.handle(env, network)?;
                    } else if let Some(lmr) = lmrs.get_mut(name) {
                        let withheld = lmr.withheld;
                        lmr.handle(env, network)?;
                        progressed |= lmr.withheld == withheld;
                    }
                }
            }
            if progressed {
                stall_rounds = 0;
                continue;
            }
            let mut resent = false;
            for (name, mdp) in mdps.iter_mut() {
                if network.is_down(name) {
                    continue;
                }
                resent |= mdp.retransmit_due(network)?;
            }
            for lmr in lmrs.values_mut() {
                let awaiting = lmr.awaiting_welcome;
                resent |= lmr.retransmit_due(network)?;
                failed_over |= !awaiting && lmr.awaiting_welcome;
            }
            let mut raft_wake = None;
            if mode == ReplicationMode::Raft {
                let (acted, wake) =
                    Self::raft_pump(network, mdps, lmrs, &mut election_budget, &mut pump_budget)?;
                resent |= acted;
                raft_wake = wake;
            }
            if resent {
                stall_rounds += 1;
                if stall_rounds > STALL_ROUND_BUDGET {
                    // every resend is being eaten by a (permanent) partition;
                    // declare quiescence — the unacked entries stay queued
                    // and go out again after the next heal
                    return Ok(failed_over);
                }
                continue;
            }
            let next_retry = mdps
                .iter()
                .filter(|(name, _)| !network.is_down(name))
                .filter_map(|(_, m)| m.next_retry_at(network))
                .chain(lmrs.values().filter_map(|l| l.next_retry_at(network)))
                .chain(raft_wake)
                .min();
            match next_retry {
                // nothing in flight, nothing unacked (entries held against
                // a down peer don't count — they cannot progress until a
                // heal): quiescent
                None => return Ok(failed_over),
                // jump the logical clock to the next retry deadline
                Some(at) => {
                    stall_rounds += 1;
                    if stall_rounds > STALL_ROUND_BUDGET {
                        return Ok(failed_over);
                    }
                    network.advance_clock(at);
                }
            }
        }
    }

    /// One idle-time Raft driving step: leader heartbeats/log shipping to
    /// lagging reachable peers, elections on expired deadlines (gated on a
    /// reachable quorum so hopeless candidacies don't churn terms), and LMR
    /// re-homing to the current leader. Returns `(acted, wake_at)`:
    /// `acted` when any message was sent or state stepped, else the earliest
    /// logical-clock deadline that would unblock more work.
    fn raft_pump(
        network: &Network,
        mdps: &mut BTreeMap<String, Mdp<S>>,
        lmrs: &mut BTreeMap<String, Lmr<S>>,
        election_budget: &mut u32,
        pump_budget: &mut u32,
    ) -> Result<(bool, Option<u64>)> {
        let now = network.now_ms();
        let majority = mdps.len() / 2 + 1;
        let open = |a: &str, b: &str| network.link_blocked_until(a, b).is_none();

        struct View {
            term: u64,
            role: RaftRole,
            last_index: u64,
            commit: u64,
            heartbeat_due_ms: u64,
            election_deadline_ms: u64,
            down: bool,
        }
        let views: BTreeMap<String, View> = mdps
            .iter()
            .filter_map(|(name, m)| {
                m.raft.as_ref().map(|r| {
                    (
                        name.clone(),
                        View {
                            term: r.term,
                            role: r.role,
                            last_index: r.last_index(),
                            commit: r.commit,
                            heartbeat_due_ms: r.heartbeat_due_ms,
                            election_deadline_ms: r.election_deadline_ms,
                            down: network.is_down(name),
                        },
                    )
                })
            })
            .collect();

        let mut acted = false;
        let mut wake: Option<u64> = None;
        let bump = |w: &mut Option<u64>, at: u64| {
            *w = Some(w.map_or(at, |cur| cur.min(at)));
        };

        // 1. leader pump: ship heartbeats / missing entries / commit index
        //    to reachable peers that still lag
        for (name, v) in &views {
            if v.down || v.role != RaftRole::Leader {
                continue;
            }
            let uncommitted = v.commit < v.last_index;
            let (lagging, blocked): (Vec<&String>, Vec<&String>) = views
                .iter()
                .filter(|(peer, pv)| {
                    *peer != name
                        && !pv.down
                        && (uncommitted
                            || pv.term != v.term
                            || pv.last_index != v.last_index
                            || pv.commit != v.commit)
                })
                .map(|(peer, _)| peer)
                .partition(|peer| open(name, peer));
            if lagging.is_empty() {
                // peers that lag behind a finite partition window will become
                // reachable later: wake when the earliest window lifts
                let lifts = blocked
                    .iter()
                    .filter_map(|p| network.link_blocked_until(name, p));
                for until in lifts.filter(|&until| until != u64::MAX) {
                    bump(&mut wake, until);
                }
                continue;
            }
            if *pump_budget == 0 {
                continue; // minority leader spinning against a wall: give up
            }
            if now < v.heartbeat_due_ms {
                bump(&mut wake, v.heartbeat_due_ms);
                continue;
            }
            let Some(mdp) = mdps.get_mut(name) else {
                continue;
            };
            *pump_budget -= 1;
            for peer in &lagging {
                mdp.raft_send_append(peer, network)?;
            }
            if let Some(r) = mdp.raft.as_mut() {
                r.heartbeat_due_ms = now + HEARTBEAT_MS;
            }
            acted = true;
        }

        // 2. elections: a live non-leader whose deadline passed starts one,
        //    but only if no live leader of an adequate term can reach it and
        //    a quorum is reachable from it (hopeless candidacies would churn
        //    terms without ever winning)
        if !acted {
            for (name, v) in &views {
                if v.down || v.role == RaftRole::Leader || *election_budget == 0 {
                    continue;
                }
                let led = views.iter().any(|(peer, pv)| {
                    peer != name
                        && !pv.down
                        && pv.role == RaftRole::Leader
                        && pv.term >= v.term
                        && open(peer, name)
                });
                if led {
                    continue;
                }
                let reachable = 1 + views
                    .iter()
                    .filter(|(peer, pv)| {
                        *peer != name && !pv.down && open(name, peer) && open(peer, name)
                    })
                    .count();
                if reachable < majority {
                    // a finite partition window may restore quorum later
                    let lifts = views
                        .keys()
                        .filter(|peer| *peer != name)
                        .filter_map(|peer| {
                            let there = network.link_blocked_until(name, peer);
                            let back = network.link_blocked_until(peer, name);
                            there.max(back).filter(|&until| until != u64::MAX)
                        });
                    if let Some(at) = lifts.min() {
                        bump(&mut wake, at);
                    }
                    continue;
                }
                if now < v.election_deadline_ms {
                    bump(&mut wake, v.election_deadline_ms);
                    continue;
                }
                let Some(mdp) = mdps.get_mut(name) else {
                    continue;
                };
                *election_budget -= 1;
                mdp.raft_start_election(network)?;
                acted = true;
                break; // one candidacy per round keeps elections serial
            }
        }

        // 3. LMR homing: with a unique live leader settled, re-home every
        //    reachable LMR whose configured MDP isn't it — also one still
        //    awaiting the welcome of a deposed leader, which never comes
        if !acted {
            let leaders: Vec<(&String, u64)> = views
                .iter()
                .filter(|(_, v)| !v.down && v.role == RaftRole::Leader)
                .map(|(name, v)| (name, v.term))
                .collect();
            let max_term = leaders.iter().map(|(_, t)| *t).max();
            let at_max: Vec<&String> = leaders
                .iter()
                .filter(|(_, t)| Some(*t) == max_term)
                .map(|(n, _)| *n)
                .collect();
            if let [leader] = at_max[..] {
                let leader = leader.clone();
                for (name, lmr) in lmrs.iter_mut() {
                    if network.is_down(name)
                        || lmr.mdp() == leader
                        || !open(name, &leader)
                        || !open(&leader, name)
                    {
                        continue;
                    }
                    lmr.rehome_to(&leader, network)?;
                    acted = true;
                }
            }
        }

        Ok((acted, wake))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn two_tier() -> MdvSystem {
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("mdp1").unwrap();
        sys.add_lmr("lmr1", "mdp1").unwrap();
        sys
    }

    const RULE: &str = "search CycleProvider c register c where c.serverInformation.memory > 64";

    #[test]
    fn end_to_end_subscribe_register_query() {
        let mut sys = two_tier();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.register_document("mdp1", &doc(1, "a.uni-passau.de", 128))
            .unwrap();
        sys.register_document("mdp1", &doc(2, "b.org", 32)).unwrap();
        // the matching provider and its companion arrived in the cache
        assert!(sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));
        assert!(sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#info"));
        assert!(!sys.lmr("lmr1").unwrap().is_cached("doc2.rdf#host"));
        // local query over the cache answers without the MDP
        let hits = sys
            .query("lmr1", "search CycleProvider c register c")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uri().as_str(), "doc1.rdf#host");
    }

    #[test]
    fn initial_backfill_on_late_subscription() {
        let mut sys = two_tier();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        sys.subscribe("lmr1", RULE).unwrap();
        assert!(sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));
    }

    #[test]
    fn bad_rule_surfaces_error() {
        let mut sys = two_tier();
        let err = sys
            .subscribe("lmr1", "search Unknown u register u")
            .unwrap_err();
        assert!(matches!(err, Error::Subscription(_)));
    }

    #[test]
    fn update_propagates_to_cache() {
        let mut sys = two_tier();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        // update: memory drops to 32 → cache evicts host and companion
        sys.update_document("mdp1", &doc(1, "a.org", 32)).unwrap();
        assert!(!sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));
        assert!(!sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#info"));
        // update back: re-added
        sys.update_document("mdp1", &doc(1, "a.org", 256)).unwrap();
        assert!(sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));
        let cached = sys
            .lmr("lmr1")
            .unwrap()
            .cached_resource("doc1.rdf#info")
            .unwrap()
            .unwrap();
        assert_eq!(cached.property("memory").unwrap().as_int(), Some(256));
    }

    #[test]
    fn still_matching_update_refreshes_companion_copy() {
        let mut sys = two_tier();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        sys.update_document("mdp1", &doc(1, "a.org", 512)).unwrap();
        let cached = sys
            .lmr("lmr1")
            .unwrap()
            .cached_resource("doc1.rdf#info")
            .unwrap()
            .unwrap();
        assert_eq!(cached.property("memory").unwrap().as_int(), Some(512));
    }

    #[test]
    fn delete_document_clears_cache() {
        let mut sys = two_tier();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        sys.delete_document("mdp1", "doc1.rdf").unwrap();
        assert!(sys.lmr("lmr1").unwrap().cached_uris().is_empty());
    }

    #[test]
    fn empty_document_can_be_deleted_and_registered_again() {
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("m1").unwrap();
        sys.add_mdp("m2").unwrap();
        let empty = Document::new("e.rdf");
        sys.register_document("m1", &empty).unwrap();
        sys.delete_document("m1", "e.rdf").unwrap();
        for m in ["m1", "m2"] {
            assert_eq!(sys.mdp(m).unwrap().engine().document_count(), 0, "{m}");
        }
        sys.register_document("m1", &empty).unwrap();
        assert!(sys.backbone_converged());
    }

    #[test]
    fn backbone_replication_reaches_remote_lmr() {
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("mdp-eu").unwrap();
        sys.add_mdp("mdp-us").unwrap();
        sys.add_lmr("lmr-us", "mdp-us").unwrap();
        sys.subscribe("lmr-us", RULE).unwrap();
        // registered in Europe, delivered in the US through replication
        sys.register_document("mdp-eu", &doc(1, "a.org", 128))
            .unwrap();
        assert!(sys
            .mdp("mdp-us")
            .unwrap()
            .engine()
            .document("doc1.rdf")
            .is_some());
        assert!(sys.lmr("lmr-us").unwrap().is_cached("doc1.rdf#host"));
        // update + delete also replicate
        sys.update_document("mdp-eu", &doc(1, "a.org", 16)).unwrap();
        assert!(!sys.lmr("lmr-us").unwrap().is_cached("doc1.rdf#host"));
        sys.delete_document("mdp-eu", "doc1.rdf").unwrap();
        assert!(sys
            .mdp("mdp-us")
            .unwrap()
            .engine()
            .document("doc1.rdf")
            .is_none());
    }

    #[test]
    fn three_mdps_replicate_exactly_once_each() {
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("m1").unwrap();
        sys.add_mdp("m2").unwrap();
        sys.add_mdp("m3").unwrap();
        sys.register_document("m1", &doc(1, "a.org", 1)).unwrap();
        // origin sends to 2 peers; peers do not re-replicate
        assert_eq!(sys.network().traffic_by_kind()["replicate"], 2);
        for m in ["m1", "m2", "m3"] {
            assert!(sys.mdp(m).unwrap().engine().document("doc1.rdf").is_some());
        }
    }

    #[test]
    fn unsubscribe_evicts_and_stops_flow() {
        let mut sys = two_tier();
        let rule = sys.subscribe("lmr1", RULE).unwrap();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        assert!(sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));
        sys.unsubscribe("lmr1", rule).unwrap();
        assert!(sys.lmr("lmr1").unwrap().cached_uris().is_empty());
        sys.register_document("mdp1", &doc(2, "a.org", 128))
            .unwrap();
        assert!(sys.lmr("lmr1").unwrap().cached_uris().is_empty());
    }

    #[test]
    fn local_metadata_stays_local() {
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("mdp1").unwrap();
        sys.add_lmr("lmr1", "mdp1").unwrap();
        sys.add_lmr("lmr2", "mdp1").unwrap();
        let local = Document::new("local.rdf").with_resource(
            Resource::new(UriRef::new("local.rdf", "s"), "ServerInformation")
                .with("memory", Term::literal("1"))
                .with("cpu", Term::literal("1")),
        );
        sys.register_local_metadata("lmr1", &local).unwrap();
        assert!(sys.lmr("lmr1").unwrap().is_cached("local.rdf#s"));
        // neither the MDP nor the sibling LMR ever see it
        assert!(sys
            .mdp("mdp1")
            .unwrap()
            .engine()
            .document("local.rdf")
            .is_none());
        assert!(!sys.lmr("lmr2").unwrap().is_cached("local.rdf#s"));
    }

    #[test]
    fn topology_errors() {
        let mut sys = MdvSystem::new(schema());
        sys.add_mdp("m").unwrap();
        assert!(sys.add_mdp("m").is_err());
        assert!(sys.add_lmr("l", "missing").is_err());
        sys.add_lmr("l", "m").unwrap();
        assert!(sys.add_mdp("l").is_err());
        assert!(sys.register_document("nope", &doc(1, "a", 1)).is_err());
        assert!(sys.query("nope", "search C c register c").is_err());
    }

    #[test]
    fn periodic_batch_mode_defers_publication() {
        let mut sys = two_tier();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.set_batch_size("mdp1", Some(3)).unwrap();
        // two registrations queue up without filtering
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        sys.register_document("mdp1", &doc(2, "a.org", 128))
            .unwrap();
        assert!(sys.lmr("lmr1").unwrap().cached_uris().is_empty());
        assert_eq!(sys.mdp("mdp1").unwrap().pending_documents(), 2);
        // the third registration reaches the batch size: filter runs
        sys.register_document("mdp1", &doc(3, "a.org", 128))
            .unwrap();
        assert_eq!(sys.mdp("mdp1").unwrap().pending_documents(), 0);
        assert_eq!(sys.lmr("lmr1").unwrap().cached_uris().len(), 6);
        // explicit flush drains a partial batch
        sys.register_document("mdp1", &doc(4, "a.org", 128))
            .unwrap();
        assert!(!sys.lmr("lmr1").unwrap().is_cached("doc4.rdf#host"));
        sys.flush("mdp1").unwrap();
        assert!(sys.lmr("lmr1").unwrap().is_cached("doc4.rdf#host"));
    }

    #[test]
    fn updates_flush_pending_batches_first() {
        let mut sys = two_tier();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.set_batch_size("mdp1", Some(100)).unwrap();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        // updating the still-pending document forces the batch through
        sys.update_document("mdp1", &doc(1, "a.org", 16)).unwrap();
        assert_eq!(sys.mdp("mdp1").unwrap().pending_documents(), 0);
        assert!(!sys.lmr("lmr1").unwrap().is_cached("doc1.rdf#host"));
    }

    #[test]
    fn simulated_latency_accumulates() {
        let config = NetConfig {
            default_latency_ms: 50,
            ..NetConfig::default()
        };
        let mut sys = MdvSystem::with_net_config(schema(), config);
        sys.add_mdp("mdp1").unwrap();
        sys.add_lmr("lmr1", "mdp1").unwrap();
        sys.subscribe("lmr1", RULE).unwrap();
        sys.register_document("mdp1", &doc(1, "a.org", 128))
            .unwrap();
        let stats = sys.network_stats();
        assert!(stats.clock_ms >= 100, "subscribe + publish hops: {stats:?}");
        assert!(stats.messages >= 3);
        assert!(stats.bytes > 0);
    }

    fn raft_three(seed: u64) -> MdvSystem {
        let mut sys = MdvSystem::new(schema());
        sys.enable_raft(seed).unwrap();
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).unwrap();
        }
        sys
    }

    #[test]
    fn raft_end_to_end_subscribe_register_query() {
        let mut sys = raft_three(7);
        sys.add_lmr("l1", "m1").unwrap();
        sys.subscribe("l1", RULE).unwrap();
        sys.register_document("m1", &doc(1, "a.uni-passau.de", 128))
            .unwrap();
        sys.register_document("m2", &doc(2, "b.org", 32)).unwrap();
        assert_eq!(sys.replication_mode(), ReplicationMode::Raft);
        assert!(sys.raft_leader().is_some());
        // every voter applied the same committed log: identical doc sets
        assert!(sys.backbone_converged());
        for m in ["m1", "m2", "m3"] {
            assert!(sys.mdp(m).unwrap().engine().document("doc1.rdf").is_some());
        }
        // the LMR cache flows from the log apply on the leader
        assert!(sys.lmr("l1").unwrap().is_cached("doc1.rdf#host"));
        assert!(sys.lmr("l1").unwrap().is_cached("doc1.rdf#info"));
        assert!(!sys.lmr("l1").unwrap().is_cached("doc2.rdf#host"));
        let hits = sys
            .query("l1", "search CycleProvider c register c")
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn raft_committed_write_survives_leader_failure_with_lmr_rehoming() {
        let mut sys = raft_three(11);
        sys.add_lmr("l1", "m1").unwrap();
        sys.subscribe("l1", RULE).unwrap();
        sys.register_document("m1", &doc(1, "a.org", 128)).unwrap();
        let leader = sys.raft_leader().expect("leader elected");
        assert_eq!(sys.lmr("l1").unwrap().mdp(), leader, "LMR homed to leader");

        // kill the leader: a majority survives, a new leader takes over
        sys.fail_mdp(&leader).unwrap();
        sys.run_to_quiescence().unwrap();
        let new_leader = sys.raft_leader().expect("new leader after failover");
        assert_ne!(new_leader, leader);
        assert_eq!(
            sys.lmr("l1").unwrap().mdp(),
            new_leader,
            "LMR re-homed automatically"
        );
        // the committed write survived and new writes flow
        let entry = if new_leader == "m2" { "m2" } else { "m3" };
        sys.register_document(entry, &doc(2, "b.org", 96)).unwrap();
        assert!(sys.backbone_converged());
        for m in ["m1", "m2", "m3"] {
            if sys.is_down(m) {
                continue;
            }
            assert!(sys.mdp(m).unwrap().engine().document("doc1.rdf").is_some());
            assert!(sys.mdp(m).unwrap().engine().document("doc2.rdf").is_some());
        }
        assert!(sys.lmr("l1").unwrap().is_cached("doc2.rdf#host"));

        // heal: the old leader catches up from the log, no anti-entropy
        sys.heal_mdp(&leader).unwrap();
        assert!(sys.backbone_converged());
        assert_eq!(sys.network_stats().anti_entropy_rounds, 0);
        assert!(sys
            .mdp(&leader)
            .unwrap()
            .engine()
            .document("doc2.rdf")
            .is_some());
    }

    #[test]
    fn raft_writes_unavailable_without_quorum() {
        let mut sys = raft_three(13);
        sys.register_document("m1", &doc(1, "a.org", 128)).unwrap();
        sys.fail_mdp("m2").unwrap();
        sys.fail_mdp("m3").unwrap();
        let err = sys
            .register_document("m1", &doc(2, "b.org", 96))
            .unwrap_err();
        assert!(
            matches!(err, Error::Unavailable(_)),
            "minority write must fail Unavailable, got: {err}"
        );
        // the failed proposal is not half-applied anywhere live
        assert!(sys
            .mdp("m1")
            .unwrap()
            .engine()
            .document("doc2.rdf")
            .is_none());
        // quorum back: writes flow again and everyone converges
        sys.heal_mdp("m2").unwrap();
        sys.heal_mdp("m3").unwrap();
        sys.register_document("m1", &doc(3, "c.org", 80)).unwrap();
        assert!(sys.backbone_converged());
    }

    #[test]
    fn raft_quiescence_terminates_under_permanent_partition() {
        // a permanent 3-way split starting at t = 1_000_000: no quorum is
        // reachable anywhere, so elections must not churn and quiescence
        // must terminate instead of driving the clock forever
        const SPLIT_MS: u64 = 1_000_000;
        let mut config = NetConfig::default();
        for (a, b) in [("m1", "m2"), ("m1", "m3"), ("m2", "m3")] {
            config.faults.partition_both(a, b, SPLIT_MS, u64::MAX);
        }
        let mut sys = MdvSystem::with_net_config(schema(), config);
        sys.enable_raft(17).unwrap();
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).unwrap();
        }
        sys.register_document("m1", &doc(1, "a.org", 128)).unwrap();
        assert!(sys.raft_leader().is_some());

        sys.network().advance_clock(SPLIT_MS);
        let err = sys
            .register_document("m1", &doc(2, "b.org", 96))
            .unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "got: {err}");
        let after = sys.network_stats().clock_ms;
        assert!(
            after < SPLIT_MS + 600_000,
            "quiescence ran the clock to {after}ms under a permanent partition"
        );
        // the pre-split committed write is still served by every node
        for m in ["m1", "m2", "m3"] {
            assert!(sys.mdp(m).unwrap().engine().document("doc1.rdf").is_some());
        }
    }

    #[test]
    fn lww_quiescence_terminates_under_permanent_partition() {
        // the LWW latent gap this PR fixes: a replication to a partitioned
        // (but not down) peer is dropped at send time, so the sender
        // retransmitted forever and run_to_quiescence never returned; the
        // stall budget now caps it
        let mut config = NetConfig::default();
        config.faults.partition_both("m1", "m2", 0, u64::MAX);
        let mut sys = MdvSystem::with_net_config(schema(), config);
        sys.add_mdp("m1").unwrap();
        sys.add_mdp("m2").unwrap();
        sys.register_document("m1", &doc(1, "a.org", 128)).unwrap();
        assert!(
            sys.network_stats().clock_ms < 600_000,
            "quiescence spun on the partitioned replication"
        );
        // the write landed at the reachable node and stays queued for m2
        assert!(sys
            .mdp("m1")
            .unwrap()
            .engine()
            .document("doc1.rdf")
            .is_some());
        assert!(sys.mdp("m1").unwrap().unacked_replications() > 0);
    }

    #[test]
    fn raft_mode_rejects_batch_filtering_and_late_enable() {
        let mut sys = raft_three(19);
        assert!(sys.set_batch_size("m1", Some(4)).is_err());
        assert!(sys.set_batch_size("m1", None).is_ok());
        assert!(sys.enable_raft(1).is_err(), "enable after nodes must fail");
    }
}
