//! The simulated network connecting MDV nodes.
//!
//! The paper deploys MDPs and LMRs across the Internet; this reproduction
//! substitutes a deterministic in-process transport (see DESIGN.md): every
//! node owns an unbounded channel, messages carry a logical delivery time
//! derived from configurable per-link latencies, and every send is recorded
//! in a log so tests and examples can assert on traffic.
//!
//! The transport can additionally inject faults — drops, duplicates,
//! delivery jitter (reordering), latency spikes, and timed partitions —
//! from a seedable [`FaultPlan`]. Given the same `(NetConfig, seed)` and
//! the same sequence of sends, the injected faults are bit-identical,
//! which is what makes the simulation tests in `tests/fault_sim.rs`
//! replayable. An inert (all-zero) plan draws no randomness and leaves
//! the transport byte-identical to the fault-free implementation.

use std::collections::{HashMap, HashSet};

use mdv_runtime::channel::{unbounded, Receiver, Sender};
use mdv_runtime::rng::Prng;
use mdv_runtime::sync::Mutex;

use crate::error::{Error, Result};
use crate::message::Message;

/// A routed message.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub from: String,
    pub to: String,
    pub message: Message,
    /// Logical time at which the message reaches the receiver.
    pub deliver_at_ms: u64,
}

/// What (if anything) the fault injector did to a logged send.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultTag {
    /// Delivered normally.
    #[default]
    None,
    /// Dropped by the random loss process; never delivered.
    Dropped,
    /// Dropped because the link was inside a partition window.
    Partitioned,
    /// An injected extra copy of an already-delivered message.
    Duplicated,
    /// Delivered, but with injected jitter and/or a latency spike.
    Delayed,
    /// Black-holed because an endpoint is marked down (`fail_mdp`).
    Down,
}

/// One line of the traffic log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    pub from: String,
    pub to: String,
    pub kind: &'static str,
    pub bytes: usize,
    pub sent_at_ms: u64,
    pub deliver_at_ms: u64,
    /// Fault-injector verdict for this record.
    pub fault: FaultTag,
    /// True when this send was a protocol retransmission.
    pub retry: bool,
}

/// Aggregate traffic counters.
///
/// `messages`/`bytes` count raw traffic: every send attempt, including
/// retransmissions, injected duplicates, and messages the fault injector
/// went on to drop. The split counters let callers derive goodput
/// (`messages - retries - duplicates_delivered - dropped`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub messages: u64,
    pub bytes: u64,
    /// Logical clock after the last delivery.
    pub clock_ms: u64,
    /// Protocol retransmissions (at-least-once delivery resends).
    pub retries: u64,
    /// Extra copies injected by the fault plan and delivered.
    pub duplicates_delivered: u64,
    /// Messages the fault plan dropped (loss or partition).
    pub dropped: u64,
    /// Messages black-holed because an endpoint was marked down.
    pub down_dropped: u64,
    /// Send attempts where both endpoints are backbone (MDP↔MDP) nodes.
    pub backbone_messages: u64,
    /// Bytes of backbone (MDP↔MDP) send attempts.
    pub backbone_bytes: u64,
    /// Send attempts on edge links (MDP↔LMR and below).
    pub edge_messages: u64,
    /// Bytes of edge-link send attempts.
    pub edge_bytes: u64,
    /// Anti-entropy digest rounds started (`note_anti_entropy_round`).
    pub anti_entropy_rounds: u64,
    /// Documents actually repaired by anti-entropy pulls (`note_repair`).
    pub repairs_applied: u64,
    /// Anti-entropy digest send attempts (`placement-digest`; DESIGN.md
    /// §7.2, §11.3).
    pub placement_messages: u64,
    /// Bytes of those send attempts.
    pub placement_bytes: u64,
}

/// Fault parameters for one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a delivered message is duplicated.
    pub dup_prob: f64,
    /// Max uniform extra delivery delay; nonzero values reorder traffic.
    pub jitter_ms: u64,
    /// Probability in `[0, 1]` of a bounded latency spike.
    pub spike_prob: f64,
    /// Extra delay added when a spike fires.
    pub spike_ms: u64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter_ms: 0,
            spike_prob: 0.0,
            spike_ms: 0,
        }
    }
}

impl LinkFaults {
    pub fn is_inert(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.jitter_ms == 0
            && (self.spike_prob == 0.0 || self.spike_ms == 0)
    }
}

/// A timed one-way partition: the link `(from, to)` black-holes every
/// message sent at a logical time in `[from_ms, until_ms)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    pub from: String,
    pub to: String,
    pub from_ms: u64,
    pub until_ms: u64,
}

/// A deterministic, seedable schedule of network faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault-injection PRNG.
    pub seed: u64,
    /// Faults applied when no per-link override exists.
    pub default_link: LinkFaults,
    /// Per-link overrides, keyed `(from, to)`.
    pub links: HashMap<(String, String), LinkFaults>,
    /// Timed one-way partitions.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// True when the plan can never perturb a message; an inert plan
    /// draws no randomness, so the transport behaves byte-identically
    /// to a fault-free network.
    pub fn is_inert(&self) -> bool {
        self.default_link.is_inert()
            && self.links.values().all(LinkFaults::is_inert)
            && self.partitions.is_empty()
    }

    /// Adds a symmetric partition between `a` and `b` over `[from_ms, until_ms)`.
    pub fn partition_both(&mut self, a: &str, b: &str, from_ms: u64, until_ms: u64) {
        for (x, y) in [(a, b), (b, a)] {
            self.partitions.push(Partition {
                from: x.to_owned(),
                to: y.to_owned(),
                from_ms,
                until_ms,
            });
        }
    }

    fn link(&self, from: &str, to: &str) -> &LinkFaults {
        self.links
            .get(&(from.to_owned(), to.to_owned()))
            .unwrap_or(&self.default_link)
    }

    fn partitioned(&self, from: &str, to: &str, at_ms: u64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.from == from && p.to == to && p.from_ms <= at_ms && at_ms < p.until_ms)
    }
}

/// Latency, fault, and retry configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Latency applied when no per-link override exists.
    pub default_latency_ms: u64,
    /// Per-link overrides, keyed `(from, to)`.
    pub links: HashMap<(String, String), u64>,
    /// Fault-injection schedule (inert by default).
    pub faults: FaultPlan,
    /// First retransmission timeout for unacked protocol messages.
    pub retry_initial_ms: u64,
    /// Retransmission backoff ceiling.
    pub retry_max_ms: u64,
    /// Number of retransmissions of one control message an LMR tolerates
    /// before declaring its home MDP silent and failing over to its backup
    /// (no-op unless a backup is configured).
    pub failover_attempts: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            default_latency_ms: 10,
            links: HashMap::new(),
            faults: FaultPlan::default(),
            retry_initial_ms: 50,
            retry_max_ms: 1600,
            failover_attempts: 6,
        }
    }
}

/// The in-process network.
pub struct Network {
    config: NetConfig,
    /// Cached so the common (fault-free) send path skips the RNG lock.
    faults_active: bool,
    fault_rng: Mutex<Prng>,
    senders: Mutex<HashMap<String, Sender<Envelope>>>,
    log: Mutex<Vec<LogRecord>>,
    clock_ms: Mutex<u64>,
    stats: Mutex<NetStats>,
    /// Names of backbone (MDP) nodes, for the edge-class traffic split.
    backbone: Mutex<HashSet<String>>,
    /// Nodes currently marked down; sends to/from them are black-holed.
    down: Mutex<HashSet<String>>,
}

impl Network {
    pub fn new(config: NetConfig) -> Self {
        let faults_active = !config.faults.is_inert();
        let fault_rng = Mutex::new(Prng::seed_from_u64(config.faults.seed));
        Network {
            config,
            faults_active,
            fault_rng,
            senders: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            clock_ms: Mutex::new(0),
            stats: Mutex::new(NetStats::default()),
            backbone: Mutex::new(HashSet::new()),
            down: Mutex::new(HashSet::new()),
        }
    }

    /// The active configuration (nodes read the retry knobs from here).
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Marks a node as part of the backbone tier; traffic between two
    /// backbone nodes is counted under the `backbone_*` statistics.
    pub fn mark_backbone(&self, name: &str) {
        self.backbone.lock().insert(name.to_owned());
    }

    /// Marks a node down (true) or back up (false). Messages to or from a
    /// down node are black-holed with [`FaultTag::Down`].
    pub fn set_down(&self, name: &str, down: bool) {
        let mut set = self.down.lock();
        if down {
            set.insert(name.to_owned());
        } else {
            set.remove(name);
        }
    }

    /// True if the node is currently marked down.
    pub fn is_down(&self, name: &str) -> bool {
        self.down.lock().contains(name)
    }

    /// Records the start of one anti-entropy digest round.
    pub fn note_anti_entropy_round(&self) {
        self.stats.lock().anti_entropy_rounds += 1;
    }

    /// Records one document repaired by an anti-entropy pull.
    pub fn note_repair(&self) {
        self.stats.lock().repairs_applied += 1;
    }

    /// Registers a node and returns its mailbox.
    pub fn register(&self, name: &str) -> Result<Receiver<Envelope>> {
        let mut senders = self.senders.lock();
        if senders.contains_key(name) {
            return Err(Error::Topology(format!("node '{name}' already registered")));
        }
        let (tx, rx) = unbounded();
        senders.insert(name.to_owned(), tx);
        Ok(rx)
    }

    fn latency(&self, from: &str, to: &str) -> u64 {
        self.config
            .links
            .get(&(from.to_owned(), to.to_owned()))
            .copied()
            .unwrap_or(self.config.default_latency_ms)
    }

    /// Sends a message; delivery time is the current logical clock plus the
    /// link latency (plus any injected jitter/spike).
    pub fn send(&self, from: &str, to: &str, message: Message) -> Result<()> {
        self.send_impl(from, to, message, false)
    }

    /// Sends a protocol retransmission; identical to [`send`](Self::send)
    /// but counted under `NetStats::retries` and flagged in the log.
    pub fn send_retry(&self, from: &str, to: &str, message: Message) -> Result<()> {
        self.send_impl(from, to, message, true)
    }

    fn send_impl(&self, from: &str, to: &str, message: Message, retry: bool) -> Result<()> {
        let sender = self
            .senders
            .lock()
            .get(to)
            .cloned()
            .ok_or_else(|| Error::Topology(format!("unknown destination node '{to}'")))?;
        let sent_at = *self.clock_ms.lock();
        let bytes = message.approx_size();
        let kind = message.kind();
        let record = |fault: FaultTag, deliver_at: u64| LogRecord {
            from: from.to_owned(),
            to: to.to_owned(),
            kind,
            bytes,
            sent_at_ms: sent_at,
            deliver_at_ms: deliver_at,
            fault,
            retry,
        };
        {
            let backbone = self.backbone.lock();
            let on_backbone = backbone.contains(from) && backbone.contains(to);
            drop(backbone);
            let mut stats = self.stats.lock();
            stats.messages += 1;
            stats.bytes += bytes as u64;
            if on_backbone {
                stats.backbone_messages += 1;
                stats.backbone_bytes += bytes as u64;
            } else {
                stats.edge_messages += 1;
                stats.edge_bytes += bytes as u64;
            }
            if retry {
                stats.retries += 1;
            }
            if kind == "placement-digest" {
                stats.placement_messages += 1;
                stats.placement_bytes += bytes as u64;
            }
        }
        if self.is_down(to) || self.is_down(from) {
            self.log.lock().push(record(FaultTag::Down, sent_at));
            self.stats.lock().down_dropped += 1;
            return Ok(());
        }
        let deliver = |deliver_at: u64, message: Message| {
            sender
                .send(Envelope {
                    from: from.to_owned(),
                    to: to.to_owned(),
                    message,
                    deliver_at_ms: deliver_at,
                })
                .map_err(|_| Error::Topology(format!("mailbox of '{to}' is closed")))
        };

        if !self.faults_active {
            let deliver_at = sent_at + self.latency(from, to);
            self.log.lock().push(record(FaultTag::None, deliver_at));
            return deliver(deliver_at, message);
        }

        let plan = &self.config.faults;
        if plan.partitioned(from, to, sent_at) {
            self.log.lock().push(record(FaultTag::Partitioned, sent_at));
            self.stats.lock().dropped += 1;
            return Ok(());
        }
        let link = plan.link(from, to);
        let mut rng = self.fault_rng.lock();
        if link.drop_prob > 0.0 && rng.gen_f64() < link.drop_prob {
            self.log.lock().push(record(FaultTag::Dropped, sent_at));
            self.stats.lock().dropped += 1;
            return Ok(());
        }
        let extra_delay = |rng: &mut Prng| {
            let mut extra = 0;
            if link.jitter_ms > 0 {
                extra += rng.below(link.jitter_ms + 1);
            }
            if link.spike_prob > 0.0 && link.spike_ms > 0 && rng.gen_f64() < link.spike_prob {
                extra += link.spike_ms;
            }
            extra
        };
        let extra = extra_delay(&mut rng);
        let deliver_at = sent_at + self.latency(from, to) + extra;
        let tag = if extra > 0 {
            FaultTag::Delayed
        } else {
            FaultTag::None
        };
        self.log.lock().push(record(tag, deliver_at));
        deliver(deliver_at, message.clone())?;
        if link.dup_prob > 0.0 && rng.gen_f64() < link.dup_prob {
            let extra = extra_delay(&mut rng);
            let dup_at = sent_at + self.latency(from, to) + extra;
            self.log.lock().push(record(FaultTag::Duplicated, dup_at));
            {
                let mut stats = self.stats.lock();
                stats.messages += 1;
                stats.bytes += bytes as u64;
                stats.duplicates_delivered += 1;
            }
            deliver(dup_at, message)?;
        }
        Ok(())
    }

    /// Advances the logical clock to a delivery time (monotone).
    pub fn advance_clock(&self, to_ms: u64) {
        let mut clock = self.clock_ms.lock();
        if to_ms > *clock {
            *clock = to_ms;
        }
        self.stats.lock().clock_ms = *clock;
    }

    /// The current logical clock.
    pub fn now_ms(&self) -> u64 {
        *self.clock_ms.lock()
    }

    pub fn stats(&self) -> NetStats {
        *self.stats.lock()
    }

    /// A copy of the full traffic log.
    pub fn log(&self) -> Vec<LogRecord> {
        self.log.lock().clone()
    }

    /// If the directed link `from → to` is inside a partition window at the
    /// current logical clock, returns the time the last covering window
    /// ends (`u64::MAX` for a permanent partition); `None` when the link
    /// is open. Lets the orchestrator distinguish "wait for the partition
    /// to heal" from "this link will never carry traffic again".
    pub fn link_blocked_until(&self, from: &str, to: &str) -> Option<u64> {
        let now = *self.clock_ms.lock();
        self.config
            .faults
            .partitions
            .iter()
            .filter(|p| p.from == from && p.to == to && p.from_ms <= now && now < p.until_ms)
            .map(|p| p.until_ms)
            .max()
    }

    /// Traffic counts per message kind.
    pub fn traffic_by_kind(&self) -> HashMap<&'static str, u64> {
        let mut out = HashMap::new();
        for rec in self.log.lock().iter() {
            *out.entry(rec.kind).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::Replicate {
            seq: 0,
            put: crate::message::Put {
                uri: "doc.rdf".into(),
                version: 1,
                xml: None,
            },
        }
    }

    #[test]
    fn down_node_black_holes_both_directions() {
        let net = Network::new(NetConfig::default());
        let ra = net.register("a").unwrap();
        let rb = net.register("b").unwrap();
        net.set_down("b", true);
        assert!(net.is_down("b"));
        net.send("a", "b", msg()).unwrap();
        net.send("b", "a", msg()).unwrap();
        assert!(ra.try_recv().is_err());
        assert!(rb.try_recv().is_err());
        assert_eq!(net.stats().down_dropped, 2);
        assert!(net.log().iter().all(|r| r.fault == FaultTag::Down));
        // healing restores delivery
        net.set_down("b", false);
        net.send("a", "b", msg()).unwrap();
        assert!(rb.try_recv().is_ok());
        assert_eq!(net.stats().down_dropped, 2);
    }

    #[test]
    fn edge_class_split_counts_backbone_and_edge_traffic() {
        let net = Network::new(NetConfig::default());
        let _r1 = net.register("m1").unwrap();
        let _r2 = net.register("m2").unwrap();
        let _r3 = net.register("l1").unwrap();
        net.mark_backbone("m1");
        net.mark_backbone("m2");
        net.send("m1", "m2", msg()).unwrap();
        net.send("m1", "l1", msg()).unwrap();
        net.send("l1", "m1", msg()).unwrap();
        let stats = net.stats();
        assert_eq!(stats.backbone_messages, 1);
        assert_eq!(stats.edge_messages, 2);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.backbone_bytes + stats.edge_bytes, stats.bytes);
        assert_eq!(stats.anti_entropy_rounds, 0);
        assert_eq!(stats.repairs_applied, 0);
    }

    #[test]
    fn register_and_send() {
        let net = Network::new(NetConfig::default());
        let rx = net.register("a").unwrap();
        net.register("b").unwrap();
        net.send("b", "a", msg()).unwrap();
        let env = rx.try_recv().unwrap();
        assert_eq!(env.from, "b");
        assert_eq!(env.deliver_at_ms, 10);
        assert_eq!(net.stats().messages, 1);
        assert!(net.stats().bytes > 0);
    }

    #[test]
    fn duplicate_node_rejected() {
        let net = Network::new(NetConfig::default());
        net.register("a").unwrap();
        assert!(matches!(net.register("a"), Err(Error::Topology(_))));
    }

    #[test]
    fn unknown_destination_rejected() {
        let net = Network::new(NetConfig::default());
        net.register("a").unwrap();
        assert!(matches!(
            net.send("a", "nowhere", msg()),
            Err(Error::Topology(_))
        ));
    }

    #[test]
    fn per_link_latency_override() {
        let mut config = NetConfig::default();
        config.links.insert(("a".into(), "b".into()), 250);
        let net = Network::new(config);
        net.register("a").unwrap();
        let rx = net.register("b").unwrap();
        net.send("a", "b", msg()).unwrap();
        let env = rx.try_recv().unwrap();
        assert_eq!(env.deliver_at_ms, 250);
    }

    #[test]
    fn clock_advances_monotonically() {
        let net = Network::new(NetConfig::default());
        net.advance_clock(100);
        net.advance_clock(50);
        assert_eq!(net.stats().clock_ms, 100);
    }

    #[test]
    fn log_records_traffic() {
        let net = Network::new(NetConfig::default());
        let _ra = net.register("a").unwrap();
        let _rb = net.register("b").unwrap();
        net.send("a", "b", msg()).unwrap();
        net.send("a", "b", msg()).unwrap();
        assert_eq!(net.log().len(), 2);
        assert_eq!(net.traffic_by_kind()["replicate"], 2);
        assert!(net
            .log()
            .iter()
            .all(|r| r.fault == FaultTag::None && !r.retry));
    }

    #[test]
    fn drop_prob_one_drops_everything() {
        let mut config = NetConfig::default();
        config.faults.default_link.drop_prob = 1.0;
        let net = Network::new(config);
        net.register("a").unwrap();
        let rx = net.register("b").unwrap();
        net.send("a", "b", msg()).unwrap();
        assert!(rx.try_recv().is_err());
        let stats = net.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.messages, 1);
        assert_eq!(net.log()[0].fault, FaultTag::Dropped);
    }

    #[test]
    fn dup_prob_one_duplicates_everything() {
        let mut config = NetConfig::default();
        config.faults.default_link.dup_prob = 1.0;
        let net = Network::new(config);
        net.register("a").unwrap();
        let rx = net.register("b").unwrap();
        net.send("a", "b", msg()).unwrap();
        assert!(rx.try_recv().is_ok());
        assert!(rx.try_recv().is_ok());
        assert!(rx.try_recv().is_err());
        let stats = net.stats();
        assert_eq!(stats.duplicates_delivered, 1);
        assert_eq!(stats.messages, 2);
        let log = net.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].fault, FaultTag::Duplicated);
    }

    #[test]
    fn partition_window_black_holes_link() {
        let mut config = NetConfig::default();
        config.faults.partition_both("a", "b", 0, 100);
        let net = Network::new(config);
        net.register("a").unwrap();
        let rx = net.register("b").unwrap();
        net.send("a", "b", msg()).unwrap();
        assert!(rx.try_recv().is_err());
        assert_eq!(net.log()[0].fault, FaultTag::Partitioned);
        // after the window the link heals
        net.advance_clock(100);
        net.send("a", "b", msg()).unwrap();
        assert!(rx.try_recv().is_ok());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn jitter_delays_and_tags_delivery() {
        let mut config = NetConfig::default();
        config.faults.default_link.jitter_ms = 40;
        config.faults.seed = 7;
        let net = Network::new(config);
        net.register("a").unwrap();
        let rx = net.register("b").unwrap();
        for _ in 0..32 {
            net.send("a", "b", msg()).unwrap();
        }
        let mut delayed = 0;
        while let Ok(env) = rx.try_recv() {
            assert!(env.deliver_at_ms >= 10 && env.deliver_at_ms <= 50);
            if env.deliver_at_ms > 10 {
                delayed += 1;
            }
        }
        assert!(delayed > 0, "jitter should perturb at least one delivery");
        assert!(net.log().iter().any(|r| r.fault == FaultTag::Delayed));
    }

    #[test]
    fn fault_schedule_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let mut config = NetConfig::default();
            config.faults.seed = seed;
            config.faults.default_link = LinkFaults {
                drop_prob: 0.3,
                dup_prob: 0.2,
                jitter_ms: 25,
                spike_prob: 0.1,
                spike_ms: 200,
            };
            let net = Network::new(config);
            net.register("a").unwrap();
            let _rx = net.register("b").unwrap();
            for i in 0..64 {
                net.advance_clock(i);
                net.send("a", "b", msg()).unwrap();
            }
            net.log()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn retry_send_is_counted_and_flagged() {
        let net = Network::new(NetConfig::default());
        net.register("a").unwrap();
        let _rx = net.register("b").unwrap();
        net.send("a", "b", msg()).unwrap();
        net.send_retry("a", "b", msg()).unwrap();
        let stats = net.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.retries, 1);
        let log = net.log();
        assert!(!log[0].retry);
        assert!(log[1].retry);
    }

    #[test]
    fn inert_plan_reports_inert() {
        assert!(FaultPlan::default().is_inert());
        let mut plan = FaultPlan {
            seed: 99, // a seed alone injects nothing
            ..FaultPlan::default()
        };
        assert!(plan.is_inert());
        plan.default_link.drop_prob = 0.1;
        assert!(!plan.is_inert());
    }
}
