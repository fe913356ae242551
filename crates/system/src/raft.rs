//! Single-group Raft consensus for the MDP backbone (DESIGN.md §9).
//!
//! The paper calls the MDP tier "globally consistent"; the LWW backbone of
//! DESIGN.md §7 is only eventually convergent. [`ReplicationMode::Raft`]
//! replaces it with a single Raft group spanning every MDP: document
//! registration/update/delete and subscription changes are proposed to
//! the elected leader, committed through the replicated log, and applied
//! on every voter through the same transitions the LWW handlers run. A
//! snapshot is the state export of `state.rs` behind the apply hash chain
//! value. The module runs
//! entirely over the fault-injecting simulated transport and logical
//! clock, which is what makes the safety properties (election safety, log
//! matching, leader completeness, state-machine safety) *property-testable*
//! under seeded fault schedules (`tests/raft_safety.rs`).
//!
//! Election timeouts are drawn from a PRNG seeded by `(raft seed, node
//! name, term)`, so a crash-restarted voter re-derives exactly the
//! schedule it would have used — no volatile timer state to lose. On a
//! durable node the hard state (term, vote, led terms, applied index, hash
//! chain, compaction anchor) is the `raft` record of the state table and
//! each log entry a `raftlog <index>` record (`state.rs`), written in the
//! commit group of the change they record; `crash_and_restart_mdp`
//! reopens a voter on them without ever violating election safety.
//! Compaction only truncates the log: a snapshot of the state machine is
//! built when a peer lags behind the compacted tail, and cached while it
//! still covers that tail.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

use mdv_relstore::StorageEngine;
use mdv_runtime::rng::Prng;

use crate::channel::SeqCounters;
use crate::error::{Error, Result};
use crate::mdp::{fnv1a64, Mdp};
use crate::message::{escape, unescape, Message, Put};
use crate::state::mdp_records as rec;
use crate::transport::Network;

/// Leader heartbeat / replication retry interval (logical ms).
pub const HEARTBEAT_MS: u64 = 50;
/// Election timeouts are drawn uniformly from `[MIN, MIN + SPREAD)`.
const ELECTION_MIN_MS: u64 = 150;
const ELECTION_SPREAD_MS: u64 = 150;
/// Applied log entries retained after a compaction, so recent indices
/// stay addressable for consistency checks.
const COMPACT_KEEP: u64 = 8;
/// Default compaction trigger: compact once `applied - offset` exceeds it.
pub(crate) const DEFAULT_COMPACT_THRESHOLD: u64 = 64;

/// How the MDP backbone replicates state (`MdvSystem` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// Version-gated last-writer-wins replication with anti-entropy repair
    /// and manually configured LMR failover (DESIGN.md §7). The default.
    #[default]
    Lww,
    /// Single-group Raft: linearizable writes through an elected leader,
    /// automatic LMR re-homing to the leader (DESIGN.md §9).
    Raft,
}

/// A voter's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaftRole {
    Follower,
    Candidate,
    Leader,
}

/// One replicated state-machine command. Everything that mutates MDP
/// state in Raft mode — subscriptions too, because a subscription changes
/// which publications every future write generates — rides the log
/// (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RaftCmd {
    /// Appended by a fresh leader to commit entries from earlier terms
    /// (Raft §5.4.2).
    Noop,
    /// A document put (`xml` of `None` is a tombstone). It carries no
    /// version: every voter applies it as a [`Put`] versioned by the
    /// entry's log index.
    Put {
        uri: String,
        xml: Option<String>,
    },
    Subscribe {
        lmr: String,
        lmr_rule: u64,
        rule_text: String,
    },
    Resubscribe {
        lmr: String,
        lmr_rule: u64,
        rule_text: String,
        last_seq: u64,
    },
    Unsubscribe {
        lmr: String,
        lmr_rule: u64,
    },
}

impl RaftCmd {
    /// Tab-separated, escaped wire form — one line per command — used for
    /// both the durable `raftlog` records and the cross-node apply hash
    /// chain.
    pub(crate) fn to_wire(&self) -> String {
        match self {
            RaftCmd::Noop => "noop".to_owned(),
            RaftCmd::Put { uri, xml } => match xml {
                Some(xml) => format!("put\t{}\t{}", escape(uri), escape(xml)),
                None => format!("put\t{}", escape(uri)),
            },
            RaftCmd::Subscribe {
                lmr,
                lmr_rule,
                rule_text,
            } => format!("sub\t{}\t{lmr_rule}\t{}", escape(lmr), escape(rule_text)),
            RaftCmd::Resubscribe {
                lmr,
                lmr_rule,
                rule_text,
                last_seq,
            } => format!(
                "resub\t{}\t{lmr_rule}\t{last_seq}\t{}",
                escape(lmr),
                escape(rule_text)
            ),
            RaftCmd::Unsubscribe { lmr, lmr_rule } => {
                format!("unsub\t{}\t{lmr_rule}", escape(lmr))
            }
        }
    }

    pub(crate) fn from_wire(wire: &str) -> Result<RaftCmd> {
        let bad = || Error::Topology(format!("corrupt raft command '{wire}'"));
        let mut parts = wire.split('\t');
        let tag = parts.next().ok_or_else(bad)?;
        let field = |p: &mut std::str::Split<'_, char>| p.next().map(unescape).ok_or_else(bad);
        let num = |p: &mut std::str::Split<'_, char>| -> Result<u64> {
            p.next().and_then(|v| v.parse().ok()).ok_or_else(bad)
        };
        Ok(match tag {
            "noop" => RaftCmd::Noop,
            // a tombstone carries no XML field
            "put" => {
                let uri = field(&mut parts)?;
                let xml = parts.next().map(unescape);
                if parts.next().is_some() {
                    return Err(bad());
                }
                RaftCmd::Put { uri, xml }
            }
            "sub" => RaftCmd::Subscribe {
                lmr: field(&mut parts)?,
                lmr_rule: num(&mut parts)?,
                rule_text: field(&mut parts)?,
            },
            "resub" => {
                let lmr = field(&mut parts)?;
                let lmr_rule = num(&mut parts)?;
                let last_seq = num(&mut parts)?;
                RaftCmd::Resubscribe {
                    lmr,
                    lmr_rule,
                    rule_text: field(&mut parts)?,
                    last_seq,
                }
            }
            "unsub" => RaftCmd::Unsubscribe {
                lmr: field(&mut parts)?,
                lmr_rule: num(&mut parts)?,
            },
            _ => return Err(bad()),
        })
    }
}

/// The election timeout of `(node, term)`: a pure function of the seeded
/// PRNG, so it is identical before and after a crash-restart.
pub(crate) fn election_timeout_ms(seed: u64, name: &str, term: u64) -> u64 {
    let mix = seed ^ fnv1a64(name.as_bytes()) ^ term.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = Prng::seed_from_u64(mix);
    ELECTION_MIN_MS + rng.below(ELECTION_SPREAD_MS)
}

/// Extends the apply hash chain by one command wire form (state-machine
/// safety instrumentation: equal chains ⇒ identical applied prefixes).
fn chain_hash(prev: u64, wire: &str) -> u64 {
    let mut bytes = prev.to_le_bytes().to_vec();
    bytes.extend_from_slice(wire.as_bytes());
    fnv1a64(&bytes)
}

/// A state-machine snapshot exact at log index `index`, whose entry has
/// term `term`; `data` is [`snapshot_data`] text, shared with every
/// InstallSnapshot sent from it.
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub index: u64,
    pub term: u64,
    pub data: Arc<str>,
}

/// InstallSnapshot data: the apply hash chain value at the snapshot index
/// on the first line, the state machine's [`Mdp::export_state`] after it.
fn snapshot_data(cum_hash: u64, state: &str) -> Arc<str> {
    format!("{cum_hash}\n{state}").into()
}

/// Per-voter Raft state. The log vector covers indices `(offset, last]`;
/// `offset`/`offset_term` anchor the consistency check for the first
/// retained entry. `snapshot` is built only when a peer must be sent one
/// (or kept from an install) and is dropped once compaction moves
/// `offset` past it, so `snapshot.index >= offset` always holds: a peer
/// that installs it finds every later entry still in the log.
#[derive(Debug)]
pub(crate) struct RaftState {
    pub seed: u64,
    pub term: u64,
    pub voted_for: Option<String>,
    pub role: RaftRole,
    /// `(term, command wire form)`; `log[k]` holds index `offset + 1 + k`.
    pub log: Vec<(u64, String)>,
    pub offset: u64,
    pub offset_term: u64,
    pub snapshot: Option<Snapshot>,
    pub commit: u64,
    pub applied: u64,
    /// Apply hash chain value at `applied`.
    pub cum_hash: u64,
    /// Volatile `(index, chain value)` record of every apply since this
    /// process (re)started; the safety tests compare common prefixes.
    pub applied_chain: Vec<(u64, u64)>,
    pub next_index: BTreeMap<String, u64>,
    pub match_index: BTreeMap<String, u64>,
    pub votes: BTreeSet<String>,
    pub heartbeat_due_ms: u64,
    pub election_deadline_ms: u64,
    /// Terms in which this node ever became leader (persisted): the
    /// election-safety property checks these sets pairwise disjoint.
    pub led_terms: BTreeSet<u64>,
    pub compact_threshold: u64,
}

impl RaftState {
    pub(crate) fn new(seed: u64, name: &str, now_ms: u64) -> Self {
        RaftState {
            seed,
            term: 0,
            voted_for: None,
            role: RaftRole::Follower,
            log: Vec::new(),
            offset: 0,
            offset_term: 0,
            snapshot: None,
            commit: 0,
            applied: 0,
            cum_hash: 0,
            applied_chain: Vec::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            votes: BTreeSet::new(),
            heartbeat_due_ms: 0,
            election_deadline_ms: now_ms + election_timeout_ms(seed, name, 0),
            led_terms: BTreeSet::new(),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        }
    }

    pub fn last_index(&self) -> u64 {
        self.offset + self.log.len() as u64
    }

    pub fn last_term(&self) -> u64 {
        self.log.last().map_or(self.offset_term, |(t, _)| *t)
    }

    /// Term of the entry at `index`, when still addressable.
    pub fn term_at(&self, index: u64) -> Option<u64> {
        if index == self.offset {
            Some(self.offset_term)
        } else if index > self.offset && index <= self.last_index() {
            Some(self.log[(index - self.offset - 1) as usize].0)
        } else {
            None
        }
    }

    fn entry_wire(&self, index: u64) -> Option<&str> {
        if index > self.offset && index <= self.last_index() {
            Some(self.log[(index - self.offset - 1) as usize].1.as_str())
        } else {
            None
        }
    }
}

/// Read-only view of a voter's Raft state for tests and orchestration.
#[derive(Debug, Clone)]
pub struct RaftProbe {
    pub term: u64,
    pub role: RaftRole,
    pub voted_for: Option<String>,
    pub commit: u64,
    pub applied: u64,
    /// Index of the entry preceding the first retained log entry.
    pub offset: u64,
    /// Index of the cached snapshot (0 when no peer needed one since the
    /// last compaction, or this process (re)started).
    pub snap_index: u64,
    /// Retained entries as `(index, term, command wire form)`.
    pub log: Vec<(u64, u64, String)>,
    /// Every term this node ever led (persisted across crash-restarts).
    pub led_terms: Vec<u64>,
    /// Apply hash chain value at `applied`.
    pub cum_hash: u64,
    /// `(index, chain value)` for every apply since process (re)start.
    pub applied_chain: Vec<(u64, u64)>,
}

impl<S: StorageEngine + Send + Sync> Mdp<S> {
    /// Switches this node into Raft mode, or re-seats the voter
    /// [`Mdp::reopen`] restored from its `raft` and `raftlog` records: the
    /// persisted term, vote, led terms, log and applied prefix stay, the
    /// commit index restarts at `applied` (that prefix is durable) and the
    /// node comes back a follower — a restart never extends leadership.
    pub(crate) fn raft_enable(&mut self, seed: u64, now_ms: u64) {
        let mut r = self
            .raft
            .take()
            .unwrap_or_else(|| RaftState::new(seed, &self.name, now_ms));
        r.seed = seed;
        r.commit = r.applied;
        r.election_deadline_ms = now_ms + election_timeout_ms(seed, &self.name, r.term);
        self.raft = Some(r);
    }

    pub(crate) fn raft_set_compact_threshold(&mut self, threshold: u64) {
        if let Some(r) = self.raft.as_mut() {
            r.compact_threshold = threshold.max(1);
        }
    }

    pub(crate) fn raft_is_leader(&self) -> bool {
        self.raft
            .as_ref()
            .is_some_and(|r| r.role == RaftRole::Leader)
    }

    /// Read-only probe of this voter's Raft state (None in LWW mode).
    pub fn raft_probe(&self) -> Option<RaftProbe> {
        let r = self.raft.as_ref()?;
        Some(RaftProbe {
            term: r.term,
            role: r.role,
            voted_for: r.voted_for.clone(),
            commit: r.commit,
            applied: r.applied,
            offset: r.offset,
            snap_index: r.snapshot.as_ref().map_or(0, |snap| snap.index),
            log: r
                .log
                .iter()
                .enumerate()
                .map(|(k, (t, c))| (r.offset + 1 + k as u64, *t, c.clone()))
                .collect(),
            led_terms: r.led_terms.iter().copied().collect(),
            cum_hash: r.cum_hash,
            applied_chain: r.applied_chain.clone(),
        })
    }

    // ---- the durable Raft records ----------------------------------------

    /// Writes the `raft` record (term, vote, led terms, applied index, hash
    /// chain, compaction anchor) in the commit group of the change it
    /// records.
    fn raft_persist(&mut self) -> Result<()> {
        match &self.raft {
            Some(r) if self.mirror => {
                let record = rec::raft(r);
                self.state_put(|| record)
            }
            _ => Ok(()),
        }
    }

    fn raft_log_put(&mut self, index: u64, term: u64, wire: &str) -> Result<()> {
        self.state_put(|| rec::raftlog(index, term, wire))
    }

    /// Deletes the `raftlog` records of the indices in `range`, by key:
    /// truncation and compaction know which entries they drop.
    fn raft_log_delete(&mut self, range: RangeInclusive<u64>) -> Result<()> {
        if !self.mirror {
            return Ok(());
        }
        for index in range {
            self.state_delete(|| rec::raftlog_key(index))?;
        }
        Ok(())
    }

    // ---- elections -------------------------------------------------------

    /// Steps down into the follower role of `term` (persisting the vote
    /// reset when the term advanced).
    fn raft_step_down(&mut self, term: u64, now_ms: u64) -> Result<()> {
        let (changed, deadline) = {
            let r = self.raft.as_mut().unwrap();
            let changed = term > r.term;
            if changed {
                r.term = term;
                r.voted_for = None;
            }
            r.role = RaftRole::Follower;
            r.votes.clear();
            let deadline = now_ms + election_timeout_ms(r.seed, &self.name, r.term);
            (changed, deadline)
        };
        self.raft.as_mut().unwrap().election_deadline_ms = deadline;
        if changed {
            self.raft_persist()?;
        }
        Ok(())
    }

    /// Starts an election: bump the term, vote for self, solicit votes.
    pub(crate) fn raft_start_election(&mut self, net: &Network) -> Result<()> {
        let now = net.now_ms();
        let name = self.name.clone();
        let (term, last_index, last_term, peers) = {
            let r = self.raft.as_mut().unwrap();
            r.term += 1;
            r.role = RaftRole::Candidate;
            r.voted_for = Some(name.clone());
            r.votes = BTreeSet::from([name.clone()]);
            r.election_deadline_ms = now + election_timeout_ms(r.seed, &name, r.term);
            (r.term, r.last_index(), r.last_term(), self.raft_peers())
        };
        self.raft_persist()?;
        for peer in &peers {
            net.send(
                &name,
                peer,
                Message::RequestVote {
                    term,
                    last_log_index: last_index,
                    last_log_term: last_term,
                },
            )?;
        }
        // single-node cluster: the self-vote is already a majority
        self.raft_try_win(net)
    }

    /// The other voters: every member of the installed table.
    fn raft_peers(&self) -> Vec<String> {
        self.placement()
            .others(&self.name)
            .map(str::to_owned)
            .collect()
    }

    fn raft_majority(&self) -> usize {
        // cluster size = peers + self; a majority is floor(size / 2) + 1
        self.placement().others(&self.name).count().div_ceil(2) + 1
    }

    /// Promotes a candidate holding a majority of votes to leader.
    fn raft_try_win(&mut self, net: &Network) -> Result<()> {
        let majority = self.raft_majority();
        let won = {
            let r = self.raft.as_ref().unwrap();
            r.role == RaftRole::Candidate && r.votes.len() >= majority
        };
        if !won {
            return Ok(());
        }
        let peers = self.raft_peers();
        {
            let r = self.raft.as_mut().unwrap();
            r.role = RaftRole::Leader;
            let term = r.term;
            r.led_terms.insert(term);
            let next = r.last_index() + 1;
            r.next_index = peers.iter().map(|p| (p.clone(), next)).collect();
            r.match_index = peers.into_iter().map(|p| (p, 0)).collect();
            r.heartbeat_due_ms = net.now_ms() + HEARTBEAT_MS;
        }
        self.raft_persist()?;
        // committing a no-op entry of the new term commits every earlier
        // entry with it (leader completeness, Raft §5.4.2)
        self.raft_propose(RaftCmd::Noop, net).map(|_| ())
    }

    /// Appends a command to the leader's log and ships it to every peer;
    /// returns the `(index, term)` the caller can later check for commit.
    pub(crate) fn raft_propose(&mut self, cmd: RaftCmd, net: &Network) -> Result<(u64, u64)> {
        if !self.raft_is_leader() {
            return Err(Error::Unavailable(format!(
                "MDP '{}' is not the raft leader",
                self.name
            )));
        }
        let wire = cmd.to_wire();
        let (index, term, peers) = {
            let r = self.raft.as_mut().unwrap();
            let term = r.term;
            r.log.push((term, wire.clone()));
            (r.last_index(), term, self.raft_peers())
        };
        self.with_group(|this| {
            this.raft_log_put(index, term, &wire)?;
            for peer in peers {
                this.raft_send_append(&peer, net)?;
            }
            // a single-node cluster commits immediately
            this.raft_advance_commit(net)
        })?;
        Ok((index, term))
    }

    /// Proposes an LMR's subscription change on the leader; any other voter
    /// drops it (the LMR retransmits, and re-homing steers it to the leader).
    pub(crate) fn raft_forward(&mut self, cmd: RaftCmd, net: &Network) -> Result<()> {
        if !self.raft_is_leader() {
            return Ok(());
        }
        self.raft_propose(cmd, net).map(|_| ())
    }

    /// Sends the peer everything past its `next_index` — an AppendEntries
    /// when the entries are still in the log, an InstallSnapshot when the
    /// peer lags behind the compacted tail. That is the one place a
    /// snapshot is built: at `applied`, when no cached one covers the tail.
    pub(crate) fn raft_send_append(&mut self, peer: &str, net: &Network) -> Result<()> {
        let name = self.name.clone();
        let (next, lags) = {
            let r = self.raft.as_ref().unwrap();
            let next = r
                .next_index
                .get(peer)
                .copied()
                .unwrap_or(r.last_index() + 1);
            (next, next <= r.offset)
        };
        if lags && self.raft.as_ref().unwrap().snapshot.is_none() {
            let data = snapshot_data(self.raft.as_ref().unwrap().cum_hash, &self.export_state());
            let r = self.raft.as_mut().unwrap();
            let index = r.applied;
            let term = r.term_at(index).expect("applied >= offset is addressable");
            r.snapshot = Some(Snapshot { index, term, data });
        }
        let msg = {
            let r = self.raft.as_ref().unwrap();
            if lags {
                let snap = r.snapshot.as_ref().unwrap();
                Message::InstallSnapshot {
                    term: r.term,
                    last_index: snap.index,
                    last_term: snap.term,
                    data: Arc::clone(&snap.data),
                }
            } else {
                let prev = next - 1;
                let entries: Vec<(u64, String)> = r.log[(prev - r.offset) as usize..].to_vec();
                Message::AppendEntries {
                    term: r.term,
                    prev_log_index: prev,
                    prev_log_term: r.term_at(prev).unwrap_or(0),
                    leader_commit: r.commit,
                    entries,
                }
            }
        };
        net.send(&name, peer, msg)
    }

    /// Leader-side commit advancement: the highest index replicated on a
    /// majority whose entry is of the current term becomes committed
    /// (Raft §5.4.2), and committed entries are applied at once.
    fn raft_advance_commit(&mut self, net: &Network) -> Result<bool> {
        let advanced = {
            let r = self.raft.as_mut().unwrap();
            if r.role != RaftRole::Leader {
                false
            } else {
                let mut matches: Vec<u64> = r.match_index.values().copied().collect();
                matches.push(r.last_index());
                matches.sort_unstable_by(|a, b| b.cmp(a));
                let majority = (matches.len()) / 2 + 1;
                let candidate = matches[majority - 1];
                if candidate > r.commit && r.term_at(candidate) == Some(r.term) {
                    r.commit = candidate;
                    true
                } else {
                    false
                }
            }
        };
        if advanced {
            self.raft_apply_committed(net)?;
            // followers learn the new commit index immediately, so the
            // system converges without waiting for a heartbeat tick
            let peers = self.raft_peers();
            for peer in peers {
                self.raft_send_append(&peer, net)?;
            }
        }
        Ok(advanced)
    }

    // ---- RPC handlers ----------------------------------------------------

    /// Dispatches one Raft RPC (`handle_inner` routes the new message
    /// variants here; the caller already opened a commit group).
    pub(crate) fn raft_handle(&mut self, from: &str, msg: Message, net: &Network) -> Result<()> {
        match msg {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.raft_on_request_vote(from, term, last_log_index, last_log_term, net),
            Message::RequestVoteReply { term, granted } => {
                self.raft_on_vote_reply(from, term, granted, net)
            }
            Message::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                leader_commit,
                entries,
            } => self.raft_on_append(
                from,
                term,
                prev_log_index,
                prev_log_term,
                leader_commit,
                entries,
                net,
            ),
            Message::AppendEntriesReply {
                term,
                success,
                match_index,
            } => self.raft_on_append_reply(from, term, success, match_index, net),
            Message::InstallSnapshot {
                term,
                last_index,
                last_term,
                data,
            } => self.raft_on_install(from, term, last_index, last_term, &data, net),
            Message::InstallSnapshotReply { term, match_index } => {
                self.raft_on_install_reply(from, term, match_index, net)
            }
            other => Err(Error::Topology(format!(
                "raft dispatcher got non-raft message '{}'",
                other.kind()
            ))),
        }
    }

    fn raft_on_request_vote(
        &mut self,
        from: &str,
        term: u64,
        last_log_index: u64,
        last_log_term: u64,
        net: &Network,
    ) -> Result<()> {
        let now = net.now_ms();
        if term > self.raft.as_ref().unwrap().term {
            self.raft_step_down(term, now)?;
        }
        let (granted, my_term) = {
            let r = self.raft.as_mut().unwrap();
            if term < r.term {
                (false, r.term)
            } else {
                let up_to_date = last_log_term > r.last_term()
                    || (last_log_term == r.last_term() && last_log_index >= r.last_index());
                let free = r.voted_for.is_none() || r.voted_for.as_deref() == Some(from);
                if up_to_date && free && r.role != RaftRole::Leader {
                    r.voted_for = Some(from.to_owned());
                    (true, r.term)
                } else {
                    (false, r.term)
                }
            }
        };
        if granted {
            let r = self.raft.as_mut().unwrap();
            r.election_deadline_ms = now + election_timeout_ms(r.seed, &self.name, r.term);
            self.raft_persist()?;
        }
        net.send(
            &self.name.clone(),
            from,
            Message::RequestVoteReply {
                term: my_term,
                granted,
            },
        )
    }

    fn raft_on_vote_reply(
        &mut self,
        from: &str,
        term: u64,
        granted: bool,
        net: &Network,
    ) -> Result<()> {
        let my_term = self.raft.as_ref().unwrap().term;
        if term > my_term {
            return self.raft_step_down(term, net.now_ms());
        }
        if granted && term == my_term {
            let r = self.raft.as_mut().unwrap();
            if r.role == RaftRole::Candidate {
                r.votes.insert(from.to_owned());
            }
            return self.raft_try_win(net);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn raft_on_append(
        &mut self,
        from: &str,
        term: u64,
        prev_log_index: u64,
        prev_log_term: u64,
        leader_commit: u64,
        entries: Vec<(u64, String)>,
        net: &Network,
    ) -> Result<()> {
        let name = self.name.clone();
        let now = net.now_ms();
        let my_term = self.raft.as_ref().unwrap().term;
        if term < my_term {
            return net.send(
                &name,
                from,
                Message::AppendEntriesReply {
                    term: my_term,
                    success: false,
                    match_index: 0,
                },
            );
        }
        // a current leader exists: follow it (a candidate of the same term
        // abandons its election)
        self.raft_step_down(term, now)?;
        let old_last = self.raft.as_ref().expect("a raft voter").last_index();
        let (success, match_index, new_entries) = {
            let r = self.raft.as_mut().unwrap();
            // entries up to our offset are committed and folded into our
            // state: they match any current leader's log
            let anchor = if prev_log_index < r.offset {
                Some(prev_log_term)
            } else {
                r.term_at(prev_log_index)
            };
            match anchor {
                // consistency check failed: tell the leader how far our
                // log actually reaches so it can back off next_index
                None => (false, r.last_index().min(prev_log_index), Vec::new()),
                Some(t) if t != prev_log_term => (
                    false,
                    prev_log_index.saturating_sub(1).min(r.last_index()),
                    Vec::new(),
                ),
                Some(_) => {
                    // find the first slot where our log diverges from the
                    // leader's entries; everything before it is already
                    // stored with matching terms (log matching), everything
                    // from it on replaces our tail wholesale
                    let mut divergent: Option<usize> = None;
                    for (k, (e_term, _)) in entries.iter().enumerate() {
                        let idx = prev_log_index + 1 + k as u64;
                        if idx <= r.offset {
                            continue; // covered by our snapshot
                        }
                        match r.term_at(idx) {
                            Some(t) if t == *e_term => continue,
                            _ => {
                                divergent = Some(k);
                                break;
                            }
                        }
                    }
                    let mut keep: Vec<(u64, u64, String)> = Vec::new();
                    if let Some(k0) = divergent {
                        let cut = prev_log_index + 1 + k0 as u64;
                        if cut <= r.last_index() {
                            r.log.truncate((cut - r.offset - 1) as usize);
                        }
                        for (k, (e_term, wire)) in entries.iter().enumerate().skip(k0) {
                            let idx = prev_log_index + 1 + k as u64;
                            debug_assert_eq!(idx, r.last_index() + 1);
                            r.log.push((*e_term, wire.clone()));
                            keep.push((idx, *e_term, wire.clone()));
                        }
                    }
                    let matched = prev_log_index + entries.len() as u64;
                    let matched = matched.min(r.last_index());
                    r.commit = r.commit.max(leader_commit.min(r.last_index()));
                    (true, matched, keep)
                }
            }
        };
        if success {
            // record the log mutation: drop every entry at or past the
            // first replaced index, then write the appended suffix
            if let Some((first, _, _)) = new_entries.first() {
                self.raft_log_delete(*first..=old_last)?;
                for (idx, e_term, wire) in &new_entries {
                    self.raft_log_put(*idx, *e_term, wire)?;
                }
            }
            self.raft_apply_committed(net)?;
        }
        let my_term = self.raft.as_ref().unwrap().term;
        net.send(
            &name,
            from,
            Message::AppendEntriesReply {
                term: my_term,
                success,
                match_index,
            },
        )
    }

    fn raft_on_append_reply(
        &mut self,
        from: &str,
        term: u64,
        success: bool,
        match_index: u64,
        net: &Network,
    ) -> Result<()> {
        let my_term = self.raft.as_ref().unwrap().term;
        if term > my_term {
            return self.raft_step_down(term, net.now_ms());
        }
        if !self.raft_is_leader() || term != my_term {
            return Ok(());
        }
        let lagging = {
            let r = self.raft.as_mut().unwrap();
            if success {
                let m = r.match_index.entry(from.to_owned()).or_insert(0);
                *m = (*m).max(match_index);
                let m = *m;
                r.next_index.insert(from.to_owned(), m + 1);
                false
            } else {
                // follower told us how far its log reaches; resend from there
                let next = r.next_index.entry(from.to_owned()).or_insert(1);
                *next = (*next).min(match_index + 1).max(1);
                true
            }
        };
        if lagging {
            self.raft_send_append(from, net)?;
        }
        self.raft_advance_commit(net)?;
        Ok(())
    }

    fn raft_on_install(
        &mut self,
        from: &str,
        term: u64,
        last_index: u64,
        last_term: u64,
        data: &Arc<str>,
        net: &Network,
    ) -> Result<()> {
        let name = self.name.clone();
        let my_term = self.raft.as_ref().unwrap().term;
        if term < my_term {
            return net.send(
                &name,
                from,
                Message::InstallSnapshotReply {
                    term: my_term,
                    match_index: 0,
                },
            );
        }
        self.raft_step_down(term, net.now_ms())?;
        let stale = {
            let r = self.raft.as_ref().unwrap();
            last_index <= r.applied
        };
        if !stale {
            self.raft_install_state(data, last_index, last_term)?;
        }
        let (my_term, match_index) = {
            let r = self.raft.as_ref().unwrap();
            (r.term, r.applied)
        };
        net.send(
            &name,
            from,
            Message::InstallSnapshotReply {
                term: my_term,
                match_index,
            },
        )
    }

    fn raft_on_install_reply(
        &mut self,
        from: &str,
        term: u64,
        match_index: u64,
        net: &Network,
    ) -> Result<()> {
        let my_term = self.raft.as_ref().unwrap().term;
        if term > my_term {
            return self.raft_step_down(term, net.now_ms());
        }
        if !self.raft_is_leader() || term != my_term {
            return Ok(());
        }
        {
            let r = self.raft.as_mut().unwrap();
            let m = r.match_index.entry(from.to_owned()).or_insert(0);
            *m = (*m).max(match_index);
            let m = *m;
            r.next_index.insert(from.to_owned(), m + 1);
        }
        self.raft_advance_commit(net)?;
        Ok(())
    }

    // ---- the replicated state machine ------------------------------------

    /// Applies every committed-but-unapplied entry, in order, extending the
    /// hash chain and persisting the apply cursor with each mutation.
    fn raft_apply_committed(&mut self, net: &Network) -> Result<()> {
        loop {
            let next = {
                let r = self.raft.as_ref().unwrap();
                if r.applied >= r.commit {
                    break;
                }
                let idx = r.applied + 1;
                r.entry_wire(idx).map(|w| (idx, w.to_owned()))
            };
            let Some((idx, wire)) = next else {
                // committed entries below our log offset were applied via a
                // snapshot install; nothing to replay
                break;
            };
            let cmd = RaftCmd::from_wire(&wire)?;
            let is_leader = self.raft_is_leader();
            self.with_group(|this| {
                this.raft_apply_cmd(cmd, idx, is_leader, net)?;
                {
                    let r = this.raft.as_mut().unwrap();
                    r.cum_hash = chain_hash(r.cum_hash, &wire);
                    r.applied = idx;
                    let h = r.cum_hash;
                    r.applied_chain.push((idx, h));
                }
                this.raft_persist()
            })?;
        }
        self.raft_maybe_compact()
    }

    /// Applies the command of log entry `index` to the local state machine
    /// through the transitions the LWW handlers run (`mdp.rs`): a put takes
    /// the index as its version, so it is newer than every earlier put and
    /// the version gate admits it. Every transition is a deterministic
    /// function of the applied prefix, so all voters stay byte-identical;
    /// only the leader talks to LMRs.
    fn raft_apply_cmd(
        &mut self,
        cmd: RaftCmd,
        index: u64,
        is_leader: bool,
        net: &Network,
    ) -> Result<()> {
        match cmd {
            RaftCmd::Noop => Ok(()),
            RaftCmd::Put { uri, xml } => {
                let version = index;
                let put = Put { uri, version, xml };
                self.receive_put(&put, is_leader, net).map(|_| ())
            }
            RaftCmd::Subscribe {
                lmr,
                lmr_rule,
                rule_text,
            } => self.subscribe_rule(&lmr, lmr_rule, &rule_text, is_leader, net),
            RaftCmd::Resubscribe {
                lmr,
                lmr_rule,
                rule_text,
                last_seq,
            } => self.resubscribe_rule(&lmr, lmr_rule, &rule_text, last_seq, is_leader, net),
            RaftCmd::Unsubscribe { lmr, lmr_rule } => {
                self.unsubscribe_rule(&lmr, lmr_rule, is_leader, net)
            }
        }
    }

    // ---- snapshots -------------------------------------------------------

    /// Replaces the whole local state machine with a snapshot: the lagging
    /// follower tears down its subscriptions, documents, counters and
    /// tombstones, imports the leader's export, and restarts its log empty
    /// at the snapshot anchor.
    fn raft_install_state(
        &mut self,
        data: &Arc<str>,
        last_index: u64,
        last_term: u64,
    ) -> Result<()> {
        let bad = || Error::Topology("corrupt raft snapshot header".into());
        let (cum_hash, state) = data.split_once('\n').ok_or_else(bad)?;
        let cum_hash: u64 = cum_hash.parse().map_err(|_| bad())?;
        let old_log = {
            let r = self.raft.as_ref().expect("a raft voter");
            r.offset + 1..=r.last_index()
        };
        self.with_group(|this| {
            // subscriptions first so document removal publishes nothing
            for (sub, (lmr, rule, _)) in this.subscribers_sorted() {
                this.subscribers.remove(sub);
                this.engine.unregister_subscription(sub)?;
                this.state_delete(|| rec::rule_key("subscription", &lmr, rule))?;
            }
            for uri in std::mem::take(&mut this.doc_meta).into_keys() {
                if this.engine.document(&uri).is_some() {
                    let _ = this.engine.delete_document(&uri)?;
                }
                this.state_delete(|| rec::doc_key(&uri))?;
            }
            for (lmr, rule) in this.subscribers.retired_sorted() {
                this.state_delete(|| rec::rule_key("retired", &lmr, rule))?;
            }
            for (lmr, _) in this.next_pub_seq.sorted() {
                this.state_delete(|| crate::state::key("pubseq", &[&lmr]))?;
            }
            this.subscribers.clear_retired();
            this.next_pub_seq = SeqCounters::default();
            this.import_state(state)?;
            {
                let r = this.raft.as_mut().unwrap();
                r.log.clear();
                r.offset = last_index;
                r.offset_term = last_term;
                // exact at the new offset: reusable should this node lead
                r.snapshot = Some(Snapshot {
                    index: last_index,
                    term: last_term,
                    data: Arc::clone(data),
                });
                r.commit = last_index;
                r.applied = last_index;
                r.cum_hash = cum_hash;
                r.applied_chain.push((last_index, cum_hash));
            }
            this.raft_log_delete(old_log)?;
            this.raft_persist()
        })
    }

    /// Compacts the log once the applied prefix outgrows the threshold:
    /// keep the last [`COMPACT_KEEP`] applied entries (fewer under a
    /// smaller threshold) for consistency checks and drop the rest.
    /// Nothing is serialized here: a cached snapshot the new offset passes
    /// is dropped, and the next peer that lags gets one built by
    /// `raft_send_append`.
    fn raft_maybe_compact(&mut self) -> Result<()> {
        let (old_offset, new_offset) = {
            let r = self.raft.as_mut().unwrap();
            let new_offset = r
                .applied
                .saturating_sub(COMPACT_KEEP.min(r.compact_threshold));
            if r.applied.saturating_sub(r.offset) <= r.compact_threshold || new_offset <= r.offset {
                return Ok(());
            }
            let old_offset = r.offset;
            r.offset_term = r.term_at(new_offset).unwrap_or(0);
            r.log.drain(..(new_offset - old_offset) as usize);
            r.offset = new_offset;
            r.snapshot.take_if(|snap| snap.index < new_offset);
            (old_offset, new_offset)
        };
        self.with_group(|this| {
            this.raft_log_delete(old_offset + 1..=new_offset)?;
            this.raft_persist()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_wire_roundtrip() {
        let cmds = [
            RaftCmd::Noop,
            put(Some("<x>\ttab</x>")),
            put(Some("line\nbreak")),
            put(Some("")),
            put(None),
            RaftCmd::Subscribe {
                lmr: "l1".into(),
                lmr_rule: 7,
                rule_text: "search C c register c".into(),
            },
            RaftCmd::Resubscribe {
                lmr: "l1".into(),
                lmr_rule: 7,
                rule_text: "search C c register c".into(),
                last_seq: 12,
            },
            RaftCmd::Unsubscribe {
                lmr: "l1".into(),
                lmr_rule: 7,
            },
        ];
        for cmd in cmds {
            assert_eq!(RaftCmd::from_wire(&cmd.to_wire()).unwrap(), cmd);
        }
        assert!(RaftCmd::from_wire("bogus\tx").is_err());
        assert!(RaftCmd::from_wire("sub\tl1\tnotanumber\ttext").is_err());
        // a put is mis-tagged, truncated, or carries a field too many
        for wire in [
            "reg\ta.rdf\t<x/>",
            "del\ta.rdf",
            "Put\ta.rdf",
            "put",
            "put\ta\tb\tc",
        ] {
            assert!(RaftCmd::from_wire(wire).is_err(), "{wire:?} decoded");
        }
    }

    /// A put of a URI holding a tab.
    fn put(xml: Option<&str>) -> RaftCmd {
        let (uri, xml) = ("a\tb.rdf".into(), xml.map(str::to_owned));
        RaftCmd::Put { uri, xml }
    }

    #[test]
    fn election_timeouts_are_deterministic_and_spread() {
        let a = election_timeout_ms(1, "m1", 3);
        assert_eq!(a, election_timeout_ms(1, "m1", 3));
        assert!((ELECTION_MIN_MS..ELECTION_MIN_MS + ELECTION_SPREAD_MS).contains(&a));
        // different nodes and terms draw different timeouts (overwhelmingly)
        let draws: BTreeSet<u64> = (0..8)
            .flat_map(|t| ["m1", "m2", "m3"].map(|n| election_timeout_ms(1, n, t)))
            .collect();
        assert!(draws.len() > 8, "timeouts should spread: {draws:?}");
    }

    #[test]
    fn hash_chain_orders_and_separates() {
        let a = chain_hash(chain_hash(0, "x"), "y");
        let b = chain_hash(chain_hash(0, "y"), "x");
        assert_ne!(a, b);
        assert_eq!(a, chain_hash(chain_hash(0, "x"), "y"));
    }

    #[test]
    fn followers_number_once_per_envelope_and_a_new_leader_continues_the_stream() {
        use crate::system::MdvSystem;
        use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};

        let schema = RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap();
        let doc = |i: usize| {
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
                        .with("memory", Term::literal("128")),
                )
        };
        let lmrs = ["l1", "l2"];
        let mut sys = MdvSystem::new(schema);
        sys.enable_raft(23).unwrap();
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).unwrap();
        }
        // three rules per LMR, all matching every document
        for l in lmrs {
            sys.add_lmr(l, "m1").unwrap();
            for bound in [60, 61, 62] {
                let rule = format!(
                    "search CycleProvider c register c where c.serverInformation.memory > {bound}"
                );
                sys.subscribe(l, &rule).unwrap();
            }
        }
        // each live voter's next sequence number per LMR
        let counters = |sys: &MdvSystem| -> BTreeMap<String, Vec<u64>> {
            sys.mdp_names()
                .into_iter()
                .filter(|m| !sys.is_down(m))
                .map(|m| {
                    let mdp = sys.mdp(m).unwrap();
                    let seqs = lmrs.map(|l| mdp.next_pub_seq.get(l));
                    (m.to_owned(), seqs.into())
                })
                .collect()
        };
        // every LMR's floor is the leader's next number
        let caught_up = |sys: &MdvSystem, leader: &str| {
            for (k, l) in lmrs.iter().enumerate() {
                let lmr = sys.lmr(l).unwrap();
                assert_eq!(lmr.mdp(), leader);
                assert_eq!(lmr.next_pub_seq(), counters(sys)[leader][k], "{l}");
            }
            assert_eq!(sys.mdp(leader).unwrap().unacked_publications(), 0);
        };
        let publishes = |sys: &MdvSystem| {
            let kinds = sys.network().traffic_by_kind();
            kinds.get("publish").copied().unwrap_or(0)
        };

        let before = counters(&sys);
        let sent = publishes(&sys);
        sys.register_document("m1", &doc(1)).unwrap();
        assert_eq!(publishes(&sys) - sent, 2, "one envelope per LMR");
        for (voter, seqs) in counters(&sys) {
            let stepped: Vec<u64> = before[&voter].iter().map(|s| s + 1).collect();
            assert_eq!(seqs, stepped, "{voter} numbers once per envelope");
        }
        let leader = sys.raft_leader().expect("leader elected");
        caught_up(&sys, &leader);

        // a leader change between two operations: the new leader continues
        // every stream where the LMR's floor stands — no gap, no reuse
        sys.fail_mdp(&leader).unwrap();
        sys.run_to_quiescence().unwrap();
        let new_leader = sys.raft_leader().expect("new leader after failover");
        assert_ne!(new_leader, leader);
        caught_up(&sys, &new_leader);
        sys.register_document(&new_leader, &doc(2)).unwrap();
        caught_up(&sys, &new_leader);
        let live = counters(&sys);
        assert!(live.values().all(|seqs| *seqs == live[&new_leader]));
        for l in lmrs {
            assert!(sys.lmr(l).unwrap().is_cached("doc2.rdf#info"));
        }
    }

    #[test]
    fn append_from_below_an_installed_snapshot_is_accepted() {
        use crate::transport::NetConfig;
        use mdv_rdf::RdfSchema;

        let schema = RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory"))
            .build()
            .unwrap();
        let net = Network::new(NetConfig::default());
        let leader = net.register("m1").unwrap();
        let mut follower = Mdp::new("m2", schema);
        follower.raft_enable(0x5eed, 0);
        let data = snapshot_data(0, &follower.export_state());
        follower.raft_install_state(&data, 3, 3).unwrap();

        // a leader whose next_index for us predates the install resends
        // from below our offset: the covered prefix matches, the rest lands
        let noop = RaftCmd::Noop.to_wire();
        let entries = vec![(3, noop.clone()), (3, noop)];
        follower
            .raft_on_append("m1", 3, 2, 1, 4, entries, &net)
            .unwrap();
        let replies: Vec<Message> = leader.try_iter().map(|env| env.message).collect();
        assert_eq!(
            replies,
            [Message::AppendEntriesReply {
                term: 3,
                success: true,
                match_index: 4
            }]
        );
        assert_eq!(follower.raft_probe().unwrap().applied, 4);
    }

    #[test]
    fn snapshot_install_rebuilds_both_directions_of_the_subscriber_table() {
        use crate::transport::NetConfig;
        use mdv_rdf::{write_document, Document, RdfSchema, Resource, Term, UriRef};

        let schema = RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory"))
            .build()
            .unwrap();
        let doc = Document::new("doc1.rdf").with_resource(
            Resource::new(UriRef::new("doc1.rdf", "info"), "ServerInformation")
                .with("memory", Term::literal("128")),
        );
        let matches = "search ServerInformation s register s where s.memory > 64";
        let misses = "search ServerInformation s register s where s.memory > 4096";
        let net = Network::new(NetConfig::default());
        let l1 = net.register("l1").unwrap();
        let _l2 = net.register("l2").unwrap();
        // only a put reads the entry's index
        let apply = |mdp: &mut Mdp, cmd: RaftCmd, is_leader: bool| {
            mdp.raft_apply_cmd(cmd, 1, is_leader, &net).unwrap();
        };
        let subscribe = |lmr: &str, lmr_rule: u64, rule_text: &str| RaftCmd::Subscribe {
            lmr: lmr.into(),
            lmr_rule,
            rule_text: rule_text.into(),
        };
        let unsubscribe = |lmr: &str, lmr_rule: u64| RaftCmd::Unsubscribe {
            lmr: lmr.into(),
            lmr_rule,
        };

        // the leader's state machine: three live rules over two LMRs and
        // one tombstone, so the snapshot carries subscription and retired
        // records
        let mut leader = Mdp::new("m1", schema.clone());
        leader.raft_enable(0x5eed, 0);
        let (uri, xml) = (doc.uri().into(), Some(write_document(&doc)));
        let register = RaftCmd::Put { uri, xml };
        apply(&mut leader, register, true);
        apply(&mut leader, subscribe("l1", 0, matches), true);
        apply(&mut leader, subscribe("l1", 1, misses), true);
        apply(&mut leader, subscribe("l2", 0, matches), true);
        apply(&mut leader, unsubscribe("l1", 2), true);
        let data = snapshot_data(0, &leader.export_state());
        let subs = data.lines().filter(|l| l.starts_with("subscription "));
        assert_eq!(subs.count(), 3);
        assert!(data.lines().any(|l| l == "retired l1\t2"), "{data}");

        // a lagging follower with a rule and a tombstone of its own, which
        // the install must tear down in both directions
        let mut follower = Mdp::new("m2", schema);
        follower.raft_enable(0x5eed, 0);
        apply(&mut follower, subscribe("l2", 5, matches), false);
        apply(&mut follower, unsubscribe("l2", 6), false);
        let stale = follower.subscribers.find("l2", 5).unwrap();
        follower.raft_install_state(&data, 5, 1).unwrap();

        assert_eq!(follower.subscribers.get(stale), None);
        assert_eq!(follower.subscribers.find("l2", 5), None);
        assert!(!follower.subscribers.is_retired("l2", 6));
        let rules = |mdp: &Mdp| -> Vec<(String, u64, Option<String>)> {
            mdp.subscribers_sorted()
                .into_iter()
                .map(|(_, rule)| rule)
                .collect()
        };
        assert_eq!(rules(&follower), rules(&leader));
        for (sub, (lmr, rule, _)) in follower.subscribers_sorted() {
            assert_eq!(follower.subscribers.find(&lmr, rule), Some(sub));
            assert_eq!(follower.subscribers.get(sub), Some((lmr.as_str(), rule)));
        }
        assert_eq!(
            follower.subscribers.retired_sorted(),
            vec![("l1".to_owned(), 2)]
        );

        // duplicated proposals of a rule the snapshot carries and of a
        // retired one: re-acked, nothing registered a second time
        let subs_before = follower.subscribers_sorted();
        let state_before = follower.export_state();
        let engine_before = follower.engine().subscriptions().count();
        while l1.try_recv().is_ok() {}
        apply(&mut follower, subscribe("l1", 0, matches), true);
        apply(&mut follower, subscribe("l1", 2, matches), true);
        let acks: Vec<Message> = l1.try_iter().map(|env| env.message).collect();
        assert_eq!(
            acks,
            [0, 2].map(|lmr_rule| Message::SubscribeAck {
                lmr_rule,
                error: None
            })
        );
        assert_eq!(follower.engine().subscriptions().count(), engine_before);
        assert_eq!(follower.subscribers_sorted(), subs_before);
        assert_eq!(follower.export_state(), state_before);
    }
}
