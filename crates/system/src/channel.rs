//! The at-least-once delivery policy every sequenced stream shares
//! (DESIGN.md §3b): MDP→LMR publications, LMR→MDP control messages,
//! MDP↔MDP replication and the placement alternate streams.
//!
//! A sender numbers each message per destination ([`SeqCounters`]), keeps
//! it in an [`Outbox`] until the ack arrives and retransmits it, in key
//! order, with exponential backoff. Only the sender keeps what is in
//! flight: a receiver ([`Inbox`]) keeps a floor per sender, acks and drops
//! what is below it, neither acks nor keeps what arrives ahead of it, and
//! applies the message at the floor, so messages apply once and in
//! sequence order and the retransmission closes every gap.
//!
//! The module is sans-I/O: it never sends a message and never writes a
//! state record. Callers build the wire form, send, and write their
//! durable state records themselves, so the traffic and the WAL bytes are
//! theirs.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

use crate::error::Result;

/// The next sequence number of every stream a node sends, per destination.
#[derive(Debug, Default)]
pub(crate) struct SeqCounters(HashMap<String, u64>);

impl SeqCounters {
    /// The number `dest`'s next message will carry (0 for a new stream).
    pub(crate) fn get(&self, dest: &str) -> u64 {
        self.0.get(dest).copied().unwrap_or(0)
    }

    /// Hands out the next number of `dest`'s stream.
    pub(crate) fn take(&mut self, dest: &str) -> u64 {
        let seq = self.get(dest);
        self.set(dest, seq + 1);
        seq
    }

    pub(crate) fn set(&mut self, dest: &str, next: u64) {
        self.0.insert(dest.to_owned(), next);
    }

    /// Every counter, sorted by destination (deterministic export).
    pub(crate) fn sorted(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self.0.iter().map(|(d, n)| (d.clone(), *n)).collect();
        out.sort();
        out
    }
}

/// An unacked message and its retransmission timer.
#[derive(Debug)]
pub(crate) struct Pending<M> {
    msg: M,
    next_retry_ms: u64,
    /// Doubles per retransmission up to the cap.
    backoff_ms: u64,
    /// Retransmissions so far.
    pub(crate) attempts: u32,
}

/// Unacked messages by key; retransmissions go out in key order.
#[derive(Debug)]
pub(crate) struct Outbox<K, M>(BTreeMap<K, Pending<M>>);

impl<K, M> Default for Outbox<K, M> {
    fn default() -> Self {
        Outbox(BTreeMap::new())
    }
}

impl<K: Ord, M> Outbox<K, M> {
    /// Remembers a message just sent, first due again `initial_ms` later.
    pub(crate) fn push(&mut self, key: K, msg: M, now_ms: u64, initial_ms: u64) {
        self.insert(key, msg, now_ms + initial_ms, initial_ms);
    }

    /// Re-enters a message that was in flight when the node went down, due
    /// at once: the receiver tolerates the duplicate.
    pub(crate) fn restore(&mut self, key: K, msg: M, backoff_ms: u64) {
        self.insert(key, msg, 0, backoff_ms.max(1));
    }

    fn insert(&mut self, key: K, msg: M, next_retry_ms: u64, backoff_ms: u64) {
        let pending = Pending {
            msg,
            next_retry_ms,
            backoff_ms,
            attempts: 0,
        };
        self.0.insert(key, pending);
    }

    pub(crate) fn ack(&mut self, key: &K) {
        self.0.remove(key);
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The earliest retransmission time of the entries `held` does not
    /// hold back.
    pub(crate) fn next_retry_at(&self, held: impl Fn(&K, &Pending<M>) -> bool) -> Option<u64> {
        let live = self.0.iter().filter(|(k, p)| !held(k, p));
        live.map(|(_, p)| p.next_retry_ms).min()
    }

    /// Hands every due entry that `held` does not hold back to `resend`,
    /// in key order, with the attempt count it reaches, and doubles its
    /// backoff up to `max_ms`. Returns whether anything was resent.
    pub(crate) fn retransmit_due(
        &mut self,
        now_ms: u64,
        max_ms: u64,
        held: impl Fn(&K, &Pending<M>) -> bool,
        mut resend: impl FnMut(&K, &M, u32) -> Result<()>,
    ) -> Result<bool> {
        let mut resent = false;
        for (key, p) in self.0.iter_mut() {
            if p.next_retry_ms > now_ms || held(key, p) {
                continue;
            }
            resend(key, &p.msg, p.attempts + 1)?;
            p.attempts += 1;
            p.backoff_ms = (p.backoff_ms * 2).min(max_ms);
            p.next_retry_ms = now_ms + p.backoff_ms;
            resent = true;
        }
        Ok(resent)
    }
}

/// The receiving end of the streams of any number of senders, keyed `K`:
/// the next sequence number expected from each. It keeps no message; what
/// is in flight stays in the sender's [`Outbox`]. An arrival below its
/// floor is a duplicate to ack and drop, one ahead of it is neither acked
/// nor kept, and the one at the floor is acked, moves the floor past itself
/// and is applied.
#[derive(Debug)]
pub(crate) struct Inbox<K>(BTreeMap<K, u64>);

impl<K> Default for Inbox<K> {
    fn default() -> Self {
        Inbox(BTreeMap::new())
    }
}

impl<K: Ord> Inbox<K> {
    pub(crate) fn floor<Q: Ord + ?Sized>(&self, from: &Q) -> u64
    where
        K: Borrow<Q>,
    {
        self.0.get(from).copied().unwrap_or(0)
    }

    pub(crate) fn set_floor(&mut self, from: K, floor: u64) {
        self.0.insert(from, floor);
    }

    /// Every floor, sorted by sender (deterministic export).
    pub(crate) fn floors(&self) -> impl Iterator<Item = (&K, u64)> {
        self.0.iter().map(|(k, f)| (k, *f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

    const INITIAL: u64 = 50;
    const MAX: u64 = 1600;

    /// A message on the simulated wire: data `seq` of sender `k` to the
    /// receiver, or the receiver's ack of it.
    #[derive(Debug, Clone, Copy)]
    enum Wire {
        Data(usize, u64),
        Ack(usize, u64),
    }

    struct Sender {
        seqs: SeqCounters,
        outbox: Outbox<(String, u64), u64>,
        sent: u64,
    }

    /// A withholding receiver: it acks what is below or at its floor,
    /// applies only the message at the floor, and neither acks nor keeps
    /// an early arrival.
    struct Receiver {
        inbox: Inbox<usize>,
        delivered: Vec<Vec<u64>>,
        /// Arrivals ahead of their floor so far.
        early: usize,
    }

    impl Receiver {
        fn receive(&mut self, k: usize, seq: u64, wire: &mut Vec<Wire>) {
            let floor = self.inbox.floor(&k);
            if seq > floor {
                self.early += 1;
                return;
            }
            wire.push(Wire::Ack(k, seq));
            if seq == floor {
                self.inbox.set_floor(k, seq + 1);
                self.delivered[k].push(seq);
            }
        }
    }

    fn retransmit(k: usize, tx: &mut Sender, now: u64, wire: &mut Vec<Wire>) -> Result<bool> {
        tx.outbox.retransmit_due(
            now,
            MAX,
            |_, _| false,
            |(_, seq), _, _| {
                wire.push(Wire::Data(k, *seq));
                Ok(())
            },
        )
    }

    fn deliver(w: Wire, senders: &mut [Sender], rx: &mut Receiver, wire: &mut Vec<Wire>) {
        match w {
            Wire::Data(k, seq) => rx.receive(k, seq, wire),
            Wire::Ack(k, seq) => senders[k].outbox.ack(&("rx".to_owned(), seq)),
        }
    }

    fn pick(src: &mut Source, wire: &[Wire]) -> usize {
        src.usize_in(0..wire.len())
    }

    /// Drops, duplicates, reordering and lost acks over 1–3 senders: every
    /// sequence number is delivered exactly once and in order, and every
    /// outbox empties once the network heals. Returns the early arrivals
    /// the receiver withheld.
    fn delivered_once_and_in_order(src: &mut Source) -> std::result::Result<usize, String> {
        let n = src.usize_in(1..4);
        let mut senders: Vec<Sender> = (0..n)
            .map(|_| Sender {
                seqs: SeqCounters::default(),
                outbox: Outbox::default(),
                sent: 0,
            })
            .collect();
        let mut rx = Receiver {
            inbox: Inbox::default(),
            delivered: vec![Vec::new(); n],
            early: 0,
        };
        let mut wire: Vec<Wire> = Vec::new();
        let mut now = 0;
        for _ in 0..src.usize_in(1..120) {
            match src.weighted(&[4, 5, 2, 2, 2]) {
                0 => {
                    let k = src.usize_in(0..n);
                    let tx = &mut senders[k];
                    let seq = tx.seqs.take("rx");
                    tx.outbox.push(("rx".to_owned(), seq), seq, now, INITIAL);
                    tx.sent += 1;
                    wire.push(Wire::Data(k, seq));
                }
                1 if !wire.is_empty() => {
                    let w = wire.remove(pick(src, &wire));
                    deliver(w, &mut senders, &mut rx, &mut wire);
                }
                2 if !wire.is_empty() => {
                    wire.remove(pick(src, &wire)); // a lost message or ack
                }
                3 if !wire.is_empty() => {
                    let w = wire[pick(src, &wire)];
                    wire.push(w);
                }
                _ => {
                    now += src.u64_in(0..200);
                    for (k, tx) in senders.iter_mut().enumerate() {
                        retransmit(k, tx, now, &mut wire).unwrap();
                    }
                }
            }
        }
        // the network heals: deliver everything, retransmit when due
        for _ in 0..256 {
            while !wire.is_empty() {
                let w = wire.remove(0);
                deliver(w, &mut senders, &mut rx, &mut wire);
            }
            let due = senders
                .iter()
                .filter_map(|tx| tx.outbox.next_retry_at(|_, _| false))
                .min();
            let Some(due) = due else { break };
            now = now.max(due);
            for (k, tx) in senders.iter_mut().enumerate() {
                retransmit(k, tx, now, &mut wire).unwrap();
            }
        }
        for (k, tx) in senders.iter().enumerate() {
            prop_assert_eq!(tx.outbox.len(), 0, "sender {k}'s outbox drained");
            let all: Vec<u64> = (0..tx.sent).collect();
            prop_assert_eq!(&rx.delivered[k], &all, "sender {k}: once, in order");
            prop_assert_eq!(rx.inbox.floor(&k), tx.sent);
            prop_assert_eq!(tx.seqs.get("rx"), tx.sent);
        }
        Ok(rx.early)
    }

    /// [`delivered_once_and_in_order`] over many cases, which between them
    /// must still draw early arrivals.
    #[test]
    fn every_message_is_delivered_once_and_in_order() {
        let early = std::cell::Cell::new(0);
        let config = mdv_testkit::Config::from_env();
        mdv_testkit::run_property(
            "every_message_is_delivered_once_and_in_order",
            config,
            |src| {
                early.set(early.get() + delivered_once_and_in_order(src)?);
                Ok(())
            },
        );
        assert!(early.get() > 0, "no case drew an early arrival");
    }

    property! {
        /// Retransmission `k` of an entry comes `initial·2^k` after the
        /// one before, capped at the configured maximum.
        fn backoff_doubles_up_to_the_cap(src) {
            let initial = src.u64_in(1..100);
            let max = src.u64_in(initial..5000);
            let start = src.u64_in(0..1000);
            let rounds = src.usize_in(1..16);
            let mut outbox: Outbox<u8, ()> = Outbox::default();
            outbox.push(0, (), start, initial);
            let mut sent_at = vec![start];
            for _ in 0..rounds {
                let due = outbox.next_retry_at(|_, _| false).unwrap();
                let early = outbox.retransmit_due(due - 1, max, |_, _| false, |_, _, _| Ok(()));
                prop_assert!(!early.unwrap(), "nothing is resent before it is due");
                let mut attempts = 0;
                let resent = outbox.retransmit_due(due, max, |_, _| false, |_, _, a| {
                    attempts = a;
                    Ok(())
                });
                prop_assert!(resent.unwrap());
                prop_assert_eq!(attempts as usize, sent_at.len());
                sent_at.push(due);
            }
            for (k, gap) in sent_at.windows(2).map(|w| w[1] - w[0]).enumerate() {
                prop_assert_eq!(gap, (initial << k).min(max), "gap {k}");
            }
        }

        /// Entries to a held (down) destination neither set the next
        /// retransmission time nor get resent.
        fn held_destinations_are_skipped(src) {
            let down: Vec<bool> = (0..4).map(|_| src.bool()).collect();
            let mut outbox: Outbox<(usize, u64), ()> = Outbox::default();
            let mut expected: Option<u64> = None;
            let mut live = Vec::new();
            for seq in 0..src.u64_in(1..12) {
                let dest = src.usize_in(0..4);
                let now = src.u64_in(0..1000);
                let initial = src.u64_in(1..200);
                outbox.push((dest, seq), (), now, initial);
                if !down[dest] {
                    expected = Some(expected.map_or(now + initial, |e| e.min(now + initial)));
                    live.push((dest, seq));
                }
            }
            let held = |(dest, _): &(usize, u64), _: &Pending<()>| down[*dest];
            prop_assert_eq!(outbox.next_retry_at(held), expected);
            let mut resent = Vec::new();
            outbox
                .retransmit_due(u64::MAX / 4, MAX, held, |key, _, _| {
                    resent.push(*key);
                    Ok(())
                })
                .unwrap();
            live.sort();
            prop_assert_eq!(resent, live, "exactly the live entries, in key order");
        }

        /// An entry restored after a crash is due at once, whatever its
        /// backoff, and doubles from there.
        fn restored_entries_are_due_at_once(src) {
            let backoff = src.u64_in(0..3000);
            let now = src.u64_in(0..10_000);
            let mut outbox: Outbox<u8, ()> = Outbox::default();
            outbox.restore(0, (), backoff);
            prop_assert_eq!(outbox.next_retry_at(|_, _| false), Some(0));
            let resent = outbox.retransmit_due(now, MAX, |_, _| false, |_, _, _| Ok(()));
            prop_assert!(resent.unwrap());
            let next = now + (2 * backoff.max(1)).min(MAX);
            prop_assert_eq!(outbox.next_retry_at(|_, _| false), Some(next));
        }
    }
}
