//! Property and stress tests for the runtime primitives the simulated
//! network transport is built on: the MPMC channel (`channel.rs`) and the
//! PRNG (`rng.rs`). The transport's fault-injection machinery
//! (`mdv-system`) assumes these hold; here they are checked directly.

use std::time::Duration;

use mdv_runtime::channel::{bounded, unbounded, TryRecvError};
use mdv_runtime::Prng;
use mdv_testkit::{prop_assert, prop_assert_eq, property};

property! {
    /// Concurrent producers: every message arrives exactly once and each
    /// producer's own messages keep their send order (per-producer FIFO) —
    /// for bounded and unbounded channels alike.
    fn mpmc_delivers_exactly_once_in_per_producer_order(src) cases = 30; {
        let producers = src.u64_in(1..5);
        let per = src.u64_in(1..80);
        let use_bounded = src.bool();
        let cap = src.u64_in(1..10) as usize;
        let (tx, rx) = if use_bounded {
            bounded(cap)
        } else {
            unbounded()
        };
        let received: Vec<(u64, u64)> = std::thread::scope(|s| {
            for p in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        tx.send((p, i)).unwrap();
                    }
                });
            }
            drop(tx);
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        prop_assert_eq!(received.len() as u64, producers * per, "loss or duplication");
        for p in 0..producers {
            let seqs: Vec<u64> = received
                .iter()
                .filter(|(who, _)| *who == p)
                .map(|(_, i)| *i)
                .collect();
            prop_assert_eq!(
                seqs,
                (0..per).collect::<Vec<u64>>(),
                "producer {} reordered",
                p
            );
        }
    }

    /// A bounded channel never holds more than its capacity, and a sender
    /// blocked on a full queue completes once the consumer drains it.
    fn bounded_channel_respects_capacity(src) cases = 30; {
        let cap = src.u64_in(1..8) as usize;
        let total = cap as u64 + src.u64_in(1..40);
        let (tx, rx) = bounded(cap);
        std::thread::scope(|s| {
            let tx2 = tx.clone();
            let producer = s.spawn(move || {
                for i in 0..total {
                    tx2.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while got.len() < total as usize {
                assert!(
                    rx.len() <= cap,
                    "queue above capacity: {} > {cap}",
                    rx.len()
                );
                match rx.try_recv() {
                    Ok(v) => got.push(v),
                    Err(TryRecvError::Empty) => std::thread::yield_now(),
                    Err(TryRecvError::Disconnected) => break,
                }
            }
            producer.join().unwrap();
            assert_eq!(got, (0..total).collect::<Vec<u64>>());
        });
        drop(tx);
        prop_assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    /// The PRNG driving the fault plans is a pure function of its seed.
    fn prng_streams_replay_from_seed(src) cases = 30; {
        let seed = src.bits();
        let mut a = Prng::seed_from_u64(seed);
        let mut b = Prng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        prop_assert!((0.0..1.0).contains(&a.gen_f64()));
    }
}

#[test]
fn blocked_sender_wakes_when_receiver_disconnects() {
    // a sender parked on a full bounded queue must not hang forever when
    // the last receiver goes away — it wakes and reports the failure
    let (tx, rx) = bounded(1);
    tx.send(0u8).unwrap();
    std::thread::scope(|s| {
        let h = s.spawn(|| tx.send(1));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(h.join().unwrap().is_err(), "send must fail, not hang");
    });
}
