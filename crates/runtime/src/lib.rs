//! # mdv-runtime
//!
//! The zero-dependency runtime layer of the MDV workspace. Everything the
//! repository previously pulled from crates.io for message passing and
//! randomness lives here, built on `std` alone, so the whole workspace
//! compiles, tests, and benchmarks on a machine with no registry access:
//!
//! * [`rng`] — a SplitMix64-seeded Xoshiro256++ PRNG with the
//!   `gen_range` / `shuffle` / `choose` / `sample` surface the workload
//!   generators and benchmarks need. Deterministic: one seed, one stream.
//! * [`channel`] — bounded and unbounded MPMC channels (both endpoints
//!   cloneable) used by the simulated network transport.
//! * [`sync`] — a poison-free `Mutex` wrapper (the transport's shared
//!   network state).
//! * [`hash`] — a deterministic multiply-rotate hasher ([`MixHashMap`]),
//!   the storage engine's index buckets and row-id map.
//!
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

pub mod channel;
pub mod hash;
pub mod rng;
pub mod sync;

pub use channel::{bounded, unbounded, Receiver, RecvError, SendError, Sender, TryRecvError};
pub use hash::{MixHashMap, MixHasher, MixState};
pub use rng::Prng;
pub use sync::Mutex;
