//! Errors of the system tier.

use std::fmt;

pub type Result<T> = std::result::Result<T, Error>;

#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Bubbled up from the filter engine (which wraps store/rdf/rule errors).
    Filter(mdv_filter::Error),
    /// Unknown node name, duplicate registration, or wiring mistakes.
    Topology(String),
    /// A subscription failed at the MDP (carried back in the ack).
    Subscription(String),
    /// Local metadata management errors at an LMR.
    Local(String),
    /// A consensus-mode write could not commit (no leader, or the leader
    /// cannot reach a quorum of voters). The operation may be retried once
    /// connectivity is restored; it has not taken effect.
    Unavailable(String),
    /// A deployment-level configuration request was rejected (e.g.
    /// combining placement with an incompatible mode).
    Config(String),
    /// A durability fault from the storage backend (I/O error, torn write,
    /// detected corruption, wedged engine) — the disk misbehaved, not the
    /// caller. Carried as the typed relstore error so callers can
    /// distinguish e.g. `Corrupt` from `Io` (DESIGN.md §12).
    Storage(mdv_relstore::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Filter(e) => write!(f, "filter error: {e}"),
            Error::Topology(msg) => write!(f, "topology error: {msg}"),
            Error::Subscription(msg) => write!(f, "subscription error: {msg}"),
            Error::Local(msg) => write!(f, "local metadata error: {msg}"),
            Error::Unavailable(msg) => write!(f, "unavailable: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::Storage(e) => write!(f, "storage fault: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<mdv_filter::Error> for Error {
    fn from(e: mdv_filter::Error) -> Self {
        Error::Filter(e)
    }
}

impl From<mdv_rdf::Error> for Error {
    fn from(e: mdv_rdf::Error) -> Self {
        Error::Filter(mdv_filter::Error::Rdf(e))
    }
}

impl From<mdv_rulelang::Error> for Error {
    fn from(e: mdv_rulelang::Error) -> Self {
        Error::Filter(mdv_filter::Error::Rule(e))
    }
}

impl From<mdv_relstore::Error> for Error {
    fn from(e: mdv_relstore::Error) -> Self {
        use mdv_relstore::Error as E;
        match e {
            // durability faults keep their typed identity; logic errors
            // (schema misuse etc.) stay on the filter path as before
            E::Io(_) | E::Corrupt(_) | E::TornWrite(_) | E::Wedged(_) => Error::Storage(e),
            other => Error::Filter(mdv_filter::Error::Store(other)),
        }
    }
}

/// A storage backend error on the filter path, where the filter engine's
/// own store errors go.
pub(crate) fn store_err(e: mdv_relstore::Error) -> Error {
    mdv_filter::Error::from(e).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_chain() {
        let e: Error = mdv_rulelang::Error::Unsatisfiable.into();
        assert!(e.to_string().contains("filter error"));
        assert!(Error::Topology("no such node".into())
            .to_string()
            .contains("topology"));
    }
}
