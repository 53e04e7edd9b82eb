//! Structured errors for the fallible communication paths.
//!
//! The blocking [`Communicator::recv`] keeps its MPI-style contract — a
//! protocol violation is a bug and panics — but fault-tolerant drivers need
//! to *observe* failures instead of dying with them. [`CommError`] is the
//! vocabulary of those observations: every way a receive or send can go
//! wrong on the threaded transport, as data instead of a panic message.
//!
//! [`Communicator::recv`]: crate::communicator::Communicator::recv

use std::fmt;
use std::time::Duration;

/// A communication failure, returned by the `try_*` paths of
/// [`Communicator`](crate::communicator::Communicator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadline. On a healthy
    /// protocol this means the peer died or stopped sending — the signal
    /// the recovery layer turns into a retry.
    Timeout {
        /// Local rank the receive was posted against.
        src: usize,
        /// Tag the receive was waiting for.
        tag: u64,
        /// How long the receive waited before giving up.
        waited: Duration,
    },
    /// The local rank has been declared dead by fault injection (or knows
    /// its peer has): no further point-to-point progress is possible.
    PeerDead {
        /// World rank of the dead process.
        rank: usize,
    },
    /// The next in-order message from the source carried the wrong tag —
    /// a protocol violation (only reported under strict matching).
    TagMismatch {
        /// Local source rank.
        src: usize,
        /// Tag the receive expected.
        expected: u64,
        /// Tag the message actually carried.
        got: u64,
    },
    /// The matched message's payload was not the expected element type.
    TypeMismatch {
        /// Local source rank.
        src: usize,
        /// Tag of the offending message.
        tag: u64,
    },
    /// The destination or source rank is outside `0..size()`.
    InvalidRank {
        /// The out-of-range rank.
        rank: usize,
        /// The communicator's size.
        size: usize,
    },
    /// The transport fabric shut down while an operation was in flight.
    FabricClosed,
    /// The rank's replicated simulation state no longer matches its
    /// column's majority fingerprint: silent corruption detected by the
    /// health cross-check. The recovery layer treats this as its own
    /// fault class — the corrupt replica must be re-seeded, not retried.
    StateCorrupt {
        /// World rank holding the corrupt replica.
        rank: usize,
        /// The column-majority state fingerprint.
        expected: u64,
        /// The fingerprint the rank's own state hashes to.
        got: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "receive from rank {src} (tag {tag}) timed out after {waited:?} — \
                 protocol deadlock or dead peer?"
            ),
            CommError::PeerDead { rank } => {
                write!(
                    f,
                    "rank {rank} is dead; no point-to-point progress possible"
                )
            }
            CommError::TagMismatch { src, expected, got } => {
                write!(f, "expected tag {expected} from rank {src}, got {got}")
            }
            CommError::TypeMismatch { src, tag } => {
                write!(f, "payload type mismatch from rank {src} (tag {tag})")
            }
            CommError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            CommError::FabricClosed => write!(f, "fabric closed while operating"),
            CommError::StateCorrupt {
                rank,
                expected,
                got,
            } => write!(
                f,
                "rank {rank} replica state is corrupt: fingerprint {got:016x} \
                 disagrees with column majority {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_diagnostic() {
        let e = CommError::Timeout {
            src: 3,
            tag: 7,
            waited: Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("tag 7"), "{s}");
        assert!(s.contains("timed out"), "{s}");
        assert!(CommError::FabricClosed
            .to_string()
            .contains("fabric closed"));
        assert!(CommError::PeerDead { rank: 1 }
            .to_string()
            .contains("rank 1"));
        assert!(CommError::TagMismatch {
            src: 0,
            expected: 2,
            got: 9
        }
        .to_string()
        .contains("expected tag 2"));
        assert!(CommError::InvalidRank { rank: 9, size: 4 }
            .to_string()
            .contains("size 4"));
        let s = CommError::StateCorrupt {
            rank: 5,
            expected: 0xdead,
            got: 0xbeef,
        }
        .to_string();
        assert!(
            s.contains("rank 5") && s.contains("000000000000dead"),
            "{s}"
        );
    }

    #[test]
    fn errors_compare_and_clone() {
        let a = CommError::PeerDead { rank: 2 };
        assert_eq!(a.clone(), a);
        assert_ne!(a, CommError::FabricClosed);
    }
}
