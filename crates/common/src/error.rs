//! Common error type for the workspace.

use std::fmt;
use std::io;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the Fabric++ reproduction crates.
#[derive(Debug)]
pub enum Error {
    /// A canonical-encoding decode failure (truncated or malformed input).
    Codec(String),
    /// An I/O error from a persistent component (file ledger, LSM engine).
    Io(io::Error),
    /// Data failed an integrity check (checksum, hash chain, signature).
    Corruption(String),
    /// A component was used in a way its state does not allow
    /// (e.g. committing block `n+2` before block `n+1`).
    InvalidState(String),
    /// A peer was handed block `received` while its ledger height — the
    /// one number it can commit next — is `expected`. Refused before any
    /// validation work starts; a driver with faults heals it (duplicate or
    /// gap), a fault-free one treats it as a bug.
    BlockOutOfTurn {
        /// The ledger height: the number of the next block to commit.
        expected: u64,
        /// The number of the block that arrived.
        received: u64,
    },
    /// Configuration rejected at construction time.
    Config(String),
    /// A channel/component shut down while work was still queued.
    Shutdown(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec(msg) => write!(f, "codec error: {msg}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corruption(msg) => write!(f, "corruption detected: {msg}"),
            Error::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            Error::BlockOutOfTurn { expected, received } => {
                write!(f, "block {received} arrived out of turn: the next block is {expected}")
            }
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Shutdown(msg) => write!(f, "component shut down: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_variants() {
        assert_eq!(Error::Codec("bad".into()).to_string(), "codec error: bad");
        assert!(Error::Corruption("x".into()).to_string().contains("corruption"));
        assert!(Error::InvalidState("y".into()).to_string().contains("invalid state"));
        let turn = Error::BlockOutOfTurn { expected: 3, received: 5 }.to_string();
        assert_eq!(turn, "block 5 arrived out of turn: the next block is 3");
        assert!(Error::Config("z".into()).to_string().contains("configuration"));
        assert!(Error::Shutdown("w".into()).to_string().contains("shut down"));
    }

    #[test]
    fn io_error_source_chain() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let err = Error::from(inner);
        assert!(err.source().is_some());
        assert!(err.to_string().contains("gone"));
    }
}
