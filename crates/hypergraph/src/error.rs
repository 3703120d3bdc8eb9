//! Error types for hypergraph construction and I/O.

use std::fmt;
use std::io;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HypergraphError>;

/// Errors produced while building, loading or storing hypergraphs.
#[derive(Debug)]
pub enum HypergraphError {
    /// A hyperedge referenced a vertex id that was never declared.
    UnknownVertex { vertex: u32, edge_index: usize },
    /// A hyperedge was empty (hyperedges are non-empty subsets of V).
    EmptyHyperedge { edge_index: usize },
    /// The same hyperedge (as a vertex set) was inserted twice. The paper
    /// works on simple hypergraphs and pre-processes datasets to remove
    /// repeats; the builder can either reject or silently dedupe.
    DuplicateHyperedge { edge_index: usize },
    /// A vertex was declared more than once.
    DuplicateVertex { vertex: u32 },
    /// Parse error in a text-format file.
    Parse { line: usize, message: String },
    /// Snapshot input does not start with the `HGMB` magic bytes.
    BadMagic,
    /// Snapshot input declares a format version this build cannot decode.
    UnsupportedVersion(u32),
    /// A snapshot section (or the whole file) failed its CRC-32 check.
    ChecksumMismatch {
        /// Which section failed (`"file"` for the whole-file trailer).
        section: &'static str,
    },
    /// Binary format corruption.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownVertex { vertex, edge_index } => {
                write!(
                    f,
                    "hyperedge #{edge_index} references undeclared vertex {vertex}"
                )
            }
            Self::EmptyHyperedge { edge_index } => {
                write!(f, "hyperedge #{edge_index} is empty")
            }
            Self::DuplicateHyperedge { edge_index } => {
                write!(f, "hyperedge #{edge_index} duplicates an earlier hyperedge")
            }
            Self::DuplicateVertex { vertex } => {
                write!(f, "vertex {vertex} declared more than once")
            }
            Self::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Self::BadMagic => write!(f, "not a hypergraph snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => write!(
                f,
                "unsupported hypergraph snapshot version {v}: this build reads only \
                 version {}; re-save the snapshot from the text files",
                crate::io::SNAPSHOT_VERSION
            ),
            Self::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in snapshot section {section:?}")
            }
            Self::Corrupt(msg) => write!(f, "corrupt binary hypergraph: {msg}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HypergraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HypergraphError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HypergraphError::UnknownVertex {
            vertex: 9,
            edge_index: 2,
        };
        assert!(e.to_string().contains("undeclared vertex 9"));
        let e = HypergraphError::EmptyHyperedge { edge_index: 1 };
        assert!(e.to_string().contains("empty"));
        let e = HypergraphError::Parse {
            line: 3,
            message: "bad label".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: HypergraphError = inner.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
