//! Error types for query planning and execution.

use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MatchError>;

/// Errors produced while planning or executing a match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// The query hypergraph has no hyperedges.
    EmptyQuery,
    /// Query hyperedge `edge` (its position in the input) breaks the
    /// hypergraph builder's rules: it is empty or names an undeclared
    /// vertex. `reason` is the builder's error text.
    InvalidHyperedge { edge: usize, reason: String },
    /// The query has more hyperedges than the engine supports (vertex
    /// profiles pack hyperedge incidence into a 64-bit mask).
    QueryTooLarge { edges: usize, max: usize },
    /// A query hyperedge's vertices carry more distinct
    /// `(label, incident hyperedges)` profiles than a plan step can encode
    /// (one byte per data vertex, [`crate::plan::MAX_PROFILE_CLASSES`]).
    TooManyProfileClasses {
        query_edge: u32,
        classes: usize,
        max: usize,
    },
    /// Thread count must be at least one.
    InvalidThreadCount,
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyQuery => write!(f, "query hypergraph has no hyperedges"),
            Self::InvalidHyperedge { reason, .. } => f.write_str(reason),
            Self::QueryTooLarge { edges, max } => {
                write!(
                    f,
                    "query has {edges} hyperedges; the engine supports at most {max}"
                )
            }
            Self::TooManyProfileClasses {
                query_edge,
                classes,
                max,
            } => {
                write!(
                    f,
                    "query hyperedge {query_edge} has {classes} distinct vertex profiles; \
                     the engine supports at most {max}"
                )
            }
            Self::InvalidThreadCount => write!(f, "thread count must be >= 1"),
        }
    }
}

impl std::error::Error for MatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(MatchError::EmptyQuery.to_string().contains("no hyperedges"));
        assert!(MatchError::QueryTooLarge { edges: 70, max: 64 }
            .to_string()
            .contains("70"));
        assert!(MatchError::TooManyProfileClasses {
            query_edge: 3,
            classes: 255,
            max: 254
        }
        .to_string()
        .contains("255 distinct vertex profiles"));
        assert!(MatchError::InvalidThreadCount.to_string().contains(">= 1"));
    }
}
