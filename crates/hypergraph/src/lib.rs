//! # hgmatch-hypergraph
//!
//! Storage substrate for the HGMatch subhypergraph-matching engine
//! (Yang et al., ICDE 2023).
//!
//! This crate provides everything the matching engine needs from the data
//! layer:
//!
//! * [`Hypergraph`] — an immutable, vertex-labelled hypergraph stored as
//!   *signature-partitioned hyperedge tables* (one table per multiset of
//!   vertex labels, see the paper's §IV-B) built through
//!   [`HypergraphBuilder`].
//! * [`InvertedIndex`] — the lightweight per-partition inverted hyperedge
//!   index (`vertex → sorted posting list of row ids`, §IV-C).
//! * [`setops`] — merge/galloping intersection, union and difference over
//!   sorted `u32` slices; the paper generates hyperedge candidates purely
//!   with these operations (§V-B).
//! * [`io`] — a Benson-style text format and a compact binary format.
//! * [`bipartite`] — the hypergraph → incidence-bipartite-graph conversion
//!   used by the RapidMatch-style baseline (§I, Fig. 2).
//!
//! The types here are deliberately small and `u32`-based: posting lists of
//! dense local row ids keep set operations cache-friendly, which is where
//! the match-by-hyperedge framework spends its time.

pub mod bipartite;
pub mod bitmap;
pub mod builder;
pub mod dynamic;
pub mod error;
pub mod fxhash;
pub mod hypergraph;
pub mod ids;
pub mod inverted;
pub mod io;
pub mod partition;
pub mod setops;
pub mod signature;
pub mod stats;

pub use bitmap::Bitmap;
pub use builder::HypergraphBuilder;
pub use dynamic::{DynamicHypergraph, SnapshotDelta, UpdateOp};
pub use error::{HypergraphError, Result};
pub use hypergraph::Hypergraph;
pub use ids::{EdgeId, Label, SignatureId, VertexId};
pub use inverted::{InvertedIndex, Posting, ReprBreakdown, ReprKind};
pub use partition::Partition;
pub use signature::{Signature, SignatureInterner};
pub use stats::{HypergraphStats, LabelCardinality, PartitionStats};
