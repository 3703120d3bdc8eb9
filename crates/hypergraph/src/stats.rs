//! Summary statistics: the dataset columns of the paper's Table II, plus
//! the per-partition cardinality summaries the cost-based planner feeds on
//! (DESIGN.md §13).
//!
//! [`PartitionStats`] describes one signature partition: its row count and,
//! per vertex label of the signature, how many distinct data vertices of
//! that label occur in the partition and the first two moments of their
//! within-partition degrees. The planner's cost model turns these into
//! per-anchor selectivities — the expected fraction of partition rows
//! incident to a random matched vertex of a given label.
//!
//! The summaries are **exact integer counts**, computed two ways that must
//! agree bit-for-bit:
//!
//! * the offline build computes them from the finished inverted index
//!   ([`crate::partition::Partition::new`]; [`PartitionStats::recompute`]
//!   reads a finished partition's postings the same way, and the snapshot
//!   decoder derives them from the checked index);
//! * the dynamic writer ([`crate::dynamic`]) maintains them incrementally —
//!   O(1) per posting edit — and snapshots emit the maintained values
//!   without recomputation.
//!
//! A partition below two rows has no index and no label groups: every
//! vertex of its row has degree one, which
//! [`PartitionStats::size_biased_degree`] answers without storing it.
//!
//! `Partition` equality covers its stats, so the dynamic differential
//! oracle (snapshot == rebuild-from-scratch) also proves the incremental
//! maintenance correct; `prop_stats.rs` asserts it directly.

use serde::{Deserialize, Serialize};

use crate::hypergraph::Hypergraph;
use crate::ids::Label;
use crate::partition::{indexed, Partition};

/// Cardinality summary of one vertex label within one signature partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelCardinality {
    /// The vertex label this group describes.
    pub label: Label,
    /// Distinct data vertices of this label occurring in the partition.
    pub distinct_vertices: u64,
    /// Total posting entries over those vertices — `Σ_v |he(v, s)|`.
    pub incidences: u64,
    /// Sum of squared within-partition degrees — `Σ_v |he(v, s)|²`. The
    /// second moment turns the plain mean into the *size-biased* mean the
    /// cost model needs: a vertex reached through a matched hyperedge is
    /// drawn proportionally to its degree, so its expected posting length
    /// is `Σd² / Σd`, not `Σd / n`.
    pub sum_sq_degrees: u64,
}

impl LabelCardinality {
    /// Expected posting length of a vertex of this label *reached through
    /// an incident hyperedge* (size-biased mean, `Σd²/Σd`). Hub-skewed
    /// labels have a much larger size-biased mean than plain mean — the
    /// signal the planner uses to avoid expanding through hubs.
    #[inline]
    pub fn size_biased_degree(&self) -> f64 {
        if self.incidences == 0 {
            return 0.0;
        }
        self.sum_sq_degrees as f64 / self.incidences as f64
    }
}

/// Cardinality summary of one signature partition: the row count that
/// Algorithm 3 already used, extended with the per-label degree summaries
/// the cost model needs. Label groups are sorted by label, only cover
/// labels with at least one incidence, and exist only from two rows on,
/// like the partition's inverted index.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Number of hyperedge rows (`Card(s, H)`).
    pub rows: u64,
    /// Per-label summaries, ascending by label.
    pub labels: Vec<LabelCardinality>,
}

impl PartitionStats {
    /// The summary for `label`, if any vertex of that label occurs.
    pub fn label_group(&self, label: Label) -> Option<&LabelCardinality> {
        self.labels
            .binary_search_by_key(&label, |g| g.label)
            .ok()
            .map(|i| &self.labels[i])
    }

    /// Expected posting length of a vertex of `label` reached through an
    /// incident hyperedge (`Σd²/Σd`, [`LabelCardinality::size_biased_degree`])
    /// — the cost model's one read of the groups. A partition of two or
    /// more rows has a group for every label of its signature, so the
    /// 1.0 for a missing group answers only a partition below two rows,
    /// where it is exact: every vertex of the one row has degree 1, and
    /// `Σd²/Σd` over degrees of 1 is 1.
    pub fn size_biased_degree(&self, label: Label) -> f64 {
        self.label_group(label)
            .map_or(1.0, LabelCardinality::size_biased_degree)
    }

    /// Recomputes the summary from a finished partition and the graph's
    /// vertex labels — the from-scratch oracle the incremental maintenance
    /// in [`crate::dynamic`] must agree with bit-for-bit.
    pub fn recompute(partition: &Partition, labels: &[Label]) -> Self {
        let degrees = partition.postings().map(|(v, posting)| (v, posting.len()));
        Self::from_degrees(partition.len(), degrees, labels)
    }

    /// The same summary computed from each distinct vertex's
    /// within-partition degree and the row count — for assembling a
    /// partition from its index (`PartitionBody::from_table`, under the
    /// builder, [`Partition::new`] and the snapshot decoder). Below two rows the
    /// degrees are not read and the summary holds no groups.
    pub(crate) fn from_degrees(
        rows: usize,
        degrees: impl Iterator<Item = (u32, usize)>,
        labels: &[Label],
    ) -> Self {
        if !indexed(rows) {
            return Self {
                rows: rows as u64,
                labels: Vec::new(),
            };
        }
        let mut groups: Vec<LabelCardinality> = Vec::new();
        for (v, degree) in degrees {
            debug_assert!(degree > 0, "index keys carry postings");
            let label = labels[v as usize];
            let i = groups
                .binary_search_by_key(&label, |g| g.label)
                .unwrap_or_else(|i| {
                    groups.insert(
                        i,
                        LabelCardinality {
                            label,
                            distinct_vertices: 0,
                            incidences: 0,
                            sum_sq_degrees: 0,
                        },
                    );
                    i
                });
            let degree = degree as u64;
            let entry = &mut groups[i];
            entry.distinct_vertices += 1;
            entry.incidences += degree;
            entry.sum_sq_degrees += degree * degree;
        }
        // Tens of thousands of partitions each keep their groups for the
        // graph's lifetime: drop the growth slack.
        groups.shrink_to_fit();
        Self {
            rows: rows as u64,
            labels: groups,
        }
    }
}

/// Dataset statistics matching the paper's Table II, plus the index/table
/// sizes reported in Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypergraphStats {
    /// `|V|`
    pub num_vertices: usize,
    /// `|E|`
    pub num_edges: usize,
    /// `|Σ|` — distinct labels actually used.
    pub num_labels: usize,
    /// `a_max`
    pub max_arity: usize,
    /// `a` — average arity.
    pub avg_arity: f64,
    /// Number of signature partitions.
    pub num_partitions: usize,
    /// Bytes of hyperedge tables (graph size in Fig. 7).
    pub table_bytes: usize,
    /// Bytes of inverted indices (index size in Fig. 7).
    pub index_bytes: usize,
    /// Maximum vertex degree.
    pub max_degree: usize,
}

impl HypergraphStats {
    /// Computes statistics for `h`.
    pub fn compute(h: &Hypergraph) -> Self {
        let mut used = vec![false; h.num_labels()];
        for &l in h.labels() {
            used[l.index()] = true;
        }
        let num_labels = used.iter().filter(|&&u| u).count();
        let max_degree = (0..h.num_vertices())
            .map(|v| h.degree(crate::ids::VertexId::from_index(v)))
            .max()
            .unwrap_or(0);
        Self {
            num_vertices: h.num_vertices(),
            num_edges: h.num_edges(),
            num_labels,
            max_arity: h.max_arity(),
            avg_arity: h.average_arity(),
            num_partitions: h.partitions().len(),
            table_bytes: h.table_size_bytes(),
            index_bytes: h.index_size_bytes(),
            max_degree,
        }
    }

    /// One row of a Table II-style report.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{name}\t{}\t{}\t{}\t{}\t{:.1}\t{}\t{}",
            self.num_vertices,
            self.num_edges,
            self.num_labels,
            self.max_arity,
            self.avg_arity,
            human_bytes(self.table_bytes),
            human_bytes(self.index_bytes),
        )
    }
}

/// Formats a byte count with binary units, as in the paper's Table II.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;
    use crate::ids::Label;

    #[test]
    fn stats_of_small_graph() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(3, Label::new(0));
        b.add_vertex(Label::new(5)); // alphabet spans 6 ids but only 2 used
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        let stats = b.build().unwrap().stats();
        assert_eq!(stats.num_vertices, 4);
        assert_eq!(stats.num_edges, 2);
        assert_eq!(stats.num_labels, 2);
        assert_eq!(stats.max_arity, 3);
        assert!((stats.avg_arity - 2.5).abs() < 1e-9);
        assert_eq!(stats.num_partitions, 2);
        assert_eq!(stats.max_degree, 2); // v2 in both edges
        assert!(stats.table_bytes > 0);
        // Both partitions hold one row, so neither builds an index.
        assert_eq!(stats.index_bytes, 0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.0MB");
    }

    #[test]
    fn table_row_contains_fields() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        let row = b.build().unwrap().stats().table_row("TEST");
        assert!(row.starts_with("TEST\t2\t1\t1\t2\t2.0"));
    }
}
