//! Property-based tests of the delta-bitpacked posting containers
//! (DESIGN.md §14): encode/decode round-trips over adversarial value
//! distributions, fused-kernel agreement with the plain-list oracles, and
//! the three-way representation oracle — the same key forced into each of
//! list / bitmap / compressed must produce identical kernel outputs under
//! both kernel modes.

use std::collections::BTreeSet;

use hgmatch_hypergraph::compressed::{CompressedPostings, BLOCK_LEN};
use hgmatch_hypergraph::inverted::{set_forced_repr, ReprKind};
use hgmatch_hypergraph::setops::{self, KernelMode};
use hgmatch_hypergraph::{HypergraphBuilder, Label};
use proptest::prelude::*;

/// Adversarial sorted sets: dense runs, scattered singletons, maximum-gap
/// deltas at the ends of the `u32` domain, and values straddling block
/// boundaries — each case concatenates several such fragments (picked by
/// `kind`, parameterised by `seed`/`len`), deduplicated and sorted.
fn adversarial_sorted() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u8..5, 0u32..u32::MAX, 1usize..BLOCK_LEN + 40), 1..6).prop_map(
        |frags| {
            let mut set: BTreeSet<u32> = BTreeSet::new();
            for (kind, seed, len) in frags {
                match kind {
                    // A consecutive run (packs to width 0).
                    0 => {
                        let start = seed % (1 << 20);
                        set.extend((0..len as u32).map(|i| start + i));
                    }
                    // Scattered singletons anywhere in the domain.
                    1 => {
                        let mut x = u64::from(seed) | 1;
                        for _ in 0..len.min(20) {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            set.insert((x >> 32) as u32);
                        }
                    }
                    // Max-gap deltas: both ends of the domain in one block.
                    2 => set.extend([0, u32::MAX]),
                    3 => set.extend([0, 1, u32::MAX - 1, u32::MAX]),
                    // Values packed around a multiple of BLOCK_LEN.
                    _ => {
                        let b = (seed % 63 + 1) * BLOCK_LEN as u32;
                        set.extend([b - 2, b - 1, b, b + 1, b + 2]);
                    }
                }
            }
            set.into_iter().collect()
        },
    )
}

proptest! {
    #[test]
    fn encode_decode_round_trips(values in adversarial_sorted()) {
        let c = CompressedPostings::from_sorted(&values);
        prop_assert_eq!(c.len(), values.len());
        prop_assert_eq!(c.to_sorted(), values.clone());
        prop_assert_eq!(c.min(), values.first().copied());
        prop_assert_eq!(c.max(), values.last().copied());
    }

    #[test]
    fn contains_matches_membership(values in adversarial_sorted(), probes in proptest::collection::vec(0u32..u32::MAX, 1..40)) {
        let c = CompressedPostings::from_sorted(&values);
        let set: BTreeSet<u32> = values.iter().copied().collect();
        for &v in values.iter().take(16) {
            prop_assert!(c.contains(v));
        }
        for p in probes {
            prop_assert_eq!(c.contains(p), set.contains(&p));
        }
    }

    #[test]
    fn remove_round_trips_against_btreeset(
        values in adversarial_sorted(),
        picks in proptest::collection::vec(0usize..1_000_000, 1..30),
    ) {
        let mut c = CompressedPostings::from_sorted(&values);
        let mut oracle: BTreeSet<u32> = values.iter().copied().collect();
        for pick in picks {
            if oracle.is_empty() {
                break;
            }
            let v = *oracle.iter().nth(pick % oracle.len()).unwrap();
            prop_assert!(c.remove(v));
            oracle.remove(&v);
            prop_assert!(!c.remove(v), "double remove must miss");
        }
        let expected: Vec<u32> = oracle.into_iter().collect();
        prop_assert_eq!(c.to_sorted(), expected);
    }

    #[test]
    fn fused_kernels_match_list_oracles_in_both_modes(
        a in adversarial_sorted(),
        b in adversarial_sorted(),
    ) {
        let c = CompressedPostings::from_sorted(&a);
        let mut fused = Vec::new();
        for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
            setops::set_kernel_mode(mode);
            setops::intersect_compressed_into(&c, &b, &mut fused);
            prop_assert_eq!(&fused, &setops::intersect(&a, &b));
            setops::difference_compressed_list_into(&c, &b, &mut fused);
            prop_assert_eq!(&fused, &setops::difference(&a, &b));
        }
        setops::set_kernel_mode(KernelMode::Auto);
    }
}

/// Builds one `{A,B}` partition whose hub key holds `posting` as its rows:
/// row `r` is the edge `{hub, leaf_r}`, plus filler edges so the partition
/// row space is `rows` — the hub's posting is then exactly `posting`.
fn partition_with_hub_posting(posting: &[u32], rows: u32) -> hgmatch_hypergraph::Hypergraph {
    assert!(!posting.is_empty() && posting[posting.len() - 1] < rows);
    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(0)); // hub
    b.add_vertex(Label::new(0)); // filler A vertex
    b.add_vertices(rows as usize, Label::new(1)); // one leaf per row
    let mut next = posting.iter().copied().peekable();
    for r in 0..rows {
        let a = if next.peek() == Some(&r) {
            next.next();
            0
        } else {
            1
        };
        b.add_edge(vec![a, 2 + r]).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three-way representation oracle: the same key forced into each
    /// representation must give identical posting contents and identical
    /// fused/kernel outputs under both kernel modes.
    #[test]
    fn forced_representations_agree(
        posting in proptest::collection::btree_set(0u32..2_000, 1..400),
        other in proptest::collection::btree_set(0u32..2_000, 0..400),
    ) {
        let posting: Vec<u32> = posting.into_iter().collect();
        let other: Vec<u32> = other.into_iter().collect();
        let rows = 2_000u32;

        let mut decoded: Vec<Vec<u32>> = Vec::new();
        let mut intersected: Vec<Vec<u32>> = Vec::new();
        for repr in [ReprKind::List, ReprKind::Bitmap, ReprKind::Compressed] {
            set_forced_repr(Some(repr));
            let h = partition_with_hub_posting(&posting, rows);
            let p = h.partitions()[0].incident_posting(0);
            prop_assert_eq!(p.repr(), repr, "forced representation must stick");
            decoded.push(p.to_sorted());
            for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
                setops::set_kernel_mode(mode);
                let mut out = Vec::new();
                match p {
                    hgmatch_hypergraph::Posting::Compressed(c) => {
                        setops::intersect_compressed_into(c, &other, &mut out);
                    }
                    _ => {
                        let list = p.as_list().unwrap();
                        setops::intersect_into(list, &other, &mut out);
                    }
                }
                intersected.push(out);
            }
        }
        set_forced_repr(None);
        setops::set_kernel_mode(KernelMode::Auto);

        for d in &decoded[1..] {
            prop_assert_eq!(d, &decoded[0], "decoded postings diverge across representations");
        }
        for i in &intersected[1..] {
            prop_assert_eq!(i, &intersected[0], "kernel outputs diverge across representations/modes");
        }
    }
}
