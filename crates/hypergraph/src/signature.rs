//! Hyperedge signatures (paper Definition IV.1).
//!
//! The *signature* of a hyperedge is the multiset of the labels of its
//! vertices. HGMatch partitions the data hypergraph into one hyperedge table
//! per distinct signature, so candidate search for a query hyperedge only
//! ever touches the single table whose signature matches (Observation V.1).
//!
//! A multiset of labels is canonically represented as a *sorted* sequence,
//! which makes equality, hashing and ordering trivially consistent. The
//! sequence lives in one shared allocation: cloning a signature, or
//! interning it into a snapshot's interner, copies a pointer, not labels.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::fxhash::{FxHashMap, FxHasher};
use crate::ids::{Label, SignatureId};

/// A hyperedge signature: the multiset of vertex labels in a hyperedge,
/// canonicalised as a sorted sequence.
///
/// Clones share one allocation of the labels. The hash of the labels is
/// computed once, at construction, so hashing a signature writes one word
/// whatever its arity; equality and ordering compare the labels.
#[derive(Clone)]
pub struct Signature {
    labels: Arc<[Label]>,
    hash: u64,
}

/// The hash a signature of these sorted labels caches.
fn hash_labels(labels: &[Label]) -> u64 {
    let mut hasher = FxHasher::default();
    labels.hash(&mut hasher);
    hasher.finish()
}

impl Signature {
    /// Builds a signature from an arbitrary label sequence (sorted here).
    pub fn new(mut labels: Vec<Label>) -> Self {
        labels.sort_unstable();
        Self::from_sorted(labels)
    }

    /// Builds a signature from labels already known to be sorted.
    ///
    /// # Panics
    /// Panics in debug builds if `labels` is not sorted.
    pub fn from_sorted(labels: Vec<Label>) -> Self {
        let hash = hash_labels(&labels);
        Self::with_hash(&labels, hash)
    }

    fn with_hash(labels: &[Label], hash: u64) -> Self {
        debug_assert!(
            labels.windows(2).all(|w| w[0] <= w[1]),
            "labels must be sorted"
        );
        Self {
            labels: Arc::from(labels),
            hash,
        }
    }

    /// The arity (hyperedge size) this signature describes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.labels.len()
    }

    /// The sorted labels of this signature.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Multiplicity of `label` in the multiset.
    pub fn count_of(&self, label: Label) -> usize {
        // Labels are sorted: find the run via binary search.
        match self.labels.binary_search(&label) {
            Err(_) => 0,
            Ok(pos) => {
                let mut lo = pos;
                while lo > 0 && self.labels[lo - 1] == label {
                    lo -= 1;
                }
                let mut hi = pos + 1;
                while hi < self.labels.len() && self.labels[hi] == label {
                    hi += 1;
                }
                hi - lo
            }
        }
    }

    /// Iterates over `(label, multiplicity)` pairs in ascending label order.
    pub fn label_counts(&self) -> impl Iterator<Item = (Label, usize)> + '_ {
        LabelRuns {
            labels: &self.labels,
            pos: 0,
        }
    }
}

impl PartialEq for Signature {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.labels == other.labels
    }
}

impl Eq for Signature {}

impl PartialOrd for Signature {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Signature {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.labels.cmp(&other.labels)
    }
}

impl Hash for Signature {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

mod key {
    use super::*;

    /// What the interner's map hashes and compares: a cached hash and the
    /// sorted labels. A [`Signature`] lends itself as one, and so does a
    /// borrowed label sequence, so a lookup by labels allocates nothing.
    pub trait Key {
        fn hash_and_labels(&self) -> (u64, &[Label]);
    }

    impl Key for Signature {
        fn hash_and_labels(&self) -> (u64, &[Label]) {
            (self.hash, &self.labels)
        }
    }

    /// Sorted labels and their hash, borrowed for one lookup.
    pub struct Probe<'a>(pub u64, pub &'a [Label]);

    impl Key for Probe<'_> {
        fn hash_and_labels(&self) -> (u64, &[Label]) {
            (self.0, self.1)
        }
    }

    impl<'a> Borrow<dyn Key + 'a> for Signature {
        fn borrow(&self) -> &(dyn Key + 'a) {
            self
        }
    }

    // Hashes as `Signature` does, so the map finds a signature by a probe.
    impl Hash for dyn Key + '_ {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(self.hash_and_labels().0);
        }
    }

    impl PartialEq for dyn Key + '_ {
        fn eq(&self, other: &Self) -> bool {
            self.hash_and_labels() == other.hash_and_labels()
        }
    }

    impl Eq for dyn Key + '_ {}
}

struct LabelRuns<'a> {
    labels: &'a [Label],
    pos: usize,
}

impl Iterator for LabelRuns<'_> {
    type Item = (Label, usize);

    fn next(&mut self) -> Option<(Label, usize)> {
        if self.pos >= self.labels.len() {
            return None;
        }
        let label = self.labels[self.pos];
        let start = self.pos;
        while self.pos < self.labels.len() && self.labels[self.pos] == label {
            self.pos += 1;
        }
        Some((label, self.pos - start))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// Interns signatures, assigning each distinct multiset a dense
/// [`SignatureId`] that doubles as the partition index.
///
/// The id table and the map hold one shared copy of each signature.
#[derive(Debug, Default, Clone)]
pub struct SignatureInterner {
    by_signature: FxHashMap<Signature, SignatureId>,
    signatures: Vec<Signature>,
}

/// Equal iff the same signatures have the same ids (the map is a function
/// of the id table).
impl PartialEq for SignatureInterner {
    fn eq(&self, other: &Self) -> bool {
        self.signatures == other.signatures
    }
}

impl Eq for SignatureInterner {}

impl SignatureInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner of distinct `signatures`, with ids in their order. The
    /// map is sized once and probed once per signature; each entry shares
    /// its signature's allocation.
    ///
    /// # Panics
    /// Panics in debug builds if two signatures are equal.
    pub(crate) fn from_distinct(signatures: Vec<Signature>) -> Self {
        let mut by_signature =
            FxHashMap::with_capacity_and_hasher(signatures.len(), Default::default());
        for (i, signature) in signatures.iter().enumerate() {
            let old = by_signature.insert(signature.clone(), SignatureId::from_index(i));
            debug_assert!(old.is_none(), "signature {signature:?} repeats");
        }
        Self {
            by_signature,
            signatures,
        }
    }

    /// Interns `signature`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, signature: Signature) -> SignatureId {
        match self.by_signature.entry(signature) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = SignatureId::from_index(self.signatures.len());
                self.signatures.push(entry.key().clone());
                entry.insert(id);
                id
            }
        }
    }

    /// Interns the signature of these sorted labels. A signature already
    /// interned is found without allocating; a new one is allocated once.
    ///
    /// # Panics
    /// Panics in debug builds if `labels` is not sorted.
    pub(crate) fn intern_sorted(&mut self, labels: &[Label]) -> SignatureId {
        let hash = hash_labels(labels);
        let probe: &dyn key::Key = &key::Probe(hash, labels);
        if let Some(&id) = self.by_signature.get(probe) {
            return id;
        }
        self.intern(Signature::with_hash(labels, hash))
    }

    /// Looks up an already-interned signature without inserting.
    pub fn get(&self, signature: &Signature) -> Option<SignatureId> {
        self.by_signature.get(signature).copied()
    }

    /// Resolves an id back to its signature.
    pub fn resolve(&self, id: SignatureId) -> &Signature {
        &self.signatures[id.index()]
    }

    /// Number of distinct signatures interned so far.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether no signatures have been interned.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Iterates all interned signatures with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (SignatureId, &Signature)> {
        self.signatures
            .iter()
            .enumerate()
            .map(|(i, s)| (SignatureId::from_index(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(raw: u32) -> Label {
        Label::new(raw)
    }

    #[test]
    fn new_sorts_labels() {
        let s = Signature::new(vec![l(3), l(1), l(2), l(1)]);
        assert_eq!(s.labels(), &[l(1), l(1), l(2), l(3)]);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn equality_is_multiset_equality() {
        let a = Signature::new(vec![l(1), l(2), l(1)]);
        let b = Signature::new(vec![l(2), l(1), l(1)]);
        let c = Signature::new(vec![l(1), l(2), l(2)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn count_of_runs() {
        let s = Signature::new(vec![l(1), l(1), l(1), l(5), l(7), l(7)]);
        assert_eq!(s.count_of(l(1)), 3);
        assert_eq!(s.count_of(l(5)), 1);
        assert_eq!(s.count_of(l(7)), 2);
        assert_eq!(s.count_of(l(9)), 0);
    }

    #[test]
    fn label_counts_iterates_runs() {
        let s = Signature::new(vec![l(2), l(2), l(4), l(9), l(9), l(9)]);
        let runs: Vec<_> = s.label_counts().collect();
        assert_eq!(runs, vec![(l(2), 2), (l(4), 1), (l(9), 3)]);
    }

    #[test]
    fn empty_signature() {
        let s = Signature::new(vec![]);
        assert_eq!(s.arity(), 0);
        assert_eq!(s.label_counts().count(), 0);
        assert_eq!(s.count_of(l(0)), 0);
    }

    #[test]
    fn interner_assigns_dense_ids() {
        let mut interner = SignatureInterner::new();
        let ab = Signature::new(vec![l(0), l(1)]);
        let aa = Signature::new(vec![l(0), l(0)]);
        let id0 = interner.intern(ab.clone());
        let id1 = interner.intern(aa.clone());
        let id0_again = interner.intern(Signature::new(vec![l(1), l(0)]));
        assert_eq!(id0, SignatureId::new(0));
        assert_eq!(id1, SignatureId::new(1));
        assert_eq!(id0, id0_again);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(id0), &ab);
        assert_eq!(interner.resolve(id1), &aa);
        assert_eq!(interner.get(&ab), Some(id0));
        assert_eq!(interner.get(&Signature::new(vec![l(9)])), None);
    }

    #[test]
    fn interner_iter_yields_all() {
        let mut interner = SignatureInterner::new();
        interner.intern(Signature::new(vec![l(0)]));
        interner.intern(Signature::new(vec![l(1)]));
        let ids: Vec<_> = interner.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![SignatureId::new(0), SignatureId::new(1)]);
    }

    #[test]
    fn clones_and_interned_copies_share_the_labels() {
        let mut interner = SignatureInterner::new();
        let s = Signature::new(vec![l(2), l(0), l(2)]);
        let id = interner.intern(s.clone());
        let shared = interner.resolve(id).labels().as_ptr();
        assert_eq!(shared, s.labels().as_ptr());
        // A lookup by labels finds the interned copy instead of making one.
        assert_eq!(interner.intern_sorted(&[l(0), l(2), l(2)]), id);
        assert_eq!(interner.resolve(id).labels().as_ptr(), shared);
        // A miss interns a new signature equal to one built from a Vec.
        let other = interner.intern_sorted(&[l(1), l(3)]);
        assert_eq!(other, SignatureId::new(1));
        assert_eq!(interner.get(&Signature::new(vec![l(3), l(1)])), Some(other));
        // The bulk build keeps the order and the allocations.
        let bulk = SignatureInterner::from_distinct(vec![s.clone()]);
        assert_eq!(bulk.get(&s), Some(SignatureId::new(0)));
        assert_eq!(bulk.resolve(SignatureId::new(0)).labels().as_ptr(), shared);
    }

    #[test]
    fn order_and_equality_follow_the_labels() {
        let a = Signature::new(vec![l(0), l(5)]);
        let b = Signature::new(vec![l(1)]);
        assert!(a < b, "lexicographic on the sorted labels");
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_format() {
        let s = Signature::new(vec![l(1), l(0)]);
        assert_eq!(format!("{s:?}"), "{L0,L1}");
    }
}
