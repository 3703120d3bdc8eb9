//! Hypergraph serialisation: a Benson-style text format and the `HGMB`
//! snapshot format.
//!
//! The paper's datasets come from Benson's hypergraph collection, which
//! ships one file of vertex labels (line `i` = label of vertex `i`) and one
//! file of hyperedges (one comma-separated vertex list per line). We
//! implement that format for interchange, plus the *snapshot* format
//! (DESIGN.md §17, version [`SNAPSHOT_VERSION`]): magic `HGMB`, a version,
//! three length-prefixed, individually CRC-32-checksummed sections —
//! labels, partitions (each its arity, row count, vertex table and global
//! ids) and adjacency counts — closed by a whole-file checksum.
//!
//! A snapshot stores the rows; the index is rebuilt on load. Decoding
//! checks every row, derives each partition's signature from its first
//! row, rebuilds the inverted index and planner stats through the
//! builder's own code, and derives the edge locator from the global ids,
//! so everything a query reads is a function of checked rows. The
//! incidence CSR stays lazy, as in a built graph. The adjacency counts are
//! the one derived value stored, because deriving them costs more than
//! reading them; they are read unchecked. Snapshots of older versions
//! stored the index and the other derived state; they are refused with
//! [`HypergraphError::UnsupportedVersion`] and must be re-saved from text.
//!
//! Every decode path returns typed errors ([`HypergraphError::BadMagic`],
//! [`HypergraphError::UnsupportedVersion`],
//! [`HypergraphError::ChecksumMismatch`], [`HypergraphError::Corrupt`]) on
//! malformed input — truncation at any offset and bit flips anywhere must
//! never panic or misparse.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::builder::HypergraphBuilder;
use crate::error::{HypergraphError, Result};
use crate::fxhash::FxHashSet;
use crate::hypergraph::{EdgeLocation, Hypergraph};
use crate::ids::{EdgeId, Label, SignatureId};
use crate::partition::{Partition, PartitionBody};
use crate::signature::SignatureInterner;

/// Magic bytes of the snapshot format.
const MAGIC: &[u8; 4] = b"HGMB";
/// Version of the snapshot format, the only one read (DESIGN.md §17.2).
pub const SNAPSHOT_VERSION: u32 = 6;

/// `(tag, name)` of every snapshot section, in file order.
const SECTIONS: [(u32, &str); 3] = [(1, "labels"), (2, "partitions"), (3, "adjacency")];

/// Errors unless `data` has at least `n` readable bytes left.
fn need(data: &[u8], n: usize, what: &str) -> Result<()> {
    if data.remaining() < n {
        return Err(HypergraphError::Corrupt(format!(
            "truncated while reading {what}"
        )));
    }
    Ok(())
}

/// [`need`] for sizes computed in `u64`, so corrupt length fields cannot
/// overflow the byte-count arithmetic before the comparison.
fn need_u64(data: &[u8], n: u64, what: &str) -> Result<()> {
    if (data.remaining() as u64) < n {
        return Err(HypergraphError::Corrupt(format!(
            "truncated while reading {what}"
        )));
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven with
/// slicing-by-16 so checksum verification is not the bottleneck of a
/// snapshot load. Implemented locally because only a fixed set of vendored
/// crates is available offline (DESIGN.md §7).
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][i]: the CRC of byte i followed by t zero bytes, so sixteen
    // table lookups fold sixteen input bytes at once.
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let lo = u64::from_le_bytes(chunk[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(chunk[8..].try_into().unwrap());
        let (w0, w1, w2, w3) = (
            lo as u32 ^ c,
            (lo >> 32) as u32,
            hi as u32,
            (hi >> 32) as u32,
        );
        let fold = |table_hi: usize, word: u32| {
            t[table_hi][(word & 0xFF) as usize]
                ^ t[table_hi - 1][((word >> 8) & 0xFF) as usize]
                ^ t[table_hi - 2][((word >> 16) & 0xFF) as usize]
                ^ t[table_hi - 3][(word >> 24) as usize]
        };
        c = fold(15, w0) ^ fold(11, w1) ^ fold(7, w2) ^ fold(3, w3);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The next `n` little-endian `u32`s, advancing `data` past them.
fn take_u32s<'a>(
    data: &mut &'a [u8],
    n: usize,
    what: &str,
) -> Result<impl Iterator<Item = u32> + 'a> {
    need_u64(data, n as u64 * 4, what)?;
    let (head, rest) = data.split_at(n * 4);
    *data = rest;
    Ok(head
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
}

/// Parses vertex labels from a reader: one non-negative integer label per
/// line; blank lines and `#` comments are skipped.
pub fn parse_labels<R: BufRead>(reader: R) -> Result<Vec<Label>> {
    let mut labels = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let value: u32 = trimmed.parse().map_err(|_| HypergraphError::Parse {
            line: lineno + 1,
            message: format!("invalid label {trimmed:?}"),
        })?;
        labels.push(Label::new(value));
    }
    Ok(labels)
}

/// Parses hyperedges from a reader: one hyperedge per line as vertex ids
/// separated by commas and/or whitespace; blank lines and `#` comments are
/// skipped.
pub fn parse_edges<R: BufRead>(reader: R) -> Result<Vec<Vec<u32>>> {
    let mut edges = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut edge = Vec::new();
        for token in trimmed.split(|c: char| c == ',' || c.is_whitespace()) {
            if token.is_empty() {
                continue;
            }
            let v: u32 = token.parse().map_err(|_| HypergraphError::Parse {
                line: lineno + 1,
                message: format!("invalid vertex id {token:?}"),
            })?;
            edge.push(v);
        }
        if edge.is_empty() {
            return Err(HypergraphError::Parse {
                line: lineno + 1,
                message: "hyperedge line contains no vertices".into(),
            });
        }
        edges.push(edge);
    }
    Ok(edges)
}

/// Builds a hypergraph from label and edge readers.
pub fn read_text<L: BufRead, E: BufRead>(labels: L, edges: E) -> Result<Hypergraph> {
    let labels = parse_labels(labels)?;
    let edges = parse_edges(edges)?;
    let mut builder = HypergraphBuilder::new();
    for label in labels {
        builder.add_vertex(label);
    }
    for edge in edges {
        builder.add_edge(edge)?;
    }
    builder.build()
}

/// Loads a hypergraph from a labels file and an edges file on disk.
pub fn load_text(labels_path: &Path, edges_path: &Path) -> Result<Hypergraph> {
    read_text(
        BufReader::new(File::open(labels_path)?),
        BufReader::new(File::open(edges_path)?),
    )
}

/// Writes a hypergraph to label and edge writers in the text format.
pub fn write_text<L: Write, E: Write>(h: &Hypergraph, mut labels: L, mut edges: E) -> Result<()> {
    for l in h.labels() {
        writeln!(labels, "{}", l.raw())?;
    }
    for (_, vs) in h.iter_edges() {
        let joined: Vec<String> = vs.iter().map(u32::to_string).collect();
        writeln!(edges, "{}", joined.join(","))?;
    }
    Ok(())
}

/// Saves a hypergraph to a labels file and an edges file on disk.
pub fn save_text(h: &Hypergraph, labels_path: &Path, edges_path: &Path) -> Result<()> {
    write_text(
        h,
        BufWriter::new(File::create(labels_path)?),
        BufWriter::new(File::create(edges_path)?),
    )
}

/// Encodes a hypergraph in the snapshot format: magic + version, the
/// three checksummed sections of `SECTIONS` in order, and a whole-file
/// CRC-32 trailer. The encoding is deterministic — equal hypergraphs
/// produce identical bytes, which the CI snapshot byte-stability gate
/// relies on.
pub fn encode_snapshot(h: &Hypergraph) -> Bytes {
    let nv = h.num_vertices();
    let mut labels = BytesMut::with_capacity(4 + 4 * nv);
    labels.put_u32_le(nv as u32);
    for l in h.labels() {
        labels.put_u32_le(l.raw());
    }
    let mut partitions =
        BytesMut::with_capacity(4 + 8 * h.partitions().len() + h.table_size_bytes());
    partitions.put_u32_le(h.partitions().len() as u32);
    for p in h.partitions() {
        partitions.put_u32_le(p.arity());
        partitions.put_u32_le(p.len() as u32);
        for &v in p.raw_vertices() {
            partitions.put_u32_le(v);
        }
        for g in p.global_ids() {
            partitions.put_u32_le(g.raw());
        }
    }
    // Forces the lazily derived counts, so the bytes are those of an
    // eagerly derived graph.
    let mut adjacency = BytesMut::with_capacity(4 * nv);
    for &a in h.adj_counts() {
        adjacency.put_u32_le(a);
    }

    let mut buf = BytesMut::with_capacity(
        16 + 16 * SECTIONS.len() + labels.len() + partitions.len() + adjacency.len(),
    );
    buf.put_slice(MAGIC);
    buf.put_u32_le(SNAPSHOT_VERSION);
    for ((tag, _), payload) in SECTIONS.iter().zip([labels, partitions, adjacency]) {
        buf.put_u32_le(*tag);
        buf.put_u64_le(payload.len() as u64);
        buf.put_slice(&payload);
        buf.put_u32_le(crc32(&payload));
    }
    let file_crc = crc32(&buf);
    buf.put_u32_le(file_crc);
    buf.freeze()
}

/// Decodes a snapshot into a serving-ready [`Hypergraph`]. Section and
/// whole-file checksums are verified, and everything a query reads is
/// either a checked row or derived from checked rows, so corrupt input,
/// truncated anywhere or with any bit flipped, returns a typed error rather
/// than panicking at load or answering wrongly at query time:
///
/// * each row is strictly sorted, in range, labelled as its partition's
///   signature says, and not repeated within its partition;
/// * each partition's signature is its row 0's sorted labels; a record
///   with no rows or no arity, or one that repeats an earlier record's
///   signature, is refused;
/// * the index and planner stats are built as the builder builds them
///   (`PartitionBody::from_table`), so they are canonical;
/// * the locator is one scatter over the global ids, which must be a
///   permutation of `0..edges`.
///
/// The incidence CSR is left to its first reader. The adjacency counts
/// are read unchecked: checking one costs deriving it, and only the
/// baselines' IHS filter reads them.
pub fn decode_snapshot(data: &[u8]) -> Result<Hypergraph> {
    need(data, 8, "header")?;
    if &data[..4] != MAGIC {
        return Err(HypergraphError::BadMagic);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(HypergraphError::UnsupportedVersion(version));
    }

    // Split off every section payload, recording its stored CRC but not
    // yet verifying it: the whole-file CRC covers every section byte
    // (payloads, headers, and the stored section CRCs themselves), so one
    // fast pass proves integrity. Section CRCs are only recomputed when
    // that pass fails, to localize the damage in the error.
    let mut cursor = &data[8..];
    let mut payloads: Vec<(&[u8], u32)> = Vec::with_capacity(SECTIONS.len());
    for (tag, name) in SECTIONS {
        need(cursor, 12, "section header")?;
        let got_tag = cursor.get_u32_le();
        if got_tag != tag {
            return Err(HypergraphError::Corrupt(format!(
                "expected section {name} (tag {tag}), found tag {got_tag}"
            )));
        }
        let len64 = cursor.get_u64_le();
        need_u64(cursor, len64.saturating_add(4), "section payload")?;
        let len = usize::try_from(len64)
            .map_err(|_| HypergraphError::Corrupt(format!("section {name} length overflow")))?;
        let payload = &cursor[..len];
        cursor.advance(len);
        payloads.push((payload, cursor.get_u32_le()));
    }
    need(cursor, 4, "file checksum")?;
    let body_len = data.len() - cursor.len();
    let stored_file_crc = (&cursor[..4]).get_u32_le();
    if crc32(&data[..body_len]) != stored_file_crc {
        for ((payload, stored_crc), (_, name)) in payloads.iter().zip(SECTIONS) {
            if crc32(payload) != *stored_crc {
                return Err(HypergraphError::ChecksumMismatch { section: name });
            }
        }
        return Err(HypergraphError::ChecksumMismatch { section: "file" });
    }
    if cursor.len() > 4 {
        return Err(HypergraphError::Corrupt(format!(
            "{} trailing bytes after snapshot",
            cursor.len() - 4
        )));
    }

    let corrupt = |msg: String| HypergraphError::Corrupt(msg);

    // LABELS.
    let mut d = payloads[0].0;
    need(d, 4, "vertex count")?;
    let nv = d.get_u32_le() as usize;
    let labels: Vec<Label> = take_u32s(&mut d, nv, "labels")?.map(Label::new).collect();
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in labels section".into()));
    }

    // PARTITIONS.
    let mut d = payloads[1].0;
    need(d, 4, "partition count")?;
    let num_parts = d.get_u32_le() as usize;
    let mut interner = SignatureInterner::new();
    // Bodies in partition order, and their global ids back to back in the
    // graph's one slab. Every record takes at least 8 bytes, which bounds
    // what a forged count can reserve.
    let mut bodies: Vec<Arc<PartitionBody>> = Vec::with_capacity(num_parts.min(d.len() / 8));
    let mut gids: Vec<EdgeId> = Vec::new();
    // The index builder's per-vertex scratch; a signature's labels, its
    // distinct labels with their multiplicities, and one row's count of
    // each.
    let mut scratch = vec![0u32; nv];
    let mut signature: Vec<Label> = Vec::new();
    let mut runs: Vec<(Label, u32)> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    for i in 0..num_parts {
        need(d, 8, "partition header")?;
        let arity = d.get_u32_le() as usize;
        let rows = d.get_u32_le() as usize;
        if arity == 0 || rows == 0 {
            return Err(corrupt(format!("partition {i} has no rows or no arity")));
        }
        let num_verts = rows
            .checked_mul(arity)
            .ok_or_else(|| corrupt(format!("partition {i} size overflow")))?;
        let vertices: Vec<u32> = take_u32s(&mut d, num_verts, "partition vertex table")?.collect();
        let unknown = || corrupt(format!("partition {i} row references unknown vertex"));

        // The signature is row 0's labels, sorted; the rows below must
        // all carry it.
        signature.clear();
        for &v in &vertices[..arity] {
            signature.push(*labels.get(v as usize).ok_or_else(unknown)?);
        }
        signature.sort_unstable();
        let sid = interner.intern_sorted(&signature);
        if sid.index() != i {
            return Err(corrupt(format!(
                "partition {i} repeats the signature of partition {}",
                sid.index()
            )));
        }
        runs.clear();
        for &l in &signature {
            match runs.last_mut() {
                Some((last, n)) if *last == l => *n += 1,
                _ => runs.push((l, 1)),
            }
        }
        let mut carries_signature = |row: &[u32]| {
            counts.clear();
            counts.resize(runs.len(), 0);
            for &v in row {
                match runs.binary_search_by_key(&labels[v as usize], |&(l, _)| l) {
                    Ok(slot) => counts[slot] += 1,
                    Err(_) => return false,
                }
            }
            runs.iter().map(|&(_, n)| n).eq(counts.iter().copied())
        };
        let mut seen: FxHashSet<&[u32]> = FxHashSet::default();
        for (r, row) in vertices.chunks_exact(arity).enumerate() {
            if !crate::setops::is_strictly_sorted(row) {
                return Err(corrupt(format!("partition {i} row not sorted")));
            }
            if row.last().is_some_and(|&v| v as usize >= nv) {
                return Err(unknown());
            }
            // Row 0 carries the signature derived from it.
            if r > 0 && !carries_signature(row) {
                return Err(corrupt(format!(
                    "partition {i} row labels disagree with its signature"
                )));
            }
            if rows > 1 && !seen.insert(row) {
                return Err(corrupt(format!("partition {i} repeats a row")));
            }
        }
        drop(seen);
        gids.extend(take_u32s(&mut d, rows, "partition global ids")?.map(EdgeId::new));
        bodies.push(Arc::new(PartitionBody::from_table(
            arity as u32,
            vertices,
            &labels,
            &mut scratch,
        )));
    }
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in partitions section".into()));
    }

    // The locator inverts the slab, which must hold each of the edge ids
    // `0..edges` once.
    let ne = gids.len();
    let unset = EdgeLocation {
        signature: SignatureId::new(u32::MAX),
        row: u32::MAX,
    };
    let mut locator = vec![unset; ne];
    let places = bodies.iter().enumerate().flat_map(|(i, body)| {
        (0..body.rows() as u32).map(move |row| EdgeLocation {
            signature: SignatureId::from_index(i),
            row,
        })
    });
    for (g, place) in gids.iter().zip(places) {
        let g = g.index();
        let slot = locator
            .get_mut(g)
            .ok_or_else(|| corrupt(format!("global id {g} is not below the {ne} edges")))?;
        if *slot != unset {
            return Err(corrupt(format!("global id {g} repeats")));
        }
        *slot = place;
    }
    let partitions = Partition::envelopes(bodies, gids);

    // ADJACENCY.
    let mut d = payloads[2].0;
    let adj_counts: Vec<u32> = take_u32s(&mut d, nv, "adjacency counts")?.collect();
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in adjacency section".into()));
    }

    Ok(Hypergraph::assemble(labels, interner, partitions, locator).with_adj_counts(adj_counts))
}

/// Saves a hypergraph in the snapshot format.
pub fn save_snapshot(h: &Hypergraph, path: &Path) -> Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(&encode_snapshot(h))?;
    Ok(())
}

/// Loads a serving-ready hypergraph from a snapshot file.
pub fn load_snapshot(path: &Path) -> Result<Hypergraph> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    decode_snapshot(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;
    use crate::ids::{EdgeId, VertexId};

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![0, 1, 4, 6]).unwrap();
        b.build().unwrap()
    }

    /// The paper's Fig. 1b data graph: three partitions of two rows each
    /// (Table I), so every partition carries an index.
    fn paper() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
            b.add_vertex(Label::new(l));
        }
        for e in [
            vec![2, 4],
            vec![4, 6],
            vec![0, 1, 2],
            vec![3, 5, 6],
            vec![0, 1, 4, 6],
            vec![2, 3, 4, 5],
        ] {
            b.add_edge(e).unwrap();
        }
        b.build().unwrap()
    }

    /// A graph big enough that its index mixes both posting representations
    /// (hub vertex → bitmap, sparse leaves → lists) under the adaptive rule.
    fn multi_repr() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0)); // hub
        b.add_vertices(600, Label::new(1)); // leaves
        for leaf in 1..=300u32 {
            b.add_edge(vec![0, leaf]).unwrap(); // dense hub key
        }
        for leaf in 301..=600u32 {
            b.add_edge(vec![leaf]).unwrap(); // singleton partition rows
        }
        b.build().unwrap()
    }

    /// Labels A A B B; edges {0,1} {2,3} {0,2} {1,3}: partitions {A,A},
    /// {B,B} and a two-row {A,B}.
    fn square() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 0, 1, 1] {
            b.add_vertex(Label::new(l));
        }
        for e in [[0u32, 1], [2, 3], [0, 2], [1, 3]] {
            b.add_edge(e.to_vec()).unwrap();
        }
        b.build().unwrap()
    }

    /// The derived state `==` leaves out: incidence lists and adjacency
    /// counts. (Unit tests cannot call `testgen::assert_derived_state_eq`:
    /// the dev-dependency cycle gives them another `Hypergraph` type.)
    fn assert_derived_eq(got: &Hypergraph, want: &Hypergraph) {
        assert_eq!(got.num_vertices(), want.num_vertices());
        for v in (0..want.num_vertices()).map(VertexId::from_index) {
            assert_eq!(got.incident_edges(v), want.incident_edges(v), "he({v:?})");
            assert_eq!(got.adjacent_count(v), want.adjacent_count(v), "adj({v:?})");
        }
    }

    #[test]
    fn text_roundtrip() {
        let h = sample();
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        write_text(&h, &mut labels, &mut edges).unwrap();
        let h2 = read_text(labels.as_slice(), edges.as_slice()).unwrap();
        assert_eq!(h.num_vertices(), h2.num_vertices());
        assert_eq!(h.num_edges(), h2.num_edges());
        for i in 0..h.num_edges() {
            assert_eq!(
                h.edge_vertices(EdgeId::from_index(i)),
                h2.edge_vertices(EdgeId::from_index(i))
            );
        }
        assert_eq!(h.labels(), h2.labels());
    }

    #[test]
    fn parse_accepts_comments_and_mixed_separators() {
        let labels = parse_labels("# labels\n0\n\n1\n".as_bytes()).unwrap();
        assert_eq!(labels, vec![Label::new(0), Label::new(1)]);
        let edges = parse_edges("# edges\n0, 1\n0\t1 , 2\n".as_bytes()).unwrap();
        assert_eq!(edges, vec![vec![0, 1], vec![0, 1, 2]]);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = parse_labels("zero\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HypergraphError::Parse { line: 1, .. }));
        let err = parse_edges("1,x\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HypergraphError::Parse { line: 1, .. }));
        let err = parse_edges(",,\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HypergraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_roundtrip_is_full_content_equality() {
        for h in [sample(), paper(), square(), multi_repr()] {
            let h2 = decode_snapshot(&encode_snapshot(&h)).unwrap();
            // Hypergraph PartialEq covers labels, interner, partitions
            // (vertex tables, global ids, indices with every bitmap, stats)
            // and locator; the derived incidence lists and adjacency counts
            // are compared apart.
            assert_eq!(h, h2);
            assert_derived_eq(&h2, &h);
        }
    }

    #[test]
    fn snapshot_encoding_is_byte_stable() {
        for h in [sample(), multi_repr()] {
            let bytes = encode_snapshot(&h);
            // save(load(x)) == x, byte for byte — the CI golden gate.
            let reloaded = decode_snapshot(&bytes).unwrap();
            assert_derived_eq(&reloaded, &h);
            assert_eq!(encode_snapshot(&reloaded), bytes);
            // Deterministic across repeated encodes of the same graph.
            assert_eq!(encode_snapshot(&h), bytes);
        }
    }

    #[test]
    fn snapshot_empty_graph_roundtrips() {
        let h = HypergraphBuilder::new().build().unwrap();
        let bytes = encode_snapshot(&h);
        let h2 = decode_snapshot(&bytes).unwrap();
        assert_eq!(h, h2);
        assert_derived_eq(&h2, &h);
        assert_eq!(h2.num_vertices(), 0);
        assert_eq!(h2.num_edges(), 0);
    }

    #[test]
    fn snapshot_rejects_truncation_at_every_offset() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn snapshot_rejects_every_single_bit_flip() {
        let bytes = encode_snapshot(&sample()).to_vec();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_snapshot(&bad).is_err(),
                    "flip of bit {bit} in byte {byte} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_trailing_junk() {
        let mut bytes = encode_snapshot(&sample()).to_vec();
        bytes.push(0);
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn snapshot_errors_are_typed() {
        let bytes = encode_snapshot(&sample()).to_vec();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bad),
            Err(HypergraphError::BadMagic)
        ));

        // Every other version is refused before its body is read: the
        // v2–v5 layouts stored the index and other derived state.
        for version in [1u8, 5, 9] {
            let mut bad = bytes.clone();
            bad[4] = version;
            assert!(matches!(
                decode_snapshot(&bad),
                Err(HypergraphError::UnsupportedVersion(v)) if v == u32::from(version)
            ));
        }

        // Flip a payload byte inside the first section: its checksum fails.
        let mut bad = bytes.clone();
        bad[8 + 12 + 1] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(HypergraphError::ChecksumMismatch { section: "labels" })
        ));

        // Flip the file trailer: the whole-file checksum fails.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(HypergraphError::ChecksumMismatch { section: "file" })
        ));
    }

    /// Rewrites the payload of section `name` in a snapshot of `h` with
    /// `edit`, recomputing the section and file checksums: a forgery only
    /// the decoder's own checks can refuse.
    fn forge(h: &Hypergraph, name: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let bytes = encode_snapshot(h);
        assert_eq!(decode_snapshot(&bytes).unwrap(), *h);
        let mut out = bytes[..8].to_vec();
        let mut cursor = &bytes[8..];
        let mut edit = Some(edit);
        for (tag, section) in SECTIONS {
            cursor.advance(4);
            let len = cursor.get_u64_le() as usize;
            let mut payload = cursor[..len].to_vec();
            cursor.advance(len + 4);
            if section == name {
                (edit.take().unwrap())(&mut payload);
            }
            out.put_u32_le(tag);
            out.put_u64_le(payload.len() as u64);
            out.put_slice(&payload);
            out.put_u32_le(crc32(&payload));
        }
        assert!(edit.is_none(), "no section {name}");
        let crc = crc32(&out);
        out.put_u32_le(crc);
        out
    }

    /// Overwrites the `u32` at byte `at` of `payload`.
    fn put_at(payload: &mut [u8], at: usize, value: u32) {
        payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match decode_snapshot(bytes) {
            Err(HypergraphError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    // The paper graph's partitions payload: the partition count, then
    // partition 0 ({A,B}) as arity at 4, row count at 8, rows {2,4} and
    // {4,6} at 12 and 20, and global ids 0 and 1 at 28 and 32.

    /// A vertex relabelled C → A leaves row 0 of every partition intact,
    /// so every signature derives as before, but row {3,5,6} no longer
    /// carries its partition's labels (A,A,C): a matcher would answer
    /// (A,A,C) with it. Refused, CRCs and all.
    #[test]
    fn snapshot_rejects_a_row_whose_labels_disagree_with_its_signature() {
        let bad = forge(&paper(), "labels", |payload| {
            // Vertex count, then vertex 5's label.
            put_at(payload, 4 + 5 * 4, 0);
        });
        assert_corrupt(&bad, "partition 1 row labels disagree with its signature");
    }

    /// A partition whose second row repeats its first is a graph the
    /// builder refuses: two edges with one vertex set. Refused.
    #[test]
    fn snapshot_rejects_a_duplicate_row() {
        let h = paper();
        assert_eq!(h.partitions()[0].row(0), &[2, 4]);
        let bad = forge(&h, "partitions", |payload| payload.copy_within(12..20, 20));
        assert_corrupt(&bad, "partition 0 repeats a row");
    }

    /// Edge 0 stored twice, and edge 1 never: the locator would send two
    /// rows to one edge and none to the other. Refused.
    #[test]
    fn snapshot_rejects_a_repeated_global_id() {
        let bad = forge(&paper(), "partitions", |payload| put_at(payload, 32, 0));
        assert_corrupt(&bad, "global id 0 repeats");
    }

    /// A global id past the edge count has no locator slot. Refused.
    #[test]
    fn snapshot_rejects_a_global_id_past_the_edge_count() {
        let bad = forge(&paper(), "partitions", |payload| put_at(payload, 32, 6));
        assert_corrupt(&bad, "global id 6 is not below the 6 edges");
    }

    /// A record with no rows has no row 0 to derive its signature from,
    /// and one with no arity has no rows to hold; appended as a fourth
    /// partition, each is refused.
    #[test]
    fn snapshot_rejects_a_record_with_no_rows_or_no_arity() {
        for (arity, rows) in [(2u32, 0u32), (0, 1)] {
            let bad = forge(&paper(), "partitions", |payload| {
                put_at(payload, 0, 4);
                payload.put_u32_le(arity);
                payload.put_u32_le(rows);
                payload.put_u32_le(6);
            });
            assert_corrupt(&bad, "partition 3 has no rows or no arity");
        }
    }

    /// Two records whose rows share a signature: partition 1 of `square`
    /// ({B,B}, row {2,3}) rewritten to row {0,1}, partition 0's {A,A}. A
    /// query would find one of them only. Refused.
    #[test]
    fn snapshot_rejects_two_records_with_one_signature() {
        let h = square();
        assert_eq!(h.partitions()[1].row(0), &[2, 3]);
        let bad = forge(&h, "partitions", |payload| {
            // Count, then partition 0 (arity, rows, one row, one id) in
            // 20 bytes, then partition 1's arity and rows: its row is at 32.
            put_at(payload, 32, 0);
            put_at(payload, 36, 1);
        });
        assert_corrupt(&bad, "partition 1 repeats the signature of partition 0");
    }

    #[test]
    fn file_roundtrips() {
        let dir = std::env::temp_dir().join("hgmatch-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let h = sample();

        let lp = dir.join("labels.txt");
        let ep = dir.join("edges.txt");
        save_text(&h, &lp, &ep).unwrap();
        let h2 = load_text(&lp, &ep).unwrap();
        assert_eq!(h.num_edges(), h2.num_edges());

        let sp = dir.join("graph.hgsnap");
        save_snapshot(&h, &sp).unwrap();
        let h3 = load_snapshot(&sp).unwrap();
        assert_eq!(h, h3);
        assert_derived_eq(&h3, &h);

        std::fs::remove_dir_all(&dir).ok();
    }
}
