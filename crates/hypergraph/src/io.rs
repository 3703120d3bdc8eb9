//! Hypergraph serialisation: a Benson-style text format and the `HGMB`
//! binary formats.
//!
//! The paper's datasets come from Benson's hypergraph collection, which
//! ships one file of vertex labels (line `i` = label of vertex `i`) and one
//! file of hyperedges (one comma-separated vertex list per line). We
//! implement that format for interchange, plus two binary formats behind
//! the shared magic `HGMB`:
//!
//! * **v1** — length-prefixed labels and edge lists only; loading rebuilds
//!   the index from scratch. Kept for interchange.
//! * the *snapshot* format (DESIGN.md §17, version [`SNAPSHOT_VERSION`]):
//!   a versioned sequence of length-prefixed, individually
//!   CRC-32-checksummed sections that serialise the fully built index —
//!   postings in whichever list/bitmap representation each key carries,
//!   signatures, the edge locator, the incidence CSR and adjacency counts
//!   — closed by a whole-file checksum. Loading reconstructs a
//!   serving-ready [`Hypergraph`] without re-indexing, checks that every
//!   stored index is its vertex table's own, and derives the planner's
//!   partition stats from that checked index. Files of the three previous
//!   snapshot versions still load, unless they store compressed postings
//!   ([`HypergraphError::CompressedPostings`]).
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
use crate::hypergraph::{EdgeLocation, Hypergraph, Incidence};
use crate::ids::{EdgeId, Label, SignatureId};
use crate::inverted::InvertedIndex;
use crate::partition::{indexed, Partition, PartitionBody};
use crate::signature::SignatureInterner;

/// Magic bytes shared by both binary formats.
const MAGIC: &[u8; 4] = b"HGMB";
/// Version of the edge-list-only binary format.
const VERSION: u32 = 1;
/// Version of the index-inclusive snapshot format. A partition record
/// carries no planner stats (decode derives them from the checked index),
/// a one-row record carries no index, and each index side table is
/// written only if it has an entry (DESIGN.md §17.2).
pub const SNAPSHOT_VERSION: u32 = 5;
/// An older snapshot version, still read: each partition record ends in
/// a stats record, of which decode checks the row count and discards the
/// label groups.
const SNAPSHOT_V4: u32 = 4;
/// An older snapshot version, still read: v4's layout, but every
/// partition record carries an index, with both side tables always
/// written.
const SNAPSHOT_V3: u32 = 3;
/// The oldest snapshot version still read: v3's layout, but each stats
/// label group is followed by [`V2_HIST_WORDS`] histogram words.
const SNAPSHOT_V2: u32 = 2;
/// `u64` words of the v2 per-label degree histogram, skipped on load.
const V2_HIST_WORDS: usize = 16;

/// Section tags of the snapshot layout, in their mandatory file order.
const SECTION_LABELS: u32 = 1;
const SECTION_SIGNATURES: u32 = 2;
const SECTION_PARTITIONS: u32 = 3;
const SECTION_LOCATOR: u32 = 4;
const SECTION_INCIDENCE: u32 = 5;
const SECTION_ADJACENCY: u32 = 6;

/// `(tag, name)` of every snapshot section, in file order.
const SECTIONS: [(u32, &str); 6] = [
    (SECTION_LABELS, "labels"),
    (SECTION_SIGNATURES, "signatures"),
    (SECTION_PARTITIONS, "partitions"),
    (SECTION_LOCATOR, "locator"),
    (SECTION_INCIDENCE, "incidence"),
    (SECTION_ADJACENCY, "adjacency"),
];

/// Errors unless `data` has at least `n` readable bytes left.
pub(crate) fn need(data: &[u8], n: usize, what: &str) -> Result<()> {
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

/// Bulk-reads `n` little-endian `u32`s, advancing `data` past them.
pub(crate) fn read_u32s(data: &mut &[u8], n: usize, what: &str) -> Result<Vec<u32>> {
    need_u64(data, n as u64 * 4, what)?;
    let (head, rest) = data.split_at(n * 4);
    *data = rest;
    Ok(head
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Bulk-reads `n` little-endian `u64`s, advancing `data` past them.
pub(crate) fn read_u64s(data: &mut &[u8], n: usize, what: &str) -> Result<Vec<u64>> {
    need_u64(data, n as u64 * 8, what)?;
    let (head, rest) = data.split_at(n * 8);
    *data = rest;
    Ok(head
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
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

/// Encodes a hypergraph in the v1 binary format (labels and edge lists
/// only; loading re-indexes). See [`encode_snapshot`] for the
/// index-inclusive snapshot format.
pub fn encode_binary(h: &Hypergraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + h.num_vertices() * 4 + h.num_edges() * 8 + h.table_size_bytes(),
    );
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(h.num_vertices() as u32);
    for l in h.labels() {
        buf.put_u32_le(l.raw());
    }
    buf.put_u32_le(h.num_edges() as u32);
    for (_, vs) in h.iter_edges() {
        buf.put_u32_le(vs.len() as u32);
        for &v in vs {
            buf.put_u32_le(v);
        }
    }
    buf.freeze()
}

/// Decodes a hypergraph from either `HGMB` binary format, dispatching on
/// the version header: v1 rebuilds the index from its edge lists, every
/// snapshot version ([`decode_snapshot`]) restores the serialized index.
pub fn decode_binary(data: &[u8]) -> Result<Hypergraph> {
    let version = peek_version(data)?;
    match version {
        VERSION => decode_binary_v1(data),
        SNAPSHOT_V2 | SNAPSHOT_V3 | SNAPSHOT_V4 | SNAPSHOT_VERSION => decode_snapshot(data),
        other => Err(HypergraphError::UnsupportedVersion(other)),
    }
}

/// Validates the magic bytes and returns the declared format version.
fn peek_version(data: &[u8]) -> Result<u32> {
    need(data, 8, "header")?;
    if &data[..4] != MAGIC {
        return Err(HypergraphError::BadMagic);
    }
    Ok(u32::from_le_bytes(data[4..8].try_into().unwrap()))
}

/// Decodes the v1 edge-list format (header already validated).
fn decode_binary_v1(mut data: &[u8]) -> Result<Hypergraph> {
    data.advance(8);
    need(data, 4, "vertex count")?;
    let nv = data.get_u32_le() as usize;
    need(data, nv * 4, "labels")?;
    let mut builder = HypergraphBuilder::new();
    for _ in 0..nv {
        builder.add_vertex(Label::new(data.get_u32_le()));
    }

    need(data, 4, "edge count")?;
    let ne = data.get_u32_le() as usize;
    for _ in 0..ne {
        need(data, 4, "edge arity")?;
        let arity = data.get_u32_le() as usize;
        need(data, arity * 4, "edge vertices")?;
        let mut edge = Vec::with_capacity(arity);
        for _ in 0..arity {
            edge.push(data.get_u32_le());
        }
        builder.add_edge(edge)?;
    }
    if data.has_remaining() {
        return Err(HypergraphError::Corrupt(format!(
            "{} trailing bytes after hypergraph",
            data.remaining()
        )));
    }
    builder.build()
}

/// Saves a hypergraph in the v1 binary format.
pub fn save_binary(h: &Hypergraph, path: &Path) -> Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(&encode_binary(h))?;
    Ok(())
}

/// Loads a hypergraph from either binary format (see [`decode_binary`]).
pub fn load_binary(path: &Path) -> Result<Hypergraph> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    decode_binary(&data)
}

/// Encodes a hypergraph in the snapshot format: magic + version, the
/// six checksummed sections of `SECTIONS` in order, and a whole-file
/// CRC-32 trailer. The encoding is deterministic — equal hypergraphs (by
/// content, including chosen posting representations) produce identical
/// bytes, which the CI snapshot byte-stability gate relies on.
pub fn encode_snapshot(h: &Hypergraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + h.table_size_bytes() + h.index_size_bytes() * 2);
    buf.put_slice(MAGIC);
    buf.put_u32_le(SNAPSHOT_VERSION);

    let mut payload = BytesMut::new();
    for (tag, _) in SECTIONS {
        payload.clear();
        match tag {
            SECTION_LABELS => {
                payload.put_u32_le(h.num_vertices() as u32);
                for l in h.labels() {
                    payload.put_u32_le(l.raw());
                }
            }
            SECTION_SIGNATURES => {
                payload.put_u32_le(h.interner().len() as u32);
                for (_, sig) in h.interner().iter() {
                    payload.put_u32_le(sig.arity() as u32);
                    for &l in sig.labels() {
                        payload.put_u32_le(l.raw());
                    }
                }
            }
            SECTION_PARTITIONS => {
                payload.put_u32_le(h.partitions().len() as u32);
                for p in h.partitions() {
                    payload.put_u32_le(p.arity());
                    payload.put_u32_le(p.len() as u32);
                    for &v in p.raw_vertices() {
                        payload.put_u32_le(v);
                    }
                    for g in p.global_ids() {
                        payload.put_u32_le(g.raw());
                    }
                    if indexed(p.len()) {
                        p.index().encode(&mut payload);
                    }
                }
            }
            SECTION_LOCATOR => {
                payload.put_u32_le(h.num_edges() as u32);
                for e in 0..h.num_edges() {
                    let loc = h.locate(EdgeId::from_index(e));
                    payload.put_u32_le(loc.signature.raw());
                    payload.put_u32_le(loc.row);
                }
            }
            // The two derived sections force the lazily built state, so
            // the bytes are those of an eagerly derived graph.
            SECTION_INCIDENCE => {
                let incidence = h.incidence();
                for &o in &incidence.offsets {
                    payload.put_u64_le(o);
                }
                for &e in &incidence.edges {
                    payload.put_u32_le(e);
                }
            }
            SECTION_ADJACENCY => {
                for &a in h.adj_counts() {
                    payload.put_u32_le(a);
                }
            }
            _ => unreachable!("unknown section tag"),
        }
        buf.put_u32_le(tag);
        buf.put_u64_le(payload.len() as u64);
        buf.put_slice(&payload);
        buf.put_u32_le(crc32(&payload));
    }

    let file_crc = crc32(&buf);
    buf.put_u32_le(file_crc);
    buf.freeze()
}

/// Reads past one v2–v4 partition stats record and returns its `rows`:
/// a `u64` row count, a `u32` group count and per group a label and three
/// `u64` sums, plus `hist_words` histogram `u64`s in v2. The groups are
/// not kept — decode derives them from the checked index.
fn skip_stats_record(data: &mut &[u8], hist_words: usize) -> Result<u64> {
    need(data, 12, "partition stats header")?;
    let rows = data.get_u64_le();
    let num_groups = data.get_u32_le() as u64;
    let group_bytes = num_groups * (4 + 24 + hist_words as u64 * 8);
    need_u64(data, group_bytes, "stats label groups")?;
    data.advance(group_bytes as usize);
    Ok(rows)
}

/// Checks that `index` is the inverted index of the `arity`-wide vertex
/// table `vertices` (whose row count `index.num_rows()` is known to equal):
/// every posting is non-empty and each of its rows contains its key, a
/// dense key's bitmap equals its list, and the postings total the table's
/// incidences. Keys and postings are strictly sorted, so together these
/// make the postings exactly the incidences — an index missing one would make Algorithm 4
/// silently miss embeddings — and the keys exactly the table's vertices,
/// which the planner stats derived from them index labels by.
fn check_index(
    index: &InvertedIndex,
    vertices: &[u32],
    arity: usize,
) -> std::result::Result<(), String> {
    let mut total = 0usize;
    for (v, posting) in index.iter() {
        let list = posting.list();
        if let Some(bits) = posting.bits() {
            if bits.count_ones() as usize != list.len() || !list.iter().all(|&r| bits.contains(r)) {
                return Err(format!("bitmap of key {v} differs from its list"));
            }
        }
        if list.is_empty() {
            return Err(format!("key {v} has an empty posting"));
        }
        for &r in list {
            let row = &vertices[r as usize * arity..(r as usize + 1) * arity];
            if row.binary_search(&v).is_err() {
                return Err(format!("row {r} is in the posting of key {v} it lacks"));
            }
        }
        total += list.len();
    }
    if total != vertices.len() {
        return Err(format!(
            "{total} postings for a table of {} incidences",
            vertices.len()
        ));
    }
    Ok(())
}

/// Decodes a snapshot of any readable version into a serving-ready
/// [`Hypergraph`] without re-indexing. Section and whole-file checksums are
/// verified, and every structural invariant the engine relies on is
/// re-validated, so corrupt input, truncated anywhere or with any bit
/// flipped, returns a typed error rather than panicking at load or
/// answering wrongly at query time:
///
/// * each row is strictly sorted, in range, labelled as its partition's
///   signature says, and not repeated within its partition;
/// * each stored index is checked against its vertex table
///   (`check_index`);
/// * the incidence CSR is checked against the rows in one pass rather
///   than rebuilt: the lists total the tables' incidences, and each
///   vertex's list holds exactly the edges that contain it, ascending.
///
/// The adjacency counts are read unchecked: checking one costs deriving
/// it, and only the baselines' IHS filter reads them. A v2/v3 one-row
/// partition's index is checked and then dropped, as is a v2/v3 side
/// table with no entry. The planner stats are derived from each checked
/// index, never read: a v2–v4 stats record is checked for its row count
/// and discarded.
pub fn decode_snapshot(data: &[u8]) -> Result<Hypergraph> {
    // Whether every record carries an index (v2/v3), and the histogram
    // words per label group of the stats record, if records carry one.
    let (legacy, stats_record) = match peek_version(data)? {
        SNAPSHOT_VERSION => (false, None),
        SNAPSHOT_V4 => (false, Some(0)),
        SNAPSHOT_V3 => (true, Some(0)),
        SNAPSHOT_V2 => (true, Some(V2_HIST_WORDS)),
        other => return Err(HypergraphError::UnsupportedVersion(other)),
    };

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
    let labels: Vec<Label> = read_u32s(&mut d, nv, "labels")?
        .into_iter()
        .map(Label::new)
        .collect();
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in labels section".into()));
    }

    // SIGNATURES.
    let mut d = payloads[1].0;
    need(d, 4, "signature count")?;
    let num_sigs = d.get_u32_le() as usize;
    let mut interner = SignatureInterner::new();
    let mut sig_labels = Vec::new();
    for i in 0..num_sigs {
        need(d, 4, "signature arity")?;
        let arity = d.get_u32_le() as usize;
        need(d, arity * 4, "signature labels")?;
        sig_labels.clear();
        for _ in 0..arity {
            sig_labels.push(Label::new(d.get_u32_le()));
        }
        if !sig_labels.windows(2).all(|w| w[0] <= w[1]) {
            return Err(corrupt(format!("signature {i} labels not sorted")));
        }
        let id = interner.intern_sorted(&sig_labels);
        if id.index() != i {
            return Err(corrupt(format!(
                "signature {i} duplicates signature {}",
                id.index()
            )));
        }
    }
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in signatures section".into()));
    }

    // PARTITIONS.
    let mut d = payloads[2].0;
    need(d, 4, "partition count")?;
    let num_parts = d.get_u32_le() as usize;
    if num_parts != num_sigs {
        return Err(corrupt(format!(
            "{num_parts} partitions for {num_sigs} signatures"
        )));
    }
    // Bodies in partition order, and their global ids back to back in the
    // graph's one slab.
    let mut bodies: Vec<Arc<PartitionBody>> = Vec::with_capacity(num_parts);
    let mut gids: Vec<EdgeId> = Vec::new();
    // Vertex-table entries over all partitions; a signature's distinct
    // labels with their multiplicities, and one row's count of each.
    let mut incidences = 0usize;
    let mut runs: Vec<(Label, u32)> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    for i in 0..num_parts {
        let sid = SignatureId::from_index(i);
        need(d, 8, "partition header")?;
        let arity = d.get_u32_le();
        let rows = d.get_u32_le() as usize;
        if interner.resolve(sid).arity() != arity as usize {
            return Err(corrupt(format!(
                "partition {i} arity disagrees with its signature"
            )));
        }
        let num_verts = rows
            .checked_mul(arity as usize)
            .ok_or_else(|| corrupt(format!("partition {i} size overflow")))?;
        let vertices = read_u32s(&mut d, num_verts, "partition vertex table")?;
        incidences += num_verts;
        {
            runs.clear();
            for &l in interner.resolve(sid).labels() {
                match runs.last_mut() {
                    Some((last, n)) if *last == l => *n += 1,
                    _ => runs.push((l, 1)),
                }
            }
            let mut seen: FxHashSet<&[u32]> = FxHashSet::default();
            for row in vertices.chunks(arity.max(1) as usize) {
                if !crate::setops::is_strictly_sorted(row) {
                    return Err(corrupt(format!("partition {i} row not sorted")));
                }
                if row.last().is_some_and(|&v| v as usize >= nv) {
                    return Err(corrupt(format!(
                        "partition {i} row references unknown vertex"
                    )));
                }
                let mislabelled = || {
                    corrupt(format!(
                        "partition {i} row labels disagree with its signature"
                    ))
                };
                counts.clear();
                counts.resize(runs.len(), 0);
                for &v in row {
                    let label = labels[v as usize];
                    let slot = runs
                        .binary_search_by_key(&label, |&(l, _)| l)
                        .map_err(|_| mislabelled())?;
                    counts[slot] += 1;
                }
                if !runs.iter().map(|&(_, n)| n).eq(counts.iter().copied()) {
                    return Err(mislabelled());
                }
                if rows > 1 && !seen.insert(row) {
                    return Err(corrupt(format!("partition {i} repeats a row")));
                }
            }
        }
        gids.extend(
            read_u32s(&mut d, rows, "partition global ids")?
                .into_iter()
                .map(EdgeId::new),
        );
        // v2/v3 records carry an index at every row count; v4/v5 records
        // only where the partition keeps one.
        let mut index = InvertedIndex::default();
        if legacy || indexed(rows) {
            index = InvertedIndex::decode(&mut d, legacy)?;
            if index.num_rows() as usize != rows {
                return Err(corrupt(format!(
                    "partition {i} index covers the wrong row count"
                )));
            }
            check_index(&index, &vertices, arity as usize)
                .map_err(|e| corrupt(format!("partition {i} index: {e}")))?;
            if !indexed(rows) {
                index = InvertedIndex::default();
            }
        }
        if let Some(hist_words) = stats_record {
            // A record whose row count is not the partition's is a file
            // no writer produced.
            if skip_stats_record(&mut d, hist_words)? != rows as u64 {
                return Err(corrupt(format!(
                    "partition {i} stats disagree with its row count"
                )));
            }
        }
        // The stats are derived from the index just checked, as a build's.
        bodies.push(Arc::new(PartitionBody::from_index(
            arity, rows, vertices, index, &labels,
        )));
    }
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in partitions section".into()));
    }
    let partitions = Partition::envelopes(bodies, gids);

    // LOCATOR.
    let mut d = payloads[3].0;
    need(d, 4, "edge count")?;
    let ne = d.get_u32_le() as usize;
    let entries = read_u32s(&mut d, ne * 2, "locator entries")?;
    let mut locator = Vec::with_capacity(ne);
    for (e, pair) in entries.chunks_exact(2).enumerate() {
        let signature = SignatureId::new(pair[0]);
        let row = pair[1];
        let part = partitions
            .get(signature.index())
            .ok_or_else(|| corrupt(format!("edge {e} located in unknown partition")))?;
        if row as usize >= part.len() {
            return Err(corrupt(format!("edge {e} located past its partition")));
        }
        if part.global_id(row).index() != e {
            return Err(corrupt(format!("edge {e} and its partition row disagree")));
        }
        locator.push(EdgeLocation { signature, row });
    }
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in locator section".into()));
    }
    if partitions.iter().map(|p| p.len()).sum::<usize>() != ne {
        return Err(corrupt("partition rows do not cover the edge set".into()));
    }

    // INCIDENCE: checked against the rows in one pass, never rebuilt.
    // The lists total the tables' incidences, and walking the edges in id
    // order, each vertex of an edge's row finds that edge next in its
    // list: so each list is used up, holding exactly its vertex's edges,
    // ascending.
    let mut d = payloads[4].0;
    let incidence_offsets = read_u64s(&mut d, nv + 1, "incidence offsets")?;
    if incidence_offsets[0] != 0 || incidence_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("incidence offsets not monotone from zero".into()));
    }
    let total64 = *incidence_offsets.last().unwrap();
    if total64 != incidences as u64 {
        return Err(corrupt(format!(
            "{total64} incidences listed for tables of {incidences}"
        )));
    }
    let incidence_edges = read_u32s(&mut d, incidences, "incidence edges")?;
    let mut next = incidence_offsets[..nv].to_vec();
    for (e, loc) in locator.iter().enumerate() {
        for &v in partitions[loc.signature.index()].row(loc.row) {
            let at = &mut next[v as usize];
            if *at == incidence_offsets[v as usize + 1] || incidence_edges[*at as usize] != e as u32
            {
                return Err(corrupt(format!(
                    "incidence list of vertex {v} lacks edge {e} in order"
                )));
            }
            *at += 1;
        }
    }
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in incidence section".into()));
    }

    // ADJACENCY.
    let mut d = payloads[5].0;
    let adj_counts = read_u32s(&mut d, nv, "adjacency counts")?;
    if !d.is_empty() {
        return Err(corrupt("trailing bytes in adjacency section".into()));
    }

    Ok(Hypergraph::from_serialized_parts(
        labels,
        interner,
        partitions,
        locator,
        Incidence {
            offsets: incidence_offsets,
            edges: incidence_edges,
        },
        adj_counts,
    ))
}

/// Saves a hypergraph in the snapshot format.
pub fn save_snapshot(h: &Hypergraph, path: &Path) -> Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(&encode_snapshot(h))?;
    Ok(())
}

/// Loads a serving-ready hypergraph from a snapshot file of any readable
/// version.
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

    /// `h` with every partition's index replaced by `edit`'s — a graph no
    /// build produces, for the decoder to refuse.
    fn reassembled(h: &Hypergraph, edit: impl Fn(&Partition) -> InvertedIndex) -> Hypergraph {
        let bodies = h.partitions().iter().map(|p| {
            let vertices = p.raw_vertices().to_vec();
            let index = edit(p);
            Arc::new(PartitionBody::from_index(
                p.arity(),
                p.len(),
                vertices,
                index,
                h.labels(),
            ))
        });
        let gids = h.partitions().iter().flat_map(|p| p.global_ids());
        let partitions = Partition::envelopes(bodies, gids.copied().collect());
        let locator = (0..h.num_edges())
            .map(|e| h.locate(EdgeId::from_index(e)))
            .collect();
        Hypergraph::assemble(
            h.labels().to_vec(),
            h.interner().clone(),
            partitions,
            locator,
        )
    }

    /// `h` with each partition's index built from its rows as `edit`
    /// rewrites them.
    fn with_index_of_rows(h: &Hypergraph, edit: impl Fn(usize, &mut Vec<u32>)) -> Hypergraph {
        reassembled(h, |p| {
            let rows: Vec<Vec<u32>> = p
                .iter_rows()
                .map(|(r, row)| {
                    let mut row = row.to_vec();
                    edit(r as usize, &mut row);
                    row
                })
                .collect();
            let slices: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
            InvertedIndex::build(&slices)
        })
    }

    fn assert_index_refused(bad: &Hypergraph, what: &str) {
        match decode_snapshot(&encode_snapshot(bad)) {
            Err(HypergraphError::Corrupt(msg)) => {
                assert!(msg.contains(what), "unexpected error: {msg}");
            }
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
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
    fn binary_roundtrip() {
        let h = sample();
        let bytes = encode_binary(&h);
        let h2 = decode_binary(&bytes).unwrap();
        assert_eq!(h.num_vertices(), h2.num_vertices());
        assert_eq!(h.num_edges(), h2.num_edges());
        assert_eq!(h.labels(), h2.labels());
        for i in 0..h.num_edges() {
            assert_eq!(
                h.edge_vertices(EdgeId::from_index(i)),
                h2.edge_vertices(EdgeId::from_index(i))
            );
        }
    }

    #[test]
    fn binary_rejects_corruption() {
        let h = sample();
        let bytes = encode_binary(&h);

        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            decode_binary(&bad),
            Err(HypergraphError::BadMagic)
        ));

        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 0xFF;
        assert!(matches!(
            decode_binary(&bad),
            Err(HypergraphError::UnsupportedVersion(_))
        ));

        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(
                decode_binary(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }

        // Trailing junk.
        let mut bad = bytes.to_vec();
        bad.push(0);
        assert!(matches!(
            decode_binary(&bad),
            Err(HypergraphError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_roundtrip_is_full_content_equality() {
        for h in [sample(), multi_repr()] {
            let bytes = encode_snapshot(&h);
            let h2 = decode_snapshot(&bytes).unwrap();
            // Hypergraph PartialEq covers labels, interner, partitions
            // (vertex tables, global ids, indices with every bitmap, stats)
            // and locator; the derived incidence CSR and adjacency counts
            // are compared apart.
            assert_eq!(h, h2);
            let (a, b) = (h.incidence(), h2.incidence());
            assert_eq!((&a.offsets, &a.edges), (&b.offsets, &b.edges));
            assert_eq!(h.adj_counts(), h2.adj_counts());
            // decode_binary dispatches on the version header.
            assert_eq!(decode_binary(&bytes).unwrap(), h);
        }
    }

    #[test]
    fn snapshot_encoding_is_byte_stable() {
        for h in [sample(), multi_repr()] {
            let bytes = encode_snapshot(&h);
            // save(load(x)) == x, byte for byte — the CI golden gate.
            let reloaded = decode_snapshot(&bytes).unwrap();
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

        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(HypergraphError::UnsupportedVersion(9))
        ));

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

    /// A v2–v4 stats record whose `rows` disagree with the partition's
    /// row count is a file no writer produced: one carrying it, CRCs and
    /// all, is refused, whether the partition has one row or many.
    #[test]
    fn snapshot_rejects_stats_rows_mismatch() {
        for at in v4_stats_records() {
            let bad = edit_section(V4_FIXTURE, SECTION_PARTITIONS, |payload| {
                let rows = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                payload[at..at + 8].copy_from_slice(&(rows + 1).to_le_bytes());
            });
            assert!(matches!(
                decode_snapshot(&bad),
                Err(HypergraphError::Corrupt(msg)) if msg.contains("row count")
            ));
        }
    }

    /// A forged label group in a v4 stats record changes nothing: decode
    /// derives the stats from the checked index, so the graph equals both
    /// the unforged file's and a rebuild of its own rows.
    #[test]
    fn snapshot_derives_stats_instead_of_trusting_stored_groups() {
        let want = decode_snapshot(V4_FIXTURE).unwrap();
        assert_eq!(want, rebuilt(&want));
        let mut forged = 0;
        for at in v4_stats_records() {
            let bad = edit_section(V4_FIXTURE, SECTION_PARTITIONS, |payload| {
                let groups = u32::from_le_bytes(payload[at + 8..at + 12].try_into().unwrap());
                if groups > 0 {
                    // The first group's `sum_sq_degrees`, after its label,
                    // `distinct_vertices` and `incidences`.
                    let sum_sq = at + 12 + 4 + 16;
                    payload[sum_sq..sum_sq + 8].copy_from_slice(&1000u64.to_le_bytes());
                    forged += 1;
                }
            });
            assert_eq!(decode_snapshot(&bad).unwrap(), want);
        }
        assert!(forged >= 2, "the fixture has groups to forge");
    }

    /// The committed v4 fixture (`tests/fixtures/paper.v4.hgsnap`): the
    /// last version whose records carry planner stats.
    const V4_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/paper.v4.hgsnap");

    /// Offsets of each partition's stats record in [`V4_FIXTURE`]'s
    /// partitions payload.
    fn v4_stats_records() -> Vec<usize> {
        let mut offsets = Vec::new();
        edit_section(V4_FIXTURE, SECTION_PARTITIONS, |payload| {
            let mut d = &payload[..];
            for _ in 0..d.get_u32_le() {
                let arity = d.get_u32_le() as usize;
                let rows = d.get_u32_le() as usize;
                d.advance(4 * rows * (arity + 1)); // vertex table, global ids
                if indexed(rows) {
                    InvertedIndex::decode(&mut d, false).unwrap();
                }
                offsets.push(payload.len() - d.len());
                d.advance(8);
                let groups = d.get_u32_le() as usize;
                d.advance(groups * (4 + 24));
            }
            assert!(d.is_empty());
        });
        offsets
    }

    /// A fresh build of `h`'s vertices and hyperedges.
    fn rebuilt(h: &Hypergraph) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in h.labels() {
            b.add_vertex(l);
        }
        for (_, vs) in h.iter_edges() {
            b.add_edge(vs.to_vec()).unwrap();
        }
        b.build().unwrap()
    }

    /// An index that lacks an incidence would make Algorithm 4 miss
    /// embeddings: the index of every row but row 0's first vertex is
    /// refused, CRCs and all.
    #[test]
    fn snapshot_rejects_an_index_missing_a_vertex() {
        let bad = with_index_of_rows(&paper(), |r, row| {
            if r == 0 {
                row.remove(0);
            }
        });
        assert_index_refused(&bad, "postings for a table");
    }

    #[test]
    fn snapshot_rejects_an_index_with_an_extra_posting() {
        // Vertex 3 is in no row 0 of the paper graph; list it there.
        let bad = with_index_of_rows(&paper(), |r, row| {
            if r == 0 && !row.contains(&3) {
                row.push(3);
                row.sort_unstable();
            }
        });
        assert_index_refused(&bad, "in the posting of key 3");
    }

    #[test]
    fn snapshot_rejects_a_bitmap_that_differs_from_its_list() {
        let bad = reassembled(&multi_repr(), |p| {
            let index = p.index();
            if index.num_dense_keys() == 0 {
                return index.clone();
            }
            // Clear or set bit 0 of the first bitmap's first word. Its
            // offset: key count, keys, offsets, posting count, postings,
            // row count, bitmap count, dense table, bitmap domain and word
            // count.
            let (k, n) = (index.num_keys(), index.num_postings());
            let word = 4 + 4 * k + 4 * (k + 1) + 4 + 4 * n + 4 + 4 + 4 * k + 8;
            let mut bytes = BytesMut::new();
            index.encode(&mut bytes);
            let mut bytes = bytes.to_vec();
            bytes[word] ^= 1;
            let mut data = &bytes[..];
            InvertedIndex::decode(&mut data, false).unwrap()
        });
        assert_index_refused(&bad, "differs from its list");
    }

    /// Rewrites section `section` of snapshot `bytes` with `edit`,
    /// recomputing the section and file checksums.
    fn edit_section(bytes: &[u8], section: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = bytes[..8].to_vec();
        let mut cursor = &bytes[8..];
        let mut edit = Some(edit);
        for (tag, _) in SECTIONS {
            cursor.advance(4);
            let len = cursor.get_u64_le() as usize;
            let mut payload = cursor[..len].to_vec();
            cursor.advance(len + 4);
            if tag == section {
                (edit.take().unwrap())(&mut payload);
            }
            out.put_u32_le(tag);
            out.put_u64_le(payload.len() as u64);
            out.put_slice(&payload);
            out.put_u32_le(crc32(&payload));
        }
        let crc = crc32(&out);
        out.put_u32_le(crc);
        out
    }

    /// A one-row partition's record carries no index: one that does is a
    /// file no writer of this version produces.
    #[test]
    fn snapshot_rejects_an_index_on_a_one_row_partition() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(3, Label::new(0));
        b.add_edge(vec![0, 1, 2]).unwrap();
        let h = b.build().unwrap();
        let bytes = encode_snapshot(&h);
        assert_eq!(decode_snapshot(&bytes).unwrap(), h);
        let bad = edit_section(&bytes, SECTION_PARTITIONS, |payload| {
            // Partition count, arity, row count, 3 vertices, 1 global id:
            // the record ends there, and the index goes after it.
            let at = 4 + 4 + 4 + 3 * 4 + 4;
            let mut index = BytesMut::new();
            InvertedIndex::build(&[&[0, 1, 2]]).encode(&mut index);
            payload.splice(at..at, index.to_vec());
        });
        assert!(matches!(
            decode_snapshot(&bad),
            Err(HypergraphError::Corrupt(_))
        ));
    }

    /// An index key with an empty posting names no incidence of the table,
    /// so it is refused, CRCs and all — whether it is a vertex the
    /// partition lacks (5) or no vertex of the graph at all (1000), which
    /// the stats derived from the index would look up a label for.
    #[test]
    fn snapshot_rejects_a_key_with_an_empty_posting() {
        let h = paper();
        let p = &h.partitions()[0];
        for extra in [5u32, 1000] {
            let bad = edit_section(&encode_snapshot(&h), SECTION_PARTITIONS, |payload| {
                // Partition count, arity, row count, vertex table, global
                // ids: partition 0's index starts there.
                let at = 4 + 4 + 4 + 4 * p.len() * (p.arity() as usize + 1);
                let mut d = &payload[at..];
                let k = d.get_u32_le() as usize;
                let mut keys = read_u32s(&mut d, k, "keys").unwrap();
                let mut offsets = read_u32s(&mut d, k + 1, "offsets").unwrap();
                let pos = keys.partition_point(|&v| v < extra);
                assert!(keys.get(pos) != Some(&extra));
                keys.insert(pos, extra);
                offsets.insert(pos, offsets[pos]);
                let mut head = Vec::new();
                head.put_u32_le(k as u32 + 1);
                keys.iter()
                    .chain(&offsets)
                    .for_each(|&x| head.put_u32_le(x));
                payload.splice(at..at + 4 + 4 * k + 4 * (k + 1), head);
            });
            match decode_snapshot(&bad) {
                Err(HypergraphError::Corrupt(msg)) => {
                    assert!(
                        msg.contains(&format!("key {extra} has an empty posting")),
                        "{msg}"
                    );
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    /// A key stored as compressed blocks keeps no sorted list, so a
    /// snapshot with a non-zero compressed-container count is refused with
    /// its own typed error, CRCs and all, before anything it counts is read.
    #[test]
    fn snapshot_refuses_compressed_containers() {
        let h = multi_repr();
        let bytes = encode_snapshot(&h);
        let mut index = BytesMut::new();
        h.partitions()[0].index().encode(&mut index);
        let bad = edit_section(&bytes, SECTION_PARTITIONS, |payload| {
            // The compressed-container count closes the index encoding.
            let at = payload
                .windows(index.len())
                .position(|w| w == &index[..])
                .expect("the index is in the section")
                + index.len()
                - 4;
            payload[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        });
        assert!(matches!(
            decode_snapshot(&bad),
            Err(HypergraphError::CompressedPostings)
        ));
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

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match decode_snapshot(bytes) {
            Err(HypergraphError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    /// A vertex relabelled A → B leaves every row and index intact, but
    /// row {0,1} no longer carries its partition's labels: a matcher
    /// would answer (A,B) with edge {1,3}, now (B,B). Refused, CRCs and
    /// all.
    #[test]
    fn snapshot_rejects_a_row_whose_labels_disagree_with_its_signature() {
        let bytes = encode_snapshot(&square());
        assert_eq!(decode_snapshot(&bytes).unwrap(), square());
        let bad = edit_section(&bytes, SECTION_LABELS, |payload| {
            // Vertex count, then vertex 1's label.
            payload[8..12].copy_from_slice(&1u32.to_le_bytes());
        });
        assert_corrupt(&bad, "row labels disagree with its signature");
    }

    /// A forged id in he(v0) = [0, 2] is refused, whether it names an
    /// edge that lacks v0 and leaves the list unsorted (3, {1,3}) or keeps
    /// it sorted (1, {2,3}).
    #[test]
    fn snapshot_rejects_a_forged_incidence_list() {
        let h = square();
        assert_eq!(h.incident_edges(VertexId::new(0)), &[0, 2]);
        for forged in [3u32, 1] {
            let bad = edit_section(&encode_snapshot(&h), SECTION_INCIDENCE, |payload| {
                // Four vertices' offsets plus the end, then he(v0)'s first id.
                let at = 8 * 5;
                payload[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            });
            assert_corrupt(&bad, "incidence list of vertex 0 lacks edge 0");
        }
    }

    /// A partition whose second row repeats its first, with an index
    /// built from those rows, is a graph the builder refuses: two edges
    /// with one vertex set. Refused.
    #[test]
    fn snapshot_rejects_a_duplicate_row() {
        let h = paper();
        let p = &h.partitions()[0];
        assert_eq!((p.row(0), p.row(1)), (&[2, 4][..], &[4, 6][..]));
        let mut index = BytesMut::new();
        p.index().encode(&mut index);
        let mut forged = BytesMut::new();
        InvertedIndex::build(&[&[2, 4], &[2, 4]]).encode(&mut forged);
        let bad = edit_section(&encode_snapshot(&h), SECTION_PARTITIONS, |payload| {
            // Partition count, arity, row count, then row 1 of the table.
            payload.copy_within(4 + 8..4 + 16, 4 + 16);
            // The global ids follow the table, then the index.
            let at = 4 + 8 + 16 + 8;
            payload.splice(at..at + index.len(), forged.to_vec());
        });
        assert_corrupt(&bad, "partition 0 repeats a row");
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

        let bp = dir.join("graph.hgmb");
        save_binary(&h, &bp).unwrap();
        let h3 = load_binary(&bp).unwrap();
        assert_eq!(h.num_edges(), h3.num_edges());

        let sp = dir.join("graph.hgsnap");
        save_snapshot(&h, &sp).unwrap();
        let h4 = load_snapshot(&sp).unwrap();
        assert_eq!(h, h4);

        std::fs::remove_dir_all(&dir).ok();
    }
}
