//! Persistence differentials for the HGMB snapshot format (DESIGN.md
//! §17): save→load over dynamic update streams must reproduce the exact
//! in-memory state, the encoding must be deterministic byte-for-byte, and
//! the committed golden fixture pins the on-disk layout so accidental
//! format drift fails CI (`UPDATE_GOLDEN=1` regenerates it deliberately).

use hgmatch_datasets::testgen::{assert_derived_state_eq, random_arity_hypergraph};
use hgmatch_datasets::update_stream::{generate_update_stream, UpdateStreamConfig};
use hgmatch_hypergraph::io::{decode_snapshot, encode_snapshot, SNAPSHOT_VERSION};
use hgmatch_hypergraph::{
    DynamicHypergraph, Hypergraph, HypergraphBuilder, HypergraphError, Label, ReprBreakdown,
};

/// The deterministic fixture graph: the paper's Fig. 1b data graph plus a
/// hub block big enough that the adaptive index uses both posting
/// representations (list and bitmap) — so the index rebuilt from the
/// fixture's rows covers every representation, not just lists
/// (`golden_fixture_is_byte_stable` checks that it does).
fn fixture_graph() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![2, 4]).unwrap();
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 4, 6]).unwrap();

    // Hub block: vertex `hub` joins 300 two-vertex edges (bitmap-dense in
    // its partition), then 300 singleton edges dilute a second partition.
    let hub = b.add_vertex(Label::new(3)).raw();
    let first_leaf = b.add_vertices(600, Label::new(4)).raw();
    for leaf in first_leaf..first_leaf + 300 {
        b.add_edge(vec![hub, leaf]).unwrap();
    }
    for leaf in first_leaf + 300..first_leaf + 600 {
        b.add_edge(vec![leaf]).unwrap();
    }
    b.build().unwrap()
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paper.hgsnap")
}

/// The same graph as written by an older snapshot version, each of which
/// stored the index and other derived state beside the rows: v2, whose
/// stats also carried a per-label degree histogram, v3, which wrote an
/// index for one-row partitions and both side tables of every index, v4,
/// which wrote a stats record per partition, or v5, which wrote the
/// signatures, the locator and the incidence CSR as sections of their own.
/// Never regenerated: they pin the refusal of those versions.
fn legacy_fixture_path(version: u32) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/fixtures/paper.v{version}.hgsnap"))
}

/// The committed fixture must decode, and re-encoding the decoded graph
/// must reproduce the file byte-for-byte: `save(load(fixture)) ==
/// fixture`, and so must a fresh build of the fixture graph.
#[test]
fn golden_fixture_is_byte_stable() {
    let path = fixture_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode_snapshot(&fixture_graph())).unwrap();
    }
    let fixture = std::fs::read(&path)
        .expect("missing tests/fixtures/paper.hgsnap; regenerate with UPDATE_GOLDEN=1");

    let decoded = decode_snapshot(&fixture).expect("committed fixture must decode");
    assert_eq!(
        &*encode_snapshot(&decoded),
        fixture.as_slice(),
        "save(load(fixture)) != fixture; the snapshot format drifted — \
         regenerate tests/fixtures/paper.hgsnap with UPDATE_GOLDEN=1 deliberately"
    );

    // The index rebuilt on load covers every representation: some key is
    // dense, some not.
    let mut repr = ReprBreakdown::default();
    for p in decoded.partitions() {
        repr.add(&p.index().repr_breakdown());
    }
    assert!(repr.bitmap_keys >= 1 && repr.list_keys >= 1, "{repr:?}");

    assert_eq!(
        &*encode_snapshot(&fixture_graph()),
        fixture.as_slice(),
        "fresh fixture build no longer matches the committed snapshot"
    );
    assert_eq!(decoded, fixture_graph());
    assert_derived_state_eq(&decoded, &fixture_graph());
}

/// v2–v5 files are refused with a typed error naming their version,
/// before any of their body is read: they must be re-saved from text.
#[test]
fn legacy_fixtures_are_refused() {
    let current = std::fs::read(fixture_path()).expect("missing tests/fixtures/paper.hgsnap");
    assert_eq!(&current[4..8], &SNAPSHOT_VERSION.to_le_bytes());
    for version in [2u32, 3, 4, 5] {
        let old = std::fs::read(legacy_fixture_path(version))
            .unwrap_or_else(|_| panic!("missing tests/fixtures/paper.v{version}.hgsnap"));
        assert_eq!(
            &old[4..8],
            &version.to_le_bytes(),
            "the v{version} fixture must stay v{version}"
        );
        match decode_snapshot(&old) {
            Err(HypergraphError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("v{version} fixture: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// Save→load→rebuild differential over a dynamic update stream: at every
/// checkpoint the decoded snapshot equals the in-memory snapshot field for
/// field (indices in their chosen representations, stats, locator, CSR,
/// adjacency), and re-encoding it is byte-identical.
#[test]
fn snapshot_roundtrips_across_dynamic_streams() {
    let base = random_arity_hypergraph(11, 40, 60, 3, 1, 4);
    let ops = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops: 400,
            insert_ratio: 0.6,
            seed: 23,
            ..UpdateStreamConfig::default()
        },
    );
    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    for (i, op) in ops.iter().enumerate() {
        dynamic.apply(op).expect("stream ops are valid");
        if i % 97 == 0 || i + 1 == ops.len() {
            let snap = dynamic.snapshot();
            let bytes = encode_snapshot(&snap.graph);
            let restored = decode_snapshot(&bytes).expect("snapshot must decode");
            assert_eq!(restored, *snap.graph, "decode lost state at op {i}");
            assert_derived_state_eq(&restored, &snap.graph);
            assert_eq!(
                encode_snapshot(&restored),
                bytes,
                "re-encode not byte-stable at op {i}"
            );
        }
    }
}
