//! In-process tests of every CLI subcommand.

use std::path::PathBuf;

use hgmatch_cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("hgmatch-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the paper's Fig. 1 data and query files; returns their paths.
fn write_paper_files(dir: &TempDir) -> (String, String, String, String) {
    let dl = dir.path("data.labels");
    let de = dir.path("data.edges");
    let ql = dir.path("query.labels");
    let qe = dir.path("query.edges");
    std::fs::write(&dl, "0\n2\n0\n0\n1\n2\n0\n").unwrap();
    std::fs::write(&de, "2,4\n4,6\n0,1,2\n3,5,6\n0,1,4,6\n2,3,4,5\n").unwrap();
    std::fs::write(&ql, "0\n2\n0\n0\n1\n").unwrap();
    std::fs::write(&qe, "2,4\n0,1,2\n0,1,3,4\n").unwrap();
    (dl, de, ql, qe)
}

#[test]
fn unknown_command_errors() {
    assert!(run(&args(&["frobnicate"])).is_err());
    assert!(run(&[]).is_err());
}

#[test]
fn generate_and_stats_roundtrip() {
    let dir = TempDir::new("gen");
    let labels = dir.path("ch.labels");
    let edges = dir.path("ch.edges");
    run(&args(&["generate", "CH", &labels, &edges])).expect("generate works");
    run(&args(&["stats", &labels, &edges])).expect("stats works");
    assert!(std::fs::metadata(&labels).unwrap().len() > 0);
    assert!(std::fs::metadata(&edges).unwrap().len() > 0);
}

/// `stats` reports the per-partition index memory breakdown by posting
/// representation, in both text and `--json` form. The assertions stay
/// representation-agnostic (postings totals, not repr counts).
#[test]
fn stats_reports_index_memory_breakdown() {
    let dir = TempDir::new("stats-breakdown");
    let (dl, de, _, _) = write_paper_files(&dir);
    run(&args(&["stats", &dl, &de])).expect("stats works");
    run(&args(&["stats", &dl, &de, "--json"])).expect("stats --json works");
    assert!(run(&args(&["stats", &dl, &de, "--frob"])).is_err());

    let text = hgmatch_cli::stats_report(&dl, &de, false).unwrap();
    assert!(text.contains("index memory by representation"));
    assert!(text.contains("part\trows\tlist\tbitmap\tindex_bytes\tB/posting"));
    let total_line = text
        .lines()
        .find(|l| l.starts_with("total\t"))
        .expect("aggregate row present");
    // The paper graph has 6 edges and 18 incidences; the two per-repr
    // posting counts in the aggregate row must sum to 18 whichever
    // representations were chosen.
    let postings_sum: usize = total_line
        .split('\t')
        .skip(2)
        .take(2)
        .map(|cell| cell.split('/').nth(1).unwrap().parse::<usize>().unwrap())
        .sum();
    assert_eq!(postings_sum, 18);
    assert!(total_line.starts_with("total\t6\t"), "{total_line}");

    let json = hgmatch_cli::stats_report(&dl, &de, true).unwrap();
    for needle in [
        "\"num_vertices\": 7",
        "\"num_edges\": 6",
        "\"partitions\": [",
        "\"totals\": {",
        "\"bytes_per_posting\": ",
        "\"bitmap\": {\"keys\": ",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    // Deterministic: repeated runs are byte-identical.
    assert_eq!(json, hgmatch_cli::stats_report(&dl, &de, true).unwrap());
}

/// A one-row partition holds no index: `stats` reports its row as list
/// postings at 0 index bytes, so the totals still count every incidence.
#[test]
fn stats_counts_the_incidences_of_one_row_partitions() {
    let dir = TempDir::new("stats-one-row");
    let (dl, de) = (dir.path("data.labels"), dir.path("data.edges"));
    std::fs::write(&dl, "0\n2\n0\n0\n1\n2\n0\n").unwrap();
    // Partitions {A,B}: 2 rows; {A,A,C} and {A,A,B,C}: one row each.
    std::fs::write(&de, "2,4\n4,6\n0,1,2\n0,1,4,6\n").unwrap();
    let text = hgmatch_cli::stats_report(&dl, &de, false).unwrap();
    let cells = |line: &str| -> Vec<String> { line.split('\t').map(String::from).collect() };
    let parts: Vec<Vec<String>> = text
        .lines()
        .skip_while(|l| !l.starts_with("part\t"))
        .skip(1)
        .map(cells)
        .collect();
    assert_eq!(parts.len(), 4, "three partitions and the total: {text}");
    // Per-repr "keys/postings/bytes" cells and the index bytes.
    let postings = |row: &[String]| -> usize {
        row[2..4]
            .iter()
            .map(|c| c.split('/').nth(1).unwrap().parse::<usize>().unwrap())
            .sum()
    };
    for row in &parts[..3] {
        if row[1] == "1" {
            let arity = postings(row);
            assert!(arity == 3 || arity == 4, "{row:?}");
            assert_eq!(row[2], format!("{arity}/{arity}/0"), "{row:?}");
            assert_eq!(row[4], "0", "a one-row partition has no index: {row:?}");
        }
    }
    let total = &parts[3];
    assert_eq!(total[0], "total");
    assert_eq!(postings(total), 2 + 2 + 3 + 4);
    let indexed_bytes: usize = parts[..3]
        .iter()
        .map(|r| r[4].parse::<usize>().unwrap())
        .sum();
    assert!(indexed_bytes > 0);
    assert_eq!(total[4], indexed_bytes.to_string());
}

#[test]
fn generate_rejects_unknown_profile() {
    let dir = TempDir::new("badprofile");
    let err = run(&args(&["generate", "NOPE", &dir.path("a"), &dir.path("b")])).unwrap_err();
    assert!(err.contains("unknown profile"));
}

#[test]
fn match_counts_paper_example() {
    let dir = TempDir::new("match");
    let (dl, de, ql, qe) = write_paper_files(&dir);
    run(&args(&["match", &dl, &de, &ql, &qe])).expect("match works");
    run(&args(&["match", &dl, &de, &ql, &qe, "--threads", "2"])).expect("parallel match");
    run(&args(&["match", &dl, &de, &ql, &qe, "--print", "5"])).expect("print mode");
    run(&args(&["match", &dl, &de, &ql, &qe, "--timeout", "10"])).expect("timeout flag");
}

#[test]
fn match_rejects_bad_flags() {
    let dir = TempDir::new("badflags");
    let (dl, de, ql, qe) = write_paper_files(&dir);
    assert!(run(&args(&["match", &dl, &de, &ql, &qe, "--bogus"])).is_err());
    assert!(run(&args(&["match", &dl, &de, &ql, &qe, "--threads"])).is_err());
    assert!(run(&args(&["match", &dl, &de])).is_err());
}

#[test]
fn explain_prints_dataflow() {
    let dir = TempDir::new("explain");
    let (dl, de, ql, qe) = write_paper_files(&dir);
    run(&args(&["explain", &dl, &de, &ql, &qe])).expect("explain works");
    run(&args(&["explain", &dl, &de, &ql, &qe, "--json"])).expect("explain --json works");
    assert!(run(&args(&["explain", &dl, &de, &ql, &qe, "--frob"])).is_err());
}

/// Path of a committed fixture file.
fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// `explain` output is deterministic and golden-filed: the committed
/// planner-adversary fixture (hub-heavy {A,B} start vs. a selective {C,D}
/// start) must produce byte-identical text and JSON reports, so CI can
/// diff them. The fixture is also the shape where the cost-based order
/// diverges from greedy — the goldens pin both orders.
#[test]
fn explain_matches_golden_files() {
    let report = |json| {
        hgmatch_cli::explain_report(
            &fixture("plan.labels"),
            &fixture("plan.edges"),
            &fixture("plan_query.labels"),
            &fixture("plan_query.edges"),
            json,
        )
        .expect("fixture explains")
    };
    let golden_txt = std::fs::read_to_string(fixture("explain.golden.txt")).unwrap();
    let golden_json = std::fs::read_to_string(fixture("explain.golden.json")).unwrap();
    assert_eq!(report(false), golden_txt, "text report drifted from golden");
    assert_eq!(report(true), golden_json, "json report drifted from golden");
    // Repeated runs are byte-identical (no hash-iteration leaks).
    assert_eq!(report(true), report(true));
}

/// `explain --observed` executes the chosen order once (sequential
/// reference run) and reports per-position observed-vs-estimated candidate
/// counts as byte-deterministic JSON, golden-filed like the static
/// reports. On the committed fixture the cost model is exact, so every
/// ratio pins to 1.0000 — a drift in either the planner or the per-step
/// metrics attribution shows up as a golden diff.
#[test]
fn explain_observed_matches_golden_file() {
    let report = || {
        hgmatch_cli::explain_observed_report(
            &fixture("plan.labels"),
            &fixture("plan.edges"),
            &fixture("plan_query.labels"),
            &fixture("plan_query.edges"),
        )
        .expect("fixture explains")
    };
    let golden = std::fs::read_to_string(fixture("explain_observed.golden.json")).unwrap();
    assert_eq!(report(), golden, "observed report drifted from golden");
    // Repeated runs are byte-identical (the run is sequential: no
    // worker-interleaving leaks into the counts).
    assert_eq!(report(), report());

    // The flag wires through the CLI, and combining the two JSON modes is
    // rejected rather than picking one silently.
    let f = [
        fixture("plan.labels"),
        fixture("plan.edges"),
        fixture("plan_query.labels"),
        fixture("plan_query.edges"),
    ];
    run(&args(&[
        "explain",
        &f[0],
        &f[1],
        &f[2],
        &f[3],
        "--observed",
    ]))
    .expect("explain --observed works");
    let err = run(&args(&[
        "explain",
        &f[0],
        &f[1],
        &f[2],
        &f[3],
        "--observed",
        "--json",
    ]))
    .unwrap_err();
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn sample_query_emits_files() {
    let dir = TempDir::new("sample");
    let labels = dir.path("cp.labels");
    let edges = dir.path("cp.edges");
    run(&args(&["generate", "CP", &labels, &edges])).unwrap();
    let ql = dir.path("q.labels");
    let qe = dir.path("q.edges");
    run(&args(&[
        "sample-query",
        &labels,
        &edges,
        "q2",
        "5",
        &ql,
        &qe,
    ]))
    .expect("sample works");
    // The sampled query must itself be loadable and matchable.
    run(&args(&["match", &labels, &edges, &ql, &qe])).expect("sampled query matches");
    // Unknown setting is rejected.
    assert!(run(&args(&[
        "sample-query",
        &labels,
        &edges,
        "q9",
        "5",
        &ql,
        &qe
    ]))
    .is_err());
}

#[test]
fn missing_files_produce_errors_not_panics() {
    let err = run(&args(&["stats", "/nonexistent/a", "/nonexistent/b"])).unwrap_err();
    assert!(err.contains("loading"));
}

/// Writes a query-list file referencing the paper query twice plus a
/// single-edge query, exercising the shared pool and the plan cache.
fn write_query_list(dir: &TempDir) -> (String, String, String) {
    let (dl, de, ql, qe) = write_paper_files(dir);
    let sl = dir.path("single.labels");
    let se = dir.path("single.edges");
    std::fs::write(&sl, "0\n1\n").unwrap();
    std::fs::write(&se, "0,1\n").unwrap();
    let list = dir.path("queries.txt");
    std::fs::write(
        &list,
        format!("# paper query twice, then a single edge\n{ql} {qe}\n{ql} {qe}\n\n{sl} {se}\n"),
    )
    .unwrap();
    (dl, de, list)
}

/// Runs `serve <dl> <de> --input <list>` followed by `extra` flags.
fn serve_list(dl: &str, de: &str, list: &str, extra: &[&str]) -> Result<(), String> {
    let mut argv = vec!["serve", dl, de, "--input", list];
    argv.extend_from_slice(extra);
    run(&args(&argv))
}

/// A batch of queries — a list file naming the paper query twice — served
/// on one shared pool, with and without per-query limits.
#[test]
fn batch_serves_query_list_on_shared_pool() {
    let dir = TempDir::new("batch");
    let (dl, de, list) = write_query_list(&dir);
    serve_list(&dl, &de, &list, &["--threads", "2"]).expect("serve works");
    let limits = ["--threads", "2", "--max-results", "1", "--timeout", "30"];
    serve_list(&dl, &de, &list, &limits).expect("serve with limits works");
}

/// `--agg` selects the per-query aggregation mode (DESIGN.md §18.2);
/// malformed specs are flag errors, not panics.
#[test]
fn batch_and_serve_accept_agg_modes() {
    let dir = TempDir::new("agg");
    let (dl, de, list) = write_query_list(&dir);
    for agg in [
        "count",
        "materialize",
        "topk:1",
        "topk:2",
        "topk:3:min_edge",
        "sample:2:7",
    ] {
        serve_list(&dl, &de, &list, &["--agg", agg])
            .unwrap_or_else(|e| panic!("serve --agg {agg}: {e}"));
    }
    for bad in [
        "median",
        "topk",
        "topk:0",
        "topk:2:bogus",
        "sample",
        "sample:0",
        "sample:2:x",
        "count:1",
    ] {
        let err = serve_list(&dl, &de, &list, &["--agg", bad]).unwrap_err();
        assert!(err.contains("--agg"), "{bad}: {err}");
    }
    assert!(serve_list(&dl, &de, &list, &["--agg"]).is_err());
}

#[test]
fn serve_streams_from_input_file() {
    let dir = TempDir::new("serve");
    let (dl, de, list) = write_query_list(&dir);
    run(&args(&[
        "serve",
        &dl,
        &de,
        "--input",
        &list,
        "--threads",
        "2",
        "--quantum",
        "8",
    ]))
    .expect("serve works");
}

#[test]
fn bad_timeouts_error_instead_of_panicking() {
    let dir = TempDir::new("badtimeout");
    let (dl, de, ql, qe) = write_paper_files(&dir);
    for bad in ["-1", "nan", "inf", "1e300"] {
        let err = run(&args(&["match", &dl, &de, &ql, &qe, "--timeout", bad])).unwrap_err();
        assert!(err.contains("--timeout"), "{bad}: {err}");
    }
    let list = dir.path("q.txt");
    std::fs::write(&list, format!("{ql} {qe}\n")).unwrap();
    let err = serve_list(&dl, &de, &list, &["--timeout", "-5"]).unwrap_err();
    assert!(err.contains("--timeout"), "{err}");
}

#[test]
fn serve_and_batch_reject_bad_specs() {
    let dir = TempDir::new("badserve");
    let (dl, de, _, _) = write_paper_files(&dir);
    let list = dir.path("bad.txt");
    std::fs::write(&list, "only-one-token\n").unwrap();
    let err = serve_list(&dl, &de, &list, &[]).unwrap_err();
    assert!(err.contains("line 1"), "{err}");
    let err = serve_list(&dl, &de, &list, &["--bogus"]).unwrap_err();
    assert!(err.contains("--bogus"), "{err}");
    assert!(serve_list(&dl, &de, &dir.path("missing.txt"), &[]).is_err());
}

#[test]
fn empty_and_overlong_queries_get_line_numbered_diagnostics() {
    let dir = TempDir::new("shapecheck");
    let (dl, de, ql, qe) = write_paper_files(&dir);

    // A query with zero hyperedges: valid files, empty edge list.
    let el = dir.path("noedges.labels");
    let ee = dir.path("noedges.edges");
    std::fs::write(&el, "0\n").unwrap();
    std::fs::write(&ee, "").unwrap();

    // A query past the engine's 64-hyperedge limit: a 65-edge path.
    let bl = dir.path("big.labels");
    let be = dir.path("big.edges");
    std::fs::write(&bl, "0\n".repeat(66)).unwrap();
    let path: String = (0..65).map(|i| format!("{i},{}\n", i + 1)).collect();
    std::fs::write(&be, path).unwrap();

    let list = dir.path("mixed.txt");
    std::fs::write(&list, format!("{ql} {qe}\n{el} {ee}\n")).unwrap();
    let err = serve_list(&dl, &de, &list, &[]).unwrap_err();
    assert!(
        err.contains("line 2") && err.contains("no hyperedges"),
        "empty query must get a line-numbered diagnostic: {err}"
    );

    std::fs::write(&list, format!("# header\n{ql} {qe}\n\n{bl} {be}\n")).unwrap();
    let err = serve_list(&dl, &de, &list, &[]).unwrap_err();
    assert!(
        err.contains("line 4") && err.contains("65"),
        "over-long query must get a line-numbered diagnostic: {err}"
    );
}

/// Writes a small update stream against the paper data: delete one edge,
/// re-insert it, add a vertex and a fresh edge.
fn write_update_stream_file(dir: &TempDir) -> String {
    let stream = dir.path("stream.txt");
    std::fs::write(
        &stream,
        "# delete + reinsert the {A,B} edge, then grow the graph\n\
         - 2 4\n\
         + 2 4\n\
         v 1\n\
         + 0 7\n\
         + 3 6\n",
    )
    .unwrap();
    stream
}

#[test]
fn update_applies_streams_in_batches() {
    let dir = TempDir::new("update");
    let (dl, de, _, _) = write_paper_files(&dir);
    let stream = write_update_stream_file(&dir);
    let out = dir.path("out.hgsnap");
    run(&args(&[
        "update", &dl, &de, &stream, "--batch", "2", "--save", &out,
    ]))
    .expect("update works");
    // The saved snapshot reflects the stream: 8 vertices, 8 edges.
    let saved = hgmatch_hypergraph::io::load_snapshot(std::path::Path::new(&out)).unwrap();
    assert_eq!(saved.num_vertices(), 8);
    assert_eq!(saved.num_edges(), 8);
}

/// `snapshot save` then `snapshot load` round-trips the paper graph, and
/// the saved file equals what `io::encode_snapshot` produces for the same
/// build — the CLI path adds nothing to the bytes.
#[test]
fn snapshot_save_then_load_roundtrips() {
    let dir = TempDir::new("snapshot");
    let (dl, de, _, _) = write_paper_files(&dir);
    let out = dir.path("paper.hgsnap");
    run(&args(&["snapshot", "save", &dl, &de, &out])).expect("snapshot save works");
    run(&args(&["snapshot", "load", &out])).expect("snapshot load works");

    let direct =
        hgmatch_hypergraph::io::load_text(std::path::Path::new(&dl), std::path::Path::new(&de))
            .unwrap();
    let restored = hgmatch_hypergraph::io::load_snapshot(std::path::Path::new(&out)).unwrap();
    assert_eq!(restored, direct);
    assert_eq!(
        std::fs::read(&out).unwrap(),
        &*hgmatch_hypergraph::io::encode_snapshot(&direct),
    );
}

#[test]
fn snapshot_rejects_bad_inputs() {
    let dir = TempDir::new("snapshot-bad");
    let (dl, de, _, _) = write_paper_files(&dir);
    assert!(run(&args(&["snapshot"])).is_err());
    assert!(run(&args(&["snapshot", "bogus"])).is_err());
    assert!(run(&args(&["snapshot", "save", &dl, &de])).is_err());
    assert!(run(&args(&["snapshot", "load", &dir.path("missing.hgsnap")])).is_err());
    // A corrupt file is a typed decode error, not a panic.
    let junk = dir.path("junk.hgsnap");
    std::fs::write(&junk, b"not a snapshot").unwrap();
    assert!(run(&args(&["snapshot", "load", &junk])).is_err());
}

#[test]
fn update_serves_standing_queries() {
    let dir = TempDir::new("update-queries");
    let (dl, de, list) = write_query_list(&dir);
    let stream = write_update_stream_file(&dir);
    run(&args(&[
        "update",
        &dl,
        &de,
        &stream,
        "--batch",
        "1",
        "--queries",
        &list,
        "--threads",
        "2",
    ]))
    .expect("update with standing queries works");
}

#[test]
fn update_rejects_bad_inputs() {
    let dir = TempDir::new("update-bad");
    let (dl, de, _, _) = write_paper_files(&dir);
    let stream = write_update_stream_file(&dir);
    assert!(run(&args(&["update", &dl, &de])).is_err());
    assert!(run(&args(&["update", &dl, &de, &stream, "--bogus"])).is_err());
    // A stale script asking for the delta cross-check fails loudly.
    assert!(run(&args(&["update", &dl, &de, &stream, "--delta"])).is_err());
    assert!(run(&args(&["update", &dl, &de, &stream, "--batch", "0"])).is_err());
    let bad = dir.path("bad-stream.txt");
    std::fs::write(&bad, "? 1 2\n").unwrap();
    assert!(run(&args(&["update", &dl, &de, &bad])).is_err());
    let empty = dir.path("empty-stream.txt");
    std::fs::write(&empty, "# nothing\n").unwrap();
    assert!(run(&args(&["update", &dl, &de, &empty])).is_err());
}

#[test]
fn gen_stream_round_trips_through_update() {
    let dir = TempDir::new("gen-stream");
    let (dl, de, _, _) = write_paper_files(&dir);
    let stream = dir.path("gen.txt");
    run(&args(&["gen-stream", &dl, &de, "40", "0.7", "9", &stream])).expect("gen-stream works");
    let ops = hgmatch_hypergraph::dynamic::parse_update_stream(
        &std::fs::read_to_string(&stream).unwrap(),
    )
    .unwrap();
    assert_eq!(ops.len(), 40);
    run(&args(&["update", &dl, &de, &stream, "--batch", "10"])).expect("replay works");
    assert!(run(&args(&["gen-stream", &dl, &de, "10", "2.0", "9", &stream])).is_err());
    assert!(run(&args(&["gen-stream", &dl, &de])).is_err());
}

/// `listen` binds the HTTP front door and drains on stdin EOF. Runs the
/// real binary with stdin closed (the in-process `run()` would block on
/// the test harness's inherited stdin).
#[test]
fn listen_binds_and_drains_on_stdin_eof() {
    let dir = TempDir::new("listen");
    let (dl, de, _, _) = write_paper_files(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hgmatch"))
        .args([
            "listen",
            &dl,
            &de,
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--http-threads",
            "1",
        ])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn hgmatch listen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("listening on http://127.0.0.1:"),
        "{stdout}"
    );
    assert!(stdout.contains("drained: 0 admitted"), "{stdout}");
}

/// `listen --snapshot` serves straight from an HGMB snapshot file.
#[test]
fn listen_serves_from_snapshot_file() {
    let dir = TempDir::new("listen-snapshot");
    let (dl, de, _, _) = write_paper_files(&dir);
    let snap = dir.path("data.hgsnap");
    run(&args(&["snapshot", "save", &dl, &de, &snap])).expect("snapshot save works");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hgmatch"))
        .args([
            "listen",
            "--snapshot",
            &snap,
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--http-threads",
            "1",
        ])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn hgmatch listen --snapshot");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("listening on http://127.0.0.1:"),
        "{stdout}"
    );
}

#[test]
fn listen_rejects_bad_flags() {
    let dir = TempDir::new("listen-bad");
    let (dl, de, _, _) = write_paper_files(&dir);
    assert!(run(&args(&["listen", &dl])).is_err());
    assert!(run(&args(&["listen", "--snapshot"])).is_err());
    assert!(run(&args(&[
        "listen",
        "--snapshot",
        &dir.path("missing.hgsnap")
    ]))
    .is_err());
    assert!(run(&args(&["listen", &dl, &de, "--bogus"])).is_err());
    assert!(run(&args(&["listen", &dl, &de, "--queue-depth"])).is_err());
    assert!(run(&args(&["listen", &dl, &de, "--tenant-qps", "abc"])).is_err());
    // An unbindable address is a clean error, not a panic.
    assert!(run(&args(&["listen", &dl, &de, "--addr", "256.0.0.1:80"])).is_err());
}
