//! Unit tests of the statistics helpers, and end-to-end smoke runs of the
//! benchmark binary at a twentieth of the work.

use std::path::PathBuf;
use std::process::Command;

use hgmatch_benchmark::inputs::{mixed_requests, uniform_requests, update_stream, Mode};
use hgmatch_benchmark::procfs::{cpu_seconds, first_allowed_cpu, parse_vm_hwm_kb};
use hgmatch_benchmark::report::{parse_result_line, result_line, Parsed};
use hgmatch_benchmark::rng::{Rng, Zipf};
use hgmatch_benchmark::spec;
use hgmatch_benchmark::stats::{first_decile, median, percentile, samples_beyond};
use hgmatch_server::json::{self, Json};

// ---- statistics -------------------------------------------------------

#[test]
fn median_and_percentile() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 95.0), 7.0);
}

#[test]
fn samples_beyond_a_percentile_are_counted() {
    // Printed beside every p95: a tail estimate wants ten samples beyond.
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert_eq!(samples_beyond(199, 95.0), 9);
    assert_eq!(samples_beyond(29, 95.0), 1);
    assert_eq!(samples_beyond(8_160, 95.0), 408);
    assert_eq!(samples_beyond(10, 100.0), 0);
}

#[test]
fn the_first_decile_is_a_nearest_rank() {
    assert_eq!(first_decile(&[]), 0.0);
    assert_eq!(first_decile(&[7.0]), 7.0);
    let upto = |n: u32| -> Vec<f64> { (1..=n).rev().map(f64::from).collect() };
    // The smallest of up to ten, the second smallest of 11 to 20, ...
    assert_eq!(first_decile(&upto(5)), 1.0);
    assert_eq!(first_decile(&upto(10)), 1.0);
    assert_eq!(first_decile(&upto(11)), 2.0);
    assert_eq!(first_decile(&upto(12)), 2.0);
    assert_eq!(first_decile(&upto(30)), 3.0);
    assert_eq!(first_decile(&upto(40)), 4.0);
    assert_eq!(first_decile(&upto(56)), 6.0);
}

#[test]
fn a_latency_is_the_first_decile_over_passes_of_each_passs_percentile() {
    // Twenty passes of 200 requests taking 1..=200. The host is slow for
    // twelve of them (x1.5): a median over the passes would sit in the
    // slow cluster, and in the fast one had it been eight. A stall of the
    // program's own that slows a tenth of every pass is in every pass's
    // p95, and so in the metric.
    let calm: Vec<f64> = (1..=200).map(f64::from).collect();
    let slow: Vec<f64> = calm.iter().map(|x| x * 1.5).collect();
    let over_passes = |passes: &[Vec<f64>], p: f64| {
        first_decile(&passes.iter().map(|l| percentile(l, p)).collect::<Vec<_>>())
    };
    let mut passes: Vec<Vec<f64>> = vec![calm.clone(); 8];
    passes.extend(vec![slow; 12]);
    assert_eq!(over_passes(&passes, 50.0), 100.0);
    assert_eq!(over_passes(&passes, 95.0), 190.0);
    assert_eq!(
        median(
            &passes
                .iter()
                .map(|l| percentile(l, 50.0))
                .collect::<Vec<_>>()
        ),
        150.0
    );
    for pass in &mut passes {
        pass[180..].iter_mut().for_each(|x| *x += 1000.0);
    }
    assert_eq!(over_passes(&passes, 50.0), 100.0);
    assert_eq!(over_passes(&passes, 95.0), 1190.0);
}

#[test]
fn zipf_and_shuffle_are_functions_of_the_seed() {
    let zipf = Zipf::new(512, 1.0);
    let draw = |seed| {
        let mut rng = Rng::derive(seed, 3);
        (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let ranks = draw(7);
    assert!(ranks.iter().all(|&r| r < 512));
    // Rank 0 of Zipf(1.0) over 512 ranks draws about 1/H(512) = 14.6 %.
    let top = ranks.iter().filter(|&&r| r == 0).count();
    assert!(
        (100..200).contains(&top),
        "rank 0 drawn {top} times of 1000"
    );
}

#[test]
fn proc_parsers() {
    let status = "Name:\tx\nVmPeak:\t  99 kB\nVmHWM:\t   12345 kB\nCpus_allowed_list:\t2,4-7\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(12345));
    assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    assert_eq!(first_allowed_cpu(status), Some(2));
    assert_eq!(first_allowed_cpu("Cpus_allowed_list:\t0-1\n"), Some(0));
    assert_eq!(first_allowed_cpu("Name:\tx\n"), None);
    // The CPU clock runs, and forward.
    let before = cpu_seconds();
    let mut x = 0u64;
    for i in 0..20_000_000u64 {
        x = x.wrapping_mul(31).wrapping_add(i);
    }
    std::hint::black_box(x);
    assert!(cpu_seconds() > before);
}

#[test]
fn result_line_round_trips() {
    let line = result_line(10, 0, &vec![("qps", 1234.5678), ("setup_s", 0.25)]);
    let parsed = parse_result_line(&line).expect("own line parses");
    assert!(parsed.correct);
    assert_eq!((parsed.attempted, parsed.failed), (10, 0));
    assert_eq!(parsed.metrics[0], ("qps".to_string(), 1234.5678));
    assert!(line.contains("\"unit\": \"1/s\""));
}

// ---- seed hygiene -----------------------------------------------------

#[test]
fn the_seed_decides_the_lists_and_nothing_else() {
    assert_eq!(uniform_requests(96, 4, 5), uniform_requests(96, 4, 5));
    assert_ne!(uniform_requests(96, 4, 5), uniform_requests(96, 4, 6));
    let mixed = mixed_requests(64, 1, 5);
    assert_eq!(mixed, mixed_requests(64, 1, 5));
    assert_ne!(mixed, mixed_requests(64, 1, 6));
    // Whatever the seed: every query ten times, 7 count, 2 top-k, 1 full.
    for query in 0..64 {
        let modes: Vec<Mode> = mixed
            .iter()
            .filter(|r| r.query == query)
            .map(|r| r.mode)
            .collect();
        assert_eq!(modes.len(), 10);
        assert_eq!(modes.iter().filter(|&&m| m == Mode::TopK).count(), 2);
        assert_eq!(modes.iter().filter(|&&m| m == Mode::Materialize).count(), 1);
    }
    let base = hgmatch_benchmark::inputs::dataset("CH");
    assert_eq!(update_stream(&base, 500, 5), update_stream(&base, 500, 5));
    assert_ne!(update_stream(&base, 500, 5), update_stream(&base, 500, 6));
}

// ---- the binary, at smoke size ----------------------------------------

struct Finished {
    code: Option<i32>,
    result: Option<Parsed>,
    stdout: String,
}

fn smoke(workload: &str, extra: &[&str]) -> Finished {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let output = Command::new(env!("CARGO_BIN_EXE_hgmatch-benchmark"))
        .args(["--workload", workload, "--smoke", "--out"])
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    Finished {
        code: output.status.code(),
        result: stdout.lines().last().and_then(parse_result_line),
        stdout,
    }
}

fn metric(result: &Parsed, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in &spec::WORKLOADS {
        let run = smoke(workload.name, &[]);
        assert_eq!(run.code, Some(0), "{}", run.stdout);
        let result = run.result.expect("a result line");
        assert!(result.correct && result.failed == 0 && result.attempted > 0);
        assert_eq!(result.metrics.len(), spec::END_TO_END.len());
        for m in &spec::END_TO_END {
            let value = metric(&result, m.name);
            assert!(value > 0.0, "{}/{} = {value}", workload.name, m.name);
            assert!(run
                .stdout
                .contains(&format!("{}/{}\t", workload.name, m.name)));
        }
    }
}

#[test]
fn a_wrong_oracle_count_fails_the_run() {
    for workload in ["point_http", "heavy_lib", "update_mix"] {
        let run = smoke(workload, &["--corrupt-oracle"]);
        assert_ne!(run.code, Some(0), "{workload} must exit non-zero");
        let result = run.result.expect("a result line even when wrong");
        assert!(!result.correct);
        assert!(result.failed > 0 && result.failed <= result.attempted);
    }
}

#[test]
fn traced_runs_report_every_layer_and_their_counts_repeat() {
    let exact = [
        "core.candidates.calls",
        "core.candidates.produced",
        "core.validate.calls",
        "core.validate.valid_ratio",
        "core.sink.embeddings",
        "core.memory.peak_partial_bytes",
        "hypergraph.io.snapshot_bytes",
        "hypergraph.inverted.bytes_list",
        "hypergraph.inverted.keys_list",
    ];
    let first = smoke("enum_http", &["--trace", "1", "--seed", "3"]);
    let again = smoke("enum_http", &["--trace", "1", "--seed", "3"]);
    assert_eq!(first.code, Some(0), "{}", first.stdout);
    let (first, again) = (first.result.unwrap(), again.result.unwrap());
    assert_eq!(first.metrics.len(), spec::PER_LAYER.len());
    for (m, (name, _)) in spec::PER_LAYER.iter().zip(&first.metrics) {
        assert_eq!(m.name, name);
    }
    for name in exact {
        assert_eq!(metric(&first, name), metric(&again, name), "{name}");
    }
    assert!(metric(&first, "core.sink.embeddings") > 0.0);
    assert!(metric(&first, "server.door.overhead_us") > 0.0);
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out/trace-enum_http.jsonl");
    let text = std::fs::read_to_string(trace).expect("trace file written");
    for name in [
        "\"request\"",
        "client.wait",
        "serve.exec",
        "replay.validate",
        "dynamic.snapshot",
    ] {
        assert!(text.contains(name), "trace lacks {name} spans");
    }
}

#[test]
fn another_seed_moves_the_lists_but_not_the_index() {
    let one = smoke("heavy_lib", &["--seed", "1"]).result.unwrap();
    let two = smoke("heavy_lib", &["--seed", "2"]).result.unwrap();
    assert_eq!(metric(&one, "index_mb"), metric(&two, "index_mb"));
    assert_eq!(one.attempted, two.attempted);
}

// ---- the spec and the files that mirror it ----------------------------

fn read_json(relative: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn text<'a>(object: &'a Json, key: &str) -> &'a str {
    object
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn benchmark_json_mirrors_the_spec() {
    let doc = read_json("../BENCHMARK.json");
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (w, s) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(text(w, "name"), s.name);
        assert_eq!(text(w, "why"), s.why);
        assert!(s.why.len() <= 200 && !s.why.contains('\n'));
    }
    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), spec::END_TO_END.len());
    for (m, s) in end_to_end.iter().zip(&spec::END_TO_END) {
        assert_eq!(text(m, "name"), s.name);
        assert_eq!(text(m, "unit"), s.unit);
        assert_eq!(text(m, "better"), s.better);
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(s.bound));
    }
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), spec::PER_LAYER.len());
    for (m, s) in per_layer.iter().zip(&spec::PER_LAYER) {
        assert_eq!(text(m, "name"), s.name);
        assert_eq!(text(m, "unit"), s.unit);
        assert_eq!(text(m, "better"), s.better);
    }
}

#[test]
fn metrics_json_maps_every_layer_metric() {
    let doc = read_json("METRICS.json");
    assert!(matches!(doc.get("claim"), Some(Json::Null)));
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), spec::PER_LAYER.len());
    for (m, s) in per_layer.iter().zip(&spec::PER_LAYER) {
        assert_eq!(text(m, "name"), s.name);
        assert_eq!(text(m, "layer"), s.layer);
        assert_eq!(text(m, "moves"), s.moves);
    }
}
