//! `hgmatch` — command-line interface to the HGMatch engine (library
//! portion: argument parsing and subcommand logic, testable in-process).
//!
//! Subcommands:
//!
//! * `generate <profile> <labels.txt> <edges.txt>` — emit a synthetic
//!   dataset (Table II profile) in the text format.
//! * `stats <labels.txt> <edges.txt> [--json]` — print Table II-style
//!   statistics plus a per-partition index memory breakdown by posting
//!   representation (list / bitmap, DESIGN.md §5.4);
//!   `--json` emits the same data machine-readable.
//! * `match <labels.txt> <edges.txt> <qlabels.txt> <qedges.txt>
//!   [--threads N] [--timeout SECS] [--print [LIMIT]]` — count (and
//!   optionally print) embeddings of one query.
//! * `serve` — answer a *stream* of queries on one resident worker pool
//!   ([`hgmatch_core::serve::MatchServer`]): reads specs from stdin (or a
//!   query-list file with `--input`), streams results in completion order,
//!   and reports per-query latency and aggregate throughput. A query list
//!   has one `<qlabels> <qedges>` pair per line (blank lines and `#`
//!   comments skipped).
//! * `update` — consume an insert/delete stream file against a loaded
//!   graph through [`hgmatch_hypergraph::DynamicHypergraph`]: applies ops
//!   in batches, publishes an epoch snapshot per batch, optionally
//!   re-answers a standing query list on a [`MatchServer`] after every
//!   epoch, and reports update throughput.
//! * `gen-stream` — generate a random update stream with a configurable
//!   insert:delete ratio (the `datasets` update-stream generator).
//! * `explain <labels.txt> <edges.txt> <qlabels.txt> <qedges.txt>
//!   [--json|--observed]` — show the cost-based matching order, its
//!   per-step cost estimates next to the greedy Algorithm 3 baseline, and
//!   the SCAN/EXPAND/SINK dataflow; `--json` emits a deterministic
//!   machine-readable report; `--observed` also executes the query (sequential
//!   reference run) and reports per-position observed candidate counts
//!   next to the planner's estimates, with their observed/estimated
//!   ratios.
//! * `sample-query <labels.txt> <edges.txt> <setting> <seed>
//!   <out-labels> <out-edges>` — draw a random-walk query (q2/q3/q4/q6).

use std::io::BufRead;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hgmatch_core::serve::{MatchServer, QueryHandle, QueryOptions, ServeConfig};
use hgmatch_core::{AggregateMode, AggregateSummary, MatchConfig, Matcher, ScoreFn};
use hgmatch_datasets::{profile_by_name, sample_query, standard_settings};
use hgmatch_hypergraph::io;

/// Usage text printed on argument errors.
pub const USAGE: &str = "usage:
  hgmatch generate <profile> <labels.txt> <edges.txt>
  hgmatch stats <labels.txt> <edges.txt> [--json]
  hgmatch match <labels> <edges> <qlabels> <qedges> [--threads N] [--timeout SECS] [--print [LIMIT]]
  hgmatch serve <labels> <edges> [--input FILE] [serve flags]
  hgmatch listen <labels> <edges> [listen flags]
  hgmatch listen --snapshot <file.hgsnap> [listen flags]
  hgmatch snapshot save <labels> <edges> <out.hgsnap>
  hgmatch snapshot load <file.hgsnap>
  hgmatch update <labels> <edges> <stream.txt> [update flags]
  hgmatch gen-stream <labels> <edges> <ops> <insert-ratio> <seed> <out.txt>
  hgmatch explain <labels> <edges> <qlabels> <qedges> [--json|--observed]
  hgmatch sample-query <labels> <edges> <q2|q3|q4|q6> <seed> <out-labels> <out-edges>

serve answers many queries on one resident worker pool, in completion
order; a query list (stdin or --input) holds one `<qlabels> <qedges>` pair
per line (# comments allowed).
serve flags:
  --threads N       worker threads in the shared pool (default 4)
  --timeout SECS    per-query wall-clock budget (default: none)
  --max-results N   stop each query after N embeddings (default: none)
  --agg MODE        aggregation mode per query (DESIGN.md §18.2):
                    count | materialize | topk:K[:SCORE] | sample:BUDGET[:SEED]
                    SCORE is edge_id_sum | min_edge | hash (default edge_id_sum)
  --input FILE      read specs from FILE instead of stdin
  --quantum N       fairness quantum in tasks (default 64)
  --plan-cache N    plan-cache capacity, 0 disables (default 128)

snapshot save writes a graph as a checksummed HGMB snapshot; snapshot
load restores it (rows included; the index is rebuilt on load) and
prints stats. listen --snapshot serves straight from such a snapshot.

listen starts the HTTP front door (POST /match, GET /metrics, GET
/healthz) and drains gracefully on stdin EOF or a `quit` line.
listen flags:
  --addr HOST:PORT  bind address (default HGMATCH_LISTEN_ADDR or 127.0.0.1:0)
  --threads N       engine worker threads (default 4)
  --http-threads N  connection handler threads (default 4)
  --queue-depth N   max queued+executing match requests before 429
                    (default HGMATCH_QUEUE_DEPTH or 4x engine threads)
  --tenant-qps Q    per-tenant token-bucket rate, 0 = unlimited
                    (default HGMATCH_TENANT_QPS or 0)
  --admit-cost C    under load, shed queries whose planner cost estimate
                    exceeds C (default: disabled)
  --timeout SECS    default per-query wall-clock budget
  --quantum N       fairness quantum in tasks (default 64)
  --plan-cache N    plan-cache capacity, 0 disables (default 128)

update applies an insert/delete stream (`+ v...` / `- v...` / `v label`
lines) to a dynamic graph, publishing one snapshot epoch per batch.
update flags:
  --batch N         ops per epoch (default: the whole stream at once)
  --queries FILE    re-answer this query list after every epoch
  --threads N       worker threads for --queries (default 4)
  --save FILE       write the final graph (rows included; the index is
                    rebuilt on load) as an HGMB snapshot; `snapshot load` /
                    `listen --snapshot` restore it
profiles: HC MA CH CP SB HB WT TC SA AR";

/// Executes one CLI invocation; `args` excludes the program name.
pub fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "generate" => generate(&args[1..]),
        "stats" => stats(&args[1..]),
        "match" => do_match(&args[1..]),
        "serve" => do_serve(&args[1..]),
        "listen" => do_listen(&args[1..]),
        "snapshot" => do_snapshot(&args[1..]),
        "update" => do_update(&args[1..]),
        "gen-stream" => do_gen_stream(&args[1..]),
        "explain" => explain(&args[1..]),
        "sample-query" => do_sample(&args[1..]),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load(labels: &str, edges: &str) -> Result<hgmatch_hypergraph::Hypergraph, String> {
    io::load_text(Path::new(labels), Path::new(edges))
        .map_err(|e| format!("loading {labels} / {edges}: {e}"))
}

fn generate(args: &[String]) -> Result<(), String> {
    let [profile, labels, edges] = args else {
        return Err("generate needs <profile> <labels.txt> <edges.txt>".into());
    };
    let profile = profile_by_name(profile).ok_or_else(|| format!("unknown profile {profile:?}"))?;
    let h = profile.generate();
    io::save_text(&h, Path::new(labels), Path::new(edges)).map_err(|e| e.to_string())?;
    println!("{}", h.stats().table_row(profile.name));
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut files: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown stats flag {other:?}"))
            }
            _ => files.push(arg),
        }
    }
    let [labels, edges] = files.as_slice() else {
        return Err("stats needs <labels.txt> <edges.txt> [--json]".into());
    };
    print!("{}", stats_report(labels, edges, json)?);
    Ok(())
}

/// Builds the full `stats` output: Table II-style dataset summary plus the
/// per-partition index memory breakdown by posting representation
/// (DESIGN.md §5.4). Deterministic (stable field order), so CI can golden-
/// file it; `--json` emits the same data machine-readable.
pub fn stats_report(labels: &str, edges: &str, json: bool) -> Result<String, String> {
    use std::fmt::Write as _;
    let h = load(labels, edges)?;
    let s = h.stats();

    let breakdowns: Vec<(u32, usize, hgmatch_hypergraph::ReprBreakdown, usize)> = h
        .partitions()
        .iter()
        .map(|p| {
            (
                p.signature().raw(),
                p.len(),
                p.repr_breakdown(),
                p.index_size_bytes(),
            )
        })
        .collect();
    let mut total = hgmatch_hypergraph::ReprBreakdown::default();
    let mut total_index_bytes = 0usize;
    for (_, _, b, bytes) in &breakdowns {
        total.add(b);
        total_index_bytes += bytes;
    }
    let per_posting = |bytes: usize, postings: usize| {
        if postings == 0 {
            0.0
        } else {
            bytes as f64 / postings as f64
        }
    };

    let mut out = String::new();
    if json {
        let body_json = |b: &hgmatch_hypergraph::ReprBreakdown, bytes: usize| {
            format!(
                "\"list\": {{\"keys\": {}, \"postings\": {}, \"bytes\": {}}}, \
                 \"bitmap\": {{\"keys\": {}, \"postings\": {}, \"bytes\": {}}}, \
                 \"index_bytes\": {bytes}, \"bytes_per_posting\": {:.4}",
                b.list_keys,
                b.list_postings,
                b.list_bytes,
                b.bitmap_keys,
                b.bitmap_postings,
                b.bitmap_bytes,
                per_posting(bytes, b.total_postings()),
            )
        };
        let parts: Vec<String> = breakdowns
            .iter()
            .map(|(sid, rows, b, bytes)| {
                format!(
                    "    {{\"signature\": {sid}, \"rows\": {rows}, {}}}",
                    body_json(b, *bytes)
                )
            })
            .collect();
        let _ = write!(
            out,
            "{{\n  \"num_vertices\": {},\n  \"num_edges\": {},\n  \"num_labels\": {},\n  \
             \"max_arity\": {},\n  \"num_partitions\": {},\n  \"max_degree\": {},\n  \
             \"table_bytes\": {},\n  \"index_bytes\": {},\n  \"partitions\": [\n{}\n  ],\n  \
             \"totals\": {{{}}}\n}}\n",
            h.num_vertices(),
            h.num_edges(),
            h.num_labels(),
            s.max_arity,
            s.num_partitions,
            s.max_degree,
            h.table_size_bytes(),
            total_index_bytes,
            parts.join(",\n"),
            body_json(&total, total_index_bytes),
        );
        return Ok(out);
    }

    let _ = writeln!(out, "dataset\t|V|\t|E|\t|Sigma|\tamax\ta\tgraph\tindex");
    let _ = writeln!(out, "{}", s.table_row("-"));
    let _ = writeln!(out, "partitions: {}", s.num_partitions);
    let _ = writeln!(out, "max degree: {}", s.max_degree);
    let _ = writeln!(out, "index memory by representation (keys/postings/bytes):");
    let _ = writeln!(out, "part\trows\tlist\tbitmap\tindex_bytes\tB/posting");
    let row = |out: &mut String,
               tag: String,
               rows: usize,
               b: &hgmatch_hypergraph::ReprBreakdown,
               bytes: usize| {
        let _ = writeln!(
            out,
            "{tag}\t{rows}\t{}/{}/{}\t{}/{}/{}\t{bytes}\t{:.2}",
            b.list_keys,
            b.list_postings,
            b.list_bytes,
            b.bitmap_keys,
            b.bitmap_postings,
            b.bitmap_bytes,
            per_posting(bytes, b.total_postings()),
        );
    };
    for (sid, rows, b, bytes) in &breakdowns {
        row(&mut out, sid.to_string(), *rows, b, *bytes);
    }
    row(
        &mut out,
        "total".into(),
        h.num_edges(),
        &total,
        total_index_bytes,
    );
    Ok(out)
}

fn do_match(args: &[String]) -> Result<(), String> {
    if args.len() < 4 {
        return Err("match needs data and query label/edge files".into());
    }
    let data = load(&args[0], &args[1])?;
    let query = load(&args[2], &args[3])?;

    let mut config = MatchConfig::default();
    let mut print_limit: Option<usize> = None;
    let mut i = 4;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                config.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--timeout" => {
                i += 1;
                config.timeout = Some(parse_timeout(args.get(i))?);
            }
            "--print" => {
                if let Some(limit) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    i += 1;
                    print_limit = Some(limit);
                } else {
                    print_limit = Some(20);
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let matcher = Matcher::with_config(&data, config);
    if let Some(limit) = print_limit {
        let all = matcher.find_all(&query).map_err(|e| e.to_string())?;
        println!("embeddings: {}", all.len());
        for m in all.iter().take(limit) {
            println!("  {m}");
        }
        if all.len() > limit {
            println!("  … {} more", all.len() - limit);
        }
    } else {
        let (count, stats) = matcher
            .count_with_stats(&query)
            .map_err(|e| e.to_string())?;
        println!("embeddings: {count}");
        println!("elapsed: {:.6}s", stats.elapsed.as_secs_f64());
        if stats.timed_out {
            println!("TIMED OUT (count is a lower bound)");
        }
        let m = stats.metrics;
        println!(
            "scan: {}, candidates: {}, filtered: {}, validated: {}",
            m.scan_rows, m.candidates, m.filtered, m.validated
        );
    }
    Ok(())
}

/// Parses a `--timeout` operand into a [`Duration`], rejecting negative,
/// non-finite and out-of-range values as errors instead of panics.
fn parse_timeout(value: Option<&String>) -> Result<Duration, String> {
    let secs: f64 = value
        .and_then(|s| s.parse().ok())
        .ok_or("--timeout needs seconds")?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "--timeout must be a non-negative number, got {secs}"
        ));
    }
    Duration::try_from_secs_f64(secs).map_err(|e| format!("--timeout {secs}: {e}"))
}

/// Parses a `--agg` operand:
/// `count | materialize | topk:K[:SCORE] | sample:BUDGET[:SEED]`.
/// The colon grammar keeps the mode one shell word — no sub-flags to
/// misplace — and mirrors the HTTP front door's `aggregate` object
/// (DESIGN.md §18.2).
fn parse_agg(value: Option<&String>) -> Result<AggregateMode, String> {
    let spec = value.ok_or("--agg needs a mode")?;
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or("");
    let mode = match head {
        "count" | "count_only" => AggregateMode::CountOnly,
        "materialize" => AggregateMode::Materialize,
        "topk" | "top_k" => {
            let k: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("--agg topk:K needs a positive K")?;
            if k == 0 {
                return Err("--agg topk:K needs a positive K".into());
            }
            let score = match parts.next() {
                None => ScoreFn::EdgeIdSum,
                Some(name) => ScoreFn::parse(name)
                    .ok_or_else(|| format!("--agg topk: unknown score {name:?}"))?,
            };
            AggregateMode::TopK { k, score }
        }
        "sample" | "sampled" => {
            let budget: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("--agg sample:BUDGET needs a positive budget")?;
            if budget == 0 {
                return Err("--agg sample:BUDGET needs a positive budget".into());
            }
            let seed: u64 = match parts.next() {
                None => 0,
                Some(s) => s
                    .parse()
                    .map_err(|_| "--agg sample seed must be an integer")?,
            };
            AggregateMode::Sampled { budget, seed }
        }
        other => return Err(format!("--agg: unknown mode {other:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("--agg: trailing fields in {spec:?}"));
    }
    Ok(mode)
}

/// Parsed flags of the `serve` subcommand.
struct ServeCliOptions {
    config: ServeConfig,
    per_query: QueryOptions,
    input: Option<String>,
}

impl ServeCliOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut config = ServeConfig::default();
        let mut per_query = QueryOptions::count();
        let mut input = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => {
                    i += 1;
                    config.threads = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a number")?;
                }
                "--timeout" => {
                    i += 1;
                    per_query.timeout = Some(parse_timeout(args.get(i))?);
                }
                "--max-results" => {
                    i += 1;
                    per_query.max_results = Some(
                        args.get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or("--max-results needs a number")?,
                    );
                }
                "--agg" => {
                    i += 1;
                    per_query.aggregate = Some(parse_agg(args.get(i))?);
                }
                "--quantum" => {
                    i += 1;
                    config.fairness_quantum = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--quantum needs a number")?;
                }
                "--plan-cache" => {
                    i += 1;
                    config.plan_cache_capacity = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--plan-cache needs a number")?;
                }
                "--input" => {
                    i += 1;
                    input = Some(args.get(i).ok_or("--input needs a path")?.clone());
                }
                other => return Err(format!("unknown serve flag {other:?}")),
            }
            i += 1;
        }
        Ok(Self {
            config,
            per_query,
            input,
        })
    }
}

/// Parses one query-spec line (`<qlabels> <qedges>`) into a loaded query.
fn parse_query_spec(line: &str) -> Result<Option<hgmatch_hypergraph::Hypergraph>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let (Some(labels), Some(edges), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!(
            "query spec must be `<qlabels> <qedges>`, got {trimmed:?}"
        ));
    };
    let query = load(labels, edges)?;
    // Shape validation at the edge (shared with the HTTP front door): an
    // empty or over-long query gets a line-numbered diagnostic here, not a
    // submission failure tagged only with a synthetic query name.
    hgmatch_core::validate_query_shape(&query).map_err(|e| e.to_string())?;
    Ok(Some(query))
}

/// Locks a std mutex, ignoring poisoning (worker panics already abort).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn print_outcome(name: &str, outcome: &hgmatch_core::QueryOutcome) {
    let mut agg = format!("agg={}", outcome.aggregate.mode_name());
    match &outcome.aggregate {
        AggregateSummary::TopK { k, score, scores } => {
            let best: Vec<String> = scores.iter().map(|s| s.to_string()).collect();
            agg.push_str(&format!(
                ":{k}:{} scores=[{}]",
                score.name(),
                best.join(","),
            ));
        }
        AggregateSummary::Sampled {
            budget,
            seed,
            sampled,
            fraction,
            ci95,
        } => {
            agg.push_str(&format!(
                ":{budget}:{seed} sampled={sampled} fraction={fraction:.4} ci95={ci95:.4}"
            ));
        }
        AggregateSummary::Materialized | AggregateSummary::Count => {}
    }
    println!(
        "{name}\t{status}\tembeddings={count}\telapsed={secs:.6}s\tqueue={queued:.6}s\texec={exec:.6}s\tplan_cached={cached}\t{agg}",
        status = outcome.status,
        count = outcome.count,
        secs = outcome.elapsed.as_secs_f64(),
        queued = outcome.queue_wait.as_secs_f64(),
        exec = outcome.execution.as_secs_f64(),
        cached = if outcome.plan_cached { "yes" } else { "no" },
    );
}

fn print_aggregate(server: &MatchServer, served: usize, wall: Duration) {
    let stats = server.stats();
    let secs = wall.as_secs_f64();
    println!(
        "served {served} queries in {secs:.4}s ({:.1} q/s) on {} workers",
        served as f64 / secs.max(1e-9),
        server.threads(),
    );
    println!(
        "plan cache: {} hits / {} misses; tasks: {}, steals: {}, splits: {}, assists: {}, timed out: {}, limit: {}",
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.tasks_executed,
        stats.steals,
        stats.splits,
        stats.assists,
        stats.timed_out,
        stats.limit_reached,
    );
    println!(
        "results: {} found, {} materialized (modes: materialize={}, count={}, topk={}, sampled={})",
        stats.results_found,
        stats.results_materialized,
        stats.queries_materialize,
        stats.queries_count_only,
        stats.queries_top_k,
        stats.queries_sampled,
    );
    println!(
        "latency split: queue-wait {:.4}s total, execution {:.4}s total",
        stats.queue_wait_total.as_secs_f64(),
        stats.execution_total.as_secs_f64(),
    );
}

/// `serve`: read query specs from stdin (or `--input FILE`), submit each
/// as it arrives, and stream outcomes in completion order.
fn do_serve(args: &[String]) -> Result<(), String> {
    if args.len() < 2 {
        return Err("serve needs <labels> <edges>".into());
    }
    let data = std::sync::Arc::new(load(&args[0], &args[1])?);
    let options = ServeCliOptions::parse(&args[2..])?;

    let server = MatchServer::new(data, options.config);
    let begin = Instant::now();
    // A background drainer prints outcomes the moment they finish, even
    // while the reader thread is blocked waiting for the next input line
    // (completion-order streaming). Shared state: the pending handles and
    // a served counter; the reader signals completion via `input_done`.
    let pending: Mutex<Vec<(String, QueryHandle)>> = Mutex::new(Vec::new());
    let served = std::sync::atomic::AtomicUsize::new(0);
    let input_done = std::sync::atomic::AtomicBool::new(false);
    let read_error: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let submit_line = |line: &str, lineno: usize| -> Result<(), String> {
                match parse_query_spec(line) {
                    Ok(None) => Ok(()),
                    Ok(Some(query)) => {
                        let name = format!("q{lineno}");
                        let handle = server
                            .submit(&query, options.per_query.clone())
                            .map_err(|e| format!("{name}: {e}"))?;
                        lock(&pending).push((name, handle));
                        Ok(())
                    }
                    Err(e) => Err(format!("line {lineno}: {e}")),
                }
            };
            let result = if let Some(path) = &options.input {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))
                    .and_then(|content| {
                        content
                            .lines()
                            .enumerate()
                            .try_for_each(|(i, line)| submit_line(line, i + 1))
                    })
            } else {
                let stdin = std::io::stdin();
                stdin.lock().lines().enumerate().try_for_each(|(i, line)| {
                    line.map_err(|e| format!("reading stdin: {e}"))
                        .and_then(|line| submit_line(&line, i + 1))
                })
            };
            if let Err(e) = result {
                *lock(&read_error) = Some(e);
            }
            input_done.store(true, std::sync::atomic::Ordering::Release);
        });

        // Drainer: poll pending handles until input is exhausted and
        // everything submitted has been reported. Finished handles are
        // moved out under the lock and printed after it drops, so stdout
        // back-pressure never blocks the reader's next submission.
        loop {
            // Read the done flag *before* scanning: a handle pushed after
            // the scan but before a later flag-read would otherwise be
            // dropped. With this order, done=true means every submission
            // already preceded the scan.
            let done = input_done.load(std::sync::atomic::Ordering::Acquire);
            let mut guard = lock(&pending);
            let mut finished = Vec::new();
            let mut i = 0;
            while i < guard.len() {
                if guard[i].1.is_finished() {
                    finished.push(guard.remove(i));
                } else {
                    i += 1;
                }
            }
            let empty = guard.is_empty();
            drop(guard);
            for (name, handle) in finished {
                print_outcome(&name, &handle.wait());
                served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            if empty && done {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    if let Some(e) = read_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    print_aggregate(
        &server,
        served.load(std::sync::atomic::Ordering::Relaxed),
        begin.elapsed(),
    );
    Ok(())
}

/// Parsed flags of the `update` subcommand.
struct UpdateCliOptions {
    batch: Option<usize>,
    queries: Option<String>,
    threads: usize,
    save: Option<String>,
}

impl UpdateCliOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = Self {
            batch: None,
            queries: None,
            threads: 4,
            save: None,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--batch" => {
                    i += 1;
                    options.batch = Some(
                        args.get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|&n: &usize| n > 0)
                            .ok_or("--batch needs a positive number")?,
                    );
                }
                "--queries" => {
                    i += 1;
                    options.queries = Some(args.get(i).ok_or("--queries needs a path")?.clone());
                }
                "--threads" => {
                    i += 1;
                    options.threads = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a number")?;
                }
                "--save" => {
                    i += 1;
                    options.save = Some(args.get(i).ok_or("--save needs a snapshot path")?.clone());
                }
                other => return Err(format!("unknown update flag {other:?}")),
            }
            i += 1;
        }
        Ok(options)
    }
}

/// `listen`: start the HTTP front door on a resident pool and block
/// until stdin closes (or sends `quit`), then drain gracefully. Reading
/// stdin — rather than a signal — keeps shutdown drivable from CI and
/// scripts: closing the pipe is the drain request.
fn do_listen(args: &[String]) -> Result<(), String> {
    // Data source: either the classic text pair, or `--snapshot FILE`
    // restoring an HGMB snapshot (rows included; the index is rebuilt on
    // load, which skips the text parse on the serve path's cold start).
    let (data, flags) = if args.first().map(String::as_str) == Some("--snapshot") {
        let path = args.get(1).ok_or("--snapshot needs a file")?;
        let graph = io::load_snapshot(Path::new(path))
            .map_err(|e| format!("loading snapshot {path}: {e}"))?;
        (std::sync::Arc::new(graph), &args[2..])
    } else {
        if args.len() < 2 {
            return Err("listen needs <labels> <edges> or --snapshot <file>".into());
        }
        (std::sync::Arc::new(load(&args[0], &args[1])?), &args[2..])
    };
    let mut config = hgmatch_server::FrontDoorConfig::from_env();

    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--addr" => {
                i += 1;
                config.addr = flags.get(i).ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--threads" => {
                i += 1;
                let n: usize = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a number")?;
                config.serve.threads = n.max(1);
                config.queue_depth = config.queue_depth.max(n * 4);
            }
            "--http-threads" => {
                i += 1;
                config.http_threads = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--http-threads needs a number")?;
            }
            "--queue-depth" => {
                i += 1;
                config.queue_depth = flags
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or("--queue-depth needs a number")?
                    .max(1);
            }
            "--tenant-qps" => {
                i += 1;
                config.tenant_qps = flags
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or("--tenant-qps needs a number")?
                    .max(0.0);
            }
            "--admit-cost" => {
                i += 1;
                config.admit_cost = flags
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or("--admit-cost needs a number")?;
            }
            "--timeout" => {
                i += 1;
                let secs: f64 = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--timeout needs seconds")?;
                config.serve.default_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--quantum" => {
                i += 1;
                config.serve.fairness_quantum = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--quantum needs a number")?;
            }
            "--plan-cache" => {
                i += 1;
                config.serve.plan_cache_capacity = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--plan-cache needs a number")?;
            }
            other => return Err(format!("unknown listen flag {other:?}")),
        }
        i += 1;
    }

    let addr = config.addr.clone();
    let door = hgmatch_server::FrontDoor::bind(data, config)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("listening on http://{}", door.local_addr());
    println!("POST /match, GET /metrics, GET /healthz; stdin EOF or `quit` drains");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let stats = door.shutdown();
    println!(
        "drained: {} admitted, {} completed, {} limit, {} timed out, {} cancelled, {} failed",
        stats.admitted,
        stats.completed,
        stats.limit_reached,
        stats.timed_out,
        stats.cancelled,
        stats.failed,
    );
    println!(
        "venue: {} ran on the handler thread (caller-first), {} of them spilled to the pool",
        stats.ran_inline, stats.spilled,
    );
    println!(
        "latency split: queue-wait {:.4}s total, execution {:.4}s total",
        stats.queue_wait_total.as_secs_f64(),
        stats.execution_total.as_secs_f64(),
    );
    Ok(())
}

/// `update`: apply an insert/delete stream to a dynamic graph, one
/// snapshot epoch per batch, optionally re-answering a standing query
/// list after every epoch.
fn do_update(args: &[String]) -> Result<(), String> {
    use hgmatch_hypergraph::dynamic::parse_update_stream;
    use hgmatch_hypergraph::{DynamicHypergraph, UpdateOp};

    if args.len() < 3 {
        return Err("update needs <labels> <edges> <stream.txt>".into());
    }
    let base = load(&args[0], &args[1])?;
    let stream_text = std::fs::read_to_string(&args[2])
        .map_err(|e| format!("reading stream {}: {e}", args[2]))?;
    let ops = parse_update_stream(&stream_text).map_err(|e| format!("stream: {e}"))?;
    if ops.is_empty() {
        return Err("update stream is empty".into());
    }
    let options = UpdateCliOptions::parse(&args[3..])?;

    let mut queries: Vec<(String, hgmatch_hypergraph::Hypergraph)> = Vec::new();
    if let Some(path) = &options.queries {
        let list = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        for (lineno, line) in list.lines().enumerate() {
            if let Some(q) =
                parse_query_spec(line).map_err(|e| format!("line {}: {e}", lineno + 1))?
            {
                queries.push((format!("q{}", lineno + 1), q));
            }
        }
    }

    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    let mut graph = dynamic.snapshot().graph;
    let server = (!queries.is_empty()).then(|| {
        MatchServer::new(
            std::sync::Arc::clone(&graph),
            ServeConfig::default().with_threads(options.threads),
        )
    });
    let serve_begin = Instant::now();
    let mut served = 0usize;
    if let Some(server) = &server {
        for (name, query) in &queries {
            let outcome = server
                .run(query, QueryOptions::count())
                .map_err(|e| format!("{name}: {e}"))?;
            println!("epoch 0\t{name}\tembeddings={}", outcome.count);
            served += 1;
        }
    }

    let batch_size = options.batch.unwrap_or(ops.len());
    let begin = Instant::now();
    let mut applied = 0usize;
    let mut inserts = 0usize;
    let mut deletes = 0usize;
    let mut vertex_adds = 0usize;
    let mut noops = 0usize;
    let mut snapshot_time = Duration::ZERO;
    for (round, chunk) in ops.chunks(batch_size).enumerate() {
        for op in chunk {
            let effective = dynamic.apply(op).map_err(|e| format!("op {op:?}: {e}"))?;
            applied += 1;
            match (op, effective) {
                (_, false) => noops += 1,
                (UpdateOp::Delete(_), true) => deletes += 1,
                (UpdateOp::AddVertex(_), true) => vertex_adds += 1,
                (UpdateOp::Insert(_), true) => inserts += 1,
            }
        }
        let snap_begin = Instant::now();
        let delta = dynamic.snapshot();
        let snap_elapsed = snap_begin.elapsed();
        snapshot_time += snap_elapsed;
        let epoch = round + 1;
        println!(
            "epoch {epoch}: applied {} ops (graph: {} edges), \
             snapshot {:.3} ms ({} partitions frozen, {} shared)",
            chunk.len(),
            delta.graph.num_edges(),
            snap_elapsed.as_secs_f64() * 1e3,
            delta.partitions_frozen,
            delta.partitions_shared,
        );
        if let Some(server) = &server {
            server.update_data(std::sync::Arc::clone(&delta.graph), &[], false);
            for (name, query) in &queries {
                let outcome = server
                    .run(query, QueryOptions::count())
                    .map_err(|e| format!("{name}: {e}"))?;
                println!(
                    "epoch {epoch}\t{name}\tembeddings={}\tplan_cached={}",
                    outcome.count,
                    if outcome.plan_cached { "yes" } else { "no" },
                );
                served += 1;
            }
        }
        graph = delta.graph;
    }

    let secs = begin.elapsed().as_secs_f64();
    println!(
        "applied {applied} ops ({inserts} edge inserts, {deletes} deletes, {vertex_adds} \
         vertex adds, {noops} no-ops) in {secs:.4}s ({:.0} ops/s), snapshots took {:.4}s",
        applied as f64 / secs.max(1e-9),
        snapshot_time.as_secs_f64(),
    );
    let stats = graph.stats();
    println!("final graph:\t|V|\t|E|\t|Sigma|\tamax");
    println!(
        "\t{}\t{}\t{}\t{}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels(),
        stats.max_arity
    );
    if let Some(server) = &server {
        // `served` counts every run: the epoch-0 baseline plus one
        // re-answer per query per epoch.
        print_aggregate(server, served, serve_begin.elapsed());
    }
    if let Some(path) = &options.save {
        io::save_snapshot(&graph, Path::new(path)).map_err(|e| e.to_string())?;
        println!("saved snapshot to {path}");
    }
    Ok(())
}

/// `snapshot save|load`: persist a graph as a checksummed HGMB snapshot,
/// or restore one and print its stats — the restore path checks the
/// stored rows and rebuilds each index from them.
fn do_snapshot(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("save") => {
            let [_, labels, edges, out] = args else {
                return Err("snapshot save needs <labels> <edges> <out.hgsnap>".into());
            };
            let build_begin = Instant::now();
            let graph = load(labels, edges)?;
            let build = build_begin.elapsed();
            let save_begin = Instant::now();
            io::save_snapshot(&graph, Path::new(out)).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
            println!(
                "saved {out}: {bytes} bytes ({} vertices, {} edges); \
                 build {:.4}s, encode+write {:.4}s",
                graph.num_vertices(),
                graph.num_edges(),
                build.as_secs_f64(),
                save_begin.elapsed().as_secs_f64(),
            );
            Ok(())
        }
        Some("load") => {
            let [_, file] = args else {
                return Err("snapshot load needs <file.hgsnap>".into());
            };
            let begin = Instant::now();
            let graph =
                io::load_snapshot(Path::new(file)).map_err(|e| format!("loading {file}: {e}"))?;
            let restore = begin.elapsed();
            println!(
                "restored {file} in {:.4}s (index rebuilt from rows)",
                restore.as_secs_f64()
            );
            let stats = graph.stats();
            let index_bytes = graph.index_size_bytes();
            println!("|V|\t|E|\t|Sigma|\tamax\tpartitions\tindex_bytes");
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}",
                graph.num_vertices(),
                graph.num_edges(),
                graph.num_labels(),
                stats.max_arity,
                graph.partitions().len(),
                index_bytes,
            );
            Ok(())
        }
        _ => Err("snapshot needs a subcommand: save | load".into()),
    }
}

/// `gen-stream`: emit a random insert/delete stream for a dataset.
fn do_gen_stream(args: &[String]) -> Result<(), String> {
    let [labels, edges, ops, ratio, seed, out] = args else {
        return Err(
            "gen-stream needs <labels> <edges> <ops> <insert-ratio> <seed> <out.txt>".into(),
        );
    };
    let base = load(labels, edges)?;
    let ops: usize = ops.parse().map_err(|_| "ops must be an integer")?;
    let insert_ratio: f64 = ratio.parse().map_err(|_| "insert-ratio must be a number")?;
    if !(0.0..=1.0).contains(&insert_ratio) {
        return Err(format!(
            "insert-ratio must be in [0, 1], got {insert_ratio}"
        ));
    }
    let seed: u64 = seed.parse().map_err(|_| "seed must be an integer")?;
    // The generator draws hyperedges of arity ≥ 2 over the base graph's
    // vertex universe (and asserts on degenerate inputs): reject those as
    // CLI errors like every other subcommand does.
    if base.num_vertices() < 2 {
        return Err(format!(
            "gen-stream needs a base graph with at least 2 vertices, got {}",
            base.num_vertices()
        ));
    }
    let stream = hgmatch_datasets::generate_update_stream(
        &base,
        &hgmatch_datasets::UpdateStreamConfig {
            ops,
            insert_ratio,
            seed,
            ..Default::default()
        },
    );
    let inserts = stream
        .iter()
        .filter(|op| matches!(op, hgmatch_hypergraph::UpdateOp::Insert(_)))
        .count();
    std::fs::write(
        out,
        hgmatch_hypergraph::dynamic::write_update_stream(&stream),
    )
    .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} ops ({inserts} inserts, {} deletes) to {out}",
        stream.len(),
        stream.len() - inserts
    );
    Ok(())
}

fn explain(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut observed = false;
    let mut files: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--observed" => observed = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown explain flag {other:?}"))
            }
            _ => files.push(arg),
        }
    }
    if json && observed {
        return Err("--json and --observed are mutually exclusive".into());
    }
    let [labels, edges, qlabels, qedges] = files.as_slice() else {
        return Err("explain needs data and query label/edge files [--json|--observed]".into());
    };
    if observed {
        print!(
            "{}",
            explain_observed_report(labels, edges, qlabels, qedges)?
        );
    } else {
        print!("{}", explain_report(labels, edges, qlabels, qedges, json)?);
    }
    Ok(())
}

/// Builds the full `explain` output for the given data/query files —
/// the cost-based plan's order and per-step estimates next to the greedy
/// baseline, plus the compiled dataflow (text mode only). Deterministic
/// (stable field order, fixed float precision), so CI golden-files it.
pub fn explain_report(
    labels: &str,
    edges: &str,
    qlabels: &str,
    qedges: &str,
    json: bool,
) -> Result<String, String> {
    use hgmatch_core::{Explain, Planner, QueryGraph};
    use std::fmt::Write as _;
    let data = load(labels, edges)?;
    let query = load(qlabels, qedges)?;
    let q = QueryGraph::new(&query).map_err(|e| e.to_string())?;
    let explain = Explain::new(&q, &data);
    if json {
        return Ok(explain.json());
    }
    // Compile the order the report already chose — one planning pass, and
    // the dataflow is guaranteed consistent with the cost tables below.
    let plan = Planner::plan_with_order(&q, &data, explain.chosen.order.clone())
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "matching order (query hyperedges): {:?}", plan.order());
    // The plan is the Fig. 5a dataflow: the first step scans, the rest expand.
    for (i, step) in plan.steps().iter().enumerate() {
        let card = step.partition.map_or(0, |p| data.partition(p).len());
        let (e, anchors) = (step.query_edge, step.anchors.len());
        let _ = if i == 0 {
            writeln!(out, "SCAN(q{e}) [card={card}]")
        } else {
            writeln!(out, "EXPAND(q{e}) [anchors={anchors}, card={card}]")
        };
    }
    out.push_str("SINK\n");
    out.push_str(&explain.text());
    Ok(out)
}

/// Builds the `explain --observed` report: compiles the chosen order,
/// executes it once on a single thread (the sequential reference
/// executor, so the recorded counts belong to exactly this order), and
/// emits deterministic JSON pairing the planner's per-position estimate
/// with the observed candidate count. `ratio` is
/// `observed / max(estimated, 1)`: a diagnostic of where the cost model
/// misjudged this query, not a trigger — no run changes its order
/// mid-query (DESIGN.md §15).
pub fn explain_observed_report(
    labels: &str,
    edges: &str,
    qlabels: &str,
    qedges: &str,
) -> Result<String, String> {
    use hgmatch_core::{CountSink, Explain, Planner, QueryGraph};
    let data = load(labels, edges)?;
    let query = load(qlabels, qedges)?;
    let q = QueryGraph::new(&query).map_err(|e| e.to_string())?;
    let explain = Explain::new(&q, &data);
    let plan = Planner::plan_with_order(&q, &data, explain.chosen.order.clone())
        .map_err(|e| e.to_string())?;
    let sink = CountSink::new();
    let stats = Matcher::new(&data).run_plan(&plan, &sink);
    let m = &stats.metrics;
    let steps: Vec<String> = (0..plan.len())
        .map(|pos| {
            let est = plan.est_candidates()[pos];
            let observed = m.steps.candidates().get(pos).copied().unwrap_or(0);
            let partials = m.steps.partials().get(pos).copied().unwrap_or(0);
            format!(
                "{{\"position\": {pos}, \"query_edge\": {}, \"estimated\": {}, \"observed\": {observed}, \"partials\": {partials}, \"ratio\": {}}}",
                plan.order()[pos],
                fmt4(est),
                fmt4(observed as f64 / est.max(1.0))
            )
        })
        .collect();
    // `materialized` counts embeddings actually handed to the sink as
    // vectors (0 here: the observed run counts, it does not collect) —
    // the same found-vs-materialized split `/metrics` exports
    // (DESIGN.md §18.3).
    Ok(format!(
        "{{\n  \"order\": {:?},\n  \"embeddings\": {},\n  \"materialized\": {},\n  \"steps\": [{}]\n}}\n",
        plan.order(),
        m.embeddings,
        m.materialized,
        steps.join(", ")
    ))
}

/// Fixed-precision float rendering for the observed report — mirrors the
/// core `Explain` formatting: `{:.4}` is exact for integers and stable
/// across platforms.
fn fmt4(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        format!("{:.4e}", f64::MAX)
    }
}

fn do_sample(args: &[String]) -> Result<(), String> {
    let [labels, edges, setting_name, seed, out_labels, out_edges] = args else {
        return Err("sample-query needs 6 arguments".into());
    };
    let data = load(labels, edges)?;
    let setting = standard_settings()
        .into_iter()
        .find(|s| s.name == setting_name.as_str())
        .ok_or_else(|| format!("unknown setting {setting_name:?} (q2/q3/q4/q6)"))?;
    let seed: u64 = seed.parse().map_err(|_| "seed must be an integer")?;
    let query = sample_query(&data, &setting, seed)
        .ok_or("could not sample a query with this setting/seed")?;
    io::save_text(&query, Path::new(out_labels), Path::new(out_edges))
        .map_err(|e| e.to_string())?;
    println!(
        "sampled {}: |V(q)| = {}, |E(q)| = {}",
        setting.name,
        query.num_vertices(),
        query.num_edges()
    );
    Ok(())
}
