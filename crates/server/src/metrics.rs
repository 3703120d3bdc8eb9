//! Prometheus text-format rendering of the serving counters.
//!
//! The output format is a stability contract: dashboards and the CI
//! golden test parse it. Families are emitted in a fixed order, labels
//! in deterministic (sorted) order, durations as seconds with six
//! decimals. Add new families at the end of their section rather than
//! reordering.

use crate::tenant::TenantCounters;
use hgmatch_core::serve::{ServeStats, WorkerServeStats};
use std::fmt::Write as _;
use std::time::Duration;

/// Front-door counter snapshot rendered alongside the engine stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DoorSnapshot {
    /// HTTP requests parsed (any path, any outcome).
    pub http_requests: u64,
    /// Responses by status code, ascending code order.
    pub responses: Vec<(u16, u64)>,
    /// Requests shed because the submission queue was full.
    pub shed_queue_full: u64,
    /// Requests shed by a tenant quota.
    pub shed_quota: u64,
    /// Requests shed by cost-based admission control.
    pub shed_cost: u64,
    /// Connections accepted from the listener.
    pub connections_accepted: u64,
    /// Connections turned away because the accept backlog was full.
    pub connections_rejected: u64,
    /// Match requests currently queued or executing.
    pub in_flight: u64,
}

fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, "counter", help);
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, "gauge", help);
    let _ = writeln!(out, "{name} {value}");
}

/// Renders the full scrape document.
pub fn render(
    stats: &ServeStats,
    workers: &[WorkerServeStats],
    door: &DoorSnapshot,
    tenants: &[TenantCounters],
) -> String {
    let mut out = String::with_capacity(4096);

    // Engine: query lifecycle.
    counter(
        &mut out,
        "hgmatch_queries_admitted_total",
        "Queries admitted to the match engine.",
        stats.admitted,
    );
    counter(
        &mut out,
        "hgmatch_queries_completed_total",
        "Queries that exhausted their search space.",
        stats.completed,
    );
    counter(
        &mut out,
        "hgmatch_queries_limit_reached_total",
        "Queries stopped at their result limit.",
        stats.limit_reached,
    );
    counter(
        &mut out,
        "hgmatch_queries_timed_out_total",
        "Queries stopped by their wall-clock budget.",
        stats.timed_out,
    );
    counter(
        &mut out,
        "hgmatch_queries_cancelled_total",
        "Queries cancelled by their submitter or shutdown.",
        stats.cancelled,
    );
    gauge(
        &mut out,
        "hgmatch_queries_active",
        "Queries waiting for or running on the pool.",
        stats.active as u64,
    );
    counter(
        &mut out,
        "hgmatch_queries_failed_total",
        "Queries failed by a contained task panic.",
        stats.failed,
    );
    counter(
        &mut out,
        "hgmatch_queries_inline_total",
        "Queries started on the submitting thread (caller-first).",
        stats.ran_inline,
    );
    counter(
        &mut out,
        "hgmatch_queries_spilled_total",
        "Caller-first queries that handed their remaining work to the pool.",
        stats.spilled,
    );

    // Engine: scheduler.
    counter(
        &mut out,
        "hgmatch_tasks_spawned_total",
        "Scheduler tasks spawned across all queries.",
        stats.tasks_spawned,
    );
    counter(
        &mut out,
        "hgmatch_tasks_executed_total",
        "Scheduler tasks executed across all queries.",
        stats.tasks_executed,
    );
    counter(
        &mut out,
        "hgmatch_steals_total",
        "Successful inter-worker steals.",
        stats.steals,
    );
    counter(
        &mut out,
        "hgmatch_splits_total",
        "Expansions split for work assisting.",
        stats.splits,
    );
    counter(
        &mut out,
        "hgmatch_assists_total",
        "Assist tickets that claimed work.",
        stats.assists,
    );
    counter(
        &mut out,
        "hgmatch_tasks_panicked_total",
        "Task executions that panicked and were contained.",
        stats.tasks_panicked,
    );

    // Engine: plan cache and adaptivity.
    counter(
        &mut out,
        "hgmatch_plan_cache_hits_total",
        "Submissions that skipped planning via the plan cache.",
        stats.plan_cache_hits,
    );
    counter(
        &mut out,
        "hgmatch_plan_cache_misses_total",
        "Submissions that ran the planner.",
        stats.plan_cache_misses,
    );
    gauge(
        &mut out,
        "hgmatch_plan_cache_size",
        "Plans currently cached.",
        stats.plan_cache_size as u64,
    );
    counter(
        &mut out,
        "hgmatch_plans_invalidated_total",
        "Cached plans dropped by data updates.",
        stats.plans_invalidated,
    );
    counter(
        &mut out,
        "hgmatch_replans_midquery_total",
        "Suffix re-plans adopted mid-query.",
        stats.replans_midquery,
    );
    counter(
        &mut out,
        "hgmatch_estimate_corrections_total",
        "Corrected plans written back to the cache.",
        stats.estimate_corrections,
    );

    // Engine: latency split (the saturation signal).
    family(
        &mut out,
        "hgmatch_queue_wait_seconds_total",
        "counter",
        "Seconds finished queries spent waiting for first worker pickup.",
    );
    let _ = writeln!(
        out,
        "hgmatch_queue_wait_seconds_total {}",
        secs(stats.queue_wait_total)
    );
    family(
        &mut out,
        "hgmatch_execution_seconds_total",
        "counter",
        "Seconds finished queries spent executing after first pickup.",
    );
    let _ = writeln!(
        out,
        "hgmatch_execution_seconds_total {}",
        secs(stats.execution_total)
    );
    gauge(
        &mut out,
        "hgmatch_data_epoch",
        "Epoch of the published data snapshot.",
        stats.data_epoch,
    );

    // Engine: per-worker accounting.
    family(
        &mut out,
        "hgmatch_worker_busy_seconds_total",
        "counter",
        "Seconds each resident worker spent executing tasks.",
    );
    for (i, w) in workers.iter().enumerate() {
        let _ = writeln!(
            out,
            "hgmatch_worker_busy_seconds_total{{worker=\"{i}\"}} {}",
            secs(w.busy)
        );
    }
    family(
        &mut out,
        "hgmatch_worker_tasks_total",
        "counter",
        "Tasks each resident worker executed.",
    );
    for (i, w) in workers.iter().enumerate() {
        let _ = writeln!(
            out,
            "hgmatch_worker_tasks_total{{worker=\"{i}\"}} {}",
            w.tasks
        );
    }
    family(
        &mut out,
        "hgmatch_caller_busy_seconds_total",
        "counter",
        "Seconds submitting threads spent executing tasks (caller-first).",
    );
    let _ = writeln!(
        out,
        "hgmatch_caller_busy_seconds_total {}",
        secs(stats.caller_busy)
    );
    counter(
        &mut out,
        "hgmatch_caller_tasks_total",
        "Tasks executed on submitting threads.",
        stats.caller_tasks,
    );

    // Engine: result aggregation (DESIGN.md §18.5). found vs materialized
    // diverging is the zero-materialization modes working as intended.
    counter(
        &mut out,
        "hgmatch_results_found_total",
        "Embeddings found across finished queries (exact in every mode).",
        stats.results_found,
    );
    counter(
        &mut out,
        "hgmatch_results_materialized_total",
        "Embeddings actually materialised and handed to sinks.",
        stats.results_materialized,
    );
    family(
        &mut out,
        "hgmatch_queries_aggregate_total",
        "counter",
        "Finished queries by aggregation mode.",
    );
    for (mode, n) in [
        ("count_only", stats.queries_count_only),
        ("materialize", stats.queries_materialize),
        ("sampled", stats.queries_sampled),
        ("top_k", stats.queries_top_k),
    ] {
        let _ = writeln!(
            out,
            "hgmatch_queries_aggregate_total{{mode=\"{mode}\"}} {n}"
        );
    }

    // Front door: HTTP.
    counter(
        &mut out,
        "hgmatch_http_requests_total",
        "HTTP requests parsed.",
        door.http_requests,
    );
    family(
        &mut out,
        "hgmatch_http_responses_total",
        "counter",
        "HTTP responses by status code.",
    );
    for (code, n) in &door.responses {
        let _ = writeln!(out, "hgmatch_http_responses_total{{code=\"{code}\"}} {n}");
    }
    family(
        &mut out,
        "hgmatch_shed_total",
        "counter",
        "Match requests rejected with 429, by reason.",
    );
    let _ = writeln!(
        out,
        "hgmatch_shed_total{{reason=\"cost\"}} {}",
        door.shed_cost
    );
    let _ = writeln!(
        out,
        "hgmatch_shed_total{{reason=\"queue_full\"}} {}",
        door.shed_queue_full
    );
    let _ = writeln!(
        out,
        "hgmatch_shed_total{{reason=\"quota\"}} {}",
        door.shed_quota
    );
    counter(
        &mut out,
        "hgmatch_connections_accepted_total",
        "Connections accepted from the listener.",
        door.connections_accepted,
    );
    counter(
        &mut out,
        "hgmatch_connections_rejected_total",
        "Connections turned away by accept backpressure.",
        door.connections_rejected,
    );
    gauge(
        &mut out,
        "hgmatch_requests_in_flight",
        "Match requests currently queued or executing.",
        door.in_flight,
    );

    // Front door: per-tenant.
    family(
        &mut out,
        "hgmatch_tenant_admitted_total",
        "counter",
        "Requests admitted per tenant.",
    );
    for t in tenants {
        let _ = writeln!(
            out,
            "hgmatch_tenant_admitted_total{{tenant=\"{}\"}} {}",
            crate::json::escape(&t.tenant),
            t.admitted
        );
    }
    family(
        &mut out,
        "hgmatch_tenant_shed_total",
        "counter",
        "Requests shed per tenant.",
    );
    for t in tenants {
        let _ = writeln!(
            out,
            "hgmatch_tenant_shed_total{{tenant=\"{}\"}} {}",
            crate::json::escape(&t.tenant),
            t.shed
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let stats = ServeStats::default();
        let workers = [WorkerServeStats::default(); 2];
        let door = DoorSnapshot {
            responses: vec![(200, 3), (429, 1)],
            ..DoorSnapshot::default()
        };
        let tenants = [TenantCounters {
            tenant: "acme".into(),
            admitted: 3,
            shed: 1,
        }];
        let a = render(&stats, &workers, &door, &tenants);
        let b = render(&stats, &workers, &door, &tenants);
        assert_eq!(a, b);
        assert!(a.contains("hgmatch_http_responses_total{code=\"429\"} 1"));
        assert!(a.contains("hgmatch_tenant_admitted_total{tenant=\"acme\"} 3"));
        assert!(a.contains("hgmatch_worker_busy_seconds_total{worker=\"1\"} 0.000000"));
        // Every non-comment line is `name[{labels}] value`.
        for line in a.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap();
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
        }
    }
}
