//! The statistics a run reports. A workload is a fixed list of requests
//! replayed for many short passes; a throughput or a latency percentile is
//! computed within each pass, over all its requests, and the run reports
//! the first decile of those per-pass values.
//!
//! Why not the median over the passes: the host this runs on is a small
//! virtual machine whose neighbours slow it down for stretches of half a
//! second to minutes, by 10 % (arithmetic) to 50 % (memory-bound work), so
//! the per-pass values of one run fall into two clusters, and how many
//! fall into the slow one differs from run to run — from a fifth to nine
//! tenths within one hour. A median over them jumps from one cluster to
//! the other when that share crosses a half (measured: 31 % between the
//! quartiles of ten runs, where the first decile had 6 %). The neighbours
//! only ever add time, so the passes least disturbed say most about the
//! program; what the program itself does — a stall, a lock convoy, a plan
//! miss — is inside every pass's own percentile and throughput and stays
//! in the number. Only what hits fewer than nine passes in ten as a whole
//! is left out.

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values; 0 if empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() - 1 - samples_beyond(v.len(), p).min(v.len() - 1)]
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).min(n)
}

/// The first decile (nearest rank) of per-pass values where lower is
/// better — seconds, never rates: the smallest of up to 10 values, the
/// second smallest of 11 to 20, and so on; 0 if empty. See the module text.
pub fn first_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(10) - 1]
}
