//! Small statistics helpers for experiment reports.

/// Median of a sample (average of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Percentile in `[0, 100]` by nearest-rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Geometric mean (values must be positive; zeros are clamped to avoid
/// collapsing the whole mean when a timing rounds to zero).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = values.iter().map(|&v| v.max(1e-12).ln()).sum();
    (sum / values.len() as f64).exp()
}

/// The revision of the checkout the binary runs in, for the record only
/// (`"unknown"` outside a git checkout). It ends in `-dirty` when tracked
/// files differ from that revision: the reading then belongs to no commit
/// yet, not to the one named.
pub fn git_sha() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let Some(sha) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|changes| !changes.trim().is_empty());
    sha_label(sha.trim(), dirty)
}

/// `sha`, marked `-dirty` if the tracked files differ from it.
fn sha_label(sha: &str, dirty: bool) -> String {
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha.to_string()
    }
}

/// CPUs this process may run on, for the record of the host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_bounds() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn sha_marks_a_dirty_tree() {
        assert_eq!(sha_label("8eb2a4d", false), "8eb2a4d");
        assert_eq!(sha_label("8eb2a4d", true), "8eb2a4d-dirty");
    }

    #[test]
    fn geomean() {
        let g = geometric_mean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geometric_mean(&[]).is_nan());
        // Zero does not collapse the mean to zero.
        assert!(geometric_mean(&[0.0, 100.0]) > 0.0);
    }
}
