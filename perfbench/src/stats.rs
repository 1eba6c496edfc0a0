//! Small numeric helpers: medians, percentile tails, seeded draws.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank `q` quantile of `values` (the rank rule of the server's
/// latency summary).
///
/// The per-call throughputs and pass times of a run are reported at the
/// quartile on the slow side, not the median. On a 2-vCPU virtual
/// machine the common state is a host with busy neighbours; spells of a
/// minute or more in which it runs 30-60% faster come and go, and over
/// ten runs they moved the median about 1.5 times as much as the slow
/// quartile. A change to the program moves both alike.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `values` in run order, `digits` decimals each, for a note line.
pub fn listing(values: &[f64], digits: usize) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    items.join(" ")
}

/// How many of `n` samples lie above the nearest-rank `q` percentile —
/// the rank rule of the server's latency summary.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// SplitMix64: derives independent, reproducible sub-seeds and draws.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sub-seed of phase `tag` within a run seeded `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    splitmix(seed ^ splitmix(tag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.75), 4.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1100, 0.99), 11);
    }

    #[test]
    fn sub_seeds_differ_per_tag() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
