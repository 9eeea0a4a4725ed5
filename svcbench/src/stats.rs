//! Order statistics used by every reported number.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `ceil(p * n)` samples at or below it. `p` is a fraction in
/// `0.0..=1.0`; an empty slice reads `NaN`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending with `f64::total_cmp`, so `INFINITY` (a failed
/// request's latency) sorts last.
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Median of `values` (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Cuts `values` (in time order) into `windows` consecutive equal runs
/// (the last takes the remainder) and returns each run's `p` percentile.
pub fn window_percentiles(values: &[f64], windows: u32, p: f64) -> Vec<f64> {
    let windows = (windows as usize).clamp(1, values.len().max(1));
    let size = values.len() / windows;
    (0..windows)
        .map(|k| {
            let end = if k + 1 == windows {
                values.len()
            } else {
                (k + 1) * size
            };
            let mut w = values[k * size..end].to_vec();
            sort(&mut w);
            percentile(&w, p)
        })
        .collect()
}

/// The median over [`window_percentiles`].
pub fn window_percentile(values: &[f64], windows: u32, p: f64) -> f64 {
    median(&window_percentiles(values, windows, p))
}

/// The windows to measure: those in which the hypervisor stole no CPU
/// (`steal[k]` is window `k`'s steal), if there are at least `keep`;
/// otherwise the `keep` windows with the least steal. In time order.
pub fn quietest(steal: &[u64], keep: usize) -> Vec<usize> {
    let keep = keep.clamp(1, steal.len().max(1));
    let quiet: Vec<usize> = (0..steal.len()).filter(|&k| steal[k] == 0).collect();
    if quiet.len() >= keep {
        return quiet;
    }
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by_key(|&k| (steal[k], k));
    by_steal.truncate(keep);
    by_steal.sort_unstable();
    by_steal
}

/// The median of `values[k]` over the windows `k` in `picked`.
pub fn median_of(values: &[f64], picked: &[usize]) -> f64 {
    median(&picked.iter().map(|&k| values[k]).collect::<Vec<_>>())
}

/// `sum(num[k]) / sum(den[k])` over the windows `k` in `picked`: a rate
/// pooled over those windows, so each counts by its weight in `den`.
pub fn pooled(num: &[f64], den: &[f64], picked: &[usize]) -> f64 {
    let (n, d) = picked
        .iter()
        .fold((0.0, 0.0), |(n, d), &k| (n + num[k], d + den[k]));
    n / d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The nearest-rank definition checked against an exact count over the
    /// unsorted samples, for many sizes, duplicates and percentiles.
    #[test]
    fn percentiles_match_an_exact_sort() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..200usize {
            let raw: Vec<f64> = (0..n).map(|_| rng.random_range(0..50u32) as f64).collect();
            let mut sorted = raw.clone();
            sort(&mut sorted);
            for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let v = percentile(&sorted, p);
                let want = ((p * n as f64).ceil() as usize).max(1);
                let at_or_below = raw.iter().filter(|&&x| x <= v).count();
                let below = raw.iter().filter(|&&x| x < v).count();
                assert!(at_or_below >= want && below < want, "n={n} p={p} v={v}");
            }
        }
    }

    #[test]
    fn failures_sort_last_and_dominate_the_tail() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        sort(&mut v);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), f64::INFINITY);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quietest_prefers_windows_without_steal() {
        assert_eq!(quietest(&[0, 3, 0, 0, 1, 0], 3), vec![0, 2, 3, 5]);
        // Too few quiet windows: the least-stolen ones, in time order.
        assert_eq!(quietest(&[5, 0, 2, 9, 1], 3), vec![1, 2, 4]);
        assert_eq!(quietest(&[], 3), Vec::<usize>::new());
        assert_eq!(median_of(&[10.0, 1.0, 30.0, 20.0], &[0, 2, 3]), 20.0);
        // 10 + 30 + 20 over 1 + 2 + 3, window 1 left out.
        let pooled_rate = pooled(&[10.0, 99.0, 30.0, 20.0], &[1.0, 1.0, 2.0, 3.0], &[0, 2, 3]);
        assert_eq!(pooled_rate, 10.0);
    }

    /// One window spoiled by a stall moves the per-window median only as
    /// far as the next window's value.
    #[test]
    fn window_percentile_is_the_median_over_windows() {
        let mut values: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        values[..100].iter_mut().for_each(|v| *v += 10_000.0);
        assert_eq!(window_percentile(&values, 10, 0.99), 98.0);
        assert_eq!(window_percentile(&values, 1, 0.5), 55.0);
        assert_eq!(window_percentile(&[7.0], 10, 0.99), 7.0);
    }
}
