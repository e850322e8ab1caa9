//! Order statistics and bound arithmetic shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `q` quantile (0 < q < 1) of an ascending-sorted slice, by the
/// nearest-rank rule, together with the number of samples strictly
/// beyond that rank.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The `q` quantile of `xs`, but only when at least ten samples lie
/// beyond it (choosing-metrics §1): a p99 of 500 samples rests on five
/// observations and is not reported.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (value, beyond) = nearest_rank(&v, q);
    (beyond >= 10).then_some(value)
}

/// The highest quantile not above `q` that `xs` supports: `q` itself
/// with ten samples beyond it, else the value that has exactly ten
/// beyond. A short smoke run so reports its p98 under the p99's name;
/// a full-length run always has the samples for `q`. `None` below 20
/// samples.
pub fn highest_supported(xs: &[f64], q: f64) -> Option<f64> {
    percentile(xs, q).or_else(|| {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        (v.len() >= 20).then(|| v[v.len() - 11])
    })
}

/// Parts a wall-clock run is cut into by the estimators below.
pub const WINDOWS: usize = 20;

/// The value a quarter of the way into `xs` from its better end: the
/// largest quarter's floor when `upper`, the smallest quarter's ceiling
/// otherwise (nearest rank).
fn quartile(xs: &[f64], upper: bool) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * 0.25).ceil() as usize;
    Some(if upper {
        v[v.len() - rank]
    } else {
        v[rank - 1]
    })
}

/// A wall-clock rate with the machine's slow spells taken out. On a
/// shared box interference only ever slows a stretch of the run down,
/// never speeds it up, so the undisturbed speed sits at the fast end of
/// the spread: `span_s` is cut into [`WINDOWS`] equal parts, each event
/// `(time, units)` is counted into the part its time falls in, and the
/// upper quartile of the parts' rates is returned.
pub fn undisturbed_rate(events: &[(f64, u64)], span_s: f64) -> Option<f64> {
    if span_s <= 0.0 {
        return None;
    }
    let mut units = [0u64; WINDOWS];
    for &(t, n) in events {
        let w = (t / span_s * WINDOWS as f64) as usize;
        if t >= 0.0 && w < WINDOWS {
            units[w] += n;
        }
    }
    let len = span_s / WINDOWS as f64;
    let rates: Vec<f64> = units.iter().map(|&u| u as f64 / len).collect();
    quartile(&rates, true)
}

/// A wall-clock latency percentile with the slow spells taken out, by
/// the same argument: the samples are cut, in arrival order, into up to
/// [`WINDOWS`] equal parts of at least `10 / (1 − q)` samples (so each
/// part's percentile has ten samples beyond it), the percentile is
/// taken in each, and the lower quartile of those is returned. With too
/// few samples for one such part it falls back to the highest
/// percentile the whole run supports.
pub fn undisturbed_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let parts = (xs.len() / need).min(WINDOWS);
    if parts == 0 {
        return highest_supported(xs, q);
    }
    let per = xs.len() / parts;
    let values: Vec<f64> = xs
        .chunks(per)
        .filter(|c| c.len() == per)
        .filter_map(|c| percentile(c, q))
        .collect();
    quartile(&values, false)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is worse (positive) or
/// better (negative), given the metric's direction.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Verdict of comparing a candidate against a baseline, given how far
/// two runs of the *same* code already differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Inside,
    /// Worse by more than the bound, and the noise is below the bound.
    Outside,
    /// Same-code runs differ by more than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Inside => "inside",
            Verdict::Outside => "OUTSIDE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judge `new` against `base` under `bound`. `noise` is the relative
/// difference observed between same-code runs (0 when unknown).
pub fn judge(base: f64, new: f64, better: Better, bound: f64, noise: f64) -> Verdict {
    if noise > bound {
        Verdict::Unresolved
    } else if worse_by(base, new, better) > bound {
        Verdict::Outside
    } else {
        Verdict::Inside
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten beyond — the smallest supported case.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank ceil(989.01) = 990, nine beyond.
        assert_eq!(percentile(&xs, 0.99), None);
        // The median of 20 samples has ten beyond; of 19 it has nine.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), None);
    }

    #[test]
    fn a_short_run_reports_the_highest_percentile_it_supports() {
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        // Ten samples (491..=500) lie beyond the reported value.
        assert_eq!(highest_supported(&xs, 0.99), Some(490.0));
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(highest_supported(&xs, 0.99), Some(1980.0));
        assert_eq!(highest_supported(&xs[..19], 0.99), None);
    }

    #[test]
    fn undisturbed_percentile_ignores_slow_spells() {
        // 20 000 samples at 1.0; a burst of 250 slow ones would own the
        // whole-run p99.
        let mut xs = vec![1.0; 20_000];
        for x in xs.iter_mut().skip(4_000).take(250) {
            *x = 50.0;
        }
        assert_eq!(percentile(&xs, 0.99), Some(50.0));
        assert_eq!(undisturbed_percentile(&xs, 0.99), Some(1.0));
        // Half the run slowed down: the median of everything moves, the
        // undisturbed median does not.
        let xs: Vec<f64> = (0..4_000)
            .map(|i| if i < 2_200 { 3.0 } else { 1.0 })
            .collect();
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(undisturbed_percentile(&xs, 0.5), Some(1.0));
        // Too few samples for one window: the whole run's best.
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(undisturbed_percentile(&xs, 0.99), Some(490.0));
    }

    #[test]
    fn undisturbed_rate_shrugs_off_a_slow_spell() {
        // 10 s at 100 units/s, except four seconds at 10 units/s.
        let events: Vec<(f64, u64)> = (0..1000)
            .map(|i| i as f64 / 100.0)
            .filter(|t| !(3.0..7.0).contains(t) || ((t * 100.0).round() as u64).is_multiple_of(10))
            .map(|t| (t, 1))
            .collect();
        assert!((events.len() as f64 / 10.0) < 70.0);
        assert_eq!(undisturbed_rate(&events, 10.0), Some(100.0));
        assert_eq!(undisturbed_rate(&[], 0.0), None);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn judge_inside_outside_unresolved() {
        // 5 % slower under a 10 % bound with 2 % noise: inside.
        assert_eq!(
            judge(100.0, 105.0, Better::Lower, 0.10, 0.02),
            Verdict::Inside
        );
        // 15 % slower: outside.
        assert_eq!(
            judge(100.0, 115.0, Better::Lower, 0.10, 0.02),
            Verdict::Outside
        );
        // Same-code runs already differ by 12 %: unresolved either way.
        assert_eq!(
            judge(100.0, 105.0, Better::Lower, 0.10, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 150.0, Better::Lower, 0.10, 0.12),
            Verdict::Unresolved
        );
        // An improvement is never outside.
        assert_eq!(
            judge(100.0, 50.0, Better::Lower, 0.10, 0.0),
            Verdict::Inside
        );
        assert_eq!(
            judge(100.0, 150.0, Better::Higher, 0.10, 0.0),
            Verdict::Inside
        );
    }
}
