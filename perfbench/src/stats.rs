//! Sample statistics and the parent-versus-change comparison rule.

/// Median of `xs` (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside checker computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // May be negative for tiny samples, exactly as in Python.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Keeps the quieter half (rounded up) of `samples`, each tagged with the
/// share of host CPU the hypervisor stole while it ran, in sample order.
/// On a virtual machine whose host steals time in bursts, a simulation's
/// many hand-offs between threads amplify each burst; the quieter half
/// measures the simulator rather than the neighbours. Steal is a host
/// reading the program does not set, so this selects no sample by its
/// result.
pub fn quieter_half<T>(samples: Vec<(f64, T)>) -> Vec<T> {
    let keep = samples.len().div_ceil(2);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].0.total_cmp(&samples[b].0).then(a.cmp(&b)));
    let mut kept = vec![false; samples.len()];
    for &i in &order[..keep] {
        kept[i] = true;
    }
    samples
        .into_iter()
        .zip(kept)
        .filter_map(|((_, v), k)| k.then_some(v))
        .collect()
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        let d = match self {
            Better::Higher => parent - change,
            Better::Lower => change - parent,
        };
        d / parent.abs().max(f64::MIN_POSITIVE)
    }
}

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The change won at least nine tenths of the pairs and the medians
    /// differ by more than the parent's interquartile distance.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regression,
    /// Neither a gain nor a regression.
    Same,
    /// The run-to-run spread exceeds the bound, so "no change" cannot be
    /// told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs from which [`compare`] draws any conclusion.
pub const MIN_PAIRS: usize = 10;

/// Compares paired samples of one metric: `parent[i]` and `change[i]`
/// were measured back to back, alternating which side ran first. Applies
/// the rule of repeated paired runs: a gain needs >= 9/10 of pairs won
/// (ties count for neither) and a median difference larger than the
/// parent's interquartile distance; a regression is a median worse than
/// the parent's by more than `bound`; when either side's spread exceeds
/// `bound` the result is unresolved unless every change run beats every
/// parent run. Fewer than [`MIN_PAIRS`] pairs are always unresolved.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    assert!(
        !parent.is_empty() && parent.len() == change.len(),
        "compare needs equal, non-empty paired samples"
    );
    if parent.len() < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let clear_gain =
        wins * 10 >= parent.len() * 9 && better.beats(mc, mp) && (mc - mp).abs() > q3 - q1;
    let noisy = relative_iqr(parent) > bound || relative_iqr(change) > bound;
    let dominates = change
        .iter()
        .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
    if noisy && !dominates {
        return Verdict::Unresolved;
    }
    if clear_gain {
        Verdict::Gain
    } else if better.worsening(mp, mc) > bound {
        Verdict::Regression
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn relative_iqr_is_share_of_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn quieter_half_keeps_the_least_stolen_samples_in_order() {
        let samples = vec![
            (0.19, 'a'),
            (0.01, 'b'),
            (0.05, 'c'),
            (0.01, 'd'),
            (0.30, 'e'),
        ];
        assert_eq!(quieter_half(samples), vec!['b', 'c', 'd']);
        assert_eq!(quieter_half(vec![(0.5, 'x')]), vec!['x']);
        assert!(quieter_half(Vec::<(f64, u8)>::new()).is_empty());
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.4, 99.6, 100.0,
    ];

    #[test]
    fn a_clear_win_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 1.10).collect();
        assert_eq!(
            compare(&PARENT, &change, Better::Higher, 0.05),
            Verdict::Gain
        );
        // The same numbers read as a loss when lower is better.
        assert_eq!(
            compare(&PARENT, &change, Better::Lower, 0.05),
            Verdict::Regression
        );
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_gain() {
        let mut change: Vec<f64> = PARENT.iter().map(|p| p * 1.02).collect();
        change[0] = 90.0;
        change[1] = 90.0;
        assert_eq!(
            compare(&PARENT, &change, Better::Higher, 0.05),
            Verdict::Same
        );
    }

    #[test]
    fn a_small_shift_within_the_bound_is_the_same() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 0.99).collect();
        assert_eq!(
            compare(&PARENT, &change, Better::Higher, 0.05),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let parent = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(
            compare(&parent, &change, Better::Higher, 0.05),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let change = [200.0; 10];
        assert_eq!(
            compare(&parent, &change, Better::Higher, 0.05),
            Verdict::Gain
        );
    }

    #[test]
    fn fewer_than_ten_pairs_are_unresolved() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 2.0).collect();
        assert_eq!(
            compare(&PARENT[..9], &change[..9], Better::Higher, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        assert_eq!(
            compare(&PARENT, &PARENT, Better::Higher, 0.05),
            Verdict::Same
        );
    }
}
