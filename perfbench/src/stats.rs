//! Statistics helpers shared by the report: the tail-percentile rule,
//! Python-compatible quartiles, medians and growth ratios.

/// A reported percentile must keep at least this many samples strictly
/// beyond it, so a p99 needs 1,000 samples.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of ascending `sorted` at `per_mille`/1000,
/// lowered to the highest percentile that still has [`TAIL_SAMPLES`]
/// samples beyond it. With ten or fewer samples no percentile qualifies
/// and the minimum is returned. `None` when there are no samples.
pub fn percentile(sorted: &[u64], per_mille: u64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let wanted = (per_mille as usize * n).div_ceil(1000);
    let highest = n.saturating_sub(TAIL_SAMPLES).max(1);
    sorted.get(wanted.clamp(1, highest) - 1).copied()
}

/// Sorts a copy and takes [`percentile`]; 0 when empty.
pub fn percentile_of(values: &[u64], per_mille: u64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, per_mille).unwrap_or(0)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). `None` when `values` is empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Python interpolates (and, for tiny samples, extrapolates) with
        // a signed weight.
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Inter-quartile range as a share of the median; 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some([q1, _, q3]) if mid != 0.0 => (q3 - q1) / mid,
        _ => 0.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// How a per-call cost grew over a run: the mean of the last tenth of
/// the calls divided by the mean of the first tenth (each tenth at least
/// one call). 0 when there are no calls or the first tenth costs 0.
pub fn growth_ratio(values: &[u64]) -> f64 {
    let tenth = values.len().div_ceil(10);
    if tenth == 0 {
        return 0.0;
    }
    let first = mean(&values[..tenth]);
    let last = mean(&values[values.len() - tenth..]);
    if first == 0.0 {
        0.0
    } else {
        last / first
    }
}

/// One window of a replay, as [`fast_windows`] ranks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRef {
    /// Which slice of which schedule: every replay of the same schedule
    /// has the same windows, so instances of one slice share a key.
    pub key: (usize, usize),
    /// Time the window took, ns.
    pub busy_ns: u64,
    /// Samples the window holds.
    pub samples: usize,
}

/// Picks the windows replayed in the host's fast periods. Each window is
/// scored by its time divided by the median time of the windows with the
/// same key (the same work replayed), so a window that is slow because of
/// the work it holds is not mistaken for a slow host. Returns the indices
/// of the lowest scores, in ascending order of score: at least
/// `share` of all windows, and more until they hold `min_samples` samples
/// (or every window is taken). Ties keep input order.
pub fn fast_windows(windows: &[WindowRef], share: f64, min_samples: usize) -> Vec<usize> {
    let mut by_key: std::collections::BTreeMap<(usize, usize), Vec<f64>> = Default::default();
    for w in windows {
        by_key.entry(w.key).or_default().push(w.busy_ns as f64);
    }
    let medians: std::collections::BTreeMap<_, _> =
        by_key.into_iter().map(|(key, times)| (key, median(&times))).collect();
    let score = |w: &WindowRef| {
        let typical = medians[&w.key];
        if typical > 0.0 {
            w.busy_ns as f64 / typical
        } else {
            1.0
        }
    };
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| score(&windows[a]).total_cmp(&score(&windows[b])).then(a.cmp(&b)));
    let wanted = (share * windows.len() as f64).ceil() as usize;
    let mut taken = 0;
    let mut samples = 0;
    for &i in &order {
        if taken >= wanted && samples >= min_samples {
            break;
        }
        taken += 1;
        samples += windows[i].samples;
    }
    order.truncate(taken);
    order
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
