//! Small numeric helpers: order statistics, the seeded mixer that turns
//! one `--seed` into every input, and the fixed-reference hypervolume.

use gdsii_guard::{EvalPoint, ExploreResult};

/// Percentiles tried, lowest first, when looking for a tail percentile
/// above the median.
const TAIL_LADDER: [f64; 5] = [0.75, 0.9, 0.95, 0.99, 0.999];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Margins of the hypervolume reference point past the baseline's own
/// `(Security 1.0, −TNS)`. Fixed, so that fronts score against the same
/// point on every run, seed and commit.
pub const HV_MARGIN_SECURITY: f64 = 0.05;
pub const HV_MARGIN_PS: f64 = 500.0;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` of `values`, with the number of samples
/// strictly beyond its rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile above the median that still has at least
/// [`MIN_BEYOND`] samples beyond it, as `(p, value)`; `None` when even
/// p75 lacks them.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, nearest_rank(&v, p)))
        .find(|(_, (_, beyond))| *beyond >= MIN_BEYOND)
        .map(|(p, (value, _))| (p, value))
}

/// SplitMix64: one well-mixed 64-bit value per `(seed, stream)` pair.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hypervolume reference point fixed by the baseline:
/// `(1.0 + HV_MARGIN_SECURITY, −TNS_base + HV_MARGIN_PS)` on the
/// minimization objectives `(Security, −TNS)`.
pub fn hv_reference(base_tns_ps: f64) -> [f64; 2] {
    [1.0 + HV_MARGIN_SECURITY, -base_tns_ps + HV_MARGIN_PS]
}

/// Hypervolume against the baseline-derived [`hv_reference`] of the
/// feasible non-dominated subset of `points` plus the baseline itself,
/// through the library's own [`ExploreResult::hypervolume`].
///
/// The baseline is always an available choice, so it belongs to every
/// front: a run whose candidates are all infeasible or all worse scores
/// the baseline's own box, `HV_MARGIN_SECURITY · HV_MARGIN_PS`, never 0.
pub fn front_hypervolume(mut points: Vec<EvalPoint>, base: EvalPoint) -> f64 {
    let m = base.metrics;
    points.push(base);
    ExploreResult {
        points,
        base_power_mw: m.power_mw,
        base_drc: m.drc,
        base_tns_ps: m.tns_ps,
        quarantined: Vec::new(),
    }
    .hypervolume(hv_reference(m.tns_ps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsii_guard::{FlowConfig, FlowMetrics, Genome};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 39 samples: p75 has rank 30 and 9 beyond — not enough.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        // 40 samples: p75 has rank 30 and exactly 10 beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((0.75, 30.0)));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((0.9, 90.0)));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((0.99, 990.0)));
    }

    fn point(security: f64, tns_ps: f64, drc: u32) -> EvalPoint {
        EvalPoint {
            genome: Genome {
                op: 0,
                n_idx: 0,
                iter_idx: 0,
                scale_idx: [0; tech::NUM_METAL_LAYERS],
            },
            config: FlowConfig::cell_shift_default(),
            metrics: FlowMetrics {
                security,
                er_sites: 0,
                er_tracks: 0.0,
                tns_ps,
                power_mw: 1.0,
                drc,
            },
            generation: 0,
        }
    }

    #[test]
    fn hypervolume_staircase_against_fixed_reference() {
        // Baseline (1.0, TNS −100 ps) puts the reference at (1.05, 600).
        let base = point(1.0, -100.0, 0);
        assert_eq!(hv_reference(-100.0), [1.05, 600.0]);
        let pts = vec![
            point(0.2, -300.0, 0), // objectives (0.2, 300)
            point(0.5, -100.0, 0), // (0.5, 100)
            point(0.6, -200.0, 0), // dominated by (0.5, 100)
            point(0.1, -50.0, 99), // infeasible: DRC over base + N_DRC
            point(1.2, 0.0, 0),    // beyond the reference: no volume
        ];
        // Staircase: (0.5 − 0.2)·(600 − 300) + (1.05 − 0.5)·(600 − 100);
        // the baseline (1.0, 100) is dominated by (0.5, 100).
        let want = 0.3 * 300.0 + 0.55 * 500.0;
        let got = front_hypervolume(pts, base.clone());
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        // The reference does not move with the front: one point scores
        // its own rectangle, not a constant.
        let one = front_hypervolume(vec![point(0.5, -400.0, 0)], base.clone());
        let want = (1.0 - 0.5) * (600.0 - 400.0) + 0.05 * (600.0 - 100.0);
        assert!((one - want).abs() < 1e-9, "got {one}, want {want}");
        // No feasible candidate: the baseline's own box.
        let none = front_hypervolume(vec![point(0.1, -50.0, 99)], base);
        assert!((none - HV_MARGIN_SECURITY * HV_MARGIN_PS).abs() < 1e-9);
    }

    #[test]
    fn mix_is_deterministic_and_stream_sensitive() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }
}
