//! Expected disk-replacement rates (the quantity plotted in Figure 3).
//!
//! For a population of `N` disk slots where every failed disk is promptly
//! replaced by a new one, the long-run replacement rate is governed by the
//! renewal theorem: `N / MTBF` replacements per hour regardless of the
//! lifetime distribution's shape. Early in life, however, a Weibull
//! population with infant mortality (shape < 1) fails *faster* than the
//! long-run rate; [`ReplacementCurve`] accounts for that by using the
//! renewal-equation solution for the Weibull renewal function, computed
//! numerically.
//!
//! That solution is one O(n²) recursion per disk model and window, with
//! n = 2048 grid steps and about 2 ms per solve. The disk count only
//! scales it, so a sweep over disk counts builds one [`ReplacementCurve`]
//! per disk model and reads every count off it.

use probdist::{Distribution, Weibull};

use crate::{DiskModel, RaidError};

/// Grid intervals of the discretised renewal recursion.
const RENEWAL_GRID_STEPS: usize = 2048;

/// Long-run (renewal-theorem) replacement rate: disks replaced per week for
/// a population of `disks` slots.
///
/// # Errors
///
/// Returns [`RaidError::InvalidConfig`] if the disk model is invalid.
pub fn steady_state_replacements_per_week(disks: u32, disk: &DiskModel) -> Result<f64, RaidError> {
    disk.validate()?;
    Ok(disks as f64 / disk.mtbf_hours * 168.0)
}

/// Expected replacements of a population of *new* disk slots over a
/// window, as a function of the slot count: one renewal solve for one disk
/// model and window, scaled by any number of disks.
///
/// The renewal function `m(t)` (expected renewals per slot by time `t`)
/// satisfies `m(t) = F(t) + ∫₀ᵗ m(t−x) dF(x)`. [`ReplacementCurve::new`]
/// solves it on a uniform grid of n = 2048 steps by the standard
/// discretised recursion: O(n²) multiply-adds, about 2 ms, accurate to the
/// grid resolution for the window lengths used in the paper (months to a
/// few years). [`replacements`](Self::replacements) and
/// [`per_week`](Self::per_week) only scale that per-slot value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacementCurve {
    window_hours: f64,
    per_slot: f64,
}

impl ReplacementCurve {
    /// Solves the renewal expectation per slot of `disk` over
    /// `window_hours`.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] if the disk model is invalid or
    /// the window is not positive.
    pub fn new(disk: &DiskModel, window_hours: f64) -> Result<Self, RaidError> {
        disk.validate()?;
        if !(window_hours.is_finite() && window_hours > 0.0) {
            return Err(RaidError::InvalidConfig {
                reason: format!("window must be positive, got {window_hours}"),
            });
        }
        let per_slot = weibull_renewal_function(&disk.lifetime()?, window_hours);
        Ok(ReplacementCurve { window_hours, per_slot })
    }

    /// Expected number of replacements over the window for `disks` new
    /// slots.
    pub fn replacements(&self, disks: u32) -> f64 {
        disks as f64 * self.per_slot
    }

    /// Expected replacements per week averaged over the window (the
    /// Figure 3 y-axis).
    pub fn per_week(&self, disks: u32) -> f64 {
        self.replacements(disks) / (self.window_hours / 168.0)
    }
}

/// Numerically solves the renewal function `m(t)` for a Weibull lifetime at
/// time `t` on [`RENEWAL_GRID_STEPS`] grid intervals.
fn weibull_renewal_function(lifetime: &Weibull, t: f64) -> f64 {
    let n = RENEWAL_GRID_STEPS;
    let dt = t / n as f64;
    // cdf[i] = F(i·dt); density[j − 1] = dF_j = F_j − F_{j−1}.
    let cdf: Vec<f64> = (0..=n).map(|i| lifetime.cdf(i as f64 * dt)).collect();
    let density: Vec<f64> = cdf.windows(2).map(|pair| pair[1] - pair[0]).collect();
    let mut m = vec![0.0_f64; n + 1];
    for i in 1..=n {
        // m_i = F_i + Σ_{j=1..i} m_{i−j} · dF_j, summed from 0.0 in
        // ascending j: one accumulator, no fused multiply-add, so every
        // rounding matches the textbook loop bit for bit.
        let conv = m[..i].iter().rev().zip(&density[..i]).fold(0.0, |acc, (m, df)| acc + m * df);
        m[i] = cdf[i] + conv;
    }
    m[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdist::SimRng;

    fn curve(disk: &DiskModel, window_hours: f64) -> ReplacementCurve {
        ReplacementCurve::new(disk, window_hours).unwrap()
    }

    #[test]
    fn steady_state_rate_matches_renewal_theorem() {
        let disk = DiskModel::abe_sata_250gb();
        let rate = steady_state_replacements_per_week(480, &disk).unwrap();
        // 480 disks / 300 000 h * 168 h/week ≈ 0.27 per week.
        assert!((rate - 480.0 / 300_000.0 * 168.0).abs() < 1e-12);
    }

    #[test]
    fn infant_mortality_raises_early_life_replacements() {
        // For a brand-new Weibull(0.7) population the early replacement rate
        // exceeds the steady-state rate.
        let disk = DiskModel::abe_sata_250gb();
        let early = curve(&disk, 2000.0).per_week(480);
        let steady = steady_state_replacements_per_week(480, &disk).unwrap();
        assert!(early > steady, "early {early} vs steady {steady}");
        // ABE observed 0-2 replacements per week.
        assert!(early > 0.2 && early < 3.0, "early {early}");
    }

    #[test]
    fn exponential_population_matches_poisson_rate_exactly() {
        // With shape 1 the renewal function is exactly t/MTBF.
        let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 10_000.0, capacity_gb: 250.0 };
        let expected = curve(&disk, 5_000.0).replacements(100);
        assert!(
            (expected - 100.0 * 5_000.0 / 10_000.0).abs() / expected < 0.01,
            "expected {expected}"
        );
    }

    #[test]
    fn replacement_rate_scales_linearly_with_disks_and_afr() {
        let d1 = DiskModel::with_afr(2.92, 0.7).unwrap();
        let d2 = DiskModel::with_afr(8.76, 0.7).unwrap();
        let window = 8760.0;
        let c1 = curve(&d1, window);
        let (r_small, r_large) = (c1.per_week(480), c1.per_week(4800));
        assert!((r_large / r_small - 10.0).abs() < 1e-6);
        let r_bad = curve(&d2, window).per_week(480);
        assert!(r_bad > r_small * 2.0, "3x AFR should give clearly more replacements");
    }

    /// Figure 3's four disk models (Weibull 0.7, 250 GB) at one year and at
    /// the 500 h of the pinned artefact outputs: the per-slot expectation
    /// and the per-week values at 480 and 4800 disks, as `f64` bits. The
    /// solve must reproduce the textbook loop's rounding exactly. A second
    /// accumulator moves these bits. A fused multiply-add changes `conv`
    /// by an ulp in hundreds of rows, but at those eight inputs adding the
    /// larger `F_i` absorbs every change; the AFR 2.92 % model at 3000 h is
    /// an input where it does not, so that one is pinned too.
    #[test]
    fn figure3_renewal_solves_are_pinned_bit_for_bit() {
        const PINS: [(f64, f64, u64, u64, u64); 9] = [
            (8.76, 8760.0, 0x3fcc6a94f80aa01f, 0x400059603a8b5fa1, 0x40346fb8492e3789),
            (8.76, 500.0, 0x3f9dbcaca5483cbd, 0x4012bbfc2072a125, 0x40476afb288f496f),
            (2.92, 8760.0, 0x3fb9dd0d5a8b943d, 0x3fedc2beb556f7b9, 0x402299b731565ad4),
            (2.92, 500.0, 0x3f8b7e8110cbdd02, 0x40015241f38aac84, 0x4035a6d2706d57a4),
            (4.38, 8760.0, 0x3fc14412306e7ecf, 0x3ff3de1bf197b17a, 0x4028d5a2edfd9dd9),
            (4.38, 500.0, 0x3f9245a4a0afd348, 0x400705d48d067ffa, 0x403cc749b0481ff7),
            (0.88, 8760.0, 0x3fa62315f79caca5, 0x3fd97907be3d0ccc, 0x400fd749adcc4ffe),
            (0.88, 500.0, 0x3f77b8164aea0316, 0x3fede2d468a1bc36, 0x4022adc4c16515a1),
            (2.92, 3000.0, 0x3fa839a19e7f6144, 0x3ff4595eccd1662f, 0x40296fb68005bfbb),
        ];
        for (afr, window, per_slot, per_week_480, per_week_4800) in PINS {
            let curve = curve(&DiskModel::with_afr(afr, 0.7).unwrap(), window);
            let at = format!("AFR {afr} % over {window} h");
            assert_eq!(curve.replacements(1).to_bits(), per_slot, "per slot, {at}");
            assert_eq!(curve.per_week(480).to_bits(), per_week_480, "480 disks, {at}");
            assert_eq!(curve.per_week(4800).to_bits(), per_week_4800, "4800 disks, {at}");
        }
    }

    #[test]
    fn renewal_function_agrees_with_monte_carlo() {
        let disk = DiskModel { weibull_shape: 0.7, mtbf_hours: 5_000.0, capacity_gb: 250.0 };
        let lifetime = disk.lifetime().unwrap();
        let window = 3_000.0;
        let analytic = curve(&disk, window).replacements(1);

        // Monte-Carlo renewal count for a single slot.
        let mut rng = SimRng::seed_from_u64(5);
        let reps = 20_000;
        let mut total = 0u64;
        for _ in 0..reps {
            let mut t = lifetime.sample(&mut rng);
            while t < window {
                total += 1;
                t += lifetime.sample(&mut rng);
            }
        }
        let mc = total as f64 / reps as f64;
        assert!((analytic - mc).abs() / mc < 0.05, "analytic {analytic} vs monte carlo {mc}");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let disk = DiskModel::abe_sata_250gb();
        assert!(ReplacementCurve::new(&disk, 0.0).is_err());
        assert!(ReplacementCurve::new(&disk, f64::NAN).is_err());
        let mut bad = disk;
        bad.mtbf_hours = 0.0;
        assert!(ReplacementCurve::new(&bad, 100.0).is_err());
        assert!(steady_state_replacements_per_week(480, &bad).is_err());
    }
}
