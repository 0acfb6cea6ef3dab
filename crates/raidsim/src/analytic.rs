//! Closed-form reliability approximations used to cross-check the
//! Monte-Carlo simulation.
//!
//! Under exponential disk lifetimes (rate `λ = 1/MTBF`) and exponential
//! repair (rate `μ = 1/MTTR`), the classical Markov-chain approximation for
//! the mean time to data loss (MTTDL) of an `n+k` redundancy group that
//! dies when `k+1` disks are simultaneously failed is
//!
//! ```text
//! MTTDL ≈ μ^k / ( Π_{i=0..k} (N−i)·λ^(k+1) )   with N = n+k
//! ```
//!
//! i.e. every additional parity disk buys another factor of `μ / (N·λ)`.
//! These formulas ignore infant mortality (the Weibull shape) and treat the
//! repair as exponential, so they are *approximations*; the tests check that
//! the Monte-Carlo engine agrees with them within the accuracy expected of
//! the approximation for exponential disks.

use crate::{RaidError, RaidGeometry};

/// Mean time to data loss (hours) of a single `n+k` tier with per-disk
/// failure rate `1/mtbf_hours` and mean repair time `mttr_hours`.
///
/// # Errors
///
/// Returns [`RaidError::InvalidConfig`] if any parameter is non-positive.
pub fn tier_mttdl(
    geometry: RaidGeometry,
    mtbf_hours: f64,
    mttr_hours: f64,
) -> Result<f64, RaidError> {
    geometry.validate()?;
    if mtbf_hours <= 0.0 || mttr_hours <= 0.0 {
        return Err(RaidError::InvalidConfig {
            reason: "MTBF and MTTR must be positive for the MTTDL approximation".into(),
        });
    }
    let n = geometry.disks_per_tier() as f64;
    let k = geometry.parity_disks as f64;
    let lambda = 1.0 / mtbf_hours;
    let mu = 1.0 / mttr_hours;

    // Product of the failure rates along the path 0 -> 1 -> ... -> k+1
    // failed disks.
    let mut path_rate = 1.0;
    for i in 0..=(k as u32) {
        path_rate *= (n - i as f64) * lambda;
    }
    Ok(mu.powf(k) / path_rate)
}

/// Probability that a single tier suffers data loss within `mission_hours`,
/// using the exponential approximation `1 − exp(−t / MTTDL)`.
///
/// # Errors
///
/// Propagates errors from [`tier_mttdl`].
pub(crate) fn tier_data_loss_probability(
    geometry: RaidGeometry,
    mtbf_hours: f64,
    mttr_hours: f64,
    mission_hours: f64,
) -> Result<f64, RaidError> {
    let mttdl = tier_mttdl(geometry, mtbf_hours, mttr_hours)?;
    Ok(1.0 - (-mission_hours / mttdl).exp())
}

/// Probability that a system of `tiers` independent tiers suffers at least
/// one data loss within `mission_hours`.
///
/// # Errors
///
/// Propagates errors from [`tier_mttdl`].
pub fn system_data_loss_probability(
    tiers: u32,
    geometry: RaidGeometry,
    mtbf_hours: f64,
    mttr_hours: f64,
    mission_hours: f64,
) -> Result<f64, RaidError> {
    let p_tier = tier_data_loss_probability(geometry, mtbf_hours, mttr_hours, mission_hours)?;
    Ok(1.0 - (1.0 - p_tier).powi(tiers as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, StorageConfig, StorageSimulator};
    use probdist::stats::StoppingRule;

    #[test]
    fn mttdl_rejects_bad_parameters() {
        assert!(tier_mttdl(RaidGeometry::raid6_8p2(), 0.0, 10.0).is_err());
        assert!(tier_mttdl(RaidGeometry::raid6_8p2(), 1000.0, -1.0).is_err());
        assert!(tier_mttdl(RaidGeometry { data_disks: 0, parity_disks: 1 }, 1000.0, 1.0).is_err());
    }

    #[test]
    fn mttdl_grows_with_parity_and_mtbf() {
        let m_8p1 = tier_mttdl(RaidGeometry::raid5_8p1(), 300_000.0, 10.0).unwrap();
        let m_8p2 = tier_mttdl(RaidGeometry::raid6_8p2(), 300_000.0, 10.0).unwrap();
        let m_8p3 = tier_mttdl(RaidGeometry::raid_8p3(), 300_000.0, 10.0).unwrap();
        assert!(m_8p2 > m_8p1 * 100.0, "each parity disk buys orders of magnitude");
        assert!(m_8p3 > m_8p2 * 100.0);

        let better_disk = tier_mttdl(RaidGeometry::raid6_8p2(), 3_000_000.0, 10.0).unwrap();
        assert!(better_disk > m_8p2);
    }

    #[test]
    fn mttdl_matches_hand_computed_value() {
        // RAID5 2+1 (N=3, k=1), MTBF 1000 h, MTTR 10 h:
        // MTTDL = mu / (3λ * 2λ) = (1/10) / (6e-6) = 16 666.67 h.
        let geometry = RaidGeometry { data_disks: 2, parity_disks: 1 };
        let mttdl = tier_mttdl(geometry, 1000.0, 10.0).unwrap();
        assert!((mttdl - 16_666.666).abs() / 16_666.666 < 1e-6, "mttdl {mttdl}");
    }

    #[test]
    fn data_loss_probability_is_monotone_in_mission_and_tiers() {
        let g = RaidGeometry::raid6_8p2();
        let p1 = tier_data_loss_probability(g, 100_000.0, 24.0, 8_760.0).unwrap();
        let p2 = tier_data_loss_probability(g, 100_000.0, 24.0, 87_600.0).unwrap();
        assert!(p2 > p1);
        let s1 = system_data_loss_probability(48, g, 100_000.0, 24.0, 8_760.0).unwrap();
        let s2 = system_data_loss_probability(4800, g, 100_000.0, 24.0, 8_760.0).unwrap();
        assert!(s2 > s1);
        assert!((0.0..=1.0).contains(&s2));
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_for_exponential_disks() {
        // Use exponential lifetimes (shape 1) and an aggressive configuration
        // so the simulation sees enough data-loss events to compare: 2+1
        // tiers of very unreliable disks with slow repair.
        let geometry = RaidGeometry { data_disks: 2, parity_disks: 1 };
        let mtbf = 2_000.0;
        let repair = 50.0;
        let config = StorageConfig {
            ddn_units: 1,
            tiers: 100,
            geometry,
            disk: DiskModel { weibull_shape: 1.0, mtbf_hours: mtbf, capacity_gb: 250.0 },
            replacement_hours: repair,
            rebuild_hours: 0.0,
            data_loss_recovery_hours: 24.0,
            controllers: None,
        };
        let mission = 8_760.0;
        let sim = StorageSimulator::new(config).unwrap();
        let summary = sim.run(mission, &StoppingRule::fixed(64).unwrap(), 9, 0.95, 0).unwrap();

        let mttdl = tier_mttdl(geometry, mtbf, repair).unwrap();
        let expected_losses_per_system = 100.0 * mission / mttdl;
        let simulated = summary.data_loss_events.point;
        // The Markov approximation is only first-order accurate; require
        // agreement within 40 % which is ample to catch structural bugs
        // (e.g. off-by-one in the parity threshold changes this by >10x).
        let ratio = simulated / expected_losses_per_system;
        assert!(
            ratio > 0.6 && ratio < 1.65,
            "simulated {simulated}, analytic {expected_losses_per_system}"
        );
    }
}
