//! The fail-over pair: the rare-event benchmark model and its exact
//! hitting-probability oracle.
//!
//! A fail-over pair whose members fail far more slowly than they are
//! repaired almost never has both members down at once, so the
//! probability of that *hitting* event within a finite horizon is a rare
//! event that plain replication resolves only at great cost. The chain
//! behind it is small enough to solve exactly:
//! [`failover_pair_hitting_oracle`] gives the probability by
//! uniformization, so the model serves as a fixture with a known answer —
//! for the static linter (`sanlint --model failover-pair`), for the
//! reachability tests that check the assembled generator against the
//! hand-written chain, and for the [`ctmc`](crate::ctmc) docs.
//!
//! # Example
//!
//! ```
//! use sanet::rare::{failover_pair, failover_pair_hitting_oracle};
//!
//! # fn main() -> Result<(), sanet::SanError> {
//! // Members fail once per 1000 hours and are repaired in one hour.
//! let pair = failover_pair(1e-3, 1.0)?;
//! assert_eq!(pair.model.num_activities(), 3);
//!
//! // P(both down within a 10-hour window) ≈ 2·(1e-3)²·10 ≈ 2e-5.
//! let exact = failover_pair_hitting_oracle(1e-3, 1.0, 10.0)?;
//! assert!(exact > 1e-5 && exact < 3e-5, "{exact}");
//! # Ok(())
//! # }
//! ```

use probdist::{Dist, Exponential};

use crate::reward::RewardSpec;
use crate::{Model, SanError};

/// The canonical rare-event benchmark model: a fail-over pair whose
/// members fail at `lambda` (aggregate marking-dependent rate `n·λ`) and
/// are repaired one at a time at `mu`, with a latch place that records
/// whether both members were ever down simultaneously — the *hitting*
/// event.
///
/// The matching analytic oracle is [`failover_pair_hitting_oracle`]: the
/// 3-state absorbing CTMC (`both up → one down → hit`) solved by
/// [`SparseCtmc::transient`](crate::ctmc::SparseCtmc::transient)
/// uniformization. Every user builds the pair through this one
/// constructor, so the SAN and its oracle cannot drift apart.
#[derive(Debug, Clone)]
pub struct FailoverPair {
    /// The SAN model (activities `fail`, `repair`, instantaneous `latch`).
    pub model: Model,
    /// The latch place: holds one token once both members have been down
    /// simultaneously.
    pub latched: crate::PlaceId,
}

impl FailoverPair {
    /// The instant-of-time reward reading the latch: `P(hit by horizon)`
    /// under replication. Registered under the name `"hit"`.
    pub fn hit_reward(&self) -> RewardSpec {
        let latched = self.latched;
        RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64)
    }
}

/// Builds the [`FailoverPair`] benchmark model.
///
/// # Errors
///
/// Returns [`SanError::InvalidExperiment`] for non-positive rates.
pub fn failover_pair(lambda: f64, mu: f64) -> Result<FailoverPair, SanError> {
    let mut b = crate::ModelBuilder::new("failover_pair");
    let working = b.add_place("working", 2)?;
    let failed = b.add_place("failed", 0)?;
    let armed = b.add_place("armed", 1)?;
    let latched = b.add_place("latched", 0)?;
    Exponential::new(lambda).map_err(|e| SanError::InvalidExperiment {
        reason: format!("fail-over pair failure rate: {e}"),
    })?;
    b.timed_activity_fn("fail", move |m: &crate::Marking| {
        let n = m.tokens(working).max(1) as f64;
        Dist::Exponential(Exponential::new(n * lambda).expect("validated rate"))
    })?
    .input_arc(working, 1)
    .output_arc(failed, 1)
    .build()?;
    b.timed_activity(
        "repair",
        Exponential::new(mu).map_err(|e| SanError::InvalidExperiment {
            reason: format!("fail-over pair repair rate: {e}"),
        })?,
    )?
    .input_arc(failed, 1)
    .output_arc(working, 1)
    .build()?;
    b.instant_activity("latch")?
        .input_arc(armed, 1)
        .enabling_predicate(move |m| m.tokens(failed) >= 2)
        .output_arc(latched, 1)
        .build()?;
    Ok(FailoverPair { model: b.build()?, latched })
}

/// The exact hitting probability of the [`failover_pair`] model: the
/// absorbing 3-state CTMC (`0` both up, `1` one down, `2` hit) solved by
/// [`SparseCtmc::transient`](crate::ctmc::SparseCtmc::transient)
/// uniformization — `π₂(horizon)` starting from both up.
///
/// Lumping the SAN's latched markings into one absorbing state is exact
/// because latching is irreversible; `reach_oracle.rs` checks the
/// assembled five-state generator against this chain to 1e-10.
///
/// # Errors
///
/// Propagates CTMC construction and transient-solve errors.
pub fn failover_pair_hitting_oracle(lambda: f64, mu: f64, horizon: f64) -> Result<f64, SanError> {
    let mut chain = crate::ctmc::SparseCtmc::new(3)?;
    chain.add_transition(0, 1, 2.0 * lambda)?;
    chain.add_transition(1, 0, mu)?;
    chain.add_transition(1, 2, lambda)?;
    Ok(chain.transient(0, horizon)?[2])
}
