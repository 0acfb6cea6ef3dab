//! Probability distributions, statistics, and lifetime fitting for
//! dependability simulation.
//!
//! This crate is the numerical foundation of the petascale cluster file
//! system dependability study. It provides:
//!
//! * **Lifetime distributions** used to model failure and repair processes:
//!   [`Exponential`], [`Weibull`], [`Deterministic`], [`Uniform`], and
//!   [`Empirical`], all implementing the [`Distribution`] trait (sampling,
//!   CDF, PDF, hazard rate, quantiles, moments).
//! * **Failure-rate arithmetic** ([`rates`]): conversions between MTBF and
//!   annualized failure rate (AFR), as the paper mixes both conventions
//!   (Table 5).
//! * **Statistics** ([`stats`]): streaming mean/variance accumulators,
//!   Student-t and normal confidence intervals used to report simulation
//!   results at the 95 % level, and batch-means estimation.
//! * **Lifetime fitting** ([`fitting`]): maximum-likelihood Weibull
//!   fitting with right-censoring, reproducing the Table 4 analysis
//!   (`β ≈ 0.7`, MTBF ≈ 300 000 h).
//! * **Rare-event estimation** ([`rare`]): the estimator arithmetic of
//!   multilevel splitting (per-level passage probabilities combined with
//!   the independent-stages variance approximation), plus the
//!   naive-Monte-Carlo sample-size projection it is measured against.
//! * **Telemetry** ([`telemetry`]): a lock-free metrics and span-timing
//!   layer — statically registered counters and histograms in
//!   per-thread sharded atomics, drop-timed pipeline-phase spans, a live
//!   stderr progress line, and text/CSV/JSON/Prometheus exposition.
//!   Off by default; never perturbs simulation statistics.
//!
//! # Example
//!
//! ```
//! use probdist::{Distribution, Weibull, SimRng};
//!
//! # fn main() -> Result<(), probdist::DistError> {
//! // Disk lifetime model used for the ABE scratch partition:
//! // Weibull with shape 0.7 and a mean of 300 000 hours.
//! let disk = Weibull::from_shape_and_mean(0.7, 300_000.0)?;
//! let mut rng = SimRng::seed_from_u64(42);
//! let lifetime = disk.sample(&mut rng);
//! assert!(lifetime > 0.0);
//! // Infant mortality: hazard decreases over time for shape < 1.
//! assert!(disk.hazard(10.0) > disk.hazard(10_000.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
mod deterministic;
mod distribution;
mod empirical;
mod error;
mod exponential;
pub mod fitting;
pub mod parallel;
pub mod rare;
pub mod rates;
mod rng;
pub(crate) mod special;
pub mod stats;
pub mod telemetry;
mod uniform;
mod weibull;

pub use deterministic::Deterministic;
pub use distribution::{Dist, Distribution};
pub use empirical::Empirical;
pub use error::DistError;
pub use exponential::Exponential;
pub use rates::{Afr, Mtbf};
pub use rng::SimRng;
pub use uniform::Uniform;
pub use weibull::{Weibull, WithinLimit};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Exponential>();
        assert_send_sync::<Weibull>();
        assert_send_sync::<WithinLimit>();
        assert_send_sync::<Deterministic>();
        assert_send_sync::<Uniform>();
        assert_send_sync::<Empirical>();
        assert_send_sync::<Dist>();
        assert_send_sync::<DistError>();
        assert_send_sync::<SimRng>();
    }
}
