//! Precision-targeted sequential stopping for replicated experiments.
//!
//! The paper reports every simulation measure with a confidence interval;
//! the engineering question is how many replications that takes. A
//! [`StoppingRule`] answers it adaptively: run a minimum batch, then keep
//! doubling the replication count until every tracked measure's relative
//! CI half-width is below the target (or a hard cap is reached). The rule
//! lives here, crate-neutral, so the SAN experiment runner, the storage
//! Monte-Carlo, and the composed-model evaluator all stop the same way —
//! and so the batch schedule preserves the execution engine's determinism
//! guarantee: replication `i` always draws from the stream derived from
//! `(root seed, i)`, whether it runs in a fixed block or as part of an
//! adaptive batch, so an adaptive run that uses `n` replications is
//! bit-identical to a fixed run of `n`.

use crate::stats::ConfidenceInterval;
use crate::DistError;

/// Stopping rule for sequential replication: run at least
/// [`min_replications`](StoppingRule::min_replications), then stop as soon
/// as every tracked confidence interval is narrower than
/// [`relative_half_width`](StoppingRule::relative_half_width) (relative to
/// its point estimate), or when
/// [`max_replications`](StoppingRule::max_replications) is reached.
///
/// Construction is validated — see [`StoppingRule::new`] — so a rule in
/// hand is always runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    relative_half_width: f64,
    min_replications: usize,
    max_replications: usize,
}

/// Minimum number of non-zero observations a rare-event measure must
/// produce before [`StoppingRule::met_by_support`] can declare its
/// relative target met: with fewer hits than this the relative half-width
/// is an artefact of a handful of lucky draws, not an estimate.
pub(crate) const MIN_NONZERO_OBSERVATIONS: u64 = 5;

impl Default for StoppingRule {
    /// ±1 % relative half-width, between 20 and 1000 replications.
    fn default() -> Self {
        StoppingRule { relative_half_width: 0.01, min_replications: 20, max_replications: 1000 }
    }
}

impl StoppingRule {
    /// Creates a validated stopping rule.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonFiniteParameter`] /
    /// [`DistError::NonPositiveParameter`] for a non-finite or
    /// non-positive `relative_half_width`, and
    /// [`DistError::InvalidStoppingRule`] when `min_replications < 2` (a
    /// confidence interval needs two observations) or
    /// `min_replications > max_replications`.
    pub fn new(
        relative_half_width: f64,
        min_replications: usize,
        max_replications: usize,
    ) -> Result<Self, DistError> {
        DistError::check_positive("relative_half_width", relative_half_width)?;
        if min_replications < 2 {
            return Err(DistError::InvalidStoppingRule {
                reason: format!(
                    "a confidence interval needs at least two replications, got min = \
                     {min_replications}"
                ),
            });
        }
        if min_replications > max_replications {
            return Err(DistError::InvalidStoppingRule {
                reason: format!(
                    "min_replications ({min_replications}) exceeds max_replications \
                     ({max_replications})"
                ),
            });
        }
        Ok(StoppingRule { relative_half_width, min_replications, max_replications })
    }

    /// A fixed-count rule: exactly `replications` replications in one batch
    /// `0..replications`, with no precision check (minimum = cap). This is
    /// how a plain "run `n` replications" request enters the same
    /// [`run_to_precision`] driver as an adaptive one.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidStoppingRule`] when `replications < 2`
    /// (a confidence interval needs two observations).
    pub fn fixed(replications: usize) -> Result<Self, DistError> {
        if replications < 2 {
            return Err(DistError::InvalidStoppingRule {
                reason: format!(
                    "a confidence interval needs at least two replications, got {replications}"
                ),
            });
        }
        Ok(StoppingRule {
            relative_half_width: f64::INFINITY,
            min_replications: replications,
            max_replications: replications,
        })
    }

    /// The target relative half-width (e.g. `0.01` for ±1 %); infinite for
    /// a [`StoppingRule::fixed`] rule.
    pub fn relative_half_width(&self) -> f64 {
        self.relative_half_width
    }

    /// Replications to run before the first precision check.
    pub fn min_replications(&self) -> usize {
        self.min_replications
    }

    /// Hard cap on the number of replications.
    pub fn max_replications(&self) -> usize {
        self.max_replications
    }

    /// The next batch size given `completed` replications so far: the
    /// minimum first, then doubling (batch = completed), always clipped to
    /// the cap. Returns `0` once the cap is reached.
    pub(crate) fn next_batch(&self, completed: usize) -> usize {
        if completed >= self.max_replications {
            0
        } else if completed == 0 {
            self.min_replications
        } else {
            completed.min(self.max_replications - completed)
        }
    }

    /// Whether `interval` is precise enough under this rule.
    ///
    /// A degenerate interval (zero half-width) around a **non-zero** point
    /// is precise — the measure looks deterministic. A degenerate interval
    /// around **zero** is not: every observation was zero, which for a
    /// rare-event measure means the event simply has not been seen yet, and
    /// stopping would declare the target met vacuously. Any other interval
    /// around a zero point estimate is likewise never met (its relative
    /// width is unbounded).
    pub fn met_by(&self, interval: &ConfidenceInterval) -> bool {
        if interval.half_width == 0.0 {
            return interval.point != 0.0;
        }
        interval.relative_half_width() <= self.relative_half_width
    }

    /// Like [`StoppingRule::met_by`], but additionally requires at least
    /// `MIN_NONZERO_OBSERVATIONS` (5) observations with a non-zero
    /// contribution — the criterion rare-event estimators use, so a
    /// relative target cannot be declared met off a handful of hits.
    pub fn met_by_support(&self, interval: &ConfidenceInterval, nonzero_observations: u64) -> bool {
        nonzero_observations >= MIN_NONZERO_OBSERVATIONS && self.met_by(interval)
    }
}

/// Runs replication batches until `is_precise` reports the collected
/// results meet the target, or the rule's cap is reached, and returns every
/// per-replication result in index order.
///
/// This is the one replication loop of the workspace: every engine's fixed
/// and adaptive runs come through here, a fixed count as
/// [`StoppingRule::fixed`].
///
/// `run_batch` receives the replication-index range to execute
/// (`start..start + batch`) and returns one result per index, in index
/// order — the contract of [`crate::parallel::replicate_with`], which is
/// what every engine passes through here. Because batches extend the same
/// index sequence, the collected results — and therefore every statistic
/// reduced from them — are bit-identical to a fixed-count run of the same
/// length.
///
/// `is_precise` is consulted after each batch that leaves room for another
/// one, so the returned length is always `min + k·batches` for some `k`,
/// between the rule's minimum and cap. At the cap there is nothing left to
/// decide and the check is skipped — a fixed rule runs its single batch
/// `0..n` and never calls it.
///
/// # Errors
///
/// Propagates the first error of either closure.
pub fn run_to_precision<T, E, B, P>(
    rule: &StoppingRule,
    mut run_batch: B,
    mut is_precise: P,
) -> Result<Vec<T>, E>
where
    B: FnMut(std::ops::Range<usize>) -> Result<Vec<T>, E>,
    P: FnMut(&[T]) -> Result<bool, E>,
{
    let mut collected: Vec<T> = Vec::new();
    loop {
        let batch = rule.next_batch(collected.len());
        if batch == 0 {
            break;
        }
        let start = collected.len();
        collected.extend(run_batch(start..start + batch)?);
        if rule.next_batch(collected.len()) == 0 || is_precise(&collected)? {
            break;
        }
    }
    Ok(collected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{confidence_interval, RunningStats};

    #[test]
    fn default_rule_is_valid() {
        let rule = StoppingRule::default();
        assert_eq!(rule.relative_half_width(), 0.01);
        assert_eq!(rule.min_replications(), 20);
        assert_eq!(rule.max_replications(), 1000);
        assert_eq!(
            StoppingRule::new(0.01, 20, 1000).unwrap(),
            rule,
            "default must round-trip through the validated constructor"
        );
    }

    #[test]
    fn construction_rejects_bad_parameters() {
        assert!(matches!(
            StoppingRule::new(0.0, 2, 10),
            Err(DistError::NonPositiveParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(-0.1, 2, 10),
            Err(DistError::NonPositiveParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(f64::NAN, 2, 10),
            Err(DistError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(f64::INFINITY, 2, 10),
            Err(DistError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(0.1, 1, 10),
            Err(DistError::InvalidStoppingRule { .. })
        ));
        assert!(matches!(
            StoppingRule::new(0.1, 10, 5),
            Err(DistError::InvalidStoppingRule { .. })
        ));
        let err = StoppingRule::new(0.1, 10, 5).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn batch_schedule_doubles_up_to_the_cap() {
        let rule = StoppingRule::new(0.01, 8, 50).unwrap();
        assert_eq!(rule.next_batch(0), 8);
        assert_eq!(rule.next_batch(8), 8);
        assert_eq!(rule.next_batch(16), 16);
        assert_eq!(rule.next_batch(32), 18); // clipped to the cap
        assert_eq!(rule.next_batch(50), 0);
        assert_eq!(rule.next_batch(60), 0);
    }

    #[test]
    fn met_by_handles_degenerate_intervals() {
        let rule = StoppingRule::new(0.05, 2, 10).unwrap();
        let tight = ConfidenceInterval { point: 1.0, half_width: 0.01, level: 0.95, samples: 8 };
        let loose = ConfidenceInterval { point: 1.0, half_width: 0.2, level: 0.95, samples: 8 };
        let exact = ConfidenceInterval::exact(0.5);
        let zero_mean = ConfidenceInterval { point: 0.0, half_width: 0.1, level: 0.95, samples: 8 };
        assert!(rule.met_by(&tight));
        assert!(!rule.met_by(&loose));
        assert!(rule.met_by(&exact), "zero half-width around a non-zero point is precise");
        assert!(!rule.met_by(&zero_mean), "a zero point estimate can never satisfy the target");
    }

    /// Regression: a rare-event measure whose observations are all zero
    /// produces the degenerate interval `0 ± 0`, which used to satisfy any
    /// precision target vacuously (the "zero half-width is always precise"
    /// shortcut). A measure that has never seen its event must keep
    /// running.
    #[test]
    fn all_zero_observations_never_satisfy_the_target() {
        let rule = StoppingRule::new(0.05, 2, 10).unwrap();
        let zero_hit = ConfidenceInterval::exact(0.0);
        assert!(!rule.met_by(&zero_hit), "0 ± 0 is no information, not infinite precision");
        assert!(!rule.met_by_support(&zero_hit, 0));

        // The same degenerate interval from an actual all-zero accumulator.
        let stats: RunningStats = std::iter::repeat_n(0.0, 50).collect();
        let interval = confidence_interval(&stats, 0.95).unwrap();
        assert_eq!(interval.point, 0.0);
        assert_eq!(interval.half_width, 0.0);
        assert!(!rule.met_by(&interval));
    }

    /// Regression: a tight relative half-width off too few non-zero
    /// observations must not stop a rare-event run — the support check
    /// demands a minimum number of hits first.
    #[test]
    fn met_by_support_requires_minimum_nonzero_observations() {
        let rule = StoppingRule::new(0.05, 2, 10).unwrap();
        let tight = ConfidenceInterval { point: 1e-8, half_width: 1e-10, level: 0.95, samples: 64 };
        assert!(rule.met_by(&tight), "precision alone is met");
        assert!(!rule.met_by_support(&tight, 4), "4 hits < minimum of 5");
        assert!(rule.met_by_support(&tight, 5));
    }

    #[test]
    fn run_to_precision_stops_early_when_precise() {
        let rule = StoppingRule::new(0.5, 4, 64).unwrap();
        let runs = run_to_precision::<usize, DistError, _, _>(
            &rule,
            |range| Ok(range.collect()),
            |collected| {
                let stats: RunningStats =
                    collected.iter().map(|&i| 10.0 + (i % 2) as f64).collect();
                Ok(rule.met_by(&confidence_interval(&stats, 0.95)?))
            },
        )
        .unwrap();
        assert_eq!(runs, vec![0, 1, 2, 3], "a low-variance measure stops at the minimum");
    }

    #[test]
    fn run_to_precision_runs_to_the_cap_when_noisy() {
        let rule = StoppingRule::new(1e-9, 4, 20).unwrap();
        let mut batches = Vec::new();
        let runs = run_to_precision::<usize, DistError, _, _>(
            &rule,
            |range| {
                batches.push(range.clone());
                Ok(range.collect())
            },
            |_| Ok(false),
        )
        .unwrap();
        assert_eq!(runs, (0..20).collect::<Vec<_>>());
        assert_eq!(batches, vec![0..4, 4..8, 8..16, 16..20]);
    }

    #[test]
    fn run_to_precision_propagates_errors() {
        let rule = StoppingRule::new(0.1, 4, 8).unwrap();
        let err = run_to_precision::<usize, DistError, _, _>(
            &rule,
            |_| Err(DistError::EmptyData),
            |_| Ok(true),
        )
        .unwrap_err();
        assert_eq!(err, DistError::EmptyData);
    }

    #[test]
    fn fixed_rule_rejects_fewer_than_two_replications() {
        for bad in [0, 1] {
            assert!(matches!(StoppingRule::fixed(bad), Err(DistError::InvalidStoppingRule { .. })));
        }
        let rule = StoppingRule::fixed(7).unwrap();
        assert_eq!((rule.min_replications(), rule.max_replications()), (7, 7));
        assert_eq!(rule.next_batch(0), 7);
        assert_eq!(rule.next_batch(7), 0);
    }

    #[test]
    fn fixed_rule_runs_one_batch_without_a_precision_check() {
        let rule = StoppingRule::fixed(12).unwrap();
        let mut batches = Vec::new();
        let runs = run_to_precision::<usize, DistError, _, _>(
            &rule,
            |range| {
                batches.push(range.clone());
                Ok(range.collect())
            },
            |_| panic!("a fixed rule must never consult the precision check"),
        )
        .unwrap();
        assert_eq!(runs, (0..12).collect::<Vec<_>>());
        assert_eq!(batches, vec![0..12]);
    }

    #[test]
    fn precision_is_never_checked_at_the_cap() {
        let rule = StoppingRule::new(1e-9, 4, 20).unwrap();
        let mut checked_at = Vec::new();
        run_to_precision::<usize, DistError, _, _>(
            &rule,
            |range| Ok(range.collect()),
            |collected| {
                checked_at.push(collected.len());
                Ok(false)
            },
        )
        .unwrap();
        assert_eq!(checked_at, vec![4, 8, 16], "no check after the batch that reaches the cap");
    }
}
