//! Reward variables: functions of the model's behaviour that the simulator
//! estimates over the observation window `[0, horizon]`.
//!
//! Two families are supported, mirroring Möbius:
//!
//! * **Rate rewards** are functions of the marking. They are reported as a
//!   *time average* over the window (e.g. availability = the fraction of
//!   time the CFS is serving clients) or as the *instant-of-time* value at
//!   the end of the run.
//! * **Impulse rewards** fire when a given activity completes (e.g. count
//!   one disk replacement per completion of the `replace_disk` activity),
//!   reported as the total over the window.

use std::fmt;
use std::sync::Arc;

use crate::{ActivityId, Marking};

/// A rate-reward function of the marking.
pub(crate) type RewardFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// How a rate reward is reported at the end of a replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RewardKind {
    /// Time integral of the rate function divided by the observation length.
    TimeAveraged,
    /// Value of the rate function in the final marking.
    InstantOfTime,
}

#[derive(Clone)]
pub(crate) enum RewardVariant {
    Rate {
        function: RewardFn,
        kind: RewardKind,
    },
    /// An impulse total: `amount` per completion of `activity`.
    Impulse {
        activity: ActivityId,
        amount: f64,
    },
}

/// Specification of one reward variable to estimate.
#[derive(Clone)]
pub struct RewardSpec {
    pub(crate) name: String,
    pub(crate) variant: RewardVariant,
}

impl fmt::Debug for RewardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.variant {
            RewardVariant::Rate { kind, .. } => format!("rate/{kind:?}"),
            RewardVariant::Impulse { activity, .. } => {
                format!("impulse/Total on activity #{}", activity.index())
            }
        };
        f.debug_struct("RewardSpec").field("name", &self.name).field("kind", &kind).finish()
    }
}

impl RewardSpec {
    /// A time-averaged rate reward: the integral of `function` over the
    /// observation window divided by its length. Use this for
    /// availability-style measures.
    pub fn time_averaged_rate(
        name: impl Into<String>,
        function: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        RewardSpec {
            name: name.into(),
            variant: RewardVariant::Rate {
                function: Arc::new(function),
                kind: RewardKind::TimeAveraged,
            },
        }
    }

    /// An instant-of-time rate reward: the value of `function` in the final
    /// marking of the replication.
    pub fn instant_of_time(
        name: impl Into<String>,
        function: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        RewardSpec {
            name: name.into(),
            variant: RewardVariant::Rate {
                function: Arc::new(function),
                kind: RewardKind::InstantOfTime,
            },
        }
    }

    /// An impulse reward that adds `amount` every time `activity` completes,
    /// reported as a total over the observation window.
    pub fn impulse_total(name: impl Into<String>, activity: ActivityId, amount: f64) -> Self {
        RewardSpec { name: name.into(), variant: RewardVariant::Impulse { activity, amount } }
    }

    /// The reward's name, used to retrieve its estimate from run results.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The interned name table of a compiled reward set, shared by every
/// [`RunResult`](crate::RunResult) of a run through one `Arc`.
#[derive(Debug, PartialEq, Default)]
pub(crate) struct RewardNames {
    /// Reward names in specification (slot) order.
    pub(crate) names: Vec<String>,
    /// Name → slot lookup. With duplicate names the last slot wins,
    /// matching the behaviour of the per-replication `HashMap` this
    /// replaces.
    pub(crate) index: std::collections::HashMap<String, usize>,
}

/// How one reward slot is turned into its reported value at the end of a
/// replication.
pub(crate) enum Finalise {
    /// Accumulated rate integral divided by the observation length.
    TimeAveraged,
    /// The rate function evaluated in the final marking.
    Instant(RewardFn),
    /// Accumulated impulse total.
    Total,
}

/// A reward specification compiled for the run loop: rate rewards that
/// integrate over time live in a dense slice walked once per event, impulse
/// rewards are bucketed by the activity that triggers them (O(1) lookup on
/// completion instead of a scan over every reward), and names are interned
/// once into a shared [`RewardNames`] table so per-replication results are
/// plain `Vec<f64>`s.
pub(crate) struct RewardTable {
    pub(crate) names: Arc<RewardNames>,
    /// `(slot, function)` for every time-averaged rate reward, in slot
    /// order.
    pub(crate) integrated: Vec<(u32, RewardFn)>,
    /// activity index → `(slot, amount)` impulses credited on its
    /// completion, dense over the model's activities.
    pub(crate) impulses: Vec<Vec<(u32, f64)>>,
    /// Per-slot finalisation rule, in slot order.
    pub(crate) finals: Vec<Finalise>,
}

impl RewardTable {
    /// Compiles `specs` against `model`, validating impulse activity
    /// references.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SanError::UnknownId`] if an impulse reward references
    /// an activity outside the model.
    pub(crate) fn compile(
        model: &crate::Model,
        specs: &[RewardSpec],
    ) -> Result<RewardTable, crate::SanError> {
        let mut names = RewardNames {
            names: Vec::with_capacity(specs.len()),
            index: std::collections::HashMap::with_capacity(specs.len()),
        };
        let mut integrated = Vec::new();
        let mut impulses = vec![Vec::new(); model.num_activities()];
        let mut finals = Vec::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            names.names.push(spec.name.clone());
            names.index.insert(spec.name.clone(), slot);
            match &spec.variant {
                RewardVariant::Rate { function, kind } => finals.push(match kind {
                    RewardKind::TimeAveraged => {
                        integrated.push((slot as u32, Arc::clone(function)));
                        Finalise::TimeAveraged
                    }
                    RewardKind::InstantOfTime => Finalise::Instant(Arc::clone(function)),
                }),
                RewardVariant::Impulse { activity, amount } => {
                    let bucket = impulses.get_mut(activity.index()).ok_or_else(|| {
                        crate::SanError::UnknownId {
                            what: format!(
                                "activity #{} referenced by reward `{}`",
                                activity.index(),
                                spec.name
                            ),
                        }
                    })?;
                    bucket.push((slot as u32, *amount));
                    finals.push(Finalise::Total);
                }
            }
        }
        Ok(RewardTable { names: Arc::new(names), integrated, impulses, finals })
    }

    /// Number of reward slots.
    pub(crate) fn len(&self) -> usize {
        self.finals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_names_and_kinds() {
        let r = RewardSpec::time_averaged_rate("avail", |_m| 1.0);
        assert_eq!(r.name(), "avail");
        assert!(matches!(r.variant, RewardVariant::Rate { kind: RewardKind::TimeAveraged, .. }));

        let r = RewardSpec::instant_of_time("final", |_m| 1.0);
        assert!(matches!(r.variant, RewardVariant::Rate { kind: RewardKind::InstantOfTime, .. }));

        let r = RewardSpec::impulse_total("replacements", ActivityId(3), 1.0);
        assert!(matches!(r.variant, RewardVariant::Impulse { amount, .. } if amount == 1.0));
    }

    #[test]
    fn debug_output_mentions_kind() {
        let r = RewardSpec::impulse_total("x", ActivityId(1), 1.0);
        let text = format!("{r:?}");
        assert!(text.contains("impulse"));
        let r = RewardSpec::time_averaged_rate("y", |_m| 0.0);
        assert!(format!("{r:?}").contains("rate"));
    }
}
