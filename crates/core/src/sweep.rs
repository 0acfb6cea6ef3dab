//! Design-space sweeps: cartesian parameter grids evaluated as a single
//! [`Scenario`], with per-point adaptive stopping and winner selection.
//!
//! The paper's whole argument is that dependability models exist to make
//! *informed design choices* — which redundancy scheme, how many spares,
//! how fast a repair pipeline. A design choice is a point in a parameter
//! grid, so this module provides the generic machinery for sweeping one:
//!
//! * [`DesignSpace`] — named parameter axes whose cartesian product is the
//!   set of candidate designs. An axis is a name plus the ordered values it
//!   takes (always `f64`; categorical choices are encoded as indices into a
//!   caller-side table, see [`crate::workloads::ReplicationVsRaid`]).
//! * [`DesignPoint`] — one cell of the grid: an index (row-major, first
//!   axis slowest) plus the `(axis, value)` coordinates.
//! * [`SweepScenario`] — wraps a point evaluator into a [`Scenario`]:
//!   every point is evaluated under the study's [`RunSpec`] with a
//!   well-separated per-point seed ([`RunSpec::offset_seed`]), so the whole
//!   sweep is a pure function of `(space, spec)` and inherits the engine's
//!   worker-count-invariant determinism. When the spec carries a precision
//!   target, each point runs its own adaptive stopping loop.
//! * Winner selection — the scenario names one objective metric and a
//!   direction ([`Objective`]); the report gets a per-point presentation
//!   table plus `winner_*` headline metrics identifying the best design
//!   (ties break to the lowest point index, keeping selection
//!   deterministic).
//!
//! The concrete workload families riding this driver live in
//! [`crate::workloads`].

use std::sync::Arc;

use crate::report::TextTable;
use crate::run::RunSpec;
use crate::scenario::{Metric, Scenario, ScenarioOutput};
use crate::CfsError;

/// Multiplier spreading per-point seed offsets across the `u64` space
/// (the golden-ratio increment of splitmix64), so neighbouring points
/// never share overlapping replication streams.
const POINT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One named parameter axis of a [`DesignSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    name: String,
    values: Vec<f64>,
}

impl Axis {
    /// The axis name (e.g. `"workers"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered values the axis takes.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A cartesian grid of named parameter axes — the candidate designs of a
/// sweep.
///
/// # Example
///
/// ```
/// use cfs_model::sweep::DesignSpace;
///
/// let space = DesignSpace::new()
///     .with_axis("workers", [32.0, 64.0, 128.0])
///     .with_axis("repair_crews", [1.0, 4.0]);
/// assert_eq!(space.len(), 6);
/// let p = &space.points()[4]; // workers=128, crews=1
/// assert_eq!(p.value("workers"), Some(128.0));
/// assert_eq!(p.value("repair_crews"), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesignSpace {
    axes: Vec<Axis>,
}

impl DesignSpace {
    /// Creates an empty design space (add axes before sweeping).
    pub fn new() -> Self {
        DesignSpace::default()
    }

    /// Appends a parameter axis (builder style). Axis order fixes point
    /// enumeration order: the first axis varies slowest.
    pub fn with_axis(mut self, name: impl Into<String>, values: impl Into<Vec<f64>>) -> Self {
        self.axes.push(Axis { name: name.into(), values: values.into() });
        self
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of grid points (product of the axis lengths).
    pub fn len(&self) -> usize {
        if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(|a| a.values.len()).product()
        }
    }

    /// Whether the space has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the space is sweepable: at least one axis, no empty axis, no
    /// duplicate axis names, no non-finite values.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] naming the offending axis.
    pub fn validate(&self) -> Result<(), CfsError> {
        if self.axes.is_empty() {
            return Err(CfsError::InvalidConfig {
                reason: "design space has no axes to sweep".into(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for axis in &self.axes {
            if !seen.insert(axis.name.as_str()) {
                return Err(CfsError::InvalidConfig {
                    reason: format!("design space declares axis '{}' twice", axis.name),
                });
            }
            if axis.values.is_empty() {
                return Err(CfsError::InvalidConfig {
                    reason: format!("design-space axis '{}' has no values", axis.name),
                });
            }
            if let Some(bad) = axis.values.iter().find(|v| !v.is_finite()) {
                return Err(CfsError::InvalidConfig {
                    reason: format!(
                        "design-space axis '{}' contains non-finite value {bad}",
                        axis.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Enumerates every grid point in row-major order (first axis slowest).
    pub fn points(&self) -> Vec<DesignPoint> {
        let total = self.len();
        let mut points = Vec::with_capacity(total);
        for index in 0..total {
            // Decompose the flat index into per-axis indices, last axis
            // fastest.
            let mut remainder = index;
            let mut coords = vec![0usize; self.axes.len()];
            for (slot, axis) in self.axes.iter().enumerate().rev() {
                coords[slot] = remainder % axis.values.len();
                remainder /= axis.values.len();
            }
            let coords = self
                .axes
                .iter()
                .zip(&coords)
                .map(|(axis, &i)| (axis.name.clone(), axis.values[i]))
                .collect();
            points.push(DesignPoint { index, coords });
        }
        points
    }
}

/// One candidate design: a flat index into the grid plus its coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    index: usize,
    coords: Vec<(String, f64)>,
}

impl DesignPoint {
    /// The point's row-major index in the grid (first axis slowest).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The `(axis, value)` coordinates, in axis declaration order.
    pub fn coords(&self) -> &[(String, f64)] {
        &self.coords
    }

    /// The value of the named axis at this point.
    pub fn value(&self, axis: &str) -> Option<f64> {
        self.coords.iter().find(|(name, _)| name == axis).map(|&(_, v)| v)
    }

    /// A compact human-readable label, e.g. `"workers=64, repair_crews=1"`.
    pub fn label(&self) -> String {
        self.coords
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Direction of the winner selection over the objective metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// The best design has the largest objective value (e.g. availability).
    Maximize,
    /// The best design has the smallest objective value (e.g. data loss).
    Minimize,
}

/// What a point evaluator reports for one design: its named metrics plus
/// the Monte-Carlo replication count actually spent (for adaptive specs).
#[derive(Debug, Clone, Default)]
pub struct PointOutcome {
    /// Named measures of the design (the first point fixes the column order
    /// of the sweep's presentation table; later points must report the same
    /// metric names).
    pub metrics: Vec<Metric>,
    /// Replications the point's evaluation actually used, if Monte-Carlo.
    pub replications_used: Option<usize>,
    /// Optional human-readable design label (e.g. `"raid 8+2"`), rendered
    /// as its own table column — the way categorical axes (encoded as
    /// indices) stay legible.
    pub label: Option<String>,
}

impl PointOutcome {
    /// Creates an empty outcome.
    pub fn new() -> Self {
        PointOutcome::default()
    }

    /// Attaches a human-readable design label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Appends a point metric.
    pub fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric { name: name.into(), value, half_width: None });
        self
    }

    /// Appends a metric carrying a confidence half-width.
    pub fn with_metric_ci(
        mut self,
        name: impl Into<String>,
        interval: &probdist::stats::ConfidenceInterval,
    ) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: interval.point,
            half_width: Some(interval.half_width),
        });
        self
    }

    /// Records the replications spent on the point.
    pub fn with_replications_used(mut self, replications: usize) -> Self {
        self.replications_used = Some(replications);
        self
    }
}

/// The point evaluator of a sweep: evaluates one design under a (seed-
/// offset) run spec.
pub type PointEvaluator =
    Arc<dyn Fn(&DesignPoint, &RunSpec) -> Result<PointOutcome, CfsError> + Send + Sync>;

/// A [`DesignSpace`] plus a point evaluator and a winner-selection policy,
/// packaged as a [`Scenario`] so sweeps run through the ordinary
/// [`crate::study::Study`] / [`crate::report::Report`] machinery.
///
/// Point `i` is evaluated under `spec.offset_seed(i · stride)` with a
/// sweep-private stride, so every point draws from well-separated streams
/// while the whole sweep remains a pure function of the study's base seed.
/// Replication fan-outs inside a point use the study's ambient
/// work-stealing pool, so the sweep statistics are bit-identical at any
/// worker count.
pub struct SweepScenario {
    name: String,
    space: DesignSpace,
    objective_metric: String,
    objective: Objective,
    evaluator: PointEvaluator,
}

impl std::fmt::Debug for SweepScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepScenario")
            .field("name", &self.name)
            .field("space", &self.space)
            .field("objective_metric", &self.objective_metric)
            .field("objective", &self.objective)
            .finish()
    }
}

impl SweepScenario {
    /// Creates a sweep scenario.
    ///
    /// `objective_metric` names the metric (as reported by `evaluator`)
    /// that decides the winning design in the given `objective` direction.
    pub fn new(
        name: impl Into<String>,
        space: DesignSpace,
        objective_metric: impl Into<String>,
        objective: Objective,
        evaluator: impl Fn(&DesignPoint, &RunSpec) -> Result<PointOutcome, CfsError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        SweepScenario {
            name: name.into(),
            space,
            objective_metric: objective_metric.into(),
            objective,
            evaluator: Arc::new(evaluator),
        }
    }

    /// The design space being swept.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }
}

impl Scenario for SweepScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        self.space.validate()?;

        let points = self.space.points();
        let mut outcomes = Vec::with_capacity(points.len());
        let mut max_replications: Option<usize> = None;
        for point in &points {
            let point_spec =
                spec.offset_seed((point.index() as u64).wrapping_mul(POINT_SEED_STRIDE));
            let outcome = (self.evaluator)(point, &point_spec)?;
            if let Some(used) = outcome.replications_used {
                max_replications = Some(max_replications.map_or(used, |m| m.max(used)));
            }
            outcomes.push(outcome);
        }

        // Winner selection over the objective metric; non-finite objective
        // values are a modelling error, not a silent skip.
        let mut winner: Option<(usize, f64)> = None;
        for (outcome, point) in outcomes.iter().zip(&points) {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == self.objective_metric)
                .map(|m| m.value)
                .ok_or_else(|| CfsError::InvalidConfig {
                    reason: format!(
                        "sweep '{}': point {} ({}) did not report objective metric '{}'",
                        self.name,
                        point.index(),
                        point.label(),
                        self.objective_metric
                    ),
                })?;
            if !value.is_finite() {
                return Err(CfsError::InvalidConfig {
                    reason: format!(
                        "sweep '{}': objective '{}' is non-finite ({value}) at point {} ({})",
                        self.name,
                        self.objective_metric,
                        point.index(),
                        point.label()
                    ),
                });
            }
            let better = match (winner, self.objective) {
                (None, _) => true,
                (Some((_, best)), Objective::Maximize) => value > best,
                (Some((_, best)), Objective::Minimize) => value < best,
            };
            if better {
                winner = Some((point.index(), value));
            }
        }
        let (winner_index, winner_value) =
            winner.expect("validated non-empty space always yields a winner");

        // Presentation table: axes (plus a design-label column when any
        // point carries one) as the leading columns, then the union of
        // every point's metrics in first-seen registration order — a
        // point may legitimately omit a metric (e.g. a rare-event point
        // whose relative error is unresolved), rendering an empty cell.
        let labelled = outcomes.iter().any(|o| o.label.is_some());
        let mut metric_names: Vec<&str> = Vec::new();
        for outcome in &outcomes {
            for metric in &outcome.metrics {
                if !metric_names.contains(&metric.name.as_str()) {
                    metric_names.push(metric.name.as_str());
                }
            }
        }
        let mut headers: Vec<&str> = vec!["#"];
        headers.extend(self.space.axes().iter().map(Axis::name));
        if labelled {
            headers.push("design");
        }
        headers.extend(metric_names.iter().copied());
        headers.push("winner");
        let mut table = TextTable::new(
            format!(
                "Design-space sweep: {} ({} design {}; objective: {} {})",
                self.name,
                points.len(),
                if points.len() == 1 { "point" } else { "points" },
                match self.objective {
                    Objective::Maximize => "max",
                    Objective::Minimize => "min",
                },
                self.objective_metric
            ),
            &headers,
        );
        for (outcome, point) in outcomes.iter().zip(&points) {
            let mut row = vec![point.index().to_string()];
            row.extend(point.coords().iter().map(|(_, v)| format!("{v}")));
            if labelled {
                row.push(outcome.label.clone().unwrap_or_default());
            }
            for name in &metric_names {
                match outcome.metrics.iter().find(|m| m.name == *name) {
                    Some(metric) => match metric.half_width {
                        Some(hw) => row.push(format!("{:.6} ±{:.6}", metric.value, hw)),
                        None => row.push(format!("{:.6}", metric.value)),
                    },
                    None => row.push(String::new()),
                }
            }
            row.push(if point.index() == winner_index { "◄".to_string() } else { String::new() });
            table.add_row(&row);
        }

        let winner_point = &points[winner_index];
        let mut output = ScenarioOutput::new(self.name()).with_table(table);
        if let Some(max) = max_replications {
            output = output.with_replications_used(max);
        }
        // Headline metrics: each point's objective (so sweeps stay
        // machine-comparable across runs) plus the winner summary.
        for (outcome, point) in outcomes.iter().zip(&points) {
            if let Some(metric) = outcome.metrics.iter().find(|m| m.name == self.objective_metric) {
                let mut named = metric.clone();
                named.name = format!("{} @{}", self.objective_metric, point.label());
                output.metrics.push(named);
            }
        }
        output = output
            .with_metric("winner_index", winner_index as f64)
            .with_metric(format!("winner_{}", self.objective_metric), winner_value);
        for (axis, value) in winner_point.coords() {
            output = output.with_metric(format!("winner_{axis}"), *value);
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> RunSpec {
        RunSpec::new().with_horizon_hours(100.0).with_replications(4).with_base_seed(1)
    }

    fn toy_sweep(objective: Objective) -> SweepScenario {
        let space = DesignSpace::new().with_axis("x", [1.0, 2.0, 3.0]).with_axis("y", [10.0, 20.0]);
        SweepScenario::new("toy", space, "score", objective, |point, spec| {
            // A deterministic objective with a unique optimum at (2, 20);
            // the seed offset is surfaced as a metric for the tests.
            let x = point.value("x").unwrap();
            let y = point.value("y").unwrap();
            Ok(PointOutcome::new()
                .with_metric("score", y - (x - 2.0).abs())
                .with_metric("seed", spec.base_seed() as f64)
                .with_replications_used(point.index() + 2))
        })
    }

    #[test]
    fn cartesian_enumeration_is_row_major() {
        let space = DesignSpace::new().with_axis("a", [1.0, 2.0]).with_axis("b", [5.0, 6.0, 7.0]);
        assert_eq!(space.len(), 6);
        assert!(!space.is_empty());
        let points = space.points();
        assert_eq!(points.len(), 6);
        // First axis slowest, second fastest.
        let coords: Vec<(f64, f64)> =
            points.iter().map(|p| (p.value("a").unwrap(), p.value("b").unwrap())).collect();
        assert_eq!(
            coords,
            vec![(1.0, 5.0), (1.0, 6.0), (1.0, 7.0), (2.0, 5.0), (2.0, 6.0), (2.0, 7.0)]
        );
        assert_eq!(points[3].index(), 3);
        assert_eq!(points[3].label(), "a=2, b=5");
        assert_eq!(points[0].value("missing"), None);
    }

    #[test]
    fn validation_rejects_malformed_spaces() {
        assert!(DesignSpace::new().validate().is_err());
        assert!(DesignSpace::new().with_axis("a", []).validate().is_err());
        assert!(DesignSpace::new().with_axis("a", [1.0]).with_axis("a", [2.0]).validate().is_err());
        assert!(DesignSpace::new().with_axis("a", [f64::NAN]).validate().is_err());
        assert!(DesignSpace::new().with_axis("a", [1.0]).validate().is_ok());
        // An empty axis also makes the space empty.
        assert!(DesignSpace::new().with_axis("a", []).is_empty());
    }

    #[test]
    fn sweep_selects_the_maximising_and_minimising_designs() {
        let max = toy_sweep(Objective::Maximize).evaluate(&quick_spec()).unwrap();
        // Optimum of y - |x-2| over the grid: x=2, y=20 (index 3).
        assert_eq!(max.metric("winner_index"), Some(3.0));
        assert_eq!(max.metric("winner_x"), Some(2.0));
        assert_eq!(max.metric("winner_y"), Some(20.0));
        assert_eq!(max.metric("winner_score"), Some(20.0));
        // Max replications across points (index 5 → 7).
        assert_eq!(max.replications_used, Some(7));
        assert_eq!(max.tables.len(), 1);
        assert_eq!(max.tables[0].len(), 6);

        let min = toy_sweep(Objective::Minimize).evaluate(&quick_spec()).unwrap();
        // Minimum: y=10 with |x-2| maximal → x∈{1,3}; ties break to the
        // lowest index (x=1, y=10 → index 0).
        assert_eq!(min.metric("winner_index"), Some(0.0));
        assert_eq!(min.metric("winner_score"), Some(9.0));
    }

    #[test]
    fn points_get_distinct_well_separated_seeds() {
        let output = toy_sweep(Objective::Maximize).evaluate(&quick_spec()).unwrap();
        let seeds: Vec<f64> = output.tables[0]
            .rows()
            .iter()
            .map(|row| row[4].split(' ').next().unwrap().parse::<f64>().unwrap())
            .collect();
        let mut unique = seeds.clone();
        unique.sort_by(f64::total_cmp);
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "every point must get its own seed: {seeds:?}");
    }

    #[test]
    fn missing_or_non_finite_objectives_are_errors() {
        let space = DesignSpace::new().with_axis("x", [1.0]);
        let missing =
            SweepScenario::new("m", space.clone(), "absent", Objective::Maximize, |_, _| {
                Ok(PointOutcome::new().with_metric("present", 1.0))
            });
        let err = missing.evaluate(&quick_spec()).unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");

        let non_finite = SweepScenario::new("n", space, "score", Objective::Maximize, |_, _| {
            Ok(PointOutcome::new().with_metric("score", f64::NAN))
        });
        let err = non_finite.evaluate(&quick_spec()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn sweep_rejects_invalid_specs_and_spaces() {
        let sweep = toy_sweep(Objective::Maximize);
        assert!(sweep.evaluate(&RunSpec::new().with_replications(1)).is_err());
        let empty = SweepScenario::new(
            "empty",
            DesignSpace::new(),
            "score",
            Objective::Maximize,
            |_, _| Ok(PointOutcome::new()),
        );
        assert!(empty.evaluate(&quick_spec()).is_err());
        assert_eq!(empty.space().len(), 0);
        assert!(format!("{empty:?}").contains("empty"));
    }

    #[test]
    fn evaluator_errors_propagate() {
        let space = DesignSpace::new().with_axis("x", [1.0, 2.0]);
        let sweep = SweepScenario::new("fail", space, "score", Objective::Maximize, |point, _| {
            if point.index() == 1 {
                Err(CfsError::InvalidConfig { reason: "boom at point 1".into() })
            } else {
                Ok(PointOutcome::new().with_metric("score", 0.0))
            }
        });
        let err = sweep.evaluate(&quick_spec()).unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }
}
