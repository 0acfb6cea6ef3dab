//! Design-space sweeps: cartesian parameter grids evaluated as one
//! scenario, with per-point adaptive stopping and winner selection.
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
//! * [`evaluate`] — the function a sweep workload's
//!   [`Scenario::evaluate`](crate::scenario::Scenario::evaluate) calls: it
//!   evaluates every point under the study's [`RunSpec`] with a
//!   well-separated per-point seed (the base seed plus a per-point
//!   offset), so the whole
//!   sweep is a pure function of `(space, spec)` and inherits the engine's
//!   worker-count-invariant determinism. When the spec carries a precision
//!   target, each point runs its own adaptive stopping loop.
//! * Winner selection — the sweep names one objective metric and a
//!   direction ([`Objective`]); the output gets a per-point presentation
//!   table plus `winner_*` headline metrics identifying the best design
//!   (ties break to the lowest point index, keeping selection
//!   deterministic).
//!
//! The concrete workload families built on this function live in
//! [`crate::workloads`].

use crate::report::TextTable;
use crate::run::RunSpec;
use crate::scenario::{Metric, ScenarioOutput};
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
    pub(crate) fn coords(&self) -> &[(String, f64)] {
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
    pub(crate) fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Appends a point metric.
    pub(crate) fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric { name: name.into(), value, half_width: None });
        self
    }

    /// Appends a metric carrying a confidence half-width.
    pub(crate) fn with_metric_ci(
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
    pub(crate) fn with_replications_used(mut self, replications: usize) -> Self {
        self.replications_used = Some(replications);
        self
    }
}

/// Evaluates every point of `space` and selects the best design: the body
/// of a sweep workload's
/// [`Scenario::evaluate`](crate::scenario::Scenario::evaluate).
///
/// Point `i` is evaluated by `evaluate_point` under
/// `spec.offset_seed(i · stride)` with a sweep-private stride, so every
/// point draws from well-separated streams while the whole sweep remains a
/// pure function of the study's base seed. Replication fan-outs inside a
/// point use the study's ambient work-stealing pool, so the sweep
/// statistics are bit-identical at any worker count.
///
/// The output, named `name`, holds one presentation table (one row per
/// point), each point's `objective_metric` as a headline metric, and the
/// winner summary: `winner_index`, `winner_<objective_metric>` and
/// `winner_<axis>` for every axis.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an invalid spec or space, or a
/// point that does not report a finite `objective_metric`, and propagates
/// `evaluate_point`'s errors.
pub fn evaluate(
    name: &str,
    space: &DesignSpace,
    objective_metric: &str,
    objective: Objective,
    spec: &RunSpec,
    evaluate_point: impl Fn(&DesignPoint, &RunSpec) -> Result<PointOutcome, CfsError>,
) -> Result<ScenarioOutput, CfsError> {
    spec.validate()?;
    space.validate()?;

    let points = space.points();
    let mut outcomes = Vec::with_capacity(points.len());
    let mut max_replications: Option<usize> = None;
    for point in &points {
        let point_spec = spec.offset_seed((point.index() as u64).wrapping_mul(POINT_SEED_STRIDE));
        let outcome = evaluate_point(point, &point_spec)?;
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
                .find(|m| m.name == objective_metric)
                .map(|m| m.value)
                .ok_or_else(|| CfsError::InvalidConfig {
                    reason: format!(
                        "sweep '{name}': point {} ({}) did not report objective metric '{objective_metric}'",
                        point.index(),
                        point.label(),
                    ),
                })?;
        if !value.is_finite() {
            return Err(CfsError::InvalidConfig {
                    reason: format!(
                        "sweep '{name}': objective '{objective_metric}' is non-finite ({value}) at point {} ({})",
                        point.index(),
                        point.label()
                    ),
                });
        }
        let better = match (winner, objective) {
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
    headers.extend(space.axes().iter().map(Axis::name));
    if labelled {
        headers.push("design");
    }
    headers.extend(metric_names.iter().copied());
    headers.push("winner");
    let mut table = TextTable::new(
        format!(
            "Design-space sweep: {} ({} design {}; objective: {} {})",
            name,
            points.len(),
            if points.len() == 1 { "point" } else { "points" },
            match objective {
                Objective::Maximize => "max",
                Objective::Minimize => "min",
            },
            objective_metric
        ),
        &headers,
    );
    for (outcome, point) in outcomes.iter().zip(&points) {
        let mut row = vec![point.index().to_string()];
        row.extend(point.coords().iter().map(|(_, v)| format!("{v}")));
        if labelled {
            row.push(outcome.label.clone().unwrap_or_default());
        }
        for metric_name in &metric_names {
            match outcome.metrics.iter().find(|m| m.name == *metric_name) {
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
    let mut output = ScenarioOutput::new(name).with_table(table);
    if let Some(max) = max_replications {
        output = output.with_replications_used(max);
    }
    // Headline metrics: each point's objective (so sweeps stay
    // machine-comparable across runs) plus the winner summary.
    for (outcome, point) in outcomes.iter().zip(&points) {
        if let Some(metric) = outcome.metrics.iter().find(|m| m.name == objective_metric) {
            let mut named = metric.clone();
            named.name = format!("{objective_metric} @{}", point.label());
            output.metrics.push(named);
        }
    }
    output = output
        .with_metric("winner_index", winner_index as f64)
        .with_metric(format!("winner_{objective_metric}"), winner_value);
    for (axis, value) in winner_point.coords() {
        output = output.with_metric(format!("winner_{axis}"), *value);
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> RunSpec {
        RunSpec::new().with_horizon_hours(100.0).with_replications(4).with_base_seed(1)
    }

    fn toy_sweep(objective: Objective, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let space = DesignSpace::new().with_axis("x", [1.0, 2.0, 3.0]).with_axis("y", [10.0, 20.0]);
        evaluate("toy", &space, "score", objective, spec, |point, spec| {
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
        let max = toy_sweep(Objective::Maximize, &quick_spec()).unwrap();
        // Optimum of y - |x-2| over the grid: x=2, y=20 (index 3).
        assert_eq!(max.metric("winner_index"), Some(3.0));
        assert_eq!(max.metric("winner_x"), Some(2.0));
        assert_eq!(max.metric("winner_y"), Some(20.0));
        assert_eq!(max.metric("winner_score"), Some(20.0));
        // Max replications across points (index 5 → 7).
        assert_eq!(max.replications_used, Some(7));
        assert_eq!(max.tables.len(), 1);
        assert_eq!(max.tables[0].len(), 6);

        let min = toy_sweep(Objective::Minimize, &quick_spec()).unwrap();
        // Minimum: y=10 with |x-2| maximal → x∈{1,3}; ties break to the
        // lowest index (x=1, y=10 → index 0).
        assert_eq!(min.metric("winner_index"), Some(0.0));
        assert_eq!(min.metric("winner_score"), Some(9.0));
    }

    #[test]
    fn points_get_distinct_well_separated_seeds() {
        let output = toy_sweep(Objective::Maximize, &quick_spec()).unwrap();
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
        let err = evaluate("m", &space, "absent", Objective::Maximize, &quick_spec(), |_, _| {
            Ok(PointOutcome::new().with_metric("present", 1.0))
        })
        .unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");

        let err = evaluate("n", &space, "score", Objective::Maximize, &quick_spec(), |_, _| {
            Ok(PointOutcome::new().with_metric("score", f64::NAN))
        })
        .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn sweep_rejects_invalid_specs_and_spaces() {
        assert!(toy_sweep(Objective::Maximize, &RunSpec::new().with_replications(1)).is_err());
        let empty = DesignSpace::new();
        assert_eq!(empty.len(), 0);
        let output =
            evaluate("empty", &empty, "score", Objective::Maximize, &quick_spec(), |_, _| {
                Ok(PointOutcome::new())
            });
        assert!(output.is_err());
    }

    #[test]
    fn evaluator_errors_propagate() {
        let space = DesignSpace::new().with_axis("x", [1.0, 2.0]);
        let err =
            evaluate("fail", &space, "score", Objective::Maximize, &quick_spec(), |point, _| {
                if point.index() == 1 {
                    Err(CfsError::InvalidConfig { reason: "boom at point 1".into() })
                } else {
                    Ok(PointOutcome::new().with_metric("score", 0.0))
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }
}
