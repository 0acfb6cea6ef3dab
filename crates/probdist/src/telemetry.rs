//! Lock-free telemetry: sharded metrics, phase spans, and live progress.
//!
//! Long campaigns — million-replication studies, thousand-point design
//! sweeps, rare-event splitting runs — need to show *where the compute
//! went* without perturbing it. This module provides that layer for the
//! whole workspace:
//!
//! * **Statically registered metrics** ([`METRICS`], addressed by
//!   [`MetricId`]): counters and histograms with a fixed
//!   compile-time schema, each tagged with its unit and its
//!   [`Determinism`] class.
//! * **Per-thread sharded accumulators**: every recording thread owns a
//!   private block of relaxed [`AtomicU64`] cells, registered once in a
//!   global shard list. Recording is one branch (the global enable flag)
//!   plus one uncontended `fetch_add` — no locks, no allocation, so the
//!   allocation-free replication hot path stays allocation-free.
//!   [`snapshot`] merges the shards; the pool's quiesce protocol
//!   (registry mutex) orders worker writes before the submitter reads.
//! * **Spans** ([`span`]): drop-timed phase durations (model build, lint
//!   passes, reach exploration, generator assembly, solve, replicate,
//!   checkpoint write, report render) recorded into `*_ns` histograms.
//! * **Progress** ([`start_progress`]): a sampler thread that reads only
//!   relaxed counters and paints a live stderr line — completed/scheduled
//!   replications, replications/s, ETA, deadline warnings.
//! * **Exposition**: [`TelemetrySnapshot`] renders as aligned text, CSV,
//!   JSON (via `serde`), and a Prometheus-style text format
//!   ([`TelemetrySnapshot::write_prometheus`]) suitable for file scraping.
//!
//! # Determinism contract
//!
//! Telemetry never touches an RNG stream, a result slot, or the merge
//! order, so **simulation statistics are bit-identical with telemetry on
//! or off**, at any worker count. The metrics themselves split into three
//! classes, tagged in the schema and in every rendering:
//!
//! * [`Determinism::Deterministic`] — pure functions of `(model, seed,
//!   replication set)`: events fired, activities re-examined, heap
//!   operations, resample restarts, replications completed, missions,
//!   loss events, chaos injections, checkpoint write/resume counts,
//!   splitting level hits. Bit-identical at workers 1/2/8 (pinned by
//!   tests) — except under deadline truncation, where the completed
//!   prefix itself is timing-dependent.
//! * [`Determinism::Scheduling`] — dependent on how the pool interleaved
//!   claims: batches claimed, batch sizes, park/wake/help counts. These vary
//!   run to run even at a fixed worker count (the claim loop races).
//!   Checkpoint bytes written belong here too: every write re-serialises
//!   each scenario's entry, so in a multi-scenario study the total
//!   follows the order in which scenarios reach their checkpoints.
//! * [`Determinism::WallClock`] — durations in nanoseconds: spans, busy
//!   and idle time. Never comparable across runs.
//!
//! The whole layer is **off by default**: every recording call starts
//! with one relaxed load of the global enable flag, so a run without an
//! [`enable_scoped`] guard pays one predictable branch per flush point —
//! unmeasurable against a microsecond-scale replication.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::Serialize;

/// What a metric measures and how it accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum of recorded increments.
    Counter,
    /// Count / sum / min / max of recorded observations.
    Histogram,
}

impl MetricKind {
    /// Lower-case schema name (`"counter"`, `"histogram"`).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Reproducibility class of a metric — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// A pure function of `(model, seed, replication set)`:
    /// worker-count-invariant and bit-identical run to run.
    Deterministic,
    /// Depends on how the pool interleaved batch claims; varies run to
    /// run even at a fixed worker count.
    Scheduling,
    /// A wall-clock duration; never comparable across runs.
    WallClock,
}

impl Determinism {
    /// Lower-case schema tag (`"deterministic"`, `"scheduling"`,
    /// `"wall_clock"`).
    pub fn name(self) -> &'static str {
        match self {
            Determinism::Deterministic => "deterministic",
            Determinism::Scheduling => "scheduling",
            Determinism::WallClock => "wall_clock",
        }
    }
}

/// One entry of the static metric registry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's identifier (its index into [`METRICS`]).
    pub id: MetricId,
    /// Stable exported name (also the Prometheus exposition name).
    pub name: &'static str,
    /// Counter or histogram.
    pub kind: MetricKind,
    /// Unit of the recorded values (`"count"`, `"bytes"`, `"ns"`, …).
    pub unit: &'static str,
    /// Reproducibility class, rendered in every sink.
    pub determinism: Determinism,
    /// One-line description (the Prometheus `# HELP` text).
    pub help: &'static str,
}

macro_rules! metrics {
    ($( $variant:ident = $name:literal, $kind:ident, $unit:literal,
        $det:ident, $help:literal; )*) => {
        /// Identifier of one statically registered metric; doubles as the
        /// index into [`METRICS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum MetricId {
            $( #[doc = $help] $variant, )*
        }

        /// The static metric registry, indexed by `MetricId as usize`.
        pub const METRICS: &[MetricDef] = &[
            $( MetricDef {
                id: MetricId::$variant,
                name: $name,
                kind: MetricKind::$kind,
                unit: $unit,
                determinism: Determinism::$det,
                help: $help,
            }, )*
        ];
    };
}

metrics! {
    // Replication progress (the pair the live progress line reads).
    ReplicationsCompleted = "replications_completed_total", Counter,
        "count", Deterministic,
        "Replication work units completed across every fan-out";
    ReplicationsScheduled = "replications_scheduled_total", Counter,
        "count", Deterministic,
        "Replication work units scheduled (grows as adaptive batches are planned)";

    // SAN simulation kernels.
    SanEventsFired = "san_events_fired_total", Counter,
        "count", Deterministic,
        "Activity completions executed by the SAN kernels";
    SanReexaminations = "san_activities_reexamined_total", Counter,
        "count", Deterministic,
        "Activities re-examined after firings (calendar revisits + reference rescans)";
    SanHeapOps = "san_heap_ops_total", Counter,
        "count", Deterministic,
        "Event-calendar indexed-heap operations (push/upsert/remove)";
    SanRestarts = "san_restarts_total", Counter,
        "count", Deterministic,
        "Activity timers resampled because a marking change invalidated them";

    // Worker pool.
    PoolBatchesClaimed = "pool_batches_claimed_total", Counter,
        "count", Scheduling,
        "Adaptive batches claimed from fan-out index counters";
    PoolParks = "pool_parks_total", Counter,
        "count", Scheduling,
        "Times a pool worker parked on the work condvar";
    PoolWakes = "pool_wakes_total", Counter,
        "count", Scheduling,
        "Times a parked pool worker woke to rescan the registry";
    PoolHelps = "pool_helps_total", Counter,
        "count", Scheduling,
        "Times a quiescing fan-out submitter attached to a newer fan-out to help it";

    // Storage kernels (raidsim).
    RaidMissions = "raid_missions_total", Counter,
        "count", Deterministic,
        "Storage Monte-Carlo missions executed (RAID + replication kernels)";
    RaidLossEvents = "raid_loss_events_total", Counter,
        "count", Deterministic,
        "Data-loss events observed across storage missions";
    SplittingLevelHits = "splitting_level_hits_total", Counter,
        "count", Deterministic,
        "Trials that reached the next exposure level in multilevel splitting";

    // Checkpointing.
    CheckpointWrites = "checkpoint_writes_total", Counter,
        "count", Deterministic,
        "Checkpoint files written (atomic write + rename pairs)";
    CheckpointBytes = "checkpoint_bytes_written_total", Counter,
        "bytes", Scheduling,
        "Payload bytes written to checkpoint files";
    CheckpointResumeHits = "checkpoint_resume_hits_total", Counter,
        "count", Deterministic,
        "Replications served from a checkpoint instead of re-simulated";

    // Chaos injection sites (recorded only under the `chaos` feature).
    ChaosWorkUnitInjections = "chaos_injections_work_unit_total", Counter,
        "count", Deterministic,
        "Chaos faults (stalls + panics) injected at the work-unit site";
    ChaosRewardInjections = "chaos_injections_reward_total", Counter,
        "count", Deterministic,
        "Chaos non-finite rewards injected at the reward site";

    // Pool timing histograms.
    PoolBatchSize = "pool_batch_size", Histogram,
        "count", Scheduling,
        "Size distribution of claimed adaptive batches";
    PoolBusyNs = "pool_session_busy_ns", Histogram,
        "ns", WallClock,
        "Wall-clock time workers spent attached to fan-out sessions";
    PoolIdleNs = "pool_park_idle_ns", Histogram,
        "ns", WallClock,
        "Wall-clock time workers spent parked between fan-outs";

    // Pipeline phase spans.
    SpanModelBuild = "span_model_build_ns", Histogram,
        "ns", WallClock,
        "Model construction (SAN assembly + reward compilation)";
    SpanLint = "span_lint_ns", Histogram,
        "ns", WallClock,
        "Whole static-lint pass over one model";
    SpanLintDeclaration = "span_lint_declaration_ns", Histogram,
        "ns", WallClock,
        "Lint pass 1: declaration soundness probing";
    SpanLintStructural = "span_lint_structural_ns", Histogram,
        "ns", WallClock,
        "Lint pass 2: structural analysis";
    SpanLintReward = "span_lint_reward_ns", Histogram,
        "ns", WallClock,
        "Lint pass 3: reward linting";
    SpanReachExplore = "span_reach_explore_ns", Histogram,
        "ns", WallClock,
        "Reachability exploration of the marking graph";
    SpanGeneratorAssembly = "span_generator_assembly_ns", Histogram,
        "ns", WallClock,
        "Sparse CTMC generator assembly from the reachable set";
    SpanSolve = "span_solve_ns", Histogram,
        "ns", WallClock,
        "Analytic solve (steady-state / transient) of an assembled chain";
    SpanReplicate = "span_replicate_ns", Histogram,
        "ns", WallClock,
        "One replication batch through the experiment runner";
    SpanCheckpointWrite = "span_checkpoint_write_ns", Histogram,
        "ns", WallClock,
        "Checkpoint serialisation + write (excluding the rename)";
    SpanCheckpointRename = "span_checkpoint_rename_ns", Histogram,
        "ns", WallClock,
        "Atomic rename publishing a written checkpoint";
    SpanReportRender = "span_report_render_ns", Histogram,
        "ns", WallClock,
        "Rendering one report through a sink (text/CSV/JSON)";
}

/// Cells per metric in a shard: `[count-or-value, sum, min, max]`.
/// Counters use cell 0 only; histograms use all four.
const STRIDE: usize = 4;

/// The global enable flag. Off by default; every recording call starts
/// with one relaxed load of this.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One thread's private accumulator block.
struct Shard {
    cells: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Shard {
        let cells: Vec<AtomicU64> = (0..METRICS.len() * STRIDE)
            .map(|i| {
                // Min cells start saturated so the first observation wins.
                AtomicU64::new(if i % STRIDE == 2 { u64::MAX } else { 0 })
            })
            .collect();
        Shard { cells: cells.into_boxed_slice() }
    }
}

/// Every shard ever registered. Shards are never removed: a dead thread's
/// final counts stay visible (counters are monotone), and the `Arc` keeps
/// the cells alive for snapshotting.
static SHARDS: LazyLock<Mutex<Vec<Arc<Shard>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

thread_local! {
    /// This thread's shard, registered globally on first use.
    static LOCAL: Arc<Shard> = {
        let shard = Arc::new(Shard::new());
        SHARDS.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&shard));
        shard
    };
}

/// Whether telemetry is currently recording. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables recording until the guard drops, then restores the previous
/// state. The scoped form the study runner and tests use.
#[must_use]
pub fn enable_scoped() -> EnabledGuard {
    let previous = ENABLED.swap(true, Ordering::Relaxed);
    EnabledGuard { previous }
}

/// Restores the previous enable state on drop — see [`enable_scoped`].
pub struct EnabledGuard {
    previous: bool,
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        ENABLED.store(self.previous, Ordering::Relaxed);
    }
}

#[inline]
fn base(id: MetricId) -> usize {
    id as usize * STRIDE
}

/// Adds `n` to a counter. No-op when disabled or `n == 0`.
#[inline]
pub fn counter_add(id: MetricId, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    LOCAL.with(|shard| {
        shard.cells[base(id)].fetch_add(n, Ordering::Relaxed);
    });
}

/// Increments a counter by one. No-op when disabled.
#[inline]
pub fn counter_inc(id: MetricId) {
    counter_add(id, 1);
}

/// Records one histogram observation. No-op when disabled.
#[inline]
pub fn observe(id: MetricId, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|shard| {
        let b = base(id);
        shard.cells[b].fetch_add(1, Ordering::Relaxed);
        shard.cells[b + 1].fetch_add(value, Ordering::Relaxed);
        shard.cells[b + 2].fetch_min(value, Ordering::Relaxed);
        shard.cells[b + 3].fetch_max(value, Ordering::Relaxed);
    });
}

/// The current merged value of a counter (sum over every shard). Works
/// whether or not recording is enabled — reading is always allowed.
pub fn counter_value(id: MetricId) -> u64 {
    let shards = SHARDS.lock().unwrap_or_else(PoisonError::into_inner);
    shards.iter().map(|s| s.cells[base(id)].load(Ordering::Relaxed)).sum()
}

/// A drop-timed phase span: construct via [`span`], record on drop into
/// the metric's `*_ns` histogram. Costs one `Instant::now()` at each end
/// when enabled, nothing at all when disabled.
#[must_use]
pub struct Span {
    id: MetricId,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.id, u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Starts a span over the given `span_*_ns` histogram. When telemetry is
/// disabled the returned guard is inert (no clock read at either end).
pub fn span(id: MetricId) -> Span {
    Span { id, start: enabled().then(Instant::now) }
}

// ---------------------------------------------------------------------
// Snapshots and rendering
// ---------------------------------------------------------------------

/// One metric's merged value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricSample {
    /// Stable metric name from the registry.
    pub name: String,
    /// `"counter"` or `"histogram"`.
    pub kind: String,
    /// Unit of `value` (and of `min`/`max` for histograms).
    pub unit: String,
    /// Reproducibility tag: `"deterministic"`, `"scheduling"`, or
    /// `"wall_clock"`.
    pub determinism: String,
    /// Counter total or histogram sum.
    pub value: f64,
    /// Observation count — histograms only.
    pub count: Option<u64>,
    /// Smallest observation — histograms with at least one observation.
    pub min: Option<f64>,
    /// Largest observation — histograms with at least one observation.
    pub max: Option<f64>,
}

/// A merged view of every registered metric at one instant, produced by
/// [`snapshot`]. Renders as text, CSV, JSON (via `serde`), and
/// Prometheus-style exposition.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// One sample per registry entry, in registry order.
    pub samples: Vec<MetricSample>,
}

/// Merges every shard into a [`TelemetrySnapshot`]. Reading is always
/// allowed (enabled or not); concurrent recording is safe — each cell is
/// read with one relaxed load, so a snapshot taken mid-run is a
/// consistent-enough monotone view, and one taken after the pool
/// quiesced is exact (the registry mutex ordered all worker writes).
pub fn snapshot() -> TelemetrySnapshot {
    let shards: Vec<Arc<Shard>> = SHARDS.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let samples = METRICS
        .iter()
        .map(|def| {
            let b = base(def.id);
            match def.kind {
                MetricKind::Counter => {
                    let total: u64 =
                        shards.iter().map(|s| s.cells[b].load(Ordering::Relaxed)).sum();
                    sample_of(def, total as f64, None, None, None)
                }
                MetricKind::Histogram => {
                    let mut count = 0u64;
                    let mut sum = 0u64;
                    let mut min = u64::MAX;
                    let mut max = 0u64;
                    for s in &shards {
                        count += s.cells[b].load(Ordering::Relaxed);
                        sum += s.cells[b + 1].load(Ordering::Relaxed);
                        min = min.min(s.cells[b + 2].load(Ordering::Relaxed));
                        max = max.max(s.cells[b + 3].load(Ordering::Relaxed));
                    }
                    let (lo, hi) = if count == 0 {
                        (None, None)
                    } else {
                        (Some(min as f64), Some(max as f64))
                    };
                    sample_of(def, sum as f64, Some(count), lo, hi)
                }
            }
        })
        .collect();
    TelemetrySnapshot { samples }
}

fn sample_of(
    def: &MetricDef,
    value: f64,
    count: Option<u64>,
    min: Option<f64>,
    max: Option<f64>,
) -> MetricSample {
    MetricSample {
        name: def.name.to_string(),
        kind: def.kind.name().to_string(),
        unit: def.unit.to_string(),
        determinism: def.determinism.name().to_string(),
        value,
        count,
        min,
        max,
    }
}

impl TelemetrySnapshot {
    /// The sample with the given registry name, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// The difference of this snapshot against an earlier `baseline`:
    /// counter values and histogram count/sum are subtracted, so the
    /// result covers exactly the work between the two snapshots. Histogram
    /// min/max keep the current (process-lifetime) extremes — noted in the
    /// schema rather than fudged.
    pub fn delta_since(&self, baseline: &TelemetrySnapshot) -> TelemetrySnapshot {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let mut out = s.clone();
                if let Some(b) = baseline.get(&s.name) {
                    out.value = (s.value - b.value).max(0.0);
                    if let (Some(c), Some(bc)) = (s.count, b.count) {
                        out.count = Some(c.saturating_sub(bc));
                        if out.count == Some(0) {
                            out.min = None;
                            out.max = None;
                        }
                    }
                }
                out
            })
            .collect();
        TelemetrySnapshot { samples }
    }

    /// Samples that recorded anything (non-zero counters and histograms).
    pub fn active(&self) -> impl Iterator<Item = &MetricSample> {
        self.samples.iter().filter(|s| s.value != 0.0 || s.count.unwrap_or(0) != 0)
    }

    /// Aligned human-readable table of every metric (zero rows included,
    /// so the full schema is visible).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        let _ = writeln!(out, "telemetry ({} metrics)", self.samples.len());
        let name_w = self.samples.iter().map(|s| s.name.len()).max().unwrap_or(4).max(6);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<9}  {:<5}  {:<13}  {:>16}  {:>10}",
            "metric", "kind", "unit", "determinism", "value", "count"
        );
        for s in &self.samples {
            let count = s.count.map_or(String::from("-"), |c| c.to_string());
            let _ = writeln!(
                out,
                "{:<name_w$}  {:<9}  {:<5}  {:<13}  {:>16}  {:>10}",
                s.name,
                s.kind,
                s.unit,
                s.determinism,
                format_value(s.value),
                count
            );
        }
        out
    }

    /// RFC-4180 CSV: one header plus one row per metric.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::from("metric,kind,unit,determinism,value,count,min,max\r\n");
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}\r",
                s.name,
                s.kind,
                s.unit,
                s.determinism,
                format_value(s.value),
                s.count.map_or(String::new(), |c| c.to_string()),
                s.min.map_or(String::new(), format_value),
                s.max.map_or(String::new(), format_value),
            );
        }
        out
    }

    /// Pretty-printed JSON document (`{"samples": [...]}`), the
    /// machine-readable artifact format CI archives.
    pub fn to_json(&self) -> String {
        serde::to_json_pretty(self)
    }

    /// Prometheus-style text exposition, suitable for writing to a file a
    /// scraper watches. Counters expose one line; histograms expose
    /// `_count` / `_sum` / `_min` / `_max` series. Every line
    /// carries a `determinism` label.
    pub(crate) fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        for s in &self.samples {
            let _ = writeln!(out, "# HELP {} {}", s.name, help_of(&s.name));
            match s.kind.as_str() {
                "counter" => {
                    let _ = writeln!(out, "# TYPE {} counter", s.name);
                    let _ = writeln!(
                        out,
                        "{}{{determinism=\"{}\"}} {}",
                        s.name,
                        s.determinism,
                        format_value(s.value)
                    );
                }
                _ => {
                    let _ = writeln!(out, "# TYPE {} summary", s.name);
                    let count = s.count.unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "{}_count{{determinism=\"{}\"}} {count}",
                        s.name, s.determinism
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{{determinism=\"{}\"}} {}",
                        s.name,
                        s.determinism,
                        format_value(s.value)
                    );
                    if let (Some(min), Some(max)) = (s.min, s.max) {
                        let _ = writeln!(
                            out,
                            "{}_min{{determinism=\"{}\"}} {}",
                            s.name,
                            s.determinism,
                            format_value(min)
                        );
                        let _ = writeln!(
                            out,
                            "{}_max{{determinism=\"{}\"}} {}",
                            s.name,
                            s.determinism,
                            format_value(max)
                        );
                    }
                }
            }
        }
        out
    }

    /// Writes the Prometheus-style exposition to `path` atomically
    /// (write to `path.tmp`, then rename), so a scraper never reads a
    /// torn file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written or renamed.
    pub fn write_prometheus(&self, path: &str) -> std::io::Result<()> {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, self.to_prometheus())?;
        std::fs::rename(&tmp, path)
    }
}

fn help_of(name: &str) -> &'static str {
    METRICS.iter().find(|d| d.name == name).map_or("", |d| d.help)
}

/// Renders an f64 without a trailing `.0` for integral values, matching
/// the counter-dominated output.
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value}")
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Telemetry options a run spec carries — see
/// `RunSpec::with_telemetry` in `cfs-model`. Constructing one opts the
/// run into metric recording and a [`TelemetrySnapshot`] on its report;
/// the builder methods add the live progress line and the Prometheus
/// exposition file.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct TelemetryConfig {
    /// Paint a live progress line on stderr while the run executes.
    pub progress: bool,
    /// Sampler period for the progress line, milliseconds (default 500).
    pub progress_interval_ms: u64,
    /// When set, write the Prometheus-style exposition to this file after
    /// the run (atomic rename, scraper-safe).
    pub exposition_path: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::new()
    }
}

impl TelemetryConfig {
    /// Metrics recording + snapshot on the report; no progress line, no
    /// exposition file.
    pub fn new() -> TelemetryConfig {
        TelemetryConfig { progress: false, progress_interval_ms: 500, exposition_path: None }
    }

    /// Enables the live stderr progress line.
    #[must_use]
    pub fn with_progress(mut self) -> TelemetryConfig {
        self.progress = true;
        self
    }

    /// Sets the progress sampler period in milliseconds.
    #[must_use]
    pub fn with_progress_interval_ms(mut self, ms: u64) -> TelemetryConfig {
        self.progress_interval_ms = ms;
        self
    }

    /// Writes the Prometheus exposition to `path` when the run finishes.
    #[must_use]
    pub fn with_exposition_path(mut self, path: impl Into<String>) -> TelemetryConfig {
        self.exposition_path = Some(path.into());
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description when the sampler interval is zero or the
    /// exposition path is empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.progress_interval_ms == 0 {
            return Err("telemetry progress_interval_ms must be at least 1".to_string());
        }
        if self.exposition_path.as_deref() == Some("") {
            return Err("telemetry exposition_path must not be empty".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------

/// Handle to the progress sampler thread started by [`start_progress`];
/// stops (and joins) the thread on drop, painting a final line.
pub struct ProgressSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the live progress sampler: a thread that wakes every
/// `interval`, reads the replication counters with relaxed loads (it
/// never takes a lock the hot path could contend on), and paints a
/// stderr line with completed/scheduled counts, the run-average
/// replication rate, and an ETA extrapolated from the currently
/// scheduled work — which grows as the adaptive stopping rule schedules
/// further batches, so the ETA tightens as the run converges.
///
/// `deadline` is the run's wall-clock budget when one was configured:
/// the line warns when the ETA overshoots the remaining budget and
/// announces truncation once the budget is spent.
///
/// On a terminal the line repaints in place (`\r`); on a pipe it prints
/// one full line per sample. The sampler stops when the returned handle
/// drops.
pub fn start_progress(interval: Duration, deadline: Option<Duration>) -> ProgressSampler {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let completed0 = counter_value(MetricId::ReplicationsCompleted);
    let scheduled0 = counter_value(MetricId::ReplicationsScheduled);
    let handle = std::thread::Builder::new()
        .name("cfs-telemetry-progress".to_string())
        .spawn(move || {
            let start = Instant::now();
            let tty = std::io::stderr().is_terminal();
            loop {
                let stopping = stop_flag.load(Ordering::Relaxed);
                let elapsed = start.elapsed().as_secs_f64();
                let done = counter_value(MetricId::ReplicationsCompleted) - completed0;
                let scheduled = counter_value(MetricId::ReplicationsScheduled) - scheduled0;
                let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
                let remaining = scheduled.saturating_sub(done);
                let eta = if rate > 0.0 { remaining as f64 / rate } else { f64::INFINITY };
                let mut line = format!(
                    "[telemetry] {done}/{scheduled} replications · {} repl/s · ETA {}",
                    format_rate(rate),
                    format_eta(eta),
                );
                if let Some(budget) = deadline {
                    let left = budget.as_secs_f64() - elapsed;
                    if left <= 0.0 {
                        line.push_str(" · deadline expired, truncating");
                    } else if eta > left {
                        line.push_str(" · WARNING: ETA exceeds deadline");
                    }
                }
                if tty {
                    eprint!("\r{line}\x1b[K");
                } else {
                    eprintln!("{line}");
                }
                if stopping {
                    if tty {
                        eprintln!();
                    }
                    return;
                }
                std::thread::sleep(interval);
            }
        })
        .expect("failed to spawn telemetry progress thread");
    ProgressSampler { stop, handle: Some(handle) }
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

fn format_eta(eta: f64) -> String {
    if !eta.is_finite() {
        return "?".to_string();
    }
    if eta >= 3600.0 {
        format!("{:.1}h", eta / 3600.0)
    } else if eta >= 60.0 {
        format!("{:.1}m", eta / 60.0)
    } else {
        format!("{eta:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; tests that record serialize on
    /// this lock so concurrent test threads cannot pollute each other's
    /// deltas.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn registry_is_consistent() {
        for (index, def) in METRICS.iter().enumerate() {
            assert_eq!(def.id as usize, index, "{} is out of order", def.name);
            assert!(!def.name.is_empty() && !def.help.is_empty());
        }
        // Names are unique.
        let mut names: Vec<&str> = METRICS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "metric names must be unique");
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = locked();
        ENABLED.store(false, Ordering::Relaxed);
        let baseline = snapshot();
        counter_add(MetricId::SanEventsFired, 1000);
        observe(MetricId::PoolBatchSize, 7);
        drop(span(MetricId::SpanLint));
        let delta = snapshot().delta_since(&baseline);
        assert_eq!(delta.get("san_events_fired_total").unwrap().value, 0.0);
        assert_eq!(delta.get("pool_batch_size").unwrap().count, Some(0));
        let lint = delta.get("span_lint_ns").unwrap();
        assert_eq!(lint.count, Some(0), "a disabled span records no observation");
    }

    #[test]
    fn counters_accumulate_across_threads_and_delta_subtracts() {
        let _guard = locked();
        let _on = enable_scoped();
        let baseline = snapshot();
        counter_add(MetricId::SanEventsFired, 5);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    counter_add(MetricId::SanEventsFired, 10);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let delta = snapshot().delta_since(&baseline);
        assert_eq!(delta.get("san_events_fired_total").unwrap().value, 45.0);
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let _guard = locked();
        let _on = enable_scoped();
        let baseline = snapshot();
        observe(MetricId::PoolBatchSize, 3);
        observe(MetricId::PoolBatchSize, 9);
        observe(MetricId::PoolBatchSize, 6);
        let delta = snapshot().delta_since(&baseline);
        let s = delta.get("pool_batch_size").unwrap();
        assert_eq!(s.count, Some(3));
        assert_eq!(s.value, 18.0);
        // min/max are process-lifetime extremes, so only bound them.
        assert!(s.min.unwrap() <= 3.0);
        assert!(s.max.unwrap() >= 9.0);
    }

    #[test]
    fn spans_record_into_their_histogram() {
        let _guard = locked();
        let _on = enable_scoped();
        let baseline = snapshot();
        drop(span(MetricId::SpanLint));
        let delta = snapshot().delta_since(&baseline);
        let s = delta.get("span_lint_ns").unwrap();
        assert_eq!(s.count, Some(1));
        assert_eq!(s.determinism, "wall_clock");
    }

    #[test]
    fn renderings_cover_the_schema() {
        let _guard = locked();
        let _on = enable_scoped();
        counter_add(MetricId::SanEventsFired, 3);
        observe(MetricId::PoolBatchSize, 4);
        let snap = snapshot();

        let text = snap.to_text();
        assert!(text.contains("san_events_fired_total"), "{text}");
        assert!(text.contains("deterministic"), "{text}");

        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,kind,unit,determinism,value,count,min,max\r\n"));
        assert!(csv.contains("pool_batch_size,histogram,count,scheduling"), "{csv}");

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE san_events_fired_total counter"), "{prom}");
        assert!(prom.contains("# HELP san_events_fired_total"), "{prom}");
        assert!(prom.contains("pool_batch_size_count{determinism=\"scheduling\"}"), "{prom}");

        let json = serde::to_json(&snap);
        assert!(json.contains("\"samples\""), "{json}");
        assert!(json.contains("\"determinism\":\"deterministic\""), "{json}");
    }

    #[test]
    fn prometheus_exposition_writes_atomically() {
        let _guard = locked();
        let dir = std::env::temp_dir().join("cfs-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let path = path.to_str().unwrap();
        snapshot().write_prometheus(path).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("# TYPE replications_completed_total counter"), "{body}");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn config_builder_and_validation() {
        let config = TelemetryConfig::new();
        assert!(!config.progress);
        assert!(config.validate().is_ok());
        let config = config.with_progress().with_progress_interval_ms(100);
        assert!(config.progress);
        assert_eq!(config.progress_interval_ms, 100);
        assert!(config.validate().is_ok());
        assert!(config.clone().with_progress_interval_ms(0).validate().is_err());
        let with_path = TelemetryConfig::new().with_exposition_path("metrics.prom");
        assert_eq!(with_path.exposition_path.as_deref(), Some("metrics.prom"));
        assert!(with_path.validate().is_ok());
        let mut empty = TelemetryConfig::new();
        empty.exposition_path = Some(String::new());
        assert!(empty.validate().is_err());
    }

    #[test]
    fn config_serialises_with_stable_field_names() {
        let config = TelemetryConfig::new()
            .with_progress()
            .with_progress_interval_ms(250)
            .with_exposition_path("out.prom");
        let value = serde::json::parse(&serde::to_json(&config)).unwrap();
        assert_eq!(value.get("progress").and_then(serde::Value::as_bool), Some(true));
        assert_eq!(value.get("progress_interval_ms").and_then(serde::Value::as_u64), Some(250));
        assert_eq!(value.get("exposition_path").and_then(serde::Value::as_str), Some("out.prom"));
    }

    #[test]
    fn progress_sampler_starts_and_stops() {
        let _guard = locked();
        let _on = enable_scoped();
        counter_add(MetricId::ReplicationsScheduled, 10);
        counter_add(MetricId::ReplicationsCompleted, 10);
        let sampler = start_progress(Duration::from_millis(5), Some(Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(15));
        drop(sampler); // must join without hanging
    }

    #[test]
    fn rate_and_eta_formatting() {
        assert_eq!(format_rate(1_500_000.0), "1.50M");
        assert_eq!(format_rate(2_500.0), "2.5k");
        assert_eq!(format_rate(42.0), "42");
        assert_eq!(format_eta(f64::INFINITY), "?");
        assert_eq!(format_eta(7200.0), "2.0h");
        assert_eq!(format_eta(90.0), "1.5m");
        assert_eq!(format_eta(2.25), "2.2s");
    }
}
