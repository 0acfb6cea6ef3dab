//! `perfbench`: the end-to-end benchmark of the petascale-cfs workspace —
//! time-to-precision of the paper artefacts, the design-space sweeps and
//! checkpoint/resume, each at workers 1 and 2.
//!
//! ```text
//! perfbench --workload <paper-artefacts|design-space|checkpoint-resume>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run sets its workload up several times, then repeats a workers-1 and
//! a workers-2 pass for `--seconds`, checking every report. Its last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of traced passes run alongside the untraced ones.
//! Metric names, units and what each should move are in
//! `interaction_map.json`.

mod metrics;
mod process;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cfs_model::{checkpoint, Report, ScenarioOutput, TelemetrySnapshot};
use probdist::telemetry::{MetricId, METRICS};

use metrics::{median, ratio_or_zero, Schema};
use workload::{fingerprint, Bench, Pass, ScenarioTrace, Tally, Workload, TARGET};

const USAGE: &str = "usage: perfbench --workload <paper-artefacts|design-space|checkpoint-resume> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workload seed when none is given: the paper's DSN 2008 date.
const DEFAULT_SEED: u64 = 20_080_625;

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPEATS`, then more until `SETUP_MIN_SECONDS` have gone
/// into them, so a set-up of milliseconds is a median of many.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 100;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Outside timings of the checkpoint load and JSON parse are medians of
/// this many repeats.
const IO_REPEATS: usize = 5;

/// The seed of iteration `index`. Iterations sample several inputs, so a
/// run's medians do not hinge on one seed's amount of work (the
/// precision-targeted workloads stop at seed-dependent replication
/// counts). Iteration 0 runs `seed` itself.
fn iteration_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                seed =
                    value.parse().map_err(|_| format!("--seed takes an integer, got '{value}'"))?;
            }
            "--seconds" => {
                seconds =
                    value.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0).ok_or_else(
                        || format!("--seconds takes a positive number, got '{value}'"),
                    )?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                };
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// What the measurement loop records across iterations.
#[derive(Default)]
struct Samples {
    wall_w1: Vec<f64>,
    wall_w2: Vec<f64>,
    utilisation_w2: Vec<f64>,
    /// Workers-1 render times through the text, CSV and JSON sinks.
    render: [Vec<f64>; 3],
    /// Workers-1 seconds per scenario, summed over the pass's steps.
    scenario_s: BTreeMap<String, Vec<f64>>,
    /// Workers-1 seconds of the scenarios without replications.
    tables_s: Vec<f64>,
    write_pass_s: Vec<f64>,
    resume_pass_s: Vec<f64>,
    /// The first iteration's workers-1 report (its first step).
    report: Option<Report>,
    /// Traced over untraced wall of each traced iteration, minus one.
    trace_overhead: Vec<f64>,
    /// The first iteration's traced passes.
    by_scenario: Vec<ScenarioTrace>,
    traced_w2: Vec<TelemetrySnapshot>,
}

impl Samples {
    fn record(&mut self, w1: &Pass, w2: &Pass, tally: &mut Tally) {
        tally.check(prints(w1) == prints(w2), || "workers-1 and workers-2 reports differ".into());
        if self.report.is_none() {
            self.report = Some(w1.steps[0].report.clone());
        }

        self.wall_w1.push(w1.wall_s());
        self.wall_w2.push(w2.wall_s());
        self.utilisation_w2.push(metrics::utilisation(w2.cpu_s, 2, w2.wall_s()));
        for (slot, index) in self.render.iter_mut().zip(0..) {
            slot.push(w1.steps.iter().map(|step| step.render_s[index]).sum());
        }
        let mut per_scenario: BTreeMap<&str, f64> = BTreeMap::new();
        let mut tables = 0.0;
        for output in w1.steps.iter().flat_map(|step| &step.report.outputs) {
            let seconds = output.elapsed_seconds.unwrap_or(0.0);
            *per_scenario.entry(&output.scenario).or_default() += seconds;
            if output.replications_used.is_none() {
                tables += seconds;
            }
        }
        for (name, seconds) in per_scenario {
            self.scenario_s.entry(name.to_string()).or_default().push(seconds);
        }
        self.tables_s.push(tables);
        if let [write, resume] = w2.steps.as_slice() {
            self.write_pass_s.push(write.wall_s);
            self.resume_pass_s.push(resume.wall_s);
        }
    }

    /// Records the traced passes of the iteration whose untraced passes
    /// were `w1` and `w2`.
    fn record_traced(
        &mut self,
        (w1, w2): (&Pass, &Pass),
        by_scenario: Vec<ScenarioTrace>,
        traced_w2: &Pass,
        tally: &mut Tally,
    ) {
        tally.check(prints(traced_w2) == prints(w2), || "tracing changed the report".into());
        let report = &w1.steps[0].report;
        for trace in &by_scenario {
            let alone = trace.output.as_ref();
            let together =
                report.output(&trace.name).cloned().map(ScenarioOutput::without_wall_clock);
            tally.check(alone == together.as_ref(), || {
                format!("scenario '{}' run alone differs from its study output", trace.name)
            });
        }
        let traced_s = by_scenario.iter().map(|t| t.wall_s).sum::<f64>() + traced_w2.wall_s();
        self.trace_overhead.push(traced_s / (w1.wall_s() + w2.wall_s()) - 1.0);
        if self.by_scenario.is_empty() {
            self.by_scenario = by_scenario;
            self.traced_w2 =
                traced_w2.steps.iter().filter_map(|step| step.report.telemetry.clone()).collect();
        }
    }
}

/// Fingerprints of a pass's reports, one per step.
fn prints(pass: &Pass) -> Vec<String> {
    pass.steps.iter().map(|step| fingerprint(&step.report)).collect()
}

fn run(args: &Args, started: Instant) -> Result<String, String> {
    let schema = Schema::parse(metrics::INTERACTION_MAP)?;
    let scratch = process::Scratch::create()
        .map_err(|e| format!("cannot create a scratch directory: {e}"))?;
    let bench = Bench::new(args.workload, scratch.path());
    let mut tally = Tally::default();
    let fail = |e: cfs_model::CfsError| e.to_string();

    // The first set-up is timed from process start.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut from = started;
    while setup_s.len() < SETUP_MIN_REPEATS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup_s.len() < SETUP_MAX_REPEATS)
    {
        bench.setup(args.seed, &mut tally).map_err(fail)?;
        setup_s.push(from.elapsed().as_secs_f64());
        from = Instant::now();
    }

    // Iterate until the next iteration would overrun the budget; always
    // at least one.
    let budget = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut samples = Samples::default();
    for index in 0.. {
        let iteration = Instant::now();
        let seed = iteration_seed(args.seed, index);
        let w1 = bench.pass(seed, 1, false, &mut tally).map_err(fail)?;
        let w2 = bench.pass(seed, 2, false, &mut tally).map_err(fail)?;
        samples.record(&w1, &w2, &mut tally);
        if args.trace {
            let by_scenario = bench.traced_by_scenario(seed, &mut tally).map_err(fail)?;
            let traced_w2 = bench.pass(seed, 2, true, &mut tally).map_err(fail)?;
            samples.record_traced((&w1, &w2), by_scenario, &traced_w2, &mut tally);
        }
        if measuring.elapsed() + iteration.elapsed() > budget {
            break;
        }
    }

    let values =
        if args.trace { per_layer(&bench, &samples)? } else { end_to_end(&samples, &setup_s)? };
    let decls = if args.trace { &schema.per_layer } else { &schema.end_to_end };
    metrics::result_line(tally.attempted, tally.failed, decls, |name| values.get(name).copied())
}

fn end_to_end(samples: &Samples, setup_s: &[f64]) -> Result<BTreeMap<String, f64>, String> {
    let outputs = &samples.report.as_ref().expect("at least one iteration ran").outputs;
    let wall_w1 = median(&samples.wall_w1);
    let wall_w2 = median(&samples.wall_w2);
    let targets = metrics::targets_met(outputs.iter().flat_map(|o| &o.metrics), TARGET)
        .ok_or("the report has no confidence-interval metric")?;
    Ok(BTreeMap::from([
        ("setup_s".to_string(), median(setup_s)),
        ("wall_w1_s".to_string(), wall_w1),
        ("wall_w2_s".to_string(), wall_w2),
        ("scaling_w2".to_string(), metrics::scaling(wall_w1, wall_w2)),
        ("targets_met".to_string(), targets),
        ("peak_rss_mb".to_string(), process::peak_rss_mb()),
    ]))
}

/// A telemetry sample's value (a counter's total, a histogram's sum).
fn sample(snapshot: &TelemetrySnapshot, id: MetricId) -> f64 {
    snapshot.get(METRICS[id as usize].name).map_or(0.0, |s| s.value)
}

const NS: f64 = 1e-9;

fn per_layer(bench: &Bench, samples: &Samples) -> Result<BTreeMap<String, f64>, String> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };

    // Pool: the traced workers-2 pass.
    let w2 = |id| samples.traced_w2.iter().map(|t| sample(t, id)).sum::<f64>();
    put("pool.batches_claimed", w2(MetricId::PoolBatchesClaimed));
    put("pool.parks", w2(MetricId::PoolParks));
    put("pool.wakes", w2(MetricId::PoolWakes));
    put("pool.busy_s", w2(MetricId::PoolBusyNs) * NS);
    put("pool.idle_s", w2(MetricId::PoolIdleNs) * NS);
    put("pool.utilisation_w2", median(&samples.utilisation_w2));

    // Kernels: the traced workers-1 pass, scenario by scenario.
    let traces = &samples.by_scenario;
    let w1 = |id, keep: &dyn Fn(&ScenarioTrace) -> bool| -> f64 {
        traces.iter().filter(|t| keep(t)).map(|t| sample(&t.telemetry, id)).sum()
    };
    let wall = |keep: &dyn Fn(&ScenarioTrace) -> bool| -> f64 {
        traces.iter().filter(|t| keep(t)).map(|t| t.wall_s).sum()
    };
    let all = |_: &ScenarioTrace| true;
    let events = w1(MetricId::SanEventsFired, &all);
    let replicate_s = w1(MetricId::SpanReplicate, &all) * NS;
    put("sanet.events", events);
    put("sanet.replicate_s", replicate_s);
    put("sanet.events_per_s", ratio_or_zero(events, replicate_s));
    put(
        "sanet.reexaminations_per_event",
        ratio_or_zero(w1(MetricId::SanReexaminations, &all), events),
    );
    put("sanet.heap_ops_per_event", ratio_or_zero(w1(MetricId::SanHeapOps, &all), events));
    put("sanet.restarts", w1(MetricId::SanRestarts, &all));

    let storage_only = |t: &ScenarioTrace| {
        sample(&t.telemetry, MetricId::RaidMissions) > 0.0
            && sample(&t.telemetry, MetricId::SanEventsFired) == 0.0
    };
    put("raidsim.missions", w1(MetricId::RaidMissions, &all));
    put("raidsim.loss_events", w1(MetricId::RaidLossEvents, &all));
    put(
        "raidsim.us_per_mission",
        ratio_or_zero(wall(&storage_only) * 1e6, w1(MetricId::RaidMissions, &storage_only)),
    );
    let splitting = |t: &ScenarioTrace| sample(&t.telemetry, MetricId::SplittingLevelHits) > 0.0;
    put("splitting.level_hits", w1(MetricId::SplittingLevelHits, &all));
    put(
        "splitting.us_per_trial",
        ratio_or_zero(wall(&splitting) * 1e6, w1(MetricId::ReplicationsCompleted, &splitting)),
    );
    put("model.build_s", w1(MetricId::SpanModelBuild, &all) * NS);

    // Scenarios and report: the untraced workers-1 passes. Scenarios the
    // workload does not run read 0.
    let report = samples.report.as_ref().expect("at least one iteration ran");
    let used = report.outputs.iter().filter_map(|o| o.replications_used).sum::<u64>();
    put("replications_to_target", used as f64);
    for workload in Workload::ALL {
        for name in workload.scenario_names() {
            let [seconds, replications] = metrics::scenario_metric_names(&name);
            put(&seconds, samples.scenario_s.get(&name).map_or(0.0, |s| median(s)));
            let used = report.output(&name).and_then(|o| o.replications_used);
            put(&replications, used.unwrap_or(0) as f64);
        }
    }
    put("faultlog.tables_s", median(&samples.tables_s));
    let [text, csv, json] = &samples.render;
    put("report.render_text_s", median(text));
    put("report.render_csv_s", median(csv));
    put("report.render_json_s", median(json));

    // Checkpoint: the traced workers-2 write and resume steps, then the
    // finished file timed from outside.
    let step = |index: usize, id| samples.traced_w2.get(index).map_or(0.0, |t| sample(t, id));
    put("checkpoint.writes", step(0, MetricId::CheckpointWrites));
    put("checkpoint.bytes_written", step(0, MetricId::CheckpointBytes));
    put("checkpoint.resume_hits", step(1, MetricId::CheckpointResumeHits));
    put("checkpoint.write_s", step(0, MetricId::SpanCheckpointWrite) * NS);
    put("checkpoint.rename_s", step(0, MetricId::SpanCheckpointRename) * NS);
    put("checkpoint.write_pass_s", median_or_zero(&samples.write_pass_s));
    put("checkpoint.resume_pass_s", median_or_zero(&samples.resume_pass_s));
    let (file_bytes, load_s, parse_s) = if bench.workload == Workload::CheckpointResume {
        time_checkpoint_file(bench)?
    } else {
        (0.0, 0.0, 0.0)
    };
    put("checkpoint.file_bytes", file_bytes);
    put("checkpoint.load_s", load_s);
    put("json.parse_mb_per_s", ratio_or_zero(file_bytes / 1e6, parse_s));

    put("trace.overhead", median(&samples.trace_overhead));
    Ok(values)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Size of the finished checkpoint file, and the median seconds of
/// `checkpoint::load` and of `serde::json::parse` on its text.
fn time_checkpoint_file(bench: &Bench) -> Result<(f64, f64, f64), String> {
    let path = bench.checkpoint_path();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read the finished checkpoint {}: {e}", path.display()))?;
    let mut load_s = Vec::with_capacity(IO_REPEATS);
    let mut parse_s = Vec::with_capacity(IO_REPEATS);
    for _ in 0..IO_REPEATS {
        let start = Instant::now();
        let data = checkpoint::load(path).map_err(|e| e.to_string())?;
        load_s.push(start.elapsed().as_secs_f64());
        std::hint::black_box(data);
        let start = Instant::now();
        let value = serde::json::parse(&text).map_err(|e| e.to_string())?;
        parse_s.push(start.elapsed().as_secs_f64());
        std::hint::black_box(value);
    }
    Ok((text.len() as f64, median(&load_s), median(&parse_s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let parsed = args(&["--workload", "design-space"]).unwrap();
        assert_eq!(parsed.workload, Workload::DesignSpace);
        assert_eq!(parsed.seed, DEFAULT_SEED);
        assert!(!parsed.trace);
        let parsed = args(&[
            "--workload",
            "checkpoint-resume",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 2.5, true));
    }

    #[test]
    fn bad_arguments_are_named() {
        assert!(args(&[]).unwrap_err().contains("--workload"));
        assert!(args(&["--workload", "nope"]).unwrap_err().contains("nope"));
        assert!(args(&["--workload", "design-space", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "design-space", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "design-space", "--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).unwrap_err().contains("--bogus"));
    }
}
