//! Micro-benchmarks of the simulation substrates — lifetime sampling, the
//! stochastic-activity-network engine (event-calendar kernel vs the
//! retained naive reference kernel, on a 2-activity unit and on the full
//! composed ABE / petascale cluster models), the reachability explorer, the
//! storage Monte-Carlo kernel, and the design-space sweeps — plus the
//! rare-event estimators (replications to ±10 % and variance-reduction
//! factors of importance sampling and multilevel splitting on their
//! reference configs), the worker pool (a million replications at workers
//! 1 and 2), and the telemetry overhead on the kernel hot path.
//!
//! The harness is self-contained (no external benchmarking crate is
//! available offline): each kernel is warmed up, then timed in five
//! batches, keeping the fastest, so a burst of load from another process
//! on a shared machine costs one batch, not the row; the two arms of a
//! ratio alternate batch by batch, so drift lands on both. Every number
//! lands in the `BENCH.json` ledger ([`cfs_bench::write_bench_json`]) as one
//! [`BenchRecord`] — name, layer, unit, value, workers — which
//! `bench_guard` checks by unit. The work is fixed: no `CFS_BENCH_*`
//! variable but the output path `CFS_BENCH_JSON` is read, so every run
//! measures what the committed baseline measured, and every `count` row
//! repeats exactly.

use std::hint::black_box;
use std::time::Instant;

use cfs_bench::{BenchRecord, Unit, DEFAULT_SEED};
use cfs_model::model::build_cluster_model;
use cfs_model::rewards::standard_rewards;
use cfs_model::workloads::{BeowulfPerformabilitySweep, RedundancyScheme, ReplicationVsRaid};
use cfs_model::{ClusterConfig, RunSpec, Scenario};
use probdist::{Distribution, Exponential, SimRng, Weibull};
use raidsim::{RaidGeometry, StorageConfig, StorageSimulator};
use sanet::beowulf::BeowulfConfig;
use sanet::reward::RewardSpec;
use sanet::{Experiment, Model, ModelBuilder, Simulator, StoppingRule};

/// Timed batches per measurement.
const BATCHES: u64 = 5;

/// Runs each of `N` arms `warmup` times untimed, then times [`BATCHES`]
/// rounds of one `batch`-call batch per arm, alternating the arms so that
/// drift on a shared machine lands on each alike. `f(arm)` makes one call
/// of an arm and returns the work units it did (events, states, or 1 per
/// call). Returns, per arm, the fastest batch's work units per second and
/// the work summed over every timed call, which a fixed seed makes exact.
fn measure<const N: usize>(
    warmup: u64,
    batch: u64,
    mut f: impl FnMut(usize) -> u64,
) -> [(f64, u64); N] {
    for arm in 0..N {
        for _ in 0..warmup {
            black_box(f(arm));
        }
    }
    let mut arms = [(0.0f64, 0u64); N];
    for _ in 0..BATCHES {
        for (arm, (best_rate, total)) in arms.iter_mut().enumerate() {
            let mut work = 0;
            let start = Instant::now();
            for _ in 0..batch {
                work += f(arm);
            }
            *best_rate = best_rate.max(work as f64 / start.elapsed().as_secs_f64());
            *total += work;
        }
    }
    arms
}

/// Prints a row and appends it to the ledger.
fn record(ledger: &mut Vec<BenchRecord>, row: BenchRecord) {
    println!(
        "{:<44} {:>16.2} {:<8} [{}, {}w]",
        row.name,
        row.value,
        row.unit.label(),
        row.layer,
        row.workers
    );
    ledger.push(row);
}

fn bench_distributions(ledger: &mut Vec<BenchRecord>) {
    fn ns_per_sample(dist: &impl Distribution) -> f64 {
        let mut rng = SimRng::seed_from_u64(1);
        let [(per_sec, _)] = measure(10_000, 200_000, |_| {
            black_box(dist.sample(&mut rng));
            1
        });
        1e9 / per_sec
    }
    let weibull = Weibull::from_shape_and_mean(0.7, 300_000.0).unwrap();
    let exponential = Exponential::from_mean(300_000.0).unwrap();
    for (name, ns) in [
        ("weibull_sample", ns_per_sample(&weibull)),
        ("exponential_sample", ns_per_sample(&exponential)),
    ] {
        record(ledger, BenchRecord::new(name, "probdist", Unit::NsPerIter, ns));
    }
}

/// The 2-activity repairable unit (`up` → `fail` → `down` → `repair` →
/// `up`, exponential times of the given means) and its availability reward.
fn repairable_unit(mean_up: f64, mean_repair: f64) -> (Model, RewardSpec) {
    let mut builder = ModelBuilder::new("unit");
    let up = builder.add_place("up", 1).unwrap();
    let down = builder.add_place("down", 0).unwrap();
    builder
        .timed_activity("fail", Exponential::from_mean(mean_up).unwrap())
        .unwrap()
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()
        .unwrap();
    builder
        .timed_activity("repair", Exponential::from_mean(mean_repair).unwrap())
        .unwrap()
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()
        .unwrap();
    let avail =
        RewardSpec::time_averaged_rate("avail", move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 });
    (builder.build().unwrap(), avail)
}

fn bench_san_engine(ledger: &mut Vec<BenchRecord>) {
    let (model, avail) = repairable_unit(100.0, 4.0);
    let rewards = vec![avail];
    let sim = Simulator::new(&model);
    // `run` auto-selects the naive kernel for this 2-activity model (the
    // small-model crossover fallback), so the two rows should be nearly
    // equal; before the auto-selection the first row ran the calendar
    // kernel at ~16.2M events/s vs the reference's ~24.6M.
    let mut rngs = [SimRng::seed_from_u64(7), SimRng::seed_from_u64(7)];
    let [(run, _), (reference, _)] = measure(5, 40, |arm| {
        let rng = &mut rngs[arm];
        let result = if arm == 0 {
            sim.run(&rewards, 8760.0, 0.0, rng)
        } else {
            sim.run_reference(&rewards, 8760.0, 0.0, rng)
        };
        result.unwrap().events
    });
    for (name, per_sec) in [
        ("san_engine_one_year_repairable_unit", run),
        ("san_engine_one_year_repairable_unit_ref", reference),
    ] {
        record(ledger, BenchRecord::new(name, "sanet", Unit::EventsPerSec, per_sec));
    }
}

/// The paper's composed cluster models, run single-replication through both
/// kernels. This is the bench the event-calendar engine exists for: the
/// reference kernel's per-event cost grows with the activity count (the
/// full rescan), the calendar kernel's only with the affected set, so the
/// gap widens from ABE (~34 activities) to petascale (~250).
fn bench_san_composed_models(ledger: &mut Vec<BenchRecord>) {
    // Five simulated years per iteration: long enough that per-replication
    // setup (schedule allocation, the initial full sampling pass) amortises
    // away and the numbers measure steady-state event throughput.
    for (config, horizon, batch) in
        [(ClusterConfig::abe(), 43_800.0_f64, 20_u64), (ClusterConfig::petascale(), 21_900.0, 4)]
    {
        let cluster = build_cluster_model(&config).unwrap();
        let rewards = standard_rewards(&cluster);
        let sim = Simulator::new(&cluster.model);
        let label = config.name.to_lowercase();

        let mut rngs = [SimRng::seed_from_u64(11), SimRng::seed_from_u64(11)];
        let [(calendar, events), (reference, reference_events)] = measure(3, batch, |arm| {
            let rng = &mut rngs[arm];
            let result = if arm == 0 {
                sim.run(&rewards, horizon, 0.0, rng)
            } else {
                sim.run_reference(&rewards, horizon, 0.0, rng)
            };
            result.unwrap().events
        });
        // The kernels are bit-identical (tests/engine_differential.rs), so
        // one count row stands for both.
        assert_eq!(events, reference_events, "the kernels fired different events on {label}");

        let rows = [
            (format!("san_{label}_model_calendar"), Unit::EventsPerSec, calendar),
            (format!("san_{label}_model_reference"), Unit::EventsPerSec, reference),
            (format!("san_{label}_model_calendar_speedup"), Unit::Ratio, calendar / reference),
            (format!("san_{label}_model_events"), Unit::Count, events as f64),
        ];
        for (name, unit, value) in rows {
            record(ledger, BenchRecord::new(name, "sanet", unit, value));
        }
    }
}

/// The reachability explorer ([`sanet::reach`]): interned markings per
/// second while exploring the ABE cluster model under a fixed 2 000-state
/// budget. The model is unbounded, so the budget pins the work per
/// iteration exactly — every iteration interns the same 2 000 markings,
/// evaluates the same marking-dependent timings, and classifies the same
/// SCC structure, making the states/s figure comparable across runs.
fn bench_reach(ledger: &mut Vec<BenchRecord>) {
    let cluster = build_cluster_model(&ClusterConfig::abe()).unwrap();
    let config =
        sanet::ReachConfig { max_states: 2_000, max_transitions: 100_000, ..Default::default() };
    let [(per_sec, _)] = measure(2, 2, |_| cluster.model.analyze_with(&config).num_states() as u64);
    record(
        ledger,
        BenchRecord::new("reach_states_per_sec", "sanet::reach", Unit::StatesPerSec, per_sec),
    );
}

fn bench_storage_kernel(ledger: &mut Vec<BenchRecord>) {
    let sim = StorageSimulator::new(StorageConfig::abe_scratch()).unwrap();
    let mut rng = SimRng::seed_from_u64(3);
    let [(per_sec, _)] = measure(5, 40, |_| {
        black_box(sim.run_once(8760.0, &mut rng));
        1
    });
    record(
        ledger,
        BenchRecord::new(
            "storage_monte_carlo_abe_one_year",
            "raidsim",
            Unit::NsPerIter,
            1e9 / per_sec,
        ),
    );
}

/// The design-space sweep subsystem: both workload families evaluated as
/// scenarios on one worker, in nanoseconds per whole-sweep evaluation.
fn bench_design_space_sweeps(ledger: &mut Vec<BenchRecord>) {
    let spec = RunSpec::new()
        .with_horizon_hours(4380.0)
        .with_replications(8)
        .with_base_seed(2008)
        .with_workers(1);

    let raid_vs_repl = ReplicationVsRaid {
        usable_capacity_tb: 24.0,
        schemes: vec![
            RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
            RedundancyScheme::Replication { replicas: 3 },
        ],
        afr_percents: vec![2.92, 8.76],
    };
    let beowulf = BeowulfPerformabilitySweep {
        worker_counts: vec![32, 128],
        repair_crews: vec![1, 4],
        base: BeowulfConfig {
            worker_mtbf_hours: 1_000.0,
            worker_repair_hours: 12.0,
            ..BeowulfConfig::default()
        },
    };
    let sweeps = [&raid_vs_repl as &dyn Scenario, &beowulf];
    let [(raid, _), (beowulf, _)] = measure(2, 2, |arm| {
        black_box(sweeps[arm].evaluate(&spec).unwrap());
        1
    });
    for (name, per_sec) in
        [("sweep_replication_vs_raid", raid), ("sweep_beowulf_performability", beowulf)]
    {
        record(
            ledger,
            BenchRecord::new(name, "cfs_model::workloads", Unit::NsPerIter, 1e9 / per_sec),
        );
    }
}

/// The rare-event estimators on their reference configs, each run on one
/// worker to a ±10 % relative half-width: the replications that took (a
/// `count`, fixed by the seed), the measured variance-reduction factor
/// against naive Monte Carlo (a `ratio`, also fixed by the seed), and the
/// time per replication.
fn bench_rare_event(ledger: &mut Vec<BenchRecord>) {
    use probdist::rare::naive_replications_for;
    use raidsim::{DiskModel, ReplicationConfig};
    use sanet::rare::{failover_pair, BiasedExperiment, FailureBias};

    // Reference rare-event config #1: the fail-over pair hitting
    // probability (~2e-5 within a 10-hour window), importance-sampled with
    // a 60x failure tilt.
    let (lambda, mu, horizon) = (1e-3, 1.0, 10.0);
    let pair = failover_pair(lambda, mu).unwrap();
    let bias = FailureBias::new(60.0, ["fail"]).unwrap();
    let mut experiment = BiasedExperiment::new(&pair.model, bias, horizon).unwrap();
    experiment.add_reward(pair.hit_reward()).set_workers(1);
    let rule = StoppingRule::new(0.10, 1_000, 100_000).unwrap();
    let start = Instant::now();
    let summary = experiment.run(&rule, DEFAULT_SEED).unwrap();
    let secs = start.elapsed().as_secs_f64();
    let estimate = summary.reward("hit").unwrap();
    let p = estimate.interval.point;
    let rhw = estimate.interval.relative_half_width().max(1e-6);
    let naive = naive_replications_for(p.clamp(1e-12, 0.5), rhw, 0.95).unwrap();
    let replications = summary.replications as f64;
    let rows = [
        ("rare_event_is_replications_to_10pct", Unit::Count, replications),
        ("rare_event_is_variance_reduction", Unit::Ratio, naive / replications),
        ("rare_event_is_replication", Unit::NsPerIter, secs * 1e9 / replications),
    ];
    for (name, unit, value) in rows {
        record(ledger, BenchRecord::new(name, "sanet::rare", unit, value));
    }

    // Reference rare-event config #2: a 3-way replicated store's data-loss
    // probability by multilevel splitting.
    let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 20_000.0, capacity_gb: 250.0 };
    let config = ReplicationConfig {
        disks: 24,
        replicas: 3,
        disk,
        re_replication_hours: 4.0,
        replacement_hours: 4.0,
        data_loss_recovery_hours: 24.0,
    };
    let sim = StorageSimulator::new(config).unwrap();
    let rule = StoppingRule::new(0.10, 1_000, 64_000).unwrap();
    let start = Instant::now();
    let result = sim.splitting_loss_probability(2190.0, &rule, DEFAULT_SEED, 0.95, 1).unwrap();
    let secs = start.elapsed().as_secs_f64();
    let trials = result.estimate.replications as f64;
    let rows = [
        ("rare_event_splitting_trials_to_10pct", Unit::Count, trials),
        (
            "rare_event_splitting_variance_reduction",
            Unit::Ratio,
            result.estimate.variance_reduction_factor,
        ),
        ("rare_event_splitting_trial", Unit::NsPerIter, secs * 1e9 / trials),
    ];
    for (name, unit, value) in rows {
        record(ledger, BenchRecord::new(name, "raidsim::splitting", unit, value));
    }
}

/// The worker pool's hot path: a million replications of the 2-activity
/// repairable unit through [`sanet::Experiment`] directly (the `RunSpec`
/// surface caps replications at 100 000; the experiment API has no cap),
/// with workers 1 and 2 as the two arms. Each replication is about a
/// microsecond of kernel work, so any per-replication scheduling or
/// allocation overhead shows up directly; the workers-2 over workers-1
/// speedup guards the pool layer.
fn bench_million_replications(ledger: &mut Vec<BenchRecord>) {
    const REPLICATIONS: usize = 1_000_000;
    let (model, avail) = repairable_unit(1_000.0, 10.0);
    let mut experiment = Experiment::new(model, 10_000.0);
    experiment.add_reward(avail);

    let rule = StoppingRule::fixed(REPLICATIONS).unwrap();
    let per_sec = measure::<2>(0, 1, |arm| {
        experiment.set_workers(arm + 1);
        let summary = black_box(experiment.run(&rule, DEFAULT_SEED).unwrap());
        assert_eq!(summary.replications, REPLICATIONS);
        REPLICATIONS as u64
    })
    .map(|(per_sec, _)| per_sec);
    println!(
        "study_million_replications: {} cores available",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    for (workers, per_sec) in [1, 2].into_iter().zip(per_sec) {
        let row = BenchRecord::new(
            "study_million_replications",
            "probdist::parallel",
            Unit::NsPerIter,
            1e9 / per_sec,
        );
        record(ledger, row.with_workers(workers));
    }
    let speedup = BenchRecord::new(
        "study_million_replications_speedup",
        "probdist::parallel",
        Unit::Ratio,
        per_sec[1] / per_sec[0],
    );
    record(ledger, speedup.with_workers(2));
}

/// Telemetry overhead on the hot kernel path: the composed ABE model run
/// through the calendar kernel with the sharded accumulators disabled and
/// enabled, as the two alternating arms of one measurement. The regression
/// lands in BENCH.json in percentage points (unit `percent`), which
/// `bench_guard` fails if it grows more than 2 points over the committed
/// baseline.
fn bench_telemetry_overhead(ledger: &mut Vec<BenchRecord>) {
    let cluster = build_cluster_model(&ClusterConfig::abe()).unwrap();
    let rewards = standard_rewards(&cluster);
    let sim = Simulator::new(&cluster.model);
    let mut rngs = [SimRng::seed_from_u64(13), SimRng::seed_from_u64(13)];
    let [(disabled, _), (enabled, _)] = measure(1, 42, |arm| {
        let _telemetry = (arm == 1).then(probdist::telemetry::enable_scoped);
        sim.run(&rewards, 8760.0, 0.0, &mut rngs[arm]).unwrap().events
    });
    let overhead_pct = (1.0 - enabled / disabled) * 100.0;
    record(
        ledger,
        BenchRecord::new(
            "telemetry_overhead_pct",
            "probdist::telemetry",
            Unit::Percent,
            overhead_pct,
        ),
    );
}

fn main() {
    let mut ledger = Vec::new();
    bench_distributions(&mut ledger);
    bench_san_engine(&mut ledger);
    bench_san_composed_models(&mut ledger);
    bench_reach(&mut ledger);
    bench_storage_kernel(&mut ledger);
    bench_design_space_sweeps(&mut ledger);
    bench_rare_event(&mut ledger);
    bench_million_replications(&mut ledger);
    bench_telemetry_overhead(&mut ledger);
    match cfs_bench::write_bench_json(&ledger) {
        Ok(path) => {
            println!("\nwrote {} machine-readable records to {}", ledger.len(), path.display());
        }
        Err(err) => panic!("failed to write bench JSON: {err}"),
    }
}
