//! Micro-benchmarks of the simulation substrates — lifetime sampling, the
//! stochastic-activity-network engine (event-calendar kernel vs the
//! retained naive reference kernel, on a 2-activity unit and on the full
//! composed ABE / petascale cluster models), the storage Monte-Carlo
//! kernel, and the design-space sweep subsystem (replication-vs-RAID and
//! Beowulf performability, in design points per second) — plus the
//! rare-event estimators (replications-to-±10 % and variance-reduction
//! factors of importance sampling and multilevel splitting on their
//! reference configs) and the study scheduler: the global work-stealing
//! pool against the PR-1-style serial-scenario loop it replaced.
//!
//! The harness is self-contained (no external benchmarking crate is
//! available offline): each kernel is warmed up, then timed over enough
//! iterations to smooth scheduler noise, reporting ns/iter. Alongside the
//! text lines, every result is recorded into `BENCH.json`
//! ([`cfs_bench::write_bench_json`]) — bare name, explicit unit, worker
//! count where relevant, ns/iter, throughput, and speedup-vs-baseline — so
//! CI can archive (and guard, via `bench_guard`) the performance
//! trajectory.

use std::hint::black_box;
use std::time::Instant;

use cfs_bench::BenchRecord;
use cfs_model::analysis::evaluate;
use cfs_model::model::build_cluster_model;
use cfs_model::rewards::standard_rewards;
use cfs_model::workloads::{BeowulfPerformabilitySweep, RedundancyScheme, ReplicationVsRaid};
use cfs_model::{ClusterConfig, RunSpec, Scenario, Study};
use probdist::{Distribution, Exponential, SimRng, Weibull};
use raidsim::{RaidGeometry, StorageConfig, StorageSimulator};
use sanet::beowulf::BeowulfConfig;
use sanet::reward::RewardSpec;
use sanet::{Experiment, ModelBuilder, Simulator, StoppingRule};

/// Times `f` over `iters` iterations (after `warmup` untimed ones), prints
/// nanoseconds per iteration, and returns the ns/iter.
fn bench<T>(name: &str, warmup: u64, iters: u64, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..warmup {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<46} {ns:>12.1} ns/iter   ({iters} iters)");
    ns
}

/// Like [`bench`] for simulation kernels: `f` returns the number of events
/// it processed, and the result carries events/sec throughput.
fn bench_events(name: &str, warmup: u64, iters: u64, mut f: impl FnMut() -> u64) -> BenchRecord {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut events = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        events += black_box(f());
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    let events_per_sec = events as f64 / elapsed.as_secs_f64();
    println!("{name:<46} {ns:>12.1} ns/iter   ({iters} iters, {events_per_sec:>12.0} events/s)");
    BenchRecord::with_events(name, ns, events_per_sec)
}

fn bench_distributions(records: &mut Vec<BenchRecord>) {
    let weibull = Weibull::from_shape_and_mean(0.7, 300_000.0).unwrap();
    let exponential = Exponential::from_mean(300_000.0).unwrap();
    let mut rng = SimRng::seed_from_u64(1);
    let ns = bench("weibull_sample", 10_000, 1_000_000, || weibull.sample(&mut rng));
    records.push(BenchRecord::timing("weibull_sample", ns));
    let mut rng2 = SimRng::seed_from_u64(1);
    let ns = bench("exponential_sample", 10_000, 1_000_000, || exponential.sample(&mut rng2));
    records.push(BenchRecord::timing("exponential_sample", ns));
}

fn bench_san_engine(records: &mut Vec<BenchRecord>) {
    let mut builder = ModelBuilder::new("unit");
    let up = builder.add_place("up", 1).unwrap();
    let down = builder.add_place("down", 0).unwrap();
    builder
        .timed_activity("fail", Exponential::from_mean(100.0).unwrap())
        .unwrap()
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()
        .unwrap();
    builder
        .timed_activity("repair", Exponential::from_mean(4.0).unwrap())
        .unwrap()
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()
        .unwrap();
    let model = builder.build().unwrap();
    let rewards =
        vec![RewardSpec::time_averaged_rate(
            "avail",
            move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 },
        )];
    let sim = Simulator::new(&model);
    // `run` auto-selects the naive kernel for this 2-activity model (the
    // small-model crossover fallback), so the two rows should be nearly
    // equal; before the auto-selection the first row ran the calendar
    // kernel at ~16.2M events/s vs the reference's ~24.6M.
    let mut rng = SimRng::seed_from_u64(7);
    records.push(bench_events("san_engine_one_year_repairable_unit", 5, 200, || {
        sim.run(&rewards, 8760.0, 0.0, &mut rng).unwrap().events
    }));
    let mut rng = SimRng::seed_from_u64(7);
    records.push(bench_events("san_engine_one_year_repairable_unit_ref", 5, 200, || {
        sim.run_reference(&rewards, 8760.0, 0.0, &mut rng).unwrap().events
    }));
}

/// The paper's composed cluster models, run single-replication through both
/// kernels. This is the bench the event-calendar engine exists for: the
/// reference kernel's per-event cost grows with the activity count (the
/// full rescan), the calendar kernel's only with the affected set, so the
/// gap widens from ABE (~34 activities) to petascale (~250).
fn bench_san_composed_models(records: &mut Vec<BenchRecord>) {
    // Five simulated years per iteration: long enough that per-replication
    // setup (schedule allocation, the initial full sampling pass) amortises
    // away and the numbers measure steady-state event throughput.
    for (config, horizon, iters) in
        [(ClusterConfig::abe(), 43_800.0_f64, 100_u64), (ClusterConfig::petascale(), 21_900.0, 20)]
    {
        let cluster = build_cluster_model(&config).unwrap();
        let rewards = standard_rewards(&cluster);
        let sim = Simulator::new(&cluster.model);
        let label = config.name.to_lowercase();

        let mut rng = SimRng::seed_from_u64(11);
        let calendar = bench_events(&format!("san_{label}_model_calendar"), 3, iters, || {
            sim.run(&rewards, horizon, 0.0, &mut rng).unwrap().events
        });
        let mut rng = SimRng::seed_from_u64(11);
        let reference = bench_events(&format!("san_{label}_model_reference"), 3, iters, || {
            sim.run_reference(&rewards, horizon, 0.0, &mut rng).unwrap().events
        });

        let speedup = reference.ns_per_iter / calendar.ns_per_iter;
        println!("san_{label}_model_calendar_speedup             {speedup:>12.2} x");
        records.push(calendar.clone().with_speedup(speedup));
        records.push(reference);
    }
}

/// The reachability explorer ([`sanet::reach`]): interned markings per
/// second while exploring the ABE cluster model under a fixed 2 000-state
/// budget. The model is unbounded, so the budget pins the work per
/// iteration exactly — every iteration interns the same 2 000 markings,
/// evaluates the same marking-dependent timings, and classifies the same
/// SCC structure, making the states/s figure comparable across runs.
fn bench_reach(records: &mut Vec<BenchRecord>) {
    let cluster = build_cluster_model(&ClusterConfig::abe()).unwrap();
    let config =
        sanet::ReachConfig { max_states: 2_000, max_transitions: 100_000, ..Default::default() };
    let record = bench_events("reach_states_per_sec", 2, 10, || {
        cluster.model.analyze_with(&config).num_states() as u64
    });
    records.push(record.with_unit("states/s"));
}

/// The design-space sweep subsystem: both workload families evaluated as
/// scenarios, reporting design-points-per-second throughput (recorded in
/// the `events_per_sec` slot of BENCH.json, where one "event" is one fully
/// evaluated design point).
fn bench_design_space_sweeps(records: &mut Vec<BenchRecord>) {
    let spec = RunSpec::new()
        .with_horizon_hours(cfs_bench::horizon_hours().min(4380.0))
        .with_replications(cfs_bench::replications().min(8))
        .with_base_seed(2008);

    let raid_vs_repl = ReplicationVsRaid {
        usable_capacity_tb: 24.0,
        schemes: vec![
            RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
            RedundancyScheme::Replication { replicas: 3 },
        ],
        afr_percents: vec![2.92, 8.76],
    };
    let raid_points = (raid_vs_repl.schemes.len() * raid_vs_repl.afr_percents.len()) as u64;
    let record = bench_events("sweep_replication_vs_raid", 2, 10, || {
        raid_vs_repl.evaluate(&spec).unwrap();
        raid_points
    });
    records.push(record.with_unit("points/s"));

    let beowulf = BeowulfPerformabilitySweep {
        worker_counts: vec![32, 128],
        repair_crews: vec![1, 4],
        base: BeowulfConfig {
            worker_mtbf_hours: 1_000.0,
            worker_repair_hours: 12.0,
            ..BeowulfConfig::default()
        },
    };
    let beowulf_points = (beowulf.worker_counts.len() * beowulf.repair_crews.len()) as u64;
    let record = bench_events("sweep_beowulf_performability", 2, 10, || {
        beowulf.evaluate(&spec).unwrap();
        beowulf_points
    });
    records.push(record.with_unit("points/s"));
}

/// The rare-event estimators on their reference configs, recording the
/// subsystem's two headline numbers in BENCH.json: the replications spent
/// to reach a ±10 % relative half-width (`replications_to_target`) and the
/// measured variance-reduction factor against naive Monte Carlo
/// (`speedup`); `ns_per_iter`/`events_per_sec` keep their usual meaning —
/// per-replication time and replications per second.
fn bench_rare_event(records: &mut Vec<BenchRecord>) {
    use probdist::rare::naive_replications_for;
    use raidsim::{DiskModel, ReplicationConfig};
    use sanet::rare::{failover_pair, BiasedExperiment, FailureBias};

    // Reference rare-event config #1: the fail-over pair hitting
    // probability (~2e-5 within a 10-hour window), importance-sampled with
    // a 60x failure tilt, adaptively run to ±10 %.
    let (lambda, mu, horizon) = (1e-3, 1.0, 10.0);
    let pair = failover_pair(lambda, mu).unwrap();
    let bias = FailureBias::new(60.0, ["fail"]).unwrap();
    let mut experiment = BiasedExperiment::new(&pair.model, bias, horizon).unwrap();
    experiment.add_reward(pair.hit_reward());
    let rule = StoppingRule::new(0.10, 1_000, 100_000).unwrap();
    let start = Instant::now();
    let summary = experiment.run(&rule, cfs_bench::DEFAULT_SEED).unwrap();
    let elapsed = start.elapsed();
    let estimate = summary.reward("hit").unwrap();
    let p = estimate.interval.point;
    let rhw = estimate.interval.relative_half_width().max(1e-6);
    let naive = naive_replications_for(p.clamp(1e-12, 0.5), rhw, 0.95).unwrap();
    let vrf = naive / summary.replications as f64;
    println!(
        "rare_event_is_replications_to_10pct            {:>12.0} replications   (p = {p:.3e}, \
         naive projection {naive:.0})",
        summary.replications as f64
    );
    println!("rare_event_is_variance_reduction               {vrf:>12.0} x");
    records.push(
        BenchRecord::with_events(
            "rare_event_is_replications_to_10pct",
            elapsed.as_nanos() as f64 / summary.replications as f64,
            summary.replications as f64 / elapsed.as_secs_f64(),
        )
        .with_replications_to_target(summary.replications as f64)
        .with_speedup(vrf),
    );

    // Reference rare-event config #2: a 3-way replicated store's data-loss
    // probability by multilevel splitting, adaptively run to ±10 %.
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
    let result =
        sim.splitting_loss_probability(2190.0, &rule, cfs_bench::DEFAULT_SEED, 0.95, 0).unwrap();
    let elapsed = start.elapsed();
    println!(
        "rare_event_splitting_trials_to_10pct           {:>12.0} trials   (p = {:.3e}, rel \
         {:.3})",
        result.estimate.replications as f64,
        result.estimate.interval.point,
        result.estimate.relative_error(),
    );
    println!(
        "rare_event_splitting_variance_reduction        {:>12.1} x",
        result.estimate.variance_reduction_factor
    );
    records.push(
        BenchRecord::with_events(
            "rare_event_splitting_trials_to_10pct",
            elapsed.as_nanos() as f64 / result.estimate.replications as f64,
            result.estimate.replications as f64 / elapsed.as_secs_f64(),
        )
        .with_replications_to_target(result.estimate.replications as f64)
        .with_speedup(result.estimate.variance_reduction_factor),
    );
}

fn bench_storage_kernel(records: &mut Vec<BenchRecord>) {
    let sim = StorageSimulator::new(StorageConfig::abe_scratch()).unwrap();
    let mut rng = SimRng::seed_from_u64(3);
    let ns = bench("storage_monte_carlo_abe_one_year", 5, 200, || sim.run_once(8760.0, &mut rng));
    records.push(BenchRecord::timing("storage_monte_carlo_abe_one_year", ns));
}

/// Four simulation scenarios with fewer replications each than the worker
/// budget — the shape where the PR 1 execution model (scenarios strictly
/// serial, only each scenario's own replications parallel) leaves workers
/// idle, and where the global work-stealing pool overlaps
/// scenario×replication work units from the whole study. One row pair per
/// benched worker count; each arm takes the best of three timed passes so a
/// scheduler hiccup cannot manufacture a regression.
fn bench_study_scheduling(records: &mut Vec<BenchRecord>) {
    let scenarios: Vec<ClusterConfig> = (0..4)
        .map(|i| {
            let mut config = ClusterConfig::abe();
            config.name = format!("ABE-variant-{i}");
            config
        })
        .collect();
    let available = available_workers();
    let worker_counts: Vec<usize> = match cfs_bench::workers() {
        0 => [2, 4, 8].into_iter().filter(|&w| w <= available.max(2)).collect(),
        n => vec![n],
    };

    let mut study = Study::new();
    for config in &scenarios {
        study.add(Box::new(config.clone()) as Box<dyn Scenario>);
    }

    for &workers in &worker_counts {
        // Honour the harness env knobs (the CI bench-smoke step shrinks
        // both) while keeping the replications-below-workers shape the
        // comparison needs.
        let spec = RunSpec::new()
            .with_horizon_hours(cfs_bench::horizon_hours())
            .with_replications((workers / 2).max(2).min(cfs_bench::replications()))
            .with_base_seed(20_080_625)
            .with_workers(workers);

        // One untimed pass of each arm so neither timed run pays one-time
        // process warm-up (allocator growth, pool-thread spawn, lazy model
        // initialisation).
        for config in &scenarios {
            black_box(evaluate(config, &spec).unwrap());
        }
        black_box(study.run(&spec).unwrap());

        let mut serial_loop = f64::INFINITY;
        let mut pooled = f64::INFINITY;
        for _ in 0..3 {
            // PR 1 behaviour: evaluate scenarios one after another; each
            // scenario still fans its own replications across the budget.
            let start = Instant::now();
            for config in &scenarios {
                black_box(evaluate(config, &spec).unwrap());
            }
            serial_loop = serial_loop.min(start.elapsed().as_secs_f64());

            // The work-stealing engine: every scenario×replication unit of
            // the study on the shared persistent pool.
            let start = Instant::now();
            let report = black_box(study.run(&spec).unwrap());
            pooled = pooled.min(start.elapsed().as_secs_f64());
            assert_eq!(report.outputs.len(), scenarios.len());
        }

        println!(
            "study_serial_scenario_loop [{workers}w]            {:>12.1} ms   ({} scenarios x {} \
             reps)",
            serial_loop * 1e3,
            scenarios.len(),
            spec.replications()
        );
        println!("study_global_work_stealing_pool [{workers}w]       {:>12.1} ms", pooled * 1e3);
        let speedup = serial_loop / pooled;
        println!(
            "study_scheduling_speedup [{workers}w]              {speedup:>12.2} x{}",
            if available == 1 { "   (single-core machine: ~1x expected)" } else { "" }
        );
        records.push(
            BenchRecord::timing("study_serial_scenario_loop", serial_loop * 1e9)
                .with_workers(workers),
        );
        records.push(
            BenchRecord::timing("study_global_work_stealing_pool", pooled * 1e9)
                .with_workers(workers)
                .with_speedup(speedup),
        );
    }
}

/// The headline hot-path number: replications per second on a
/// million-replication experiment over the 2-activity repairable unit, run
/// through [`sanet::Experiment`] directly (the `RunSpec` surface caps
/// replications at 100 000; the experiment API has no cap). This is the
/// path the persistent pool, batched claiming, and per-worker `RunScratch`
/// exist for: each replication is tens of microseconds of kernel work, so
/// any per-replication scheduling or allocation overhead shows up directly.
fn bench_million_replications(records: &mut Vec<BenchRecord>) {
    let mut builder = ModelBuilder::new("unit");
    let up = builder.add_place("up", 1).unwrap();
    let down = builder.add_place("down", 0).unwrap();
    builder
        .timed_activity("fail", Exponential::from_mean(1_000.0).unwrap())
        .unwrap()
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()
        .unwrap();
    builder
        .timed_activity("repair", Exponential::from_mean(10.0).unwrap())
        .unwrap()
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()
        .unwrap();
    let model = builder.build().unwrap();

    let mut experiment = Experiment::new(model, 10_000.0);
    experiment.add_reward(RewardSpec::time_averaged_rate("avail", move |m| {
        if m.tokens(up) > 0 {
            1.0
        } else {
            0.0
        }
    }));
    experiment.set_workers(cfs_bench::workers());
    let workers = match cfs_bench::workers() {
        0 => available_workers(),
        n => n,
    };

    // `CFS_BENCH_REPLICATIONS` scales the run down for smoke runs (CI sets
    // 4); the full default really is one million.
    let replications = std::env::var("CFS_BENCH_REPLICATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(1_000_000);

    let warm_up = StoppingRule::fixed(replications.clamp(2, 1_000)).unwrap();
    black_box(experiment.run(&warm_up, cfs_bench::DEFAULT_SEED).unwrap());
    let rule = StoppingRule::fixed(replications).unwrap();
    let start = Instant::now();
    let summary = black_box(experiment.run(&rule, cfs_bench::DEFAULT_SEED).unwrap());
    let elapsed = start.elapsed();
    assert_eq!(summary.replications, replications);

    let per_sec = replications as f64 / elapsed.as_secs_f64();
    println!(
        "study_million_replications                     {per_sec:>12.0} replications/s   \
         ({replications} replications, {workers} workers, {:.2} s)",
        elapsed.as_secs_f64()
    );
    records.push(
        BenchRecord::with_events(
            "study_million_replications",
            elapsed.as_nanos() as f64 / replications as f64,
            per_sec,
        )
        .with_unit("replications/s")
        .with_workers(workers),
    );
}

/// Telemetry overhead on the hot kernel path: the composed ABE model run
/// through the calendar kernel with the sharded accumulators enabled vs
/// disabled. The two arms are *interleaved* — disabled trial, enabled
/// trial, repeated — so machine-wide drift (a noisy neighbour, a thermal
/// dip) lands on both arms instead of biasing whichever ran second, and
/// each arm keeps its best-of-N throughput as the noise-floor estimate.
/// The `CFS_BENCH_*` smoke knobs deliberately do not apply — the two arms
/// must run the identical workload. The regression lands in BENCH.json as
/// percentage points in the `events_per_sec` slot (unit `"percent"`),
/// where `bench_guard` fails the build if it grows more than 2 points over
/// the committed baseline.
fn bench_telemetry_overhead(records: &mut Vec<BenchRecord>) {
    let cluster = build_cluster_model(&ClusterConfig::abe()).unwrap();
    let rewards = standard_rewards(&cluster);
    let sim = Simulator::new(&cluster.model);
    let horizon = 8760.0;

    // One timed trial of a fixed workload; returns (ns/iter, events/s).
    let trial = |telemetry_on: bool| -> (f64, f64) {
        let guard = telemetry_on.then(probdist::telemetry::enable_scoped);
        let mut rng = SimRng::seed_from_u64(13);
        black_box(sim.run(&rewards, horizon, 0.0, &mut rng).unwrap());
        let iters = 30u64;
        let mut events = 0u64;
        let start = Instant::now();
        for _ in 0..iters {
            events += black_box(sim.run(&rewards, horizon, 0.0, &mut rng).unwrap().events);
        }
        let elapsed = start.elapsed();
        drop(guard);
        (elapsed.as_nanos() as f64 / iters as f64, events as f64 / elapsed.as_secs_f64())
    };

    // Warm both paths (shard registration, page faults), then interleave.
    trial(false);
    trial(true);
    let mut disabled = 0.0f64;
    let mut enabled = 0.0f64;
    let mut enabled_ns = f64::INFINITY;
    for _ in 0..7 {
        disabled = disabled.max(trial(false).1);
        let (ns, rate) = trial(true);
        enabled = enabled.max(rate);
        enabled_ns = enabled_ns.min(ns);
    }
    let overhead_pct = (1.0 - enabled / disabled) * 100.0;
    println!(
        "telemetry_overhead_pct                         {overhead_pct:>12.2} %   ({disabled:.0} \
         events/s disabled, {enabled:.0} enabled)"
    );
    records.push(
        BenchRecord::with_events("telemetry_overhead_pct", enabled_ns, overhead_pct)
            .with_unit("percent"),
    );
}

/// The machine's available parallelism (1 if unknown).
fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn main() {
    let mut records = Vec::new();
    bench_distributions(&mut records);
    bench_san_engine(&mut records);
    bench_san_composed_models(&mut records);
    bench_reach(&mut records);
    bench_storage_kernel(&mut records);
    bench_design_space_sweeps(&mut records);
    bench_rare_event(&mut records);
    bench_study_scheduling(&mut records);
    bench_million_replications(&mut records);
    bench_telemetry_overhead(&mut records);
    match cfs_bench::write_bench_json(&records) {
        Ok(path) => {
            println!("\nwrote {} machine-readable records to {}", records.len(), path.display());
        }
        Err(err) => panic!("failed to write bench JSON: {err}"),
    }
}
