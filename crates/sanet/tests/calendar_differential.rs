//! Differential tests pinning the event-calendar kernel bit-identical to
//! the retained naive reference kernel.
//!
//! Both kernels implement the same Möbius execution semantics; the calendar
//! kernel additionally relies on the incidence index, the marking change
//! log, and the stable/volatile schedule split. These tests assert that for
//! the same model and seed the two produce *exactly* the same reward
//! values, event counts, end times, and completion traces — which pins the
//! RNG draw sequence itself, not just the statistics. Coverage includes
//! heap tie-breaking with simultaneous deterministic firings, gate-bearing
//! activities (with and without declared enabling reads), marking-dependent
//! (volatile) timings, instantaneous cascades with probabilistic cases, and
//! a `proptest` generator over small random SANs mixing all of the above.

use proptest::prelude::*;

use probdist::{Deterministic, Dist, Exponential, SimRng, Uniform};
use sanet::reward::RewardSpec;
use sanet::{Marking, Model, ModelBuilder, PlaceId, Simulator};

/// Runs both kernels on the same model/rewards/seed and asserts exact
/// equality of results and traces.
fn assert_engines_agree(model: &Model, rewards: &[RewardSpec], horizon: f64, seed: u64) {
    let sim = Simulator::new(model);
    let calendar = sim.run_traced(rewards, horizon, &mut SimRng::seed_from_u64(seed));
    let reference = sim.run_reference_traced(rewards, horizon, &mut SimRng::seed_from_u64(seed));
    match (calendar, reference) {
        (Ok((cal, cal_trace)), Ok((reference, ref_trace))) => {
            assert_eq!(cal, reference, "reward values / events / end time diverged (seed {seed})");
            assert_eq!(cal_trace.len(), ref_trace.len(), "trace lengths diverged (seed {seed})");
            for (i, (c, r)) in cal_trace.iter().zip(ref_trace.iter()).enumerate() {
                assert_eq!(
                    (c.time.to_bits(), c.activity, c.case),
                    (r.time.to_bits(), r.activity, r.case),
                    "trace event {i} diverged (seed {seed}): calendar fired `{}`, reference `{}`",
                    model.activity_name(c.activity),
                    model.activity_name(r.activity),
                );
            }
        }
        (Err(c), Err(r)) => assert_eq!(c, r, "kernels failed differently (seed {seed})"),
        (c, r) => panic!(
            "one kernel failed and the other did not (seed {seed}): calendar {:?}, reference {:?}",
            c.map(|(res, _)| res),
            r.map(|(res, _)| res)
        ),
    }
}

/// Simultaneous deterministic firings: four activities armed at the same
/// instant must fire in ascending index order in both kernels (the heap
/// tie-break against the linear scan).
#[test]
fn simultaneous_deterministic_firings_tie_break_identically() {
    let mut b = ModelBuilder::new("ties");
    let fuel = b.add_place("fuel", 8).unwrap();
    let sink = b.add_place("sink", 0).unwrap();
    for i in 0..4 {
        // All fire at t = 2, 4, 6, … simultaneously; each consumes shared
        // fuel, so the firing order decides who gets the last tokens.
        b.timed_activity(&format!("worker{i}"), Deterministic::new(2.0).unwrap())
            .unwrap()
            .input_arc(fuel, 1)
            .output_arc(sink, 1)
            .build()
            .unwrap();
    }
    let model = b.build().unwrap();
    let rewards = vec![
        RewardSpec::instant_of_time("sunk", move |m| m.tokens(sink) as f64),
        RewardSpec::time_averaged_rate("fuel_level", move |m| m.tokens(fuel) as f64),
    ];
    for seed in 0..16 {
        assert_engines_agree(&model, &rewards, 9.0, seed);
    }
}

/// Gate-bearing activities with and without declared enabling reads must
/// both match the reference (which ignores declarations entirely). The
/// declared variant also matching pins the declarations sound.
#[test]
fn gated_failover_pair_matches_with_and_without_declared_reads() {
    let build = |declare: bool| {
        let mut b = ModelBuilder::new("pair");
        let working = b.add_place("working", 2).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity_fn("fail", move |m: &Marking| {
            let n = m.tokens(working).max(1) as f64;
            Dist::Exponential(Exponential::new(n * 0.02).unwrap())
        })
        .unwrap()
        .input_arc(working, 1)
        .case(0.8)
        .output_gate(move |m: &mut Marking| {
            if m.tokens(working) == 0 {
                m.set_tokens(down, 1);
            }
        })
        .case(0.2)
        .output_gate(move |m: &mut Marking| {
            // Correlated failure takes the partner out as well.
            m.remove_tokens(working, 1);
            if m.tokens(working) == 0 {
                m.set_tokens(down, 1);
            }
        })
        .build()
        .unwrap();
        let mut repair = b
            .timed_activity("repair", Uniform::new(4.0, 12.0).unwrap())
            .unwrap()
            .enabling_predicate(move |m: &Marking| m.tokens(working) < 2)
            .output_arc(working, 1)
            .output_gate(move |m: &mut Marking| m.set_tokens(down, 0));
        if declare {
            repair = repair.enabling_reads(&[working]);
        }
        repair.build().unwrap();
        let model = b.build().unwrap();
        let rewards = vec![
            RewardSpec::time_averaged_rate(
                "avail",
                move |m| if m.tokens(down) == 0 { 1.0 } else { 0.0 },
            ),
            RewardSpec::instant_of_time("working", move |m| m.tokens(working) as f64),
        ];
        (model, rewards)
    };
    for declare in [false, true] {
        let (model, rewards) = build(declare);
        for seed in 0..8 {
            assert_engines_agree(&model, &rewards, 2_000.0, seed);
        }
    }
}

/// An activity with no input arcs and a no-op gate fires without writing a
/// single place; volatile activities must still resample after that event
/// in both kernels (the empty-dirty-log path).
#[test]
fn write_free_firings_keep_volatile_resampling_aligned() {
    let mut b = ModelBuilder::new("writefree");
    let pop = b.add_place("pop", 5).unwrap();
    // Fires forever without touching the marking.
    b.timed_activity("tick", Exponential::from_mean(3.0).unwrap())
        .unwrap()
        .enabling_predicate(|_m| true)
        .build()
        .unwrap();
    // Volatile: must redraw its delay after every event, including ticks.
    b.timed_activity_fn("churn", move |m: &Marking| {
        let n = m.tokens(pop).max(1) as f64;
        Dist::Exponential(Exponential::new(n * 0.05).unwrap())
    })
    .unwrap()
    .input_arc(pop, 1)
    .output_arc(pop, 1)
    .build()
    .unwrap();
    let model = b.build().unwrap();
    let churn = model.activity("churn").unwrap();
    let rewards = vec![RewardSpec::impulse_total("churns", churn, 1.0)];
    for seed in 0..8 {
        assert_engines_agree(&model, &rewards, 500.0, seed);
    }
}

/// Instantaneous routing cascades with probabilistic cases, triggered by a
/// timed arrival, must fire in the same order and draw the same case
/// uniforms in both kernels.
#[test]
fn instantaneous_cascades_match() {
    let mut b = ModelBuilder::new("cascade");
    let idle = b.add_place("idle", 1).unwrap();
    let stage1 = b.add_place("stage1", 0).unwrap();
    let stage2 = b.add_place("stage2", 0).unwrap();
    let sink_a = b.add_place("sink_a", 0).unwrap();
    let sink_b = b.add_place("sink_b", 0).unwrap();
    b.timed_activity("arrive", Exponential::from_mean(1.5).unwrap())
        .unwrap()
        .input_arc(idle, 1)
        .output_arc(stage1, 1)
        .output_arc(idle, 1)
        .build()
        .unwrap();
    b.instant_activity("hop").unwrap().input_arc(stage1, 1).output_arc(stage2, 1).build().unwrap();
    b.instant_activity("route")
        .unwrap()
        .input_arc(stage2, 1)
        .case(0.4)
        .output_arc(sink_a, 1)
        .case(0.6)
        .output_arc(sink_b, 1)
        .build()
        .unwrap();
    let model = b.build().unwrap();
    let rewards = vec![
        RewardSpec::instant_of_time("a", move |m| m.tokens(sink_a) as f64),
        RewardSpec::instant_of_time("b", move |m| m.tokens(sink_b) as f64),
    ];
    for seed in 0..8 {
        assert_engines_agree(&model, &rewards, 300.0, seed);
    }
}

/// Builds a small random SAN from a seed: random places and token counts,
/// a mix of deterministic / exponential / marking-dependent timed
/// activities and fuel-bounded instantaneous activities, random arcs,
/// gates (declared or conservative), and probabilistic cases.
fn random_model(seed: u64) -> (Model, Vec<RewardSpec>) {
    let mut g = SimRng::seed_from_u64(seed);
    let mut pick = |n: u64| -> u64 { g.next_u64() % n };

    let num_places = 2 + pick(4) as usize; // 2..=5
    let num_acts = 2 + pick(5) as usize; // 2..=6

    let mut b = ModelBuilder::new("random");
    // Instantaneous activities only ever *consume* fuel, bounding every
    // cascade at a single time point.
    let fuel = b.add_place("fuel", 3).unwrap();
    let places: Vec<PlaceId> =
        (0..num_places).map(|i| b.add_place(&format!("p{i}"), 1 + pick(3)).unwrap()).collect();

    for a in 0..num_acts {
        let name = format!("a{a}");
        let kind = pick(5);
        let mut builder = match kind {
            0 => {
                // Deterministic delays from a tiny set so simultaneous
                // firings (heap ties) actually happen.
                let delay = [1.0, 2.0, 2.0, 4.0][pick(4) as usize];
                b.timed_activity(&name, Deterministic::new(delay).unwrap()).unwrap()
            }
            1 | 2 => {
                let mean = 1.0 + pick(8) as f64;
                b.timed_activity(&name, Exponential::from_mean(mean).unwrap()).unwrap()
            }
            3 => {
                let watched = places[pick(places.len() as u64) as usize];
                // Clamp the aggregate rate: random output arcs/gates can
                // grow the token mass without bound, and an unclamped
                // marking-dependent rate would turn that into an event-count
                // explosion that only slows the test down.
                let builder = b
                    .timed_activity_fn(&name, move |m: &Marking| {
                        let n = m.tokens(watched).clamp(1, 8) as f64;
                        Dist::Exponential(Exponential::new(0.15 * n).unwrap())
                    })
                    .unwrap();
                // Half the time, declare the timing read (refined restart
                // policy: keep the sample unless `watched` is written); the
                // other half keeps the conservative resample-every-event
                // policy. Both must match the reference kernel exactly.
                if pick(2) == 0 {
                    builder.timing_reads(&[watched])
                } else {
                    builder
                }
            }
            _ => b.instant_activity(&name).unwrap(),
        };
        let instant = kind >= 4;

        if instant {
            builder = builder.input_arc(fuel, 1);
        }
        // Distinct input-arc places: duplicate arcs on one place can pass
        // the per-arc enabling check yet underflow on firing, which is the
        // modelling error `fire_activity`'s debug check rejects.
        let mut arc_places: Vec<PlaceId> =
            (0..=pick(2)).map(|_| places[pick(places.len() as u64) as usize]).collect();
        arc_places.sort_unstable();
        arc_places.dedup();
        for place in arc_places {
            builder = builder.input_arc(place, 1);
        }
        if pick(2) == 0 {
            // A gate whose predicate reads one known place; half the time
            // the read is declared, half the time the scheduler must fall
            // back to conservative revisiting. Both must match the
            // reference.
            let watched = places[pick(places.len() as u64) as usize];
            let threshold = pick(3);
            builder = builder.enabling_predicate(move |m: &Marking| m.tokens(watched) > threshold);
            if pick(2) == 0 {
                builder = builder.enabling_reads(&[watched]);
            }
        }
        let cases = 1 + pick(2);
        for c in 0..cases {
            if cases > 1 {
                builder = builder.case(if c == 0 { 0.3 } else { 0.7 });
            }
            for _ in 0..pick(3) {
                let target = places[pick(places.len() as u64) as usize];
                builder = builder.output_arc(target, 1);
            }
            if pick(3) == 0 {
                let target = places[pick(places.len() as u64) as usize];
                let add = pick(2) == 0;
                builder = builder.output_gate(move |m: &mut Marking| {
                    if add {
                        m.add_tokens(target, 1);
                    } else {
                        m.remove_tokens(target, m.tokens(target).min(1));
                    }
                });
            }
        }
        builder.build().unwrap();
    }

    let model = b.build().unwrap();
    let first = model.activity("a0").unwrap();
    let last = model.activity(&format!("a{}", num_acts - 1)).unwrap();
    let p0 = places[0];
    let rewards = vec![
        RewardSpec::time_averaged_rate("mass", |m: &Marking| m.total_tokens() as f64),
        RewardSpec::time_averaged_rate("p0_tokens", move |m: &Marking| m.tokens(p0) as f64),
        RewardSpec::instant_of_time("final_mass", |m: &Marking| m.total_tokens() as f64),
        RewardSpec::impulse_total("a0_firings", first, 1.0),
        RewardSpec::impulse_total("last_weighted", last, 2.5),
    ];
    (model, rewards)
}

// The acceptance property of the event-calendar engine: over random small
// SANs, rewards, event counts, end times, and full traces are bit-identical
// to the reference kernel — including the RNG draw sequence, since any
// divergence would desynchronise the trace.
proptest! {
    #[test]
    fn calendar_matches_reference_on_random_sans(
        structure in any::<u64>(),
        seed in any::<u64>(),
        horizon in 20.0..80.0_f64,
    ) {
        let (model, rewards) = random_model(structure);
        assert_engines_agree(&model, &rewards, horizon, seed);
    }
}
