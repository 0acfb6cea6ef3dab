//! Replicate/Join composition helpers.
//!
//! Möbius composes large models from small submodels with two operators:
//!
//! * **Join** — submodels are placed side by side and *share* selected state
//!   variables (places).
//! * **Replicate** — a submodel is instantiated `N` times, each replica
//!   getting private copies of its places except for the shared ones.
//!
//! In this crate a submodel is simply a function that adds places and
//! activities to a [`ModelBuilder`], receiving the shared [`crate::PlaceId`]s as
//! arguments and returning whatever handles (place ids, activity ids) the
//! caller needs. Because every submodel works on the same builder and the
//! same place-id namespace, "sharing a place" is just passing the same
//! `PlaceId` to several submodel functions — exactly the semantics of a
//! Möbius join.
//!
//! [`replicate`] adds the replicate operator: it instantiates a submodel
//! function `N` times under distinct naming scopes (`name[0]`, `name[1]`, …)
//! and collects the per-replica handles.
//!
//! # Composition and the event-calendar scheduler
//!
//! Composition is where dependency declarations
//! ([`crate::ActivityBuilder::enabling_reads`] /
//! [`crate::ActivityBuilder::timing_reads`]) pay off most: in a model with
//! `N` replicas, a replica's gate predicates typically read only its own
//! scoped places (plus a few shared ones), so declaring them lets the
//! event-calendar engine skip the other `N − 1` replicas entirely when one
//! replica's state changes — per-event cost stays flat as the composition
//! grows. Declarations must cover shared places too: a predicate that reads
//! a joined place (e.g. a shared spare pool or a global failure counter)
//! must list it, or other submodels' writes to it would be missed. When in
//! doubt, declare nothing — undeclared gates fall back to conservative
//! re-examination after every event, which is always sound.
//!
//! # Example
//!
//! ```
//! use sanet::{ModelBuilder, compose::replicate};
//! use probdist::Exponential;
//!
//! # fn main() -> Result<(), sanet::SanError> {
//! let mut b = ModelBuilder::new("cluster");
//! // A shared place joined across all replicas.
//! let failures = b.add_place("failures", 0)?;
//!
//! // Replicate a simple failing server 4 times.
//! let servers = replicate(&mut b, "server", 4, |b, _i| {
//!     let up = b.add_place("up", 1)?;
//!     b.timed_activity("fail", Exponential::from_mean(1000.0).unwrap())?
//!         .input_arc(up, 1)
//!         .output_arc(failures, 1)
//!         .build()?;
//!     Ok(up)
//! })?;
//! assert_eq!(servers.len(), 4);
//! assert!(b.place("server[2]/up").is_some());
//! # Ok(())
//! # }
//! ```

use crate::{ModelBuilder, SanError};

/// Instantiates a submodel `count` times, each under its own naming scope
/// `name[i]`, and returns the handles produced by each instantiation.
///
/// # Errors
///
/// Propagates any error returned by the submodel function (duplicate names,
/// invalid activities, …).
pub fn replicate<T>(
    builder: &mut ModelBuilder,
    name: &str,
    count: usize,
    mut submodel: impl FnMut(&mut ModelBuilder, usize) -> Result<T, SanError>,
) -> Result<Vec<T>, SanError> {
    let mut handles = Vec::with_capacity(count);
    for i in 0..count {
        builder.push_scope(format!("{name}[{i}]"));
        let result = submodel(builder, i);
        builder.pop_scope();
        handles.push(result?);
    }
    Ok(handles)
}

/// Adds a single submodel under a naming scope — the join operator with an
/// explicit name. Equivalent to `push_scope`/`pop_scope` around the call,
/// provided for symmetry with [`replicate`].
///
/// # Errors
///
/// Propagates any error returned by the submodel function.
pub fn join<T>(
    builder: &mut ModelBuilder,
    name: &str,
    submodel: impl FnOnce(&mut ModelBuilder) -> Result<T, SanError>,
) -> Result<T, SanError> {
    builder.push_scope(name.to_string());
    let result = submodel(builder);
    builder.pop_scope();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardSpec;
    use crate::Experiment;
    use probdist::{Deterministic, Exponential};

    #[test]
    fn replicate_creates_scoped_copies() {
        let mut b = ModelBuilder::new("c");
        let shared = b.add_place("shared", 0).unwrap();
        let ups = replicate(&mut b, "unit", 3, |b, i| {
            let up = b.add_place("up", 1)?;
            b.timed_activity("fail", Exponential::from_mean(10.0 * (i + 1) as f64).unwrap())?
                .input_arc(up, 1)
                .output_arc(shared, 1)
                .build()?;
            Ok(up)
        })
        .unwrap();
        assert_eq!(ups.len(), 3);
        assert!(b.place("unit[0]/up").is_some());
        assert!(b.place("unit[2]/up").is_some());
        assert!(b.place("unit[3]/up").is_none());
        let model = b.build().unwrap();
        assert_eq!(model.num_places(), 4);
        assert_eq!(model.num_activities(), 3);
        assert!(model.activity("unit[1]/fail").is_some());
    }

    #[test]
    fn replicate_propagates_submodel_errors() {
        let mut b = ModelBuilder::new("c");
        let result = replicate(&mut b, "unit", 2, |b, _i| {
            // Every replica tries to create the same *unscoped* global name
            // by popping the scope first — the second replica must fail.
            b.pop_scope();
            let p = b.add_place("clash", 0)?;
            b.push_scope("dummy".to_string());
            Ok(p)
        });
        assert!(result.is_err());
    }

    #[test]
    fn join_scopes_a_single_submodel() {
        let mut b = ModelBuilder::new("c");
        let up = join(&mut b, "oss", |b| {
            let up = b.add_place("up", 1)?;
            b.timed_activity("fail", Exponential::from_mean(100.0).unwrap())?
                .input_arc(up, 1)
                .build()?;
            Ok(up)
        })
        .unwrap();
        assert!(b.place("oss/up").is_some());
        assert_eq!(b.place("oss/up"), Some(up));
    }

    #[test]
    fn shared_place_joins_replicas() {
        // Three units fail deterministically at t = 1, 2, 3 into a shared
        // failure counter; a collector model reads the shared place.
        let mut b = ModelBuilder::new("joined");
        let failures = b.add_place("failures", 0).unwrap();
        replicate(&mut b, "unit", 3, |b, i| {
            let up = b.add_place("up", 1)?;
            b.timed_activity("fail", Deterministic::new((i + 1) as f64).unwrap())?
                .input_arc(up, 1)
                .output_arc(failures, 1)
                .build()?;
            Ok(up)
        })
        .unwrap();
        let model = b.build().unwrap();
        let mut exp = Experiment::new(model, 10.0);
        exp.add_reward(RewardSpec::instant_of_time("failures", move |m| m.tokens(failures) as f64));
        exp.set_workers(1);
        let summary = exp.run(&crate::StoppingRule::fixed(2).unwrap(), 1).unwrap();
        assert_eq!(summary.reward("failures").unwrap().interval.point, 3.0);
    }
}
