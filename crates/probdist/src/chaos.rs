//! Seeded, deterministic fault injection for resilience testing.
//!
//! This module only exists when the crate is built with the `chaos`
//! feature; without it the execution engine contains **no** injection code
//! at all (zero overhead, not merely disabled). With the feature on but no
//! configuration installed, every hook is a single relaxed atomic load.
//!
//! # Model
//!
//! A [`ChaosConfig`] describes fault probabilities; [`scoped`] installs it
//! process-wide and returns a guard that uninstalls it on drop. Every
//! injection decision is a **pure function of `(seed, site, index)`** — a
//! fresh [`SimRng`] stream per decision, no shared mutable state — so a
//! chaos run is exactly as reproducible as a clean run: the same seed
//! injects the same faults into the same work units regardless of worker
//! count or scheduling. Scopes serialise on an internal lock, so
//! concurrent tests cannot interleave configurations.
//!
//! Three fault classes match the three ways a real study dies:
//!
//! * **panics** in a work unit (a bug in a model's rate closure),
//! * **stalls** (a worker descheduled, an NFS hiccup while logging),
//! * **non-finite rewards** (numerical corruption in reward arithmetic).
//!
//! Panics surface through the engine's typed
//! [`WorkUnitPanic`](crate::parallel::WorkUnitPanic) payload; stalls only
//! delay (determinism suites prove they change no statistic); NaNs must be
//! caught by the runtime non-finite guards downstream.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use crate::SimRng;

/// Stream-derivation constant for work-unit (panic/stall) decisions.
const SITE_WORK_UNIT: u64 = 0xC4A0_5C4A_0001;
/// Stream-derivation constant for reward-corruption decisions.
const SITE_REWARD: u64 = 0xC4A0_5C4A_0002;

/// A fault-injection plan: per-work-unit probabilities for panics and
/// stalls, a per-reward-value probability for NaN corruption, and an
/// optional targeted panic at one exact work-unit index (the deterministic
/// "kill at `k`" used by checkpoint/resume tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    seed: u64,
    panic_probability: f64,
    stall_probability: f64,
    stall: Duration,
    nan_probability: f64,
    panic_on_index: Option<u64>,
}

impl ChaosConfig {
    /// A plan that injects nothing; add faults with the builder methods.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_probability: 0.0,
            stall_probability: 0.0,
            stall: Duration::from_millis(1),
            nan_probability: 0.0,
            panic_on_index: None,
        }
    }

    /// Probability that a work unit panics before running.
    #[must_use]
    pub fn with_panic_probability(mut self, p: f64) -> ChaosConfig {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.panic_probability = p;
        self
    }

    /// Probability that a work unit sleeps for `stall` before running.
    #[must_use]
    pub fn with_stall(mut self, p: f64, stall: Duration) -> ChaosConfig {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.stall_probability = p;
        self.stall = stall;
        self
    }

    /// Probability that a reward value is replaced with NaN.
    #[must_use]
    pub fn with_nan_probability(mut self, p: f64) -> ChaosConfig {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.nan_probability = p;
        self
    }

    /// Unconditionally panic the work unit with exactly this index — the
    /// deterministic kill switch for checkpoint/resume tests.
    #[must_use]
    pub fn with_panic_on_index(mut self, index: u64) -> ChaosConfig {
        self.panic_on_index = Some(index);
        self
    }

    /// One deterministic decision stream per `(seed, site, index)`.
    fn decisions(&self, site: u64, index: u64) -> SimRng {
        SimRng::seed_from_u64(self.seed ^ site).derive_stream(index)
    }
}

/// Fast-path flag: hooks bail on one relaxed load when no plan is active.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn config_slot() -> &'static Mutex<Option<ChaosConfig>> {
    static SLOT: OnceLock<Mutex<Option<ChaosConfig>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn scope_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Uninstalls the chaos plan when dropped. Holds the scope lock, so
/// concurrent [`scoped`] callers queue instead of clobbering each other's
/// plans — chaos tests may run in parallel.
pub struct ChaosGuard {
    _scope: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Relaxed);
        *config_slot().lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Installs `config` as the process-wide chaos plan until the returned
/// guard drops. Scopes serialise: a second caller blocks until the first
/// guard is gone.
pub fn scoped(config: ChaosConfig) -> ChaosGuard {
    let scope = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
    *config_slot().lock().unwrap_or_else(PoisonError::into_inner) = Some(config);
    ACTIVE.store(true, Ordering::Relaxed);
    ChaosGuard { _scope: scope }
}

/// Whether a chaos plan is currently installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn current() -> Option<ChaosConfig> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    config_slot().lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Fault-injection hook at the work-unit boundary (called by the engine
/// before each replication task): may stall, then may panic, per the
/// installed plan's deterministic decision stream for `index`.
///
/// # Panics
///
/// Panics deliberately when the plan says so — that is the injected fault.
pub(crate) fn work_unit(index: u64) {
    let Some(config) = current() else { return };
    let mut decisions = config.decisions(SITE_WORK_UNIT, index);
    if config.stall_probability > 0.0 && decisions.bernoulli(config.stall_probability) {
        crate::telemetry::counter_inc(crate::telemetry::MetricId::ChaosWorkUnitInjections);
        std::thread::sleep(config.stall);
    }
    if config.panic_on_index == Some(index)
        || (config.panic_probability > 0.0 && decisions.bernoulli(config.panic_probability))
    {
        crate::telemetry::counter_inc(crate::telemetry::MetricId::ChaosWorkUnitInjections);
        panic!("chaos: injected panic at work unit {index}");
    }
}

/// Fault-injection hook for reward values: returns NaN instead of `value`
/// when the plan's decision stream for `(index, slot)` says so.
pub fn corrupt_reward(index: u64, slot: usize, value: f64) -> f64 {
    let Some(config) = current() else { return value };
    if config.nan_probability == 0.0 {
        return value;
    }
    let mut decisions = config.decisions(SITE_REWARD, index).derive_stream(slot as u64);
    if decisions.bernoulli(config.nan_probability) {
        crate::telemetry::counter_inc(crate::telemetry::MetricId::ChaosRewardInjections);
        f64::NAN
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds the scope lock, so no other test's plan is installed while
    /// the caller checks the inactive state.
    fn no_plan_installed() -> MutexGuard<'static, ()> {
        scope_lock().lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn inactive_hooks_are_transparent() {
        let _idle = no_plan_installed();
        assert!(!is_active());
        work_unit(7); // must not panic
        assert_eq!(corrupt_reward(7, 0, 1.25), 1.25);
    }

    #[test]
    fn scoped_plan_installs_and_uninstalls() {
        {
            let _guard = scoped(ChaosConfig::new(1));
            assert!(is_active());
        }
        let _idle = no_plan_installed();
        assert!(!is_active());
    }

    #[test]
    fn targeted_panic_fires_on_exactly_its_index() {
        let _guard = scoped(ChaosConfig::new(1).with_panic_on_index(17));
        work_unit(16);
        work_unit(18);
        let err = std::panic::catch_unwind(|| work_unit(17)).expect_err("index 17 must panic");
        let message = err.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("injected panic at work unit 17"), "{message}");
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_index() {
        let plan = ChaosConfig::new(42).with_nan_probability(0.5);
        let _guard = scoped(plan);
        let first: Vec<bool> = (0..64).map(|i| corrupt_reward(i, 0, 1.0).is_nan()).collect();
        let again: Vec<bool> = (0..64).map(|i| corrupt_reward(i, 0, 1.0).is_nan()).collect();
        assert_eq!(first, again, "same plan, same decisions");
        let hits = first.iter().filter(|&&nan| nan).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 draws hit {hits} times");
    }

    #[test]
    fn distinct_seeds_give_distinct_fault_patterns() {
        let pattern = |seed: u64| -> Vec<bool> {
            let _guard = scoped(ChaosConfig::new(seed).with_nan_probability(0.5));
            (0..64).map(|i| corrupt_reward(i, 0, 1.0).is_nan()).collect()
        };
        assert_ne!(pattern(1), pattern(2));
    }

    #[test]
    fn stall_only_delays() {
        let _guard = scoped(ChaosConfig::new(3).with_stall(1.0, Duration::from_millis(1)));
        let before = std::time::Instant::now();
        work_unit(0);
        assert!(before.elapsed() >= Duration::from_millis(1));
    }
}
