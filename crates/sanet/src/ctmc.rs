//! The continuous-time Markov chain (CTMC) solver: the analytic
//! cross-check of the simulation engine.
//!
//! Möbius can solve small models numerically instead of simulating them;
//! this module provides the same capability through one solver,
//! [`SparseCtmc`]. The generators [`reach`](crate::reach) assembles for
//! admissible models, the k-out-of-n redundancy group
//! ([`k_out_of_n_chain`]) and the fail-over pair's hitting-probability
//! oracle ([`failover_pair_hitting_oracle`](crate::rare::failover_pair_hitting_oracle))
//! all solve through it. The tests in this crate compare its exact values
//! against closed forms, a Gaussian-elimination test oracle and the
//! discrete-event estimates.
//!
//! The module also owns the one graph condensation (iterative Tarjan) of
//! the crate: the steady-state solver takes its terminal class from it,
//! and [`reach`](crate::reach) its ergodicity summary and vanishing-cycle
//! verdict.

use crate::SanError;

/// A continuous-time Markov chain over states `0..n`, with the generator
/// held as `(from, to, rate)` triplets compiled to compressed-sparse-row
/// form at solve time.
///
/// Built for the statically assembled generators of
/// [`reach`](crate::reach): state spaces with thousands of markings where
/// a dense `n × n` matrix (and Gaussian elimination's `O(n³)`) would not
/// scale. The steady state is solved by power iteration on the
/// uniformized chain `P = I + Q/Λ` (with `Λ` strictly above the largest
/// exit rate, so every state keeps a positive self-probability and the
/// iteration cannot cycle); the transient solution is Jensen
/// uniformization on the sparse rows.
///
/// # Example
///
/// ```
/// use sanet::ctmc::SparseCtmc;
///
/// // A repairable unit: state 0 = up, state 1 = down.
/// let mut chain = SparseCtmc::new(2).unwrap();
/// chain.add_transition(0, 1, 1.0 / 1000.0).unwrap(); // failure
/// chain.add_transition(1, 0, 1.0 / 10.0).unwrap(); // repair
/// let pi = chain.steady_state().unwrap();
/// assert!((pi[0] - 1000.0 / 1010.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCtmc {
    states: usize,
    /// Raw `(from, to, rate)` entries in insertion order; duplicates are
    /// aggregated when the CSR form is compiled.
    triplets: Vec<(usize, usize, f64)>,
}

/// Compiled compressed-sparse-row view of a [`SparseCtmc`] generator.
struct Csr {
    /// `row_ptr[i]..row_ptr[i + 1]` indexes state `i`'s entries.
    row_ptr: Vec<usize>,
    columns: Vec<usize>,
    rates: Vec<f64>,
    /// Total exit rate per state (the negated diagonal).
    exit: Vec<f64>,
}

impl Csr {
    fn row(&self, state: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[state]..self.row_ptr[state + 1];
        self.columns[span.clone()].iter().copied().zip(self.rates[span].iter().copied())
    }
}

impl SparseCtmc {
    /// Creates a chain with `states` states and no transitions.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] if `states` is zero.
    pub fn new(states: usize) -> Result<Self, SanError> {
        if states == 0 {
            return Err(SanError::InvalidExperiment {
                reason: "a CTMC needs at least one state".into(),
            });
        }
        Ok(SparseCtmc { states, triplets: Vec::new() })
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of stored transition entries (before aggregation).
    pub fn num_transitions(&self) -> usize {
        self.triplets.len()
    }

    /// Adds (accumulates) a transition rate from `from` to `to`. Both
    /// states must be in range, self-loops are rejected and the rate must
    /// be finite and positive: the inputs that would silently corrupt the
    /// diagonal at solve time.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownId`] if either state is out of range and
    /// [`SanError::InvalidExperiment`] for self-loops or rates that are
    /// not finite and positive.
    pub fn add_transition(&mut self, from: usize, to: usize, rate: f64) -> Result<(), SanError> {
        if from >= self.states || to >= self.states {
            return Err(SanError::UnknownId { what: format!("CTMC state {from}->{to}") });
        }
        if from == to {
            return Err(SanError::InvalidExperiment {
                reason: "self-loops are not allowed in a CTMC".into(),
            });
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SanError::InvalidExperiment {
                reason: format!("transition rate must be positive, got {rate}"),
            });
        }
        self.triplets.push((from, to, rate));
        Ok(())
    }

    /// The stored `(from, to, rate)` entries, in insertion order — lets
    /// tests and cross-checks rebuild a dense oracle with identical rates.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.triplets.iter().copied()
    }

    /// Compiles the triplets into CSR form, aggregating duplicate
    /// `(from, to)` pairs.
    fn csr(&self) -> Csr {
        let mut sorted = self.triplets.clone();
        sorted.sort_unstable_by_key(|&(from, to, _)| (from, to));
        let mut row_ptr = vec![0usize; self.states + 1];
        let mut columns = Vec::with_capacity(sorted.len());
        let mut rates: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut exit = vec![0.0; self.states];
        let mut last: Option<(usize, usize)> = None;
        for (from, to, rate) in sorted {
            exit[from] += rate;
            if last == Some((from, to)) {
                *rates.last_mut().expect("non-empty") += rate;
            } else {
                columns.push(to);
                rates.push(rate);
                last = Some((from, to));
            }
            row_ptr[from + 1] = columns.len();
        }
        // Rows with no entries inherit the running prefix.
        for i in 1..=self.states {
            row_ptr[i] = row_ptr[i].max(row_ptr[i - 1]);
        }
        Csr { row_ptr, columns, rates, exit }
    }

    /// Solves the steady-state distribution by power iteration on the
    /// uniformized DTMC `P = I + Q/Λ` with `Λ = 1.05 · max exit rate`,
    /// restricted to the chain's single terminal (recurrent) class.
    ///
    /// The stationary distribution puts no mass on transient states, so the
    /// solver first condenses the transition graph (Tarjan) and iterates
    /// only inside the terminal class. Restricting the iteration matters
    /// beyond efficiency: in rare-event chains the drain *into* the
    /// terminal class can be orders of magnitude slower than the mixing
    /// inside it, and iterating the full chain would converge at the drain
    /// rate instead. Transient states report exactly `0.0`. The strictly
    /// positive diagonal makes `P` aperiodic, so within the class the
    /// iteration converges to the unique stationary distribution.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] if the chain has no
    /// transitions at all, has more than one terminal class (the stationary
    /// distribution is then not unique — assemble per-class chains
    /// instead), or the iteration fails to converge.
    pub fn steady_state(&self) -> Result<Vec<f64>, SanError> {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanSolve);
        let n = self.states;
        if n == 1 {
            return Ok(vec![1.0]);
        }
        if self.triplets.is_empty() {
            return Err(SanError::InvalidExperiment { reason: "CTMC has no transitions".into() });
        }
        let csr = self.csr();
        let (component, terminal) = condense(n, |state| csr.row(state).map(|(to, _)| to));
        let classes = terminal.iter().filter(|&&t| t).count();
        if classes != 1 {
            return Err(SanError::InvalidExperiment {
                reason: format!(
                    "chain has {classes} terminal classes; the stationary distribution is not unique"
                ),
            });
        }
        let members: Vec<usize> = (0..n).filter(|&state| terminal[component[state]]).collect();
        let mut pi = vec![0.0; n];
        if members.len() == 1 {
            // A single absorbing state carries all the mass exactly.
            pi[members[0]] = 1.0;
            return Ok(pi);
        }
        // A multi-state terminal class is strongly connected, so every
        // member has a positive exit rate and all its edges stay inside
        // the class: the global vectors below only ever touch members.
        let lambda = 1.05 * members.iter().map(|&state| csr.exit[state]).fold(0.0_f64, f64::max);
        for &state in &members {
            pi[state] = 1.0 / members.len() as f64;
        }
        let mut next = vec![0.0; n];
        // Convergence: successive-iterate delta below threshold. The
        // threshold sits well under the 1e-10 oracle-agreement target but
        // above f64 round-off for small chains.
        const TOLERANCE: f64 = 1e-15;
        const MAX_ITERATIONS: usize = 2_000_000;
        for _ in 0..MAX_ITERATIONS {
            for &state in &members {
                next[state] = pi[state] * (1.0 - csr.exit[state] / lambda);
            }
            for &state in &members {
                let mass = pi[state];
                if mass == 0.0 {
                    continue;
                }
                for (to, rate) in csr.row(state) {
                    next[to] += mass * rate / lambda;
                }
            }
            let total: f64 = members.iter().map(|&state| next[state]).sum();
            if !(total.is_finite() && total > 0.0) {
                return Err(SanError::InvalidExperiment {
                    reason: "steady-state power iteration produced a degenerate distribution"
                        .into(),
                });
            }
            for &state in &members {
                next[state] /= total;
            }
            let delta = members
                .iter()
                .map(|&state| (pi[state] - next[state]).abs())
                .fold(0.0_f64, f64::max);
            std::mem::swap(&mut pi, &mut next);
            if delta < TOLERANCE {
                return Ok(pi);
            }
        }
        Err(SanError::InvalidExperiment {
            reason: "steady-state power iteration did not converge".into(),
        })
    }

    /// Expected steady-state value of a reward function over states.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SparseCtmc::steady_state`].
    pub fn steady_state_reward(&self, reward: impl Fn(usize) -> f64) -> Result<f64, SanError> {
        Ok(self.steady_state()?.iter().enumerate().map(|(s, &p)| p * reward(s)).sum())
    }

    /// Solves the transient distribution `π(t)` from a deterministic start
    /// state by uniformization (Jensen's method) on the sparse rows: with
    /// `Λ ≥ max_i |q_ii|` and the DTMC `P = I + Q/Λ`,
    /// `π(t) = Σ_k Poisson(Λt; k) · π(0) Pᵏ`, truncated once the Poisson
    /// tail mass drops below 10⁻¹². Large `Λt` horizons are split into
    /// steps of `Λτ ≤ 64` so the Poisson weights never underflow.
    ///
    /// Absorbing states (rows of zero rates) are handled naturally, so the
    /// chain doubles as an analytic oracle for finite-horizon *hitting*
    /// probabilities — exactly the shape of a rare-event measure: make the
    /// failure state absorbing and read `π(t)` at its index.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownId`] if `initial` is out of range and
    /// [`SanError::InvalidExperiment`] for a negative or non-finite `t`.
    pub fn transient(&self, initial: usize, t: f64) -> Result<Vec<f64>, SanError> {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanSolve);
        if initial >= self.states {
            return Err(SanError::UnknownId { what: format!("CTMC state {initial}") });
        }
        if !(t.is_finite() && t >= 0.0) {
            return Err(SanError::InvalidExperiment {
                reason: format!("transient horizon must be non-negative and finite, got {t}"),
            });
        }
        let mut pi = vec![0.0; self.states];
        pi[initial] = 1.0;
        if t == 0.0 {
            return Ok(pi);
        }
        let csr = self.csr();
        // The largest exit rate, floored so a chain without transitions
        // still steps.
        let rate = csr.exit.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
        let steps = (rate * t / 64.0).ceil().max(1.0);
        let tau = t / steps;
        for _ in 0..steps as u64 {
            pi = uniformized_sparse_step(&csr, &pi, rate, tau);
        }
        Ok(pi)
    }

    /// Expected value of a reward function over the transient distribution
    /// at time `t`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SparseCtmc::transient`].
    pub fn transient_reward(
        &self,
        initial: usize,
        t: f64,
        reward: impl Fn(usize) -> f64,
    ) -> Result<f64, SanError> {
        Ok(self.transient(initial, t)?.iter().enumerate().map(|(s, &p)| p * reward(s)).sum())
    }
}

/// Condenses the digraph over `0..states` whose out-edges `successors`
/// lists: returns the strongly connected component of every state and,
/// per component, whether it is *terminal* (no edge leaves it).
///
/// Iterative Tarjan with one explicit DFS frame per open state, so deep
/// chains cannot overflow the stack. Callers use component membership
/// only, never the order of the ids. Self-loops and duplicate edges are
/// allowed.
pub(crate) fn condense<I>(states: usize, successors: impl Fn(usize) -> I) -> (Vec<usize>, Vec<bool>)
where
    I: Iterator<Item = usize>,
{
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; states];
    let mut low = vec![0; states];
    let mut on_stack = vec![false; states];
    let mut stack = Vec::new();
    let mut component = vec![UNVISITED; states];
    let mut terminal = Vec::new();
    let mut next_index = 0;
    let mut frames: Vec<(usize, I)> = Vec::new();
    for root in 0..states {
        if index[root] != UNVISITED {
            continue;
        }
        let mut open = Some(root);
        loop {
            if let Some(state) = open.take() {
                index[state] = next_index;
                low[state] = next_index;
                next_index += 1;
                stack.push(state);
                on_stack[state] = true;
                frames.push((state, successors(state)));
            }
            let Some((state, edges)) = frames.last_mut() else { break };
            let state = *state;
            match edges.next() {
                Some(next) if index[next] == UNVISITED => open = Some(next),
                Some(next) if on_stack[next] => low[state] = low[state].min(index[next]),
                Some(_) => {}
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[state]);
                    }
                    if low[state] == index[state] {
                        loop {
                            let member = stack.pop().expect("Tarjan stack underflow");
                            on_stack[member] = false;
                            component[member] = terminal.len();
                            if member == state {
                                break;
                            }
                        }
                        terminal.push(true);
                    }
                }
            }
        }
    }
    for state in 0..states {
        if successors(state).any(|next| component[next] != component[state]) {
            terminal[component[state]] = false;
        }
    }
    (component, terminal)
}

/// One uniformized step of length `tau` over the CSR rows: `π ← Σ_k w_k ·
/// π Pᵏ` with Poisson weights truncated at relative tail mass `10⁻¹²`.
fn uniformized_sparse_step(csr: &Csr, pi: &[f64], rate: f64, tau: f64) -> Vec<f64> {
    let n = pi.len();
    let lambda_t = rate * tau;
    let mut weight = (-lambda_t).exp();
    let mut accumulated = weight;
    let mut term: Vec<f64> = pi.to_vec();
    let mut out: Vec<f64> = term.iter().map(|&p| p * weight).collect();
    let mut k = 0u64;
    // Hard cap well past the Poisson tail for Λτ ≤ 64 (mean + ~40σ).
    let max_terms = (lambda_t + 40.0 * lambda_t.sqrt() + 64.0) as u64;
    while accumulated < 1.0 - 1e-12 && k < max_terms {
        let mut next = vec![0.0; n];
        for (state, slot) in next.iter_mut().enumerate() {
            *slot = term[state] * (1.0 - csr.exit[state] / rate);
        }
        for (state, &mass) in term.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            for (to, q) in csr.row(state) {
                next[to] += mass * q / rate;
            }
        }
        term = next;
        k += 1;
        weight *= lambda_t / k as f64;
        accumulated += weight;
        for (o, &p) in out.iter_mut().zip(&term) {
            *o += weight * p;
        }
    }
    // Renormalise away the truncated tail so the result stays a
    // distribution.
    let total: f64 = out.iter().sum();
    if total > 0.0 {
        for o in &mut out {
            *o /= total;
        }
    }
    out
}

/// Builds the CTMC of a k-out-of-n repairable redundancy group: `n` units
/// each failing at `failure_rate`, a single repair facility restoring one
/// unit at a time at `repair_rate`, and the system considered *up* while at
/// least `k` units work. State `i` = number of failed units.
///
/// Returns the chain and the index of the first *down* state (`n - k + 1`).
///
/// # Errors
///
/// Returns [`SanError::InvalidExperiment`] for invalid `k`/`n` or
/// non-positive rates.
pub fn k_out_of_n_chain(
    n: usize,
    k: usize,
    failure_rate: f64,
    repair_rate: f64,
) -> Result<(SparseCtmc, usize), SanError> {
    if n == 0 || k == 0 || k > n {
        return Err(SanError::InvalidExperiment {
            reason: format!("k-out-of-n requires 1 <= k <= n, got k={k}, n={n}"),
        });
    }
    if failure_rate <= 0.0 || repair_rate <= 0.0 {
        return Err(SanError::InvalidExperiment { reason: "rates must be positive".into() });
    }
    let mut chain = SparseCtmc::new(n + 1)?;
    for failed in 0..n {
        let working = n - failed;
        chain.add_transition(failed, failed + 1, working as f64 * failure_rate)?;
        chain.add_transition(failed + 1, failed, repair_rate)?;
    }
    Ok((chain, n - k + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardSpec;
    use crate::{Experiment, ModelBuilder};
    use probdist::Exponential;

    /// Exact steady-state availability of a k-out-of-n repairable group:
    /// the probability mass of its up states.
    fn k_out_of_n_availability(n: usize, k: usize, lambda: f64, mu: f64) -> f64 {
        let (chain, first_down) = k_out_of_n_chain(n, k, lambda, mu).unwrap();
        chain.steady_state_reward(|state| if state < first_down { 1.0 } else { 0.0 }).unwrap()
    }

    #[test]
    fn sparse_construction_mirrors_dense_validation() {
        assert!(SparseCtmc::new(0).is_err());
        let mut c = SparseCtmc::new(3).unwrap();
        assert_eq!(c.states(), 3);
        assert!(c.add_transition(0, 0, 1.0).is_err());
        assert!(c.add_transition(0, 5, 1.0).is_err());
        assert!(c.add_transition(7, 1, 1.0).is_err());
        assert!(c.add_transition(0, 1, 0.0).is_err());
        assert!(c.add_transition(0, 1, f64::NAN).is_err());
        assert!(c.add_transition(0, 1, f64::INFINITY).is_err());
        assert!(c.add_transition(0, 1, -2.0).is_err());
        assert!(c.add_transition(0, 1, 2.0).is_ok());
        assert_eq!(c.num_transitions(), 1);
        assert!(SparseCtmc::new(2).unwrap().steady_state().is_err());
        assert_eq!(SparseCtmc::new(1).unwrap().steady_state().unwrap(), vec![1.0]);
    }

    /// The k-out-of-n chain is a birth–death chain, so its stationary
    /// distribution has the product form `π_i ∝ n!/(n−i)! · (λ/μ)^i`.
    #[test]
    fn sparse_steady_state_matches_the_product_form() {
        let (n, lambda, mu) = (4, 1.0 / 300.0, 1.0 / 12.0);
        let (chain, first_down) = k_out_of_n_chain(n, 2, lambda, mu).unwrap();
        let mut weights = vec![1.0_f64];
        for failed in 1..=n {
            let birth = (n - failed + 1) as f64 * lambda / mu;
            weights.push(weights[failed - 1] * birth);
        }
        let total: f64 = weights.iter().sum();
        let pi = chain.steady_state().unwrap();
        for (state, (&p, &w)) in pi.iter().zip(&weights).enumerate() {
            assert!((p - w / total).abs() < 1e-10, "state {state}: {p} vs {}", w / total);
        }
        let up = chain.steady_state_reward(|s| if s < first_down { 1.0 } else { 0.0 }).unwrap();
        let expected: f64 = weights[..first_down].iter().sum::<f64>() / total;
        assert!((up - expected).abs() < 1e-10, "availability {up} vs {expected}");
    }

    /// Three independent units, each failing at `λ` and repaired by its own
    /// crew at `μ`: the number failed at `t` from all-up is
    /// Binomial(3, p(t)) with `p(t) = λ/(λ+μ) · (1 − e^{−(λ+μ)t})`.
    #[test]
    fn sparse_transient_matches_the_binomial_closed_form() {
        let (lambda, mu) = (1.0 / 500.0, 1.0 / 24.0);
        let mut chain = SparseCtmc::new(4).unwrap();
        for failed in 0..3 {
            chain.add_transition(failed, failed + 1, (3 - failed) as f64 * lambda).unwrap();
            chain.add_transition(failed + 1, failed, (failed + 1) as f64 * mu).unwrap();
        }
        assert!(chain.transient(9, 1.0).is_err());
        assert!(chain.transient(0, -1.0).is_err());
        assert!(chain.transient(0, f64::NAN).is_err());
        let binomial = [1.0, 3.0, 3.0, 1.0];
        for t in [0.0, 1.0, 40.0, 2_000.0, 200_000.0] {
            let p = lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp());
            let pi = chain.transient(0, t).unwrap();
            for (i, &mass) in pi.iter().enumerate() {
                let expected = binomial[i] * p.powi(i as i32) * (1.0 - p).powi(3 - i as i32);
                assert!((mass - expected).abs() < 1e-10, "t={t}, {i} failed: {mass} vs {expected}");
            }
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        let p = lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * 40.0_f64).exp());
        let mean_failed = chain.transient_reward(0, 40.0, |s| s as f64).unwrap();
        assert!((mean_failed - 3.0 * p).abs() < 1e-10, "mean {mean_failed} vs {}", 3.0 * p);
    }

    #[test]
    fn sparse_duplicate_transitions_aggregate() {
        // Two parallel edges 0->1 behave as one with the summed rate.
        let mut split = SparseCtmc::new(2).unwrap();
        split.add_transition(0, 1, 0.4).unwrap();
        split.add_transition(0, 1, 0.6).unwrap();
        split.add_transition(1, 0, 5.0).unwrap();
        let mut merged = SparseCtmc::new(2).unwrap();
        merged.add_transition(0, 1, 1.0).unwrap();
        merged.add_transition(1, 0, 5.0).unwrap();
        let pi_split = split.steady_state().unwrap();
        let pi_merged = merged.steady_state().unwrap();
        for (a, b) in pi_split.iter().zip(&pi_merged) {
            assert!((a - b).abs() < 1e-12);
        }
        let t_split = split.transient(0, 3.0).unwrap();
        let t_merged = merged.transient(0, 3.0).unwrap();
        for (a, b) in t_split.iter().zip(&t_merged) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_absorbing_chain_concentrates_mass() {
        // 0 -> 1 -> 2 with no way back: all mass ends in state 2.
        let mut c = SparseCtmc::new(3).unwrap();
        c.add_transition(0, 1, 1.0).unwrap();
        c.add_transition(1, 2, 2.0).unwrap();
        let pi = c.steady_state().unwrap();
        assert!(pi[2] > 1.0 - 1e-9, "absorbing mass {}", pi[2]);
        let pt = c.transient(0, 0.5).unwrap();
        assert!(pt[0] > 0.0 && pt[1] > 0.0 && pt[2] > 0.0);
        assert!((pt.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_state_chain_is_trivial() {
        let c = SparseCtmc::new(1).unwrap();
        assert_eq!(c.steady_state().unwrap(), vec![1.0]);
    }

    #[test]
    fn two_state_availability_matches_closed_form() {
        let mut c = SparseCtmc::new(2).unwrap();
        c.add_transition(0, 1, 1.0 / 500.0).unwrap();
        c.add_transition(1, 0, 1.0 / 20.0).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - 500.0 / 520.0).abs() < 1e-12);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let availability = c.steady_state_reward(|s| if s == 0 { 1.0 } else { 0.0 }).unwrap();
        assert!((availability - pi[0]).abs() < 1e-15);
    }

    #[test]
    fn birth_death_chain_matches_erlang_formula() {
        // M/M/1-style chain with 3 states and distinct rates; compare with
        // the balance-equation solution computed by hand.
        let mut c = SparseCtmc::new(3).unwrap();
        c.add_transition(0, 1, 2.0).unwrap();
        c.add_transition(1, 2, 1.0).unwrap();
        c.add_transition(1, 0, 3.0).unwrap();
        c.add_transition(2, 1, 4.0).unwrap();
        let pi = c.steady_state().unwrap();
        // Balance: pi1 = pi0 * 2/3, pi2 = pi1 * 1/4.
        let p0 = 1.0 / (1.0 + 2.0 / 3.0 + 2.0 / 12.0);
        assert!((pi[0] - p0).abs() < 1e-12);
        assert!((pi[1] - p0 * 2.0 / 3.0).abs() < 1e-12);
        assert!((pi[2] - p0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn k_out_of_n_validation_and_limits() {
        assert!(k_out_of_n_chain(0, 1, 0.1, 1.0).is_err());
        assert!(k_out_of_n_chain(3, 0, 0.1, 1.0).is_err());
        assert!(k_out_of_n_chain(3, 4, 0.1, 1.0).is_err());
        assert!(k_out_of_n_chain(3, 2, -0.1, 1.0).is_err());
        // A 1-out-of-1 group is the simple repairable unit.
        let a = k_out_of_n_availability(1, 1, 1.0 / 100.0, 1.0 / 10.0);
        assert!((a - 100.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn more_redundancy_gives_higher_availability() {
        let lambda = 1.0 / 720.0;
        let mu = 1.0 / 24.0;
        let a_1of2 = k_out_of_n_availability(2, 1, lambda, mu);
        let a_2of3 = k_out_of_n_availability(3, 2, lambda, mu);
        let a_1of1 = k_out_of_n_availability(1, 1, lambda, mu);
        assert!(a_1of2 > a_2of3, "a fail-over pair beats 2-out-of-3");
        assert!(a_2of3 > a_1of1);
        // With monthly failures and 24 h repairs a fail-over pair is down
        // only when both members are failed: about 0.2 % of the time.
        assert!(a_1of2 > 0.997 && a_1of2 < 0.9995, "availability {a_1of2}");
    }

    /// Transient solution of the 2-state repairable unit against the
    /// closed form `p_down(t) = λ/(λ+μ) · (1 − e^{−(λ+μ)t})` from state
    /// "up".
    #[test]
    fn transient_matches_two_state_closed_form() {
        let lambda = 1.0 / 500.0;
        let mu = 1.0 / 20.0;
        let mut c = SparseCtmc::new(2).unwrap();
        c.add_transition(0, 1, lambda).unwrap();
        c.add_transition(1, 0, mu).unwrap();
        for t in [0.0, 1.0, 10.0, 100.0, 1_000.0, 50_000.0] {
            let pi = c.transient(0, t).unwrap();
            let expected = lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp());
            assert!(
                (pi[1] - expected).abs() < 1e-10,
                "t={t}: transient {} vs closed form {expected}",
                pi[1]
            );
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        // From the "down" state the complementary closed form applies.
        let pi = c.transient(1, 30.0).unwrap();
        let expected =
            lambda / (lambda + mu) + mu / (lambda + mu) * (-(lambda + mu) * 30.0_f64).exp();
        assert!((pi[1] - expected).abs() < 1e-10);
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let (chain, first_down) = k_out_of_n_chain(2, 1, 1.0 / 300.0, 1.0 / 12.0).unwrap();
        let pi_t = chain.transient(0, 1e6).unwrap();
        let pi_inf = chain.steady_state().unwrap();
        for (a, b) in pi_t.iter().zip(&pi_inf) {
            assert!((a - b).abs() < 1e-9, "transient {a} vs steady {b}");
        }
        assert_eq!(first_down, 2);
    }

    #[test]
    fn transient_handles_absorbing_states_as_hitting_probabilities() {
        // Fail-over pair with the both-down state absorbing: π₂(t) is the
        // probability of having *hit* total failure by t — the chain
        // behind `rare::failover_pair_hitting_oracle`.
        let lambda = 1e-3;
        let mu = 1.0;
        let mut c = SparseCtmc::new(3).unwrap();
        c.add_transition(0, 1, 2.0 * lambda).unwrap();
        c.add_transition(1, 0, mu).unwrap();
        c.add_transition(1, 2, lambda).unwrap(); // no way back: absorbing
        let p10 = c.transient(0, 10.0).unwrap()[2];
        let p100 = c.transient(0, 100.0).unwrap()[2];
        assert!(p10 > 0.0 && p100 > p10, "hitting probability grows: {p10} vs {p100}");
        // Short-horizon first-order magnitude: ~2λ²t²·μ/2-ish is tiny; the
        // quasi-stationary hitting rate is 2λ²/μ per hour.
        let approx = 2.0 * lambda * lambda / mu * 100.0;
        assert!(
            (p100 - approx).abs() / approx < 0.15,
            "p_hit(100) {p100} vs quasi-stationary {approx}"
        );
        // t = 0 is the start distribution.
        assert_eq!(c.transient(0, 0.0).unwrap(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn transient_validates_inputs() {
        let mut c = SparseCtmc::new(2).unwrap();
        c.add_transition(0, 1, 1.0).unwrap();
        assert!(c.transient(5, 1.0).is_err());
        assert!(c.transient(0, -1.0).is_err());
        assert!(c.transient(0, f64::NAN).is_err());
        assert!(c.transient(0, f64::INFINITY).is_err());
        // A transition-free chain stays where it started.
        let idle = SparseCtmc::new(2).unwrap();
        assert_eq!(idle.transient(1, 100.0).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn transient_reward_weights_states() {
        let mut c = SparseCtmc::new(2).unwrap();
        c.add_transition(0, 1, 0.01).unwrap();
        c.add_transition(1, 0, 0.5).unwrap();
        let availability =
            c.transient_reward(0, 200.0, |s| if s == 0 { 1.0 } else { 0.0 }).unwrap();
        let pi = c.transient(0, 200.0).unwrap();
        assert!((availability - pi[0]).abs() < 1e-15);
    }

    #[test]
    fn ctmc_matches_simulation_for_a_failover_pair() {
        // Exact availability of a 1-out-of-2 pair with exponential failure
        // and single-server exponential repair…
        let lambda = 1.0 / 300.0;
        let mu = 1.0 / 12.0;
        let exact = k_out_of_n_availability(2, 1, lambda, mu);

        // …compared against the discrete-event engine estimating the same
        // system (marking-dependent aggregate failure rate, one repairer).
        let mut b = ModelBuilder::new("pair");
        let working = b.add_place("working", 2).unwrap();
        let failed = b.add_place("failed", 0).unwrap();
        b.timed_activity_fn("fail", move |m: &crate::Marking| {
            let n = m.tokens(working).max(1) as f64;
            probdist::Dist::Exponential(Exponential::new(n * lambda).unwrap())
        })
        .unwrap()
        .input_arc(working, 1)
        .output_arc(failed, 1)
        .build()
        .unwrap();
        b.timed_activity("repair", Exponential::new(mu).unwrap())
            .unwrap()
            .input_arc(failed, 1)
            .output_arc(working, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let mut exp = Experiment::new(model, 100_000.0);
        exp.add_reward(RewardSpec::time_averaged_rate("avail", move |m| {
            if m.tokens(working) > 0 {
                1.0
            } else {
                0.0
            }
        }));
        let summary = exp.run(&crate::StoppingRule::fixed(24).unwrap(), 5).unwrap();
        let simulated = summary.reward("avail").unwrap().interval.point;
        assert!((simulated - exact).abs() < 5e-4, "simulated {simulated} vs exact {exact}");
    }
}
