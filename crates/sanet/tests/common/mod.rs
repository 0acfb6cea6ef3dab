//! The Gaussian-elimination steady-state oracle shared by the integration
//! suites: an independent reference for `SparseCtmc::steady_state`, which
//! solves by power iteration instead.

use sanet::ctmc::SparseCtmc;

/// Solves `π Q = 0`, `Σ π = 1` for `chain` by Gaussian elimination with
/// partial pivoting on the dense transposed generator, with the last
/// balance equation replaced by the normalisation.
///
/// # Panics
///
/// Panics if the chain has no unique stationary distribution.
// Index-style loops mirror the Qᵀπ = 0 linear-algebra notation.
#[allow(clippy::needless_range_loop)]
pub(crate) fn gaussian_steady_state(chain: &SparseCtmc) -> Vec<f64> {
    let n = chain.states();
    let mut a = vec![vec![0.0_f64; n + 1]; n];
    for (from, to, rate) in chain.transitions() {
        a[to][from] += rate;
        a[from][from] -= rate;
    }
    a[n - 1] = vec![1.0; n + 1];
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .expect("non-empty range");
        assert!(a[pivot_row][col].abs() > 1e-14, "singular generator: no unique steady state");
        a.swap(col, pivot_row);
        let pivot = a[col][col];
        for j in col..=n {
            a[col][j] /= pivot;
        }
        for row in 0..n {
            let factor = a[row][col];
            if row != col && factor != 0.0 {
                for j in col..=n {
                    a[row][j] -= factor * a[col][j];
                }
            }
        }
    }
    let pi: Vec<f64> = a.iter().map(|row| row[n].max(0.0)).collect();
    let total: f64 = pi.iter().sum();
    pi.iter().map(|p| p / total).collect()
}
