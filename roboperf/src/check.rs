//! Output checks and failure accounting.

use robo_dynamics::engine::GradientOutput;
use robo_spatial::MatN;

/// Relative bound between a served gradient and the CPU oracle — the
/// cpu-vs-accel bound of the repository's engine parity tests.
pub const GRADIENT_REL_TOL: f64 = 1e-12;

/// Relative bound between MPC final tracking errors on the accelerator
/// and CPU backends. Both run the same optimizer; only the kernel's
/// last-ulp rounding differs.
pub const MPC_REL_TOL: f64 = 1e-6;

fn rel_diff(a: &MatN<f64>, b: &MatN<f64>) -> f64 {
    a.max_abs_diff(b) / a.max_abs().max(1.0)
}

/// Whether `got` matches `reference` on all four gradient matrices.
pub fn gradient_matches(reference: &GradientOutput, got: &GradientOutput) -> bool {
    [
        (&reference.dqdd_dq, &got.dqdd_dq),
        (&reference.dqdd_dqd, &got.dqdd_dqd),
        (&reference.dtau_dq, &got.dtau_dq),
        (&reference.dtau_dqd, &got.dtau_dqd),
    ]
    .iter()
    .all(|(a, b)| {
        (a.rows(), a.cols()) == (b.rows(), b.cols()) && rel_diff(a, b) <= GRADIENT_REL_TOL
    })
}

/// Attempted operations and the ones that failed: shed, rejected, or
/// answered wrongly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one answered gradient, failing it unless it matches.
    pub fn answered(&mut self, reference: &GradientOutput, got: &GradientOutput) {
        self.attempted += 1;
        if !gradient_matches(reference, got) {
            self.failed += 1;
        }
    }

    /// Records one request the server refused.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{states, Rng};

    #[test]
    fn a_corrupted_output_counts_as_failed() {
        let robot = robo_model::robots::iiwa14();
        let pool = states(&robot, &mut Rng::new(7), 2);
        let mut tally = Tally::default();
        tally.answered(&pool[0].reference, &pool[0].reference.clone());
        assert_eq!(tally.failed_frac(), 0.0);

        let mut corrupted = pool[1].reference.clone();
        corrupted.dqdd_dq[(3, 2)] += 1e-9;
        tally.answered(&pool[1].reference, &corrupted);
        tally.refused();
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        assert!(tally.failed_frac() > 0.0);
    }

    #[test]
    fn another_states_gradient_is_wrong() {
        let robot = robo_model::robots::iiwa14();
        let pool = states(&robot, &mut Rng::new(11), 2);
        assert!(!gradient_matches(&pool[0].reference, &pool[1].reference));
    }
}
