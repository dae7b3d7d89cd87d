//! Seeded workload inputs and their reference outputs, generated before
//! any timed phase. The program under test only ever sees these values.

use robo_dynamics::engine::{CpuAnalytic, GradientBackend, GradientOutput};
use robo_dynamics::{forward_dynamics, mass_matrix_inverse, DynamicsModel};
use robo_model::RobotModel;
use robo_spatial::MatN;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-amp, amp)`.
    pub fn sym(&mut self, amp: f64) -> f64 {
        amp * (2.0 * self.unit() - 1.0)
    }

    /// Exponential with mean `mean` (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// One gradient evaluation point with consistent `q̈ = FD(q, q̇, τ)` and
/// `M⁻¹(q)`, plus the CPU oracle's gradient at it.
#[derive(Debug, Clone)]
pub struct State {
    pub q: Vec<f64>,
    pub qd: Vec<f64>,
    pub qdd: Vec<f64>,
    pub minv: MatN<f64>,
    pub reference: GradientOutput,
}

/// Draws `count` states for `robot` from `rng` and computes each
/// reference gradient with [`CpuAnalytic`].
pub fn states(robot: &RobotModel, rng: &mut Rng, count: usize) -> Vec<State> {
    let model = DynamicsModel::<f64>::new(robot);
    let mut oracle = CpuAnalytic::<f64>::new(robot);
    let n = robot.dof();
    (0..count)
        .map(|_| {
            let q: Vec<f64> = (0..n).map(|_| rng.sym(1.0)).collect();
            let qd: Vec<f64> = (0..n).map(|_| rng.sym(1.5)).collect();
            let tau: Vec<f64> = (0..n).map(|_| rng.sym(5.0)).collect();
            let qdd = forward_dynamics(&model, &q, &qd, &tau).expect("iiwa14 mass matrix is SPD");
            let minv = mass_matrix_inverse(&model, &q).expect("iiwa14 mass matrix is SPD");
            let mut reference = GradientOutput::for_dof(n);
            oracle
                .gradient_into(&q, &qd, &qdd, &minv, &mut reference)
                .expect("state dimensions match the robot");
            State {
                q,
                qd,
                qdd,
                minv,
                reference,
            }
        })
        .collect()
}
