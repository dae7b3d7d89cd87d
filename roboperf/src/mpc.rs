//! The `mpc_step` workload: closed-loop nonlinear MPC on the simulated
//! accelerator, one control step at a time.
//!
//! `run_mpc` re-solves from the measured state at every step, so running
//! it for one step from the previous step's final state is the same
//! closed loop (the episode check against an uninterrupted CPU-backend
//! run confirms it) and gives the wall time of each step.

use crate::affinity;
use crate::check::{Tally, MPC_REL_TOL};
use crate::inputs::Rng;
use crate::stats::{Rate, Samples};
use crate::tracer::Tracer;
use robo_dynamics::batch::BatchEngine;
use robo_dynamics::engine::{DynamicsBackend, EngineError, GradientBackend, GradientOutput};
use robo_sim::engine::{BackendKind, RobotPlan};
use robo_spatial::MatN;
use robo_trajopt::{run_mpc, MpcConfig, ReachingTask};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Confines the calling thread to one CPU and creates the process-wide
/// batch engine, which `run_mpc` linearizes on, from it: sized to the
/// CPUs its creator may use, the engine gets one worker, on the same CPU.
/// Returns whether the thread was confined.
///
/// Sized to the host, the engine runs one worker per CPU, so on a 2-CPU
/// host every linearization is a fork-join across both CPUs and a step
/// waits for the slower of them and for cross-CPU wake-ups. On a 2-vCPU
/// VM, alternating 3–5 s runs gave 498–557 steps/s with two workers,
/// 546–573 with one, and one worker on the caller's CPU ran 6–18 % faster
/// than one worker left to the scheduler in 20 of 20 pairs. The caller
/// blocks while the worker runs, so the CPU is never shared by two
/// runnable threads.
pub fn confine_to_one_cpu() -> bool {
    let confined = affinity::confine_to_first_cpu();
    BatchEngine::global();
    confined
}

/// A [`GradientBackend`] decorator that sums the time spent inside
/// `gradient_into` across every fork.
struct TimingBackend<'a> {
    inner: Box<dyn GradientBackend + 'a>,
    nanos: &'a AtomicU64,
}

impl GradientBackend for TimingBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dof(&self) -> usize {
        self.inner.dof()
    }

    fn gradient_into(
        &mut self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        minv: &MatN<f64>,
        out: &mut GradientOutput,
    ) -> Result<(), EngineError> {
        let _span = robo_trace::span("bench.gradient_into");
        let t0 = Instant::now();
        let res = self.inner.gradient_into(q, qd, qdd, minv, out);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        res
    }

    fn fork(&self) -> Box<dyn GradientBackend + '_> {
        Box::new(TimingBackend {
            inner: self.inner.fork(),
            nanos: self.nanos,
        })
    }
}

/// One closed-loop episode run through the timed phase.
#[derive(Debug, Clone)]
struct Episode {
    x0: Vec<f64>,
    final_error: f64,
    gradient_calls: usize,
}

/// What one timed segment measured.
#[derive(Debug, Default)]
pub struct Segment {
    pub tally: Tally,
    /// Wall time of each control step, µs.
    pub step_us: Samples,
    pub steps: u64,
    pub rate: Rate,
    pub elapsed_s: f64,
    /// Time inside `gradient_into`, summed over the engine's threads
    /// (measured only when traced).
    pub kernel_s: f64,
    pub gradient_calls: u64,
}

impl Segment {
    /// Control steps per second: the median window rate, or the whole
    /// segment's mean if it was shorter than one window.
    pub fn throughput_per_s(&self) -> f64 {
        self.rate
            .median()
            .unwrap_or(self.steps as f64 / self.elapsed_s)
    }

    pub fn merge(&mut self, other: &Segment) {
        self.tally.add(other.tally);
        self.step_us.extend(&other.step_us);
        self.steps += other.steps;
        self.rate.extend(&other.rate);
        self.elapsed_s += other.elapsed_s;
        self.kernel_s += other.kernel_s;
        self.gradient_calls += other.gradient_calls;
    }
}

pub struct MpcBench {
    pub plan: RobotPlan,
    backend: Box<dyn DynamicsBackend>,
    config: MpcConfig,
    rng: Rng,
    episodes: Vec<Episode>,
}

/// A seeded start posture near the reaching task's own, at rest.
pub fn seeded_task(rng: &mut Rng) -> ReachingTask {
    let mut task = ReachingTask::iiwa_reach();
    let n = task.robot.dof();
    for q in &mut task.x0[..n] {
        *q += rng.sym(0.05);
    }
    task
}

impl MpcBench {
    /// Builds the plan and its accelerator backend.
    pub fn new(rng: Rng) -> Self {
        let plan = RobotPlan::new(&ReachingTask::iiwa_reach().robot);
        let backend = plan.backend(BackendKind::Accel);
        Self {
            plan,
            backend,
            config: MpcConfig::default(),
            rng,
            episodes: Vec::new(),
        }
    }

    /// The accelerator backend the workload runs on.
    pub fn backend(&self) -> &dyn GradientBackend {
        &*self.backend
    }

    /// Gradient calls one control step makes: the optimizer linearizes
    /// the whole horizon once per iteration.
    pub fn calls_per_step(&self) -> usize {
        self.config.horizon * self.config.iterations_per_step
    }

    /// Runs one control step of `task` from its `x0`, returning the
    /// result's last state, tracking error and gradient calls.
    pub fn step(
        &self,
        task: &ReachingTask,
        backend: &dyn GradientBackend,
    ) -> (Vec<f64>, f64, usize) {
        let one = MpcConfig {
            control_steps: 1,
            ..self.config
        };
        let _span = robo_trace::span("bench.mpc_step");
        let res = run_mpc(task, &one, backend);
        let x = res
            .states
            .last()
            .expect("initial state plus one step")
            .clone();
        (x, res.final_error(), res.gradient_calls)
    }

    /// Runs whole episodes (at least one) until `dur` has passed. With
    /// `timed_kernel`, the backend is wrapped in the timing decorator.
    pub fn run(&mut self, dur: Duration, timed_kernel: bool, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        let nanos = AtomicU64::new(0);
        let timing = TimingBackend {
            inner: self.backend.fork(),
            nanos: &nanos,
        };
        let backend: &dyn GradientBackend = if timed_kernel {
            &timing
        } else {
            &*self.backend
        };
        let start = Instant::now();
        seg.rate.start(start);
        loop {
            let mut task = seeded_task(&mut self.rng);
            let x0 = task.x0.clone();
            let (mut error, mut calls) = (f64::NAN, 0);
            for _ in 0..self.config.control_steps {
                let t0 = Instant::now();
                let (x, e, c) = self.step(&task, backend);
                let done = Instant::now();
                seg.step_us.push((done - t0).as_secs_f64() * 1e6);
                seg.steps += 1;
                seg.rate.tick(done);
                seg.tally.attempted += 1;
                if c != self.calls_per_step() || !e.is_finite() {
                    seg.tally.failed += 1;
                }
                task.x0 = x;
                (error, calls) = (e, calls + c);
                tracer.poll();
            }
            seg.gradient_calls += calls as u64;
            self.episodes.push(Episode {
                x0,
                final_error: error,
                gradient_calls: calls,
            });
            if start.elapsed() >= dur {
                break;
            }
        }
        seg.elapsed_s = start.elapsed().as_secs_f64();
        seg.kernel_s = nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        seg
    }

    /// Re-runs a fixed sample of the episodes (first, middle, last)
    /// uninterrupted on the CPU backend and fails every step of an
    /// episode whose final tracking error or gradient-call count differs.
    pub fn check_episodes(&self) -> Tally {
        let mut tally = Tally::default();
        let cpu = self.plan.cpu_backend();
        let n = self.episodes.len();
        let mut sample = vec![0, n / 2, n.saturating_sub(1)];
        sample.dedup();
        for &i in sample.iter().filter(|&&i| i < n) {
            let ep = &self.episodes[i];
            let mut task = ReachingTask::iiwa_reach();
            task.x0.clone_from(&ep.x0);
            let reference = run_mpc(&task, &self.config, &cpu);
            let rel = (ep.final_error - reference.final_error()).abs()
                / reference.final_error().abs().max(1e-12);
            let initial_error = {
                let dof = task.robot.dof();
                (0..dof)
                    .map(|j| (task.x0[j] - task.x_goal[j]).powi(2))
                    .sum::<f64>()
                    .sqrt()
            };
            if rel > MPC_REL_TOL
                || ep.gradient_calls != reference.gradient_calls
                || ep.final_error >= initial_error
            {
                tally.failed += self.config.control_steps as u64;
            }
        }
        tally
    }
}
