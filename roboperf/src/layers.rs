//! Per-layer probes for the traced run: the benchmark times calls into
//! each layer's public functions on the served plan, with a span around
//! every probe.

use crate::inputs::{Rng, State};
use crate::stats::{median, metric, Metric};
use robo_codegen::EvalWorkspace;
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{GradientBackend, GradientBatchOutput, GradientOutput};
use robo_dynamics::{forward_dynamics, mass_matrix_inverse};
use robo_sim::engine::RobotPlan;
use robo_sim::{SimWorkspace, XUnit};
use robo_spatial::{ExecTier, Force, Motion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per probe; the probe reports the median batch.
const BATCHES: usize = 21;
/// Minimum wall time of one batch.
const BATCH_TIME: Duration = Duration::from_millis(2);
/// Plan builds timed for `plan.build_ms`.
const PLAN_BUILDS: usize = 5;

/// Median nanoseconds per call of `f(i)` (`i` counts calls, so probes
/// can cycle through inputs).
fn per_call_ns(name: &'static str, mut f: impl FnMut(usize)) -> f64 {
    let _span = robo_trace::span(name);
    let mut reps = 1;
    let mut i = 0;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f(i);
            i += 1;
        }
        if t0.elapsed() >= BATCH_TIME {
            break;
        }
        reps *= 2;
    }
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&per_batch)
}

/// Probes every layer below the serving tier.
pub fn probe(plan: &RobotPlan, pool: &[State], rng: &mut Rng) -> Vec<Metric> {
    let robot = plan.robot();
    let n = plan.dof();
    let mut out = Vec::new();

    let builds: Vec<f64> = (0..PLAN_BUILDS)
        .map(|_| {
            let _span = robo_trace::span("probe.plan_build");
            let t0 = Instant::now();
            black_box(RobotPlan::with_tier(robot, plan.tier()));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(metric("plan.build_ms", median(&builds), "ms"));
    let code_bytes = {
        let _span = robo_trace::span("probe.jit_plan_build");
        RobotPlan::with_tier(robot, ExecTier::Jit)
            .jit_report()
            .map_or(0, |r| r.code_bytes)
    };
    out.push(metric("jit.code_bytes", code_bytes as f64, "bytes"));

    let state = |i: usize| &pool[i % pool.len()];
    let mut accel = plan.accelerator_backend();
    let mut batch_out = GradientBatchOutput::new();
    let views: Vec<GradientState<'_, f64>> = pool
        .iter()
        .map(|s| GradientState {
            q: &s.q,
            qd: &s.qd,
            qdd: &s.qdd,
            minv: &s.minv,
        })
        .collect();
    for (name, width) in [("sim.batch16_ns_per_state", 16), ("sim.batch1_ns", 1)] {
        let groups = views.len() / width;
        let ns = per_call_ns(name, |i| {
            let g = i % groups;
            accel
                .gradient_batch_into(
                    black_box(&views[g * width..(g + 1) * width]),
                    &mut batch_out,
                )
                .expect("pool states match the plan");
            black_box(&batch_out);
        });
        out.push(metric(name, ns / width as f64, "ns"));
    }
    let mut grad = GradientOutput::for_dof(n);
    let ns = per_call_ns("sim.gradient_into_ns", |i| {
        let s = state(i);
        accel
            .gradient_into(black_box(&s.q), &s.qd, &s.qdd, &s.minv, &mut grad)
            .expect("pool states match the plan");
        black_box(&grad);
    });
    out.push(metric("sim.gradient_into_ns", ns, "ns"));
    let sim = plan.sim();
    let mut ws = SimWorkspace::for_sim(sim);
    let ns = per_call_ns("sim.compute_gradient_ns", |i| {
        let s = state(i);
        black_box(sim.compute_gradient_into(black_box(&s.q), &s.qd, &s.qdd, &s.minv, &mut ws));
    });
    out.push(metric("sim.compute_gradient_ns", ns, "ns"));

    let units: Vec<XUnit<f64>> = (0..n)
        .map(|j| {
            let mut u = XUnit::with_mask(robot, j, plan.superposition_mask());
            if sim.jit_enabled() {
                u.enable_jit();
            }
            u
        })
        .collect();
    let vectors: Vec<[f64; 6]> = (0..64)
        .map(|_| std::array::from_fn(|_| rng.sym(1.0)))
        .collect();
    let trig = |i: usize| {
        let q = state(i).q[i % n];
        (q.sin(), q.cos())
    };
    let ns = per_call_ns("xunit.apply_motion_ns", |i| {
        let (s, c) = trig(i);
        let m = Motion::from_array(vectors[i % vectors.len()]);
        black_box(units[i % n].apply_motion(black_box(s), c, m));
    });
    out.push(metric("xunit.apply_motion_ns", ns, "ns"));
    let ns = per_call_ns("xunit.tr_apply_force_ns", |i| {
        let (s, c) = trig(i);
        let f = Force::from_array(vectors[i % vectors.len()]);
        black_box(units[i % n].tr_apply_force(black_box(s), c, f));
    });
    out.push(metric("xunit.tr_apply_force_ns", ns, "ns"));

    let tape = &plan.kernel_family().tape;
    let inputs: Vec<Vec<f64>> = (0..16)
        .map(|_| tape.input_names().iter().map(|_| rng.sym(1.0)).collect())
        .collect();
    let mut tape_ws = EvalWorkspace::new();
    let mut tape_out = vec![0.0; tape.num_outputs()];
    let ns = per_call_ns("tape.family_eval_ns", |i| {
        tape.eval_into(
            black_box(&inputs[i % inputs.len()]),
            &mut tape_ws,
            &mut tape_out,
        );
        black_box(&tape_out);
    });
    out.push(metric("tape.family_eval_ns", ns, "ns"));

    let model = plan.model();
    let ns = per_call_ns("dyn.minv_ns", |i| {
        black_box(mass_matrix_inverse(model, black_box(&state(i).q)).expect("SPD"));
    });
    out.push(metric("dyn.minv_ns", ns, "ns"));
    let ns = per_call_ns("dyn.forward_dynamics_ns", |i| {
        let s = state(i);
        // Any torque vector will do; reuse q̈ as one.
        black_box(forward_dynamics(model, black_box(&s.q), &s.qd, &s.qdd).expect("SPD"));
    });
    out.push(metric("dyn.forward_dynamics_ns", ns, "ns"));
    let mut cpu = plan.cpu_backend();
    let ns = per_call_ns("dyn.cpu_gradient_ns", |i| {
        let s = state(i);
        cpu.gradient_into(black_box(&s.q), &s.qd, &s.qdd, &s.minv, &mut grad)
            .expect("pool states match the plan");
        black_box(&grad);
    });
    out.push(metric("dyn.cpu_gradient_ns", ns, "ns"));
    out
}
