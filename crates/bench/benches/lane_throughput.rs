//! Wide-lane (SoA) serving-path throughput: scalar vs `Lanes<f64, 4>`.
//!
//! Three levels of the serving stack, each measured single-threaded as
//! scalar-vs-wide (per-state results are bit-identical by construction,
//! so this is a pure throughput comparison):
//!
//! * `tape_*` — the compiled X-unit register tape (the §4 example joint's
//!   unit) evaluated over a batch of states: `eval_into` per state vs one
//!   `eval_batch_into` SoA sweep;
//! * `cpu_grad_*` — the full dynamics-gradient kernel through the
//!   [`CpuAnalytic`] backend: serial `gradient_into` loop vs the wide
//!   `gradient_batch_into` override;
//! * `accel_grad_*` — the same comparison through the simulated
//!   accelerator backend;
//!
//! plus `engine_grad_lanes4`, the two-level (threads × lanes)
//! `gradient_batch_on_into` path on the shared [`BatchEngine`] (on a
//! single-core host this adds claim overhead over the wide path, so it is
//! reported but not gated).
//!
//! Beside the serving path the report records, ungated, what the other
//! gradient paths cost per state: the allocating
//! `dynamics_gradient_from_qdd` (`cpu_grad_alloc`, timed interleaved with
//! the `GradWorkspace` path for the `cpu_workspace_vs_alloc` ratio), the
//! finite-difference oracle
//! (`fd_grad_serial`), and the CPU and simulated-accelerator backends in
//! the paper's fixed-point and `f32` types (`*_serial_<type>`). The
//! per-call kernel costs follow as `<kernel>_<robot>` medians: RNEA,
//! CRBA, ABA, ∇RNEA, forward kinematics and self-collision clearance on
//! iiwa14/hyq/atlas, the iiwa tip Jacobian, and a 6-term Q16.16 dot
//! product with per-operation rounding vs one wide MAC.
//!
//! The acceptance floor for this PR is `tape_lanes4` ≥ 1.5× `tape_scalar`
//! throughput. Results (median ns per state) and the speedup ratios are
//! written to `BENCH_5.json` at the repository root (override with
//! `BENCH_OUT`) — the CI artifact — and recorded in EXPERIMENTS.md.
//! `BENCH_QUICK=1` shrinks the run for CI and `BENCH_TRIALS=N` repeats it
//! for the confidence-interval gate; see [`robo_bench::harness`].

use robo_bench::harness::{
    self, gradient_cases, tape_states, time_median_ns, time_median_ns_interleaved, BenchEnv,
};
use robo_bench::report::{speedup, BenchReport, HostInfo};
use robo_codegen::{
    generate_x_unit_with_mask, optimize, BatchEvalWorkspace, CompiledNetlist, EvalWorkspace,
};
use robo_collision::{min_clearance, CollisionModel};
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{
    CpuAnalytic, FiniteDiff, GradientBackend, GradientBatchOutput, GradientOutput,
};
use robo_dynamics::{
    aba, dynamics_gradient_from_qdd, dynamics_gradient_into, forward_kinematics,
    geometric_jacobian, mass_matrix, rnea, rnea_derivatives, DynamicsModel, GradWorkspace,
};
use robo_fixed::{Fix14_6, Fix32_16};
use robo_model::robots;
use robo_sim::AcceleratorBackend;
use robo_sparsity::superposition_pattern;
use robo_spatial::{Lanes, Scalar};
use std::hint::black_box;

/// Serial reference: the trait's default batch shape (gradient_into loop
/// through one dense scratch), hand-rolled so it measures the scalar path
/// even on backends that override `gradient_batch_into`.
fn serial_batch(
    backend: &mut dyn GradientBackend,
    states: &[GradientState<'_, f64>],
    scratch: &mut GradientOutput,
    out: &mut GradientBatchOutput,
) {
    out.reset(states.len(), backend.dof());
    for (i, s) in states.iter().enumerate() {
        backend
            .gradient_into(s.q, s.qd, s.qdd, s.minv, scratch)
            .expect("dimensions match");
        out.store(i, scratch);
    }
}

fn run_once(env: &BenchEnv) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    // --- Compiled tape: scalar vs SoA lanes -----------------------------
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    let tape =
        CompiledNetlist::<f64>::compile(&optimize(&generate_x_unit_with_mask(&robot, 1, sup)));
    let n_out = tape.num_outputs();
    let states = tape_states(env.tape_batch, tape.input_names().len());

    let mut ws = EvalWorkspace::for_netlist(&tape);
    let mut out_one = vec![0.0_f64; n_out];
    let tape_scalar = time_median_ns(env.reps, env.tape_batch, || {
        for s in &states {
            tape.eval_into(s, &mut ws, &mut out_one);
            black_box(&out_one);
        }
    });

    let mut batch_ws = BatchEvalWorkspace::<Lanes<f64, 4>>::for_netlist(&tape);
    let mut out_flat = vec![0.0_f64; env.tape_batch * n_out];
    let tape_lanes = time_median_ns(env.reps, env.tape_batch, || {
        tape.eval_batch_into(&states, &mut batch_ws, &mut out_flat);
        black_box(&out_flat);
    });

    // --- Gradient backends: serial vs wide batch ------------------------
    let model = std::sync::Arc::new(DynamicsModel::<f64>::new(&robot));
    let cases = gradient_cases(&model, env.grad_batch);
    let grad_states: Vec<GradientState<'_, f64>> = cases
        .iter()
        .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
        .collect();

    let mut cpu = CpuAnalytic::<f64>::with_model(model.clone());
    let mut scratch = GradientOutput::for_dof(model.dof());
    let mut batch_out = GradientBatchOutput::new();
    let cpu_serial = time_median_ns(env.grad_reps, env.grad_batch, || {
        serial_batch(&mut cpu, &grad_states, &mut scratch, &mut batch_out);
        black_box(&batch_out);
    });
    let cpu_lanes = time_median_ns(env.grad_reps, env.grad_batch, || {
        cpu.gradient_batch_into(&grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    let mut accel = AcceleratorBackend::<f64>::new(&robot);
    let accel_serial = time_median_ns(env.grad_reps, env.grad_batch, || {
        serial_batch(&mut accel, &grad_states, &mut scratch, &mut batch_out);
        black_box(&batch_out);
    });
    let accel_lanes = time_median_ns(env.grad_reps, env.grad_batch, || {
        accel
            .gradient_batch_into(&grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    // --- Two-level threads × lanes scheduling ---------------------------
    let engine = BatchEngine::global();
    let engine_lanes = time_median_ns(env.grad_reps, env.grad_batch, || {
        cpu.gradient_batch_on_into(engine, &grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    // --- Workspace vs allocating gradient, serial, interleaved A/B ------
    let mut ws = GradWorkspace::for_model(&model);
    let ab = time_median_ns_interleaved(
        env.grad_reps,
        env.grad_batch,
        &mut [
            &mut || {
                for s in &grad_states {
                    dynamics_gradient_into(&model, s.q, s.qd, s.qdd, s.minv, &mut ws);
                    black_box(&ws.dqdd_dq);
                }
            },
            &mut || {
                for s in &grad_states {
                    black_box(dynamics_gradient_from_qdd(&model, s.q, s.qd, s.qdd, s.minv));
                }
            },
        ],
    );

    report.record_median_ns("tape_scalar", tape_scalar);
    report.record_median_ns("tape_lanes4", tape_lanes);
    report.record_median_ns("cpu_grad_serial", cpu_serial);
    report.record_median_ns("cpu_grad_lanes4", cpu_lanes);
    report.record_median_ns("accel_grad_serial", accel_serial);
    report.record_median_ns("accel_grad_lanes4", accel_lanes);
    report.record_median_ns("engine_grad_lanes4", engine_lanes);
    report.record_median_ns("cpu_grad_alloc", ab[1]);
    report.record_speedup("tape_lanes4_vs_scalar", tape_scalar / tape_lanes);
    report.record_speedup("cpu_lanes4_vs_serial", cpu_serial / cpu_lanes);
    report.record_speedup("accel_lanes4_vs_serial", accel_serial / accel_lanes);
    report.record_speedup("engine_vs_serial_cpu", cpu_serial / engine_lanes);
    report.record_speedup("cpu_workspace_vs_alloc", ab[1] / ab[0]);

    // --- Oracle and numeric-type variants, serial (ungated) -------------
    let mut serial = |name: &str, backend: &mut dyn GradientBackend| {
        let ns = time_median_ns(env.grad_reps, env.grad_batch, || {
            serial_batch(backend, &grad_states, &mut scratch, &mut batch_out);
            black_box(&batch_out);
        });
        report.record_median_ns(name, ns);
    };
    serial("fd_grad_serial", &mut FiniteDiff::with_model(model.clone()));
    serial("cpu_grad_serial_f32", &mut CpuAnalytic::<f32>::new(&robot));
    serial(
        "cpu_grad_serial_fix32_16",
        &mut CpuAnalytic::<Fix32_16>::new(&robot),
    );
    serial(
        "cpu_grad_serial_fix14_6",
        &mut CpuAnalytic::<Fix14_6>::new(&robot),
    );
    serial(
        "accel_grad_serial_fix32_16",
        &mut AcceleratorBackend::<Fix32_16>::new(&robot),
    );
    kernel_costs(env, &mut report);

    for (name, ns) in report.medians() {
        println!("lane_throughput/{name:<26} median: {ns:10.1} ns");
    }
    for (name, ratio) in report.speedups() {
        println!("lane_throughput/{name:<26} speedup: {}", speedup(*ratio));
    }
    report
}

/// Per-call costs of the dynamics and fixed-point kernels, recorded as
/// `<kernel>_<robot>` medians (ns per call).
fn kernel_costs(env: &BenchEnv, report: &mut BenchReport) {
    let calls = env.grad_batch;
    let mut time = |name: String, f: &mut dyn FnMut()| {
        let ns = time_median_ns(env.grad_reps, calls, || (0..calls).for_each(|_| f()));
        report.record_median_ns(name, ns);
    };
    for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
        let name = robot.name();
        let model = DynamicsModel::<f64>::new(&robot);
        let (q, qd, qdd, _) = &gradient_cases(&model, 1)[0];
        let tau = vec![0.5; model.dof()];
        let cache = rnea(&model, q, qd, qdd).cache;
        let collision = CollisionModel::from_robot(&robot, 0.05);
        time(format!("rnea_{name}"), &mut || {
            black_box(rnea(&model, black_box(q), qd, qdd));
        });
        time(format!("crba_{name}"), &mut || {
            black_box(mass_matrix(&model, black_box(q)));
        });
        time(format!("aba_{name}"), &mut || {
            black_box(aba(&model, black_box(q), qd, &tau));
        });
        time(format!("grad_id_{name}"), &mut || {
            black_box(rnea_derivatives(&model, black_box(qd), &cache));
        });
        time(format!("fk_{name}"), &mut || {
            black_box(forward_kinematics(&model, black_box(q)));
        });
        time(format!("collision_{name}"), &mut || {
            black_box(min_clearance(&model, &collision, black_box(q)));
        });
        if name == "iiwa14" {
            time(format!("jacobian_{name}"), &mut || {
                black_box(geometric_jacobian(&model, black_box(q), model.dof() - 1));
            });
        }
    }

    let pairs: Vec<(Fix32_16, Fix32_16)> = (0..6)
        .map(|i| {
            (
                Fix32_16::from_f64(0.3 * i as f64 - 0.7),
                Fix32_16::from_f64(-0.2 * i as f64 + 0.5),
            )
        })
        .collect();
    time("fix_dot6_per_op".to_owned(), &mut || {
        let per_op = black_box(&pairs)
            .iter()
            .fold(Fix32_16::zero(), |acc, (x, y)| acc + *x * *y);
        black_box(per_op);
    });
    time("fix_dot6_wide_mac".to_owned(), &mut || {
        black_box(Fix32_16::dot_accumulate(black_box(&pairs)));
    });
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_5.json");
    harness::run_trials(&default, run_once);
}
