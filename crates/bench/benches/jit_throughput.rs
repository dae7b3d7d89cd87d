//! Copy-and-patch template JIT vs the direct-threaded tape.
//!
//! The threaded tape dispatches every scheduled superinstruction block
//! through one indirect call, and every handler re-loads its operand
//! indices from the `OpArgs` table and re-indexes the register file per
//! instruction. For `f64` tapes the template JIT
//! ([`CompiledNetlist::enable_jit`]) removes all of that: each decoded
//! instruction is lowered **inline** to 2–4 SSE scalar instructions
//! with the operand byte offsets patched into their disp32 fields — a
//! straight-line leaf function with no dispatch, no calls, and no
//! operand-table traffic. The lowering preserves the interpreter's
//! semantics exactly (two rounding steps for fused opcodes, sign-bit
//! negation, all reads before the single store), so the comparison is
//! bit-identical by construction and measures execution overhead
//! alone.
//!
//! Three comparisons, all single-threaded:
//!
//! * `tape_threaded_scalar` vs `tape_jit_scalar` — the compiled iiwa
//!   full-pipeline X tape, per-state scalar evaluation. The speedup key
//!   `jit_vs_threaded` is the PR's acceptance floor (≥ 1.15×) and the
//!   one `ci/bench_baseline_10.json` gates.
//! * `tape_interp_scalar` vs `tape_jit_scalar` — the same tape through
//!   the `match`-dispatch oracle, for the cumulative `jit_vs_interp`
//!   ratio (scheduling + threading + stitching).
//! * `family_threaded_scalar` vs `family_jit_scalar` — the fused
//!   RNEA/FD/∇ID multifunction family tape, the largest tape the
//!   serving path JIT-enables (`RobotPlan::with_tier(.., Jit)`).
//!
//! * `netlist_interp_sweep` / `netlist_interp_ref_sweep` vs
//!   `netlist_compiled_sweep` — one state through each of the 14
//!   superposed iiwa `X·`/`Xᵀ·` unit netlists (the circuits the
//!   simulator's `XUnit`s execute), per sweep: the string-keyed
//!   `Netlist::eval` oracle (HashMap lookups, a fresh value vector,
//!   per-call constant conversion), its borrowed-output `eval_ref`, and
//!   `CompiledNetlist::eval_into` on a warm workspace. The ratio
//!   `compiled_vs_netlist_interp` is gated (acceptance floor ≥ 2×).
//! * `tape_engine_batch` — the §4 example unit's compiled tape streaming
//!   a batch through the shared `BatchEngine` (`eval_batch`), per state.
//!
//! Results (median ns per state or sweep), the speedup ratios, and the host
//! provenance block go to `BENCH_10.json` at the repository root
//! (override with `BENCH_OUT`). `BENCH_QUICK=1` shrinks the run for CI
//! and `BENCH_TRIALS=N` repeats it for the confidence-interval gate;
//! see [`robo_bench::harness`].
//!
//! On hosts without the JIT (non-x86-64, non-Linux) the JIT-enabled
//! tape transparently runs threaded; the bench prints a warning and the
//! ratios degrade to ~1.0 — the gate only runs on the x86-64 CI runner.

use robo_bench::harness::{
    self, tape_states, time_median_ns, time_median_ns_interleaved, BenchEnv,
};
use robo_bench::report::{speedup, BenchReport, HostInfo};
use robo_codegen::{
    generate_kernel_family, generate_x_pipeline, generate_x_unit_with_mask,
    generate_xt_unit_with_mask, optimize, CompiledNetlist, EvalWorkspace, Netlist,
};
use robo_dynamics::batch::BatchEngine;
use robo_dynamics::engine::KernelKind;
use robo_model::{robots, RobotModel};
use robo_sparsity::{superposition_pattern, Mask6};
use std::collections::HashMap;
use std::hint::black_box;

/// 14-unit sweeps per timing sample in [`netlist_sweeps`].
const SWEEPS_PER_SAMPLE: usize = 8;

/// A per-state scalar sweep of `tape` over `states` as a timing closure
/// (each alternative owns its register file so the sweeps interleave).
fn scalar_sweep<'a>(
    tape: &'a CompiledNetlist<f64>,
    states: &'a [Vec<f64>],
    interp: bool,
) -> impl FnMut() + 'a {
    let mut regs = vec![0.0_f64; tape.num_regs()];
    let mut out = vec![0.0_f64; tape.num_outputs()];
    move || {
        for s in states {
            if interp {
                tape.eval_into_regs_interp(s, &mut regs, &mut out);
            } else {
                tape.eval_into_regs(s, &mut regs, &mut out);
            }
            black_box(&out);
        }
    }
}

fn run_once(env: &BenchEnv) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);

    // The iiwa full-pipeline tape, threaded and JIT-stitched.
    let tape = CompiledNetlist::<f64>::compile(&optimize(&generate_x_pipeline(&robot, sup)));
    let mut jit_tape = tape.clone();
    if !jit_tape.enable_jit() {
        println!(
            "jit_throughput: WARNING: JIT unavailable on this host — \
             measuring the threaded fallback"
        );
    }
    let states = tape_states(env.tape_batch, tape.input_names().len());

    // The fused multifunction family tape — the one the serving path
    // JIT-enables.
    let (family_netlist, _, _) = generate_kernel_family(&robot, sup, &KernelKind::ALL)
        .expect("distinct kernels never collide on output names");
    let family = CompiledNetlist::<f64>::compile(&family_netlist);
    let mut family_jit = family.clone();
    family_jit.enable_jit();
    let family_states = tape_states(env.tape_batch, family.input_names().len());

    // Interleaved A/B/C sweeps: dispatch differences on these tapes are
    // tens of ns/state, so back-to-back whole-path runs on a shared
    // 1-core runner would let machine drift masquerade as a speedup (or
    // eat a real one). Round-robin reps bias every path equally.
    let medians = time_median_ns_interleaved(
        env.reps,
        env.tape_batch,
        &mut [
            &mut scalar_sweep(&tape, &states, true),
            &mut scalar_sweep(&tape, &states, false),
            &mut scalar_sweep(&jit_tape, &states, false),
        ],
    );
    let (tape_interp, tape_threaded, tape_jit) = (medians[0], medians[1], medians[2]);
    let medians = time_median_ns_interleaved(
        env.reps,
        env.tape_batch,
        &mut [
            &mut scalar_sweep(&family, &family_states, false),
            &mut scalar_sweep(&family_jit, &family_states, false),
        ],
    );
    let (family_threaded, family_jit_ns) = (medians[0], medians[1]);

    report.record_median_ns("tape_interp_scalar", tape_interp);
    report.record_median_ns("tape_threaded_scalar", tape_threaded);
    report.record_median_ns("tape_jit_scalar", tape_jit);
    report.record_median_ns("family_threaded_scalar", family_threaded);
    report.record_median_ns("family_jit_scalar", family_jit_ns);
    report.record_speedup("jit_vs_threaded", tape_threaded / tape_jit);
    report.record_speedup("jit_vs_interp", tape_interp / tape_jit);
    report.record_speedup("family_jit_vs_threaded", family_threaded / family_jit_ns);

    netlist_sweeps(env, &robot, sup, &mut report);

    match jit_tape.jit_report() {
        Some(r) => println!(
            "jit_throughput: pipeline tape stitched: {} blocks, {} code bytes, {} patches",
            r.blocks, r.code_bytes, r.patches
        ),
        None => println!("jit_throughput: pipeline tape runs threaded (no JIT)"),
    }
    for (name, ns) in report.medians() {
        println!("jit_throughput/{name:<24} median: {ns:10.1} ns");
    }
    for (name, ratio) in report.speedups() {
        println!("jit_throughput/{name:<24} speedup: {}", speedup(*ratio));
    }
    report
}

/// The `Netlist::eval` interpreter vs the compiled tape on every
/// superposed iiwa unit netlist, and the batch-engine tape sweep.
fn netlist_sweeps(env: &BenchEnv, robot: &RobotModel, sup: Mask6, report: &mut BenchReport) {
    let units: Vec<Netlist> = (0..robot.dof())
        .flat_map(|j| {
            [
                generate_x_unit_with_mask(robot, j, sup),
                generate_xt_unit_with_mask(robot, j, sup),
            ]
        })
        .collect();
    let compiled: Vec<CompiledNetlist<f64>> = units
        .iter()
        .map(|u| CompiledNetlist::compile(&optimize(u)))
        .collect();
    let vals = tape_states(units.len(), compiled[0].input_names().len());
    let maps: Vec<HashMap<String, f64>> = compiled
        .iter()
        .zip(&vals)
        .map(|(c, v)| {
            c.input_names()
                .iter()
                .cloned()
                .zip(v.iter().copied())
                .collect()
        })
        .collect();

    let mut ws = EvalWorkspace::new();
    let mut out = vec![0.0_f64; compiled[0].num_outputs()];
    let medians = time_median_ns_interleaved(
        env.reps,
        SWEEPS_PER_SAMPLE,
        &mut [
            &mut || {
                for _ in 0..SWEEPS_PER_SAMPLE {
                    for (unit, inputs) in units.iter().zip(&maps) {
                        black_box(unit.eval::<f64>(inputs).expect("inputs cover the unit"));
                    }
                }
            },
            &mut || {
                for _ in 0..SWEEPS_PER_SAMPLE {
                    for (unit, inputs) in units.iter().zip(&maps) {
                        black_box(unit.eval_ref::<f64>(inputs).expect("inputs cover the unit"));
                    }
                }
            },
            &mut || {
                for _ in 0..SWEEPS_PER_SAMPLE {
                    for (tape, inputs) in compiled.iter().zip(&vals) {
                        tape.eval_into(inputs, &mut ws, &mut out);
                        black_box(&out);
                    }
                }
            },
        ],
    );
    report.record_median_ns("netlist_interp_sweep", medians[0]);
    report.record_median_ns("netlist_interp_ref_sweep", medians[1]);
    report.record_median_ns("netlist_compiled_sweep", medians[2]);
    report.record_speedup("compiled_vs_netlist_interp", medians[0] / medians[2]);

    // Joint 1's forward unit: the §4 example circuit.
    let tape = &compiled[2];
    let states = tape_states(env.tape_batch, tape.input_names().len());
    let engine = BatchEngine::global();
    let ns = time_median_ns(env.reps, env.tape_batch, || {
        black_box(tape.eval_batch(engine, &states));
    });
    report.record_median_ns("tape_engine_batch", ns);
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_10.json");
    harness::run_trials(&default, run_once);
}
