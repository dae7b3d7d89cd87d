//! `roboperf`: the end-to-end benchmark of the robomorphic gradient
//! pipeline. See `README.md` for the workloads, the metrics and how to
//! read the trace.
//!
//! ```text
//! roboperf --workload <serve_sparse|serve_saturated|mpc_step>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.

mod affinity;
mod check;
mod inputs;
mod layers;
mod mpc;
mod serve;
mod stats;
mod tracer;

use check::Tally;
use inputs::{states, Rng};
use mpc::MpcBench;
use robo_dynamics::batch::BatchEngine;
use robo_model::RobotModel;
use robo_sim::engine::RobotPlan;
use serve::{Load, ServeBench};
use stats::{metric, result_json, Metric};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tracer::Tracer;

/// Offered rate of `serve_sparse`, requests per second.
const SPARSE_RATE: f64 = 2000.0;
/// Full flushes kept outstanding by `serve_saturated`.
const WINDOW_FLUSHES: usize = 4;
/// Seeded states each serving run draws its requests from.
const POOL: usize = 64;
/// Fresh processes timed for `setup_s`, half before and half after the
/// timed phase; the run reports their median.
const SETUP_PROBES: u64 = 12;
/// Untimed warm-up before the serving workloads' timed phase.
const WARMUP: Duration = Duration::from_millis(300);
/// Length of the traced run's companion segment.
const COMPANION: Duration = Duration::from_secs(2);
/// Seed offset for the traced run's layer-probe inputs.
const PROBE_SEED: u64 = 0x5EED_F1A7;

const USAGE: &str = "usage: roboperf --workload <serve_sparse|serve_saturated|mpc_step> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeSparse,
    ServeSaturated,
    MpcStep,
}

impl Workload {
    const ALL: [Self; 3] = [Self::ServeSparse, Self::ServeSaturated, Self::MpcStep];

    fn name(self) -> &'static str {
        match self {
            Self::ServeSparse => "serve_sparse",
            Self::ServeSaturated => "serve_saturated",
            Self::MpcStep => "mpc_step",
        }
    }

    /// Threads runnable at once: the generator plus the server's workers,
    /// or the batch engine's workers while the MPC caller blocks on them
    /// (one, see [`mpc::confine_to_one_cpu`]).
    fn threads(self) -> usize {
        match self {
            Self::ServeSparse | Self::ServeSaturated => 1 + serve::WORKERS,
            Self::MpcStep => BatchEngine::global().threads(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_probe = false;
    while let Some(flag) = argv.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

fn robot() -> RobotModel {
    robo_model::robots::iiwa14()
}

/// The serving load for `workload`; `None` for `mpc_step`.
fn load(workload: Workload, bench: &ServeBench) -> Option<Load> {
    match workload {
        Workload::ServeSparse => Some(Load::Open { rate: SPARSE_RATE }),
        Workload::ServeSaturated => Some(Load::Window {
            window: WINDOW_FLUSHES * bench.max_batch(),
        }),
        Workload::MpcStep => None,
    }
}

fn serve_bench(seed: u64) -> ServeBench {
    let robot = robot();
    let mut rng = Rng::new(seed);
    let pool = states(&robot, &mut rng, POOL);
    ServeBench::new(&robot, pool, rng)
}

/// Child-process mode: set up `workload` cold, time it to the first
/// verified result, and print `ready <seconds>`. Exits non-zero if the
/// first result is wrong.
fn setup_probe(args: &Args) -> ExitCode {
    let robot = robot();
    let mut rng = Rng::new(args.seed);
    let ok = match args.workload {
        Workload::ServeSparse | Workload::ServeSaturated => {
            let state = states(&robot, &mut rng, 1).remove(0);
            let t0 = Instant::now();
            let server = robo_serve::GradientServer::with_config(serve::config());
            let key = server.register(&robot);
            let dof = server.plan(key).expect("registered").dof();
            let mut req = robo_serve::GradientRequest::for_dof(dof);
            req.q.clone_from(&state.q);
            req.qd.clone_from(&state.qd);
            req.qdd.clone_from(&state.qdd);
            req.minv = state.minv.clone();
            let slot = robo_serve::ResponseSlot::new();
            let served = server.serve(key, req, &slot);
            println!("ready {}", t0.elapsed().as_secs_f64());
            served.is_ok_and(|r| check::gradient_matches(&state.reference, &r.out))
        }
        Workload::MpcStep => {
            let task = mpc::seeded_task(&mut rng);
            let t0 = Instant::now();
            mpc::confine_to_one_cpu();
            let bench = MpcBench::new(rng);
            let (x, error, calls) = bench.step(&task, bench.backend());
            println!("ready {}", t0.elapsed().as_secs_f64());
            calls == bench.calls_per_step() && error.is_finite() && x.iter().all(|v| v.is_finite())
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Cold-start times of the fresh processes numbered `probes`, or `None`
/// if any of them failed.
fn setup_seconds(args: &Args, probes: std::ops::Range<u64>) -> Option<Vec<f64>> {
    let exe = std::env::current_exe().ok()?;
    let mut times = Vec::with_capacity(probes.clone().count());
    for i in probes {
        let out = Command::new(&exe)
            .args(["--setup-probe", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.wrapping_add(i).to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .ok()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("ready "))
            .and_then(|s| s.trim().parse::<f64>().ok());
        match secs {
            Some(s) if out.status.success() => times.push(s),
            _ => {
                eprintln!("roboperf: setup probe {i} failed ({})", out.status);
                return None;
            }
        }
    }
    Some(times)
}

/// Per-run provenance, printed with every result.
fn provenance(args: &Args, plan: &RobotPlan, pinned: bool) -> Vec<(String, String)> {
    let host = robo_trace::HostInfo::detect();
    let (generators, workers) = match args.workload {
        Workload::MpcStep => (0, BatchEngine::global().threads()),
        _ => (1, serve::WORKERS),
    };
    [
        ("workload", args.workload.name().to_owned()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", stats::nproc().to_string()),
        ("cpu_model", host.cpu_model),
        ("rustc", host.rustc),
        ("robot", plan.robot().name().to_owned()),
        ("tier", plan.tier().to_string()),
        ("jit_emitted", plan.jit_report().is_some().to_string()),
        ("serve_width", plan.serve_width().to_string()),
        ("generator_threads", generators.to_string()),
        ("workers", workers.to_string()),
        ("pinned", pinned.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// What a run reports.
struct Report {
    tally: Tally,
    setup_ok: bool,
    metrics: Vec<Metric>,
    provenance: Vec<(String, String)>,
    spans: Vec<(String, tracer::KindTotals)>,
}

/// The end-to-end run: tracing off. `confined`: whether `mpc_step` runs
/// on one CPU.
fn end_to_end(args: &Args, confined: bool) -> Report {
    let setup_before = setup_seconds(args, 0..SETUP_PROBES / 2);
    let dur = Duration::from_secs_f64(args.seconds);
    let mut idle = Tracer::new();
    let (tally, latency_us, throughput, plan, pinned) = match args.workload {
        Workload::MpcStep => {
            let mut bench = MpcBench::new(Rng::new(args.seed));
            let mut tally = bench.run(Duration::ZERO, false, &mut idle).tally;
            let seg = bench.run(dur, false, &mut idle);
            tally.add(seg.tally);
            tally.add(bench.check_episodes());
            let throughput = seg.throughput_per_s();
            (
                tally,
                seg.step_us.median(),
                throughput,
                bench.plan,
                confined,
            )
        }
        w => {
            let mut bench = serve_bench(args.seed);
            let load = load(w, &bench).expect("serving workload");
            let mut tally = bench.run(load, WARMUP, &mut idle).tally;
            let seg = bench.run(load, dur, &mut idle);
            tally.add(seg.tally);
            let plan = (*bench.plan()).clone();
            let pinned = bench.pinned();
            (
                tally,
                seg.latency_us.median(),
                seg.throughput_per_s(),
                plan,
                pinned,
            )
        }
    };
    let setup_after = setup_seconds(args, SETUP_PROBES / 2..SETUP_PROBES);
    let setup = setup_before.zip(setup_after).map(|(a, b)| [a, b].concat());
    let cycles = plan.accelerator_backend().cycles_per_gradient();
    Report {
        tally,
        setup_ok: setup.is_some(),
        metrics: vec![
            metric(
                "setup_s",
                setup.map_or(f64::NAN, |t| stats::median(&t)),
                "s",
            ),
            metric("latency_p50_us", latency_us, "us"),
            metric("throughput_per_s", throughput, "1/s"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
            metric("sim_cycles_per_gradient", cycles as f64, "cycles"),
        ],
        provenance: provenance(args, &plan, pinned),
        spans: Vec::new(),
    }
}

fn loadgen_and_serve_metrics(seg: &serve::Segment, bench: &ServeBench) -> Vec<Metric> {
    let s = bench.stats();
    let flushes = s.flushes.max(1) as f64;
    vec![
        metric("loadgen.late_p99_us", seg.late_us.percentile(0.99), "us"),
        metric(
            "loadgen.latency_p90_us",
            seg.latency_us.percentile(0.9),
            "us",
        ),
        metric(
            "loadgen.latency_p99_us",
            seg.latency_us.percentile(0.99),
            "us",
        ),
        metric(
            "loadgen.latency_samples",
            seg.latency_us.count() as f64,
            "count",
        ),
        metric("serve.submit_ns", seg.submit_ns.median(), "ns"),
        metric("serve.wait_us", seg.wait_us.median(), "us"),
        metric(
            "serve.requests_per_flush",
            s.completed as f64 / flushes,
            "count",
        ),
        metric(
            "serve.ragged_frac",
            s.ragged_flushes as f64 / flushes,
            "ratio",
        ),
        metric("serve.queue_high_water", s.queue_high_water as f64, "count"),
        metric("serve.shed", s.shed as f64, "count"),
        metric("serve.plans_built", s.plans_built as f64, "count"),
    ]
}

fn mpc_metrics(seg: &mpc::Segment) -> Vec<Metric> {
    vec![
        metric("mpc.kernel_share", seg.kernel_s / seg.elapsed_s, "ratio"),
        metric(
            "mpc.gradient_calls_per_step",
            seg.gradient_calls as f64 / seg.steps as f64,
            "count",
        ),
    ]
}

/// Runs four equal quarters of a segment, untraced and traced in turn,
/// and returns the merged (untraced, traced) segments.
fn interleaved<S: Default>(
    tracer: &mut Tracer,
    merge: fn(&mut S, &S),
    mut run: impl FnMut(&mut Tracer) -> S,
) -> (S, S) {
    let (mut untraced, mut traced) = (S::default(), S::default());
    for k in 0..4 {
        let on = k % 2 == 1;
        if on {
            tracer.start();
        }
        let seg = run(tracer);
        tracer.stop();
        merge(if on { &mut traced } else { &mut untraced }, &seg);
    }
    (untraced, traced)
}

/// The traced run: layer probes; the workload in alternating untraced
/// and traced quarters; then a companion segment, also in quarters, for
/// the layers the workload does not reach (MPC for the serving
/// workloads, the open-loop serving tier for `mpc_step`).
///
/// The per-layer numbers of a segment come from its untraced quarters,
/// which the benchmark times without spans; the traced quarters feed the
/// Chrome trace and, against the untraced ones, the tracing overhead.
fn traced(args: &Args, confined: bool) -> Report {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let companion_quarter = COMPANION / 4;
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let probe_pool = states(&robot(), &mut Rng::new(args.seed ^ PROBE_SEED), 16);
    let mut metrics = Vec::new();
    let ((lat_u, lat_t), (tput_u, tput_t), plan, pinned);
    match args.workload {
        Workload::MpcStep => {
            let mut bench = MpcBench::new(Rng::new(args.seed));
            tally.add(bench.run(Duration::ZERO, true, &mut tracer).tally);
            tracer.start();
            let layer = layers::probe(&bench.plan, &probe_pool, &mut Rng::new(args.seed));
            tracer.stop();
            let (u, t) = interleaved(&mut tracer, mpc::Segment::merge, |tracer| {
                bench.run(quarter, true, tracer)
            });
            tally.add(u.tally);
            tally.add(t.tally);
            tally.add(bench.check_episodes());
            (lat_u, lat_t) = (u.step_us.median(), t.step_us.median());
            (tput_u, tput_t) = (u.throughput_per_s(), t.throughput_per_s());

            let mut companion = serve_bench(args.seed);
            let open = Load::Open { rate: SPARSE_RATE };
            tally.add(companion.run(open, WARMUP, &mut tracer).tally);
            let (cu, ct) = interleaved(&mut tracer, serve::Segment::merge, |tracer| {
                companion.run(open, companion_quarter, tracer)
            });
            tally.add(cu.tally);
            tally.add(ct.tally);
            metrics.extend(loadgen_and_serve_metrics(&cu, &companion));
            metrics.extend(layer);
            metrics.extend(mpc_metrics(&u));
            plan = bench.plan;
            pinned = confined;
        }
        w => {
            let mut bench = serve_bench(args.seed);
            let load = load(w, &bench).expect("serving workload");
            tally.add(bench.run(load, WARMUP, &mut tracer).tally);
            let served = (*bench.plan()).clone();
            tracer.start();
            let layer = layers::probe(&served, &probe_pool, &mut Rng::new(args.seed));
            tracer.stop();
            let (u, t) = interleaved(&mut tracer, serve::Segment::merge, |tracer| {
                bench.run(load, quarter, tracer)
            });
            tally.add(u.tally);
            tally.add(t.tally);
            (lat_u, lat_t) = (u.latency_us.median(), t.latency_us.median());
            (tput_u, tput_t) = (u.throughput_per_s(), t.throughput_per_s());

            metrics.extend(loadgen_and_serve_metrics(&u, &bench));
            metrics.extend(layer);
            pinned = bench.pinned();
            // Releases the generator's pin, so that the companion runs
            // on one CPU as `mpc_step` does.
            drop(bench);
            mpc::confine_to_one_cpu();

            let mut companion = MpcBench::new(Rng::new(args.seed));
            tally.add(companion.run(Duration::ZERO, true, &mut tracer).tally);
            let (cu, ct) = interleaved(&mut tracer, mpc::Segment::merge, |tracer| {
                companion.run(companion_quarter, true, tracer)
            });
            tally.add(cu.tally);
            tally.add(ct.tally);
            tally.add(companion.check_episodes());
            metrics.extend(mpc_metrics(&cu));
            plan = served;
        }
    }
    metrics.push(metric("trace.overhead_latency_p50_us", lat_t - lat_u, "us"));
    metrics.push(metric(
        "trace.overhead_throughput_per_s",
        tput_t - tput_u,
        "1/s",
    ));
    metrics.push(metric("trace.events", tracer.events as f64, "count"));

    let provenance = provenance(args, &plan, pinned);
    let path = out_dir().join(format!(
        "trace_{}_seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write_chrome(&path, provenance.clone()) {
        eprintln!("roboperf: could not write {}: {e}", path.display());
    }
    Report {
        tally,
        setup_ok: true,
        metrics,
        provenance,
        spans: tracer.table.into_iter().collect(),
    }
}

/// Where runs leave their result files and traces: `out/` beside this
/// package's manifest.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The run's result file: provenance, result and span table.
fn write_result_file(args: &Args, report: &Report, line: &str) {
    let prov: Vec<String> = report
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", stats::json_string(k), stats::json_string(v)))
        .collect();
    let spans: Vec<String> = report
        .spans
        .iter()
        .map(|(k, t)| {
            format!(
                "{}: {{\"count\": {}, \"total_us\": {}}}",
                stats::json_string(k),
                t.count,
                t.total_us
            )
        })
        .collect();
    let body = format!(
        "{{\"provenance\": {{{}}},\n\"result\": {line},\n\"spans\": {{{}}}}}\n",
        prov.join(", "),
        spans.join(",\n")
    );
    let path = out_dir().join(format!(
        "{}_seed{}_trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("roboperf: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roboperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return setup_probe(&args);
    }
    // Before anything touches the batch engine, so that it is created
    // with one worker on the confined CPU.
    let confined = args.workload == Workload::MpcStep && mpc::confine_to_one_cpu();
    let (threads, nproc) = (args.workload.threads(), stats::nproc());
    if threads > nproc {
        eprintln!(
            "roboperf: {} needs {threads} runnable threads but this host has {nproc} CPUs",
            args.workload.name()
        );
        return ExitCode::from(2);
    }

    let report = if args.trace {
        traced(&args, confined)
    } else {
        end_to_end(&args, confined)
    };
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.tally.failed == 0 && report.setup_ok && finite;

    for (k, v) in &report.provenance {
        println!("# {k}: {v}");
    }
    for (name, t) in &report.spans {
        println!(
            "# span {name:<28} {:>9} x {:>12.3} us mean",
            t.count,
            t.total_us / t.count.max(1) as f64
        );
    }
    for m in &report.metrics {
        println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "# failed_frac: {} ({} of {})",
        report.tally.failed_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    let line = result_json(
        correct,
        report.tally.attempted.max(1),
        report.tally.failed,
        &report.metrics,
    );
    write_result_file(&args, &report, &line);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mpc_step --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::MpcStep);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload mpc_step").is_err());
        assert!(args("--workload mpc_step --seed 1 --trace 2").is_err());
        assert!(args("--workload mpc_step --seed 1 --bogus 1").is_err());
    }
}
