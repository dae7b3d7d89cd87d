//! Serving-tier load generator: p50/p99 request latency across a
//! closed-loop client sweep, and saturated throughput of the coalescing
//! micro-batcher against naive one-request-one-gradient dispatch.
//!
//! Two measurements, both against [`GradientServer`] with a single
//! pinned worker so the comparison isolates the *coalescing* win (SIMD
//! lane fill) from thread parallelism:
//!
//! * **Closed-loop latency sweep** — N client threads, each keeping one
//!   request in flight, round-tripping through the micro-batcher. Every
//!   request's submit→response time is sampled; the 50th and 99th
//!   percentiles are recorded as `serve_<robot>_c<N>_p50_ns` /
//!   `_p99_ns` medians (the `analyse report` latency table, gated
//!   lower-is-better).
//! * **Saturated throughput** — one driver pipelines a deep window of
//!   outstanding slots so the shard queue never runs dry, first with the
//!   default lane-group coalescing (`lane_groups_per_flush = 4`), then
//!   with coalescing disabled (`= 0`: every request is dispatched alone,
//!   the naive baseline). Identical offered load, identical worker
//!   count; the ratio is recorded as the speedup
//!   `serve_batched_vs_naive_iiwa14`. The PR's acceptance floor is
//!   ≥ 1.5× — the batched path must actually fill lanes.
//!
//! Results are written to `BENCH_8.json` at the repository root
//! (override with `BENCH_OUT`). `BENCH_QUICK=1` shrinks the sweep for CI
//! and `BENCH_TRIALS=N` repeats it for the confidence-interval gate; see
//! [`robo_bench::harness`].

use robo_bench::harness::{self, BenchEnv};
use robo_bench::report::{
    median, speedup, BenchReport, HostInfo, LATENCY_P50_SUFFIX, LATENCY_P99_SUFFIX,
};
use robo_model::{robots, RobotModel};
use robo_serve::{
    GradientRequest, GradientServer, ResponseSlot, ServeConfig, ServeError, ServeStats,
};
use std::time::Instant;

/// Submits with bounded retry on backpressure (the load generator is the
/// one client allowed to spin: it *wants* to find the saturation point).
fn submit_retry(
    server: &GradientServer,
    key: robo_serve::MorphologyKey,
    mut req: GradientRequest,
    slot: &ResponseSlot,
) {
    loop {
        match server.submit(key, req, slot) {
            Ok(()) => return,
            Err(rej) if matches!(rej.error, ServeError::Overloaded { .. }) => {
                req = rej.req;
                std::thread::yield_now();
            }
            Err(rej) => panic!("load generator rejected: {}", rej.error),
        }
    }
}

/// A request buffer filled from one of the harness's deterministic
/// gradient cases.
fn request_from_case(
    dof: usize,
    case: &(Vec<f64>, Vec<f64>, Vec<f64>, robo_spatial::MatN<f64>),
) -> GradientRequest {
    let mut req = GradientRequest::for_dof(dof);
    req.q.copy_from_slice(&case.0);
    req.qd.copy_from_slice(&case.1);
    req.qdd.copy_from_slice(&case.2);
    req.minv = case.3.clone();
    req
}

/// The `q`-th percentile of an unsorted sample set (nearest-rank).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable latencies"));
    samples[(((samples.len() - 1) as f64) * q).round() as usize]
}

/// Closed-loop sweep point: `clients` threads, one request in flight
/// each, `per_client` round trips. Returns (p50, p99) latency in ns.
fn closed_loop_latency(robot: &RobotModel, clients: usize, per_client: usize) -> (f64, f64) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let key = server.register(robot);
    let plan = server.plan(key).expect("registered");
    let cases = harness::gradient_cases(plan.model(), clients.max(4));

    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = server.clone();
                let case = &cases[c % cases.len()];
                let dof = plan.dof();
                scope.spawn(move || {
                    let slot = ResponseSlot::new();
                    let mut req = request_from_case(dof, case);
                    let mut samples = Vec::with_capacity(per_client);
                    // Warm-up round trip: first-flush buffer sizing.
                    submit_retry(&server, key, req, &slot);
                    req = slot.wait();
                    for _ in 0..per_client {
                        let start = Instant::now();
                        submit_retry(&server, key, req, &slot);
                        req = slot.wait();
                        samples.push(start.elapsed().as_secs_f64() * 1e9);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (
        percentile(&mut latencies, 0.50),
        percentile(&mut latencies, 0.99),
    )
}

/// Saturated throughput: a pipelined window of `window` outstanding
/// requests driven to `total` completions per run, repeated `runs`
/// times. Returns (median ns per request, final server stats).
fn saturated_ns_per_request(
    robot: &RobotModel,
    lane_groups: usize,
    window: usize,
    total: usize,
    runs: usize,
) -> (f64, ServeStats) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        lane_groups_per_flush: lane_groups,
        queue_capacity: 2 * window + 8,
        ..ServeConfig::default()
    });
    let key = server.register(robot);
    let plan = server.plan(key).expect("registered");
    let cases = harness::gradient_cases(plan.model(), window);
    let slots: Vec<ResponseSlot> = (0..window).map(|_| ResponseSlot::new()).collect();
    let mut parked: Vec<Option<GradientRequest>> = cases
        .iter()
        .map(|case| Some(request_from_case(plan.dof(), case)))
        .collect();

    let run = |parked: &mut Vec<Option<GradientRequest>>| -> f64 {
        let start = Instant::now();
        let mut submitted = 0usize;
        for (i, slot) in slots.iter().enumerate() {
            submit_retry(&server, key, parked[i].take().expect("parked"), slot);
            submitted += 1;
        }
        let mut completed = 0usize;
        let mut idx = 0usize;
        while completed < total {
            if parked[idx].is_none() {
                let req = slots[idx].wait();
                completed += 1;
                if submitted < total {
                    submit_retry(&server, key, req, &slots[idx]);
                    submitted += 1;
                } else {
                    parked[idx] = Some(req);
                }
            }
            idx = (idx + 1) % window;
        }
        start.elapsed().as_secs_f64() * 1e9 / total as f64
    };

    run(&mut parked); // warm-up: page in code, size flush buffers
    let mut samples: Vec<f64> = (0..runs).map(|_| run(&mut parked)).collect();
    (median(&mut samples), server.stats())
}

fn run_once(env: &BenchEnv) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    // --- Closed-loop latency sweep --------------------------------------
    let per_client = if env.quick { 32 } else { 160 };
    let sweeps: Vec<(&str, RobotModel, Vec<usize>)> = if env.quick {
        vec![("iiwa14", robots::iiwa14(), vec![1, 2, 4])]
    } else {
        vec![
            ("iiwa14", robots::iiwa14(), vec![1, 2, 4, 8]),
            ("hyq", robots::hyq(), vec![1, 4]),
        ]
    };
    for (name, robot, client_counts) in &sweeps {
        for &clients in client_counts {
            let (p50, p99) = closed_loop_latency(robot, clients, per_client);
            let stem = format!("serve_{name}_c{clients}");
            report.record_median_ns(format!("{stem}{LATENCY_P50_SUFFIX}"), p50);
            report.record_median_ns(format!("{stem}{LATENCY_P99_SUFFIX}"), p99);
            println!(
                "load_serve/{stem:<18} p50: {:8.1} us  p99: {:8.1} us \
                 ({clients} client(s) x {per_client} round trip(s))",
                p50 / 1e3,
                p99 / 1e3
            );
        }
    }

    // --- Saturated throughput: coalesced vs naive dispatch --------------
    let robot = robots::iiwa14();
    let width = robo_sim::engine::RobotPlan::new(&robot).serve_width();
    let window = 2 * 4 * width.max(1);
    let (total, runs) = if env.quick { (256, 3) } else { (2048, 7) };
    let (batched_ns, batched_stats) = saturated_ns_per_request(&robot, 4, window, total, runs);
    let (naive_ns, _) = saturated_ns_per_request(&robot, 0, window, total, runs);
    report.record_median_ns("serve_batched_saturated_ns", batched_ns);
    report.record_median_ns("serve_naive_saturated_ns", naive_ns);
    report.record_speedup("serve_batched_vs_naive_iiwa14", naive_ns / batched_ns);
    println!(
        "load_serve/serve_batched_saturated  median: {batched_ns:10.1} ns/req \
         ({} flush(es), {} ragged)",
        batched_stats.flushes, batched_stats.ragged_flushes
    );
    println!("load_serve/serve_naive_saturated    median: {naive_ns:10.1} ns/req");
    println!(
        "load_serve/serve_batched_vs_naive_iiwa14 speedup: {} \
         (window {window}, {total} req/run, 1 worker)",
        speedup(naive_ns / batched_ns)
    );
    report
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_8.json");
    harness::run_trials(&default, run_once);
}
