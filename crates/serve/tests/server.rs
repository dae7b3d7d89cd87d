//! Serving-tier behaviour through the public API: plan-cache coalescing,
//! typed rejections, kernel routing and stats. Backpressure shed, graceful
//! drain and exact flush shapes need a worker that has not started yet,
//! so they are unit tests on a worker-less shard (`src/shard.rs`, and
//! `src/server.rs` for the server's own shed counters and drop-drain);
//! proptested batched-response parity is `tests/serve_parity.rs` at the
//! workspace root.

use robo_dynamics::{forward_dynamics, mass_matrix_inverse, rnea};
use robo_model::robots;
use robo_serve::{
    GradientRequest, GradientServer, KernelKind, ResponseSlot, ServeConfig, ServeError,
};
use robo_sim::engine::{BackendKind, RobotPlan};
use std::sync::{Arc, Barrier};

/// Fills a request buffer with a deterministic evaluation point `k`.
fn fill_case(plan: &RobotPlan, k: usize, req: &mut GradientRequest) {
    let n = plan.dof();
    for i in 0..n {
        req.q[i] = 0.07 * (i + k) as f64 - 0.2;
        req.qd[i] = 0.03 * i as f64 - 0.01 * k as f64;
    }
    let tau = vec![0.3 + 0.1 * k as f64; n];
    let qdd = forward_dynamics(plan.model(), &req.q, &req.qd, &tau).unwrap();
    req.qdd.copy_from_slice(&qdd);
    req.minv = mass_matrix_inverse(plan.model(), &req.q).unwrap();
}

#[test]
fn concurrent_cold_registrations_build_exactly_one_plan() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let keys: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let server = server.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    // Line every thread up on the cold cache before racing
                    // into register(), so misses really are concurrent.
                    barrier.wait();
                    server.register(&robots::iiwa14())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(keys.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        server.stats().plans_built,
        1,
        "N concurrent cold requests must coalesce onto one plan build"
    );
    // A second morphology still gets its own build.
    server.register(&robots::hyq());
    assert_eq!(server.stats().plans_built, 2);
}

#[test]
fn rejections_are_typed_and_return_the_buffer() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend: BackendKind::Cpu,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let slot = ResponseSlot::new();

    // Unknown morphology: hyq was never registered.
    let foreign = RobotPlan::new(&robots::hyq());
    let rejected = server
        .submit(
            foreign.morphology_key(),
            GradientRequest::for_dof(foreign.dof()),
            &slot,
        )
        .expect_err("not registered");
    assert_eq!(
        rejected.error,
        ServeError::UnknownMorphology(foreign.morphology_key())
    );
    assert!(server.plan(foreign.morphology_key()).is_none());

    // Dimension mismatch: a 3-dof buffer against a 7-dof plan.
    let rejected = server
        .submit(key, GradientRequest::for_dof(3), &slot)
        .expect_err("wrong dof");
    assert!(matches!(rejected.error, ServeError::Dimension(_)));

    // Slot busy: a second submission while one is in flight.
    let mut req = GradientRequest::for_dof(plan.dof());
    fill_case(&plan, 0, &mut req);
    server.submit(key, req, &slot).expect("admitted");
    let mut second = GradientRequest::for_dof(plan.dof());
    fill_case(&plan, 1, &mut second);
    let rejected = server.submit(key, second, &slot).expect_err("slot busy");
    assert_eq!(rejected.error, ServeError::SlotBusy);
    // The in-flight request still completes normally.
    let done = slot.wait();
    assert_eq!(done.out.dqdd_dq.rows(), plan.dof());
}

#[test]
fn non_finite_inputs_are_rejected_per_field() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend: BackendKind::Cpu,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let slot = ResponseSlot::new();
    for what in ["q", "qd", "qdd", "minv"] {
        let mut req = GradientRequest::for_dof(plan.dof());
        fill_case(&plan, 0, &mut req);
        match what {
            "q" => req.q[0] = f64::NAN,
            "qd" => req.qd[3] = f64::INFINITY,
            "qdd" => req.qdd[6] = f64::NEG_INFINITY,
            _ => req.minv[(2, 5)] = f64::NAN,
        }
        let rejected = server.submit(key, req, &slot).expect_err(what);
        assert_eq!(rejected.error, ServeError::NonFinite { what });
        // The buffer comes back for reuse and the slot stays free.
        let mut req = rejected.req;
        fill_case(&plan, 0, &mut req);
        server
            .submit(key, req, &slot)
            .expect("finite input admitted");
        assert!(slot
            .wait()
            .out
            .dqdd_dq
            .as_slice()
            .iter()
            .all(|x| x.is_finite()));
    }
    assert_eq!(server.stats().shed, 0, "a bad input is not overload");
}

#[test]
fn kernel_tagged_requests_route_to_family_shards() {
    // One morphology serving all three kernels of the family: the plan is
    // built once, each kernel gets its own shard, and the id/fd responses
    // land in `out_vec` matching the direct dynamics kernels.
    for backend in [BackendKind::Cpu, BackendKind::Accel] {
        let server = GradientServer::with_config(ServeConfig {
            workers: 1,
            backend,
            ..ServeConfig::default()
        });
        let key = server.register(&robots::iiwa14());
        let plan = server.plan(key).unwrap();
        let n = plan.dof();
        let slot = ResponseSlot::new();

        // Inverse dynamics: qdd carries q̈, out_vec comes back as τ.
        let mut req = GradientRequest::for_kernel(n, KernelKind::InverseDynamics);
        fill_case(&plan, 0, &mut req);
        let req = server.serve(key, req, &slot).expect("id round trip");
        let want_tau = rnea(plan.model(), &req.q, &req.qd, &req.qdd).tau;
        let tol = if backend == BackendKind::Cpu {
            0.0
        } else {
            1e-10
        };
        for (i, (got, want)) in req.out_vec.iter().zip(&want_tau).enumerate() {
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "{backend:?} id torque {i}: {got} vs {want}"
            );
        }

        // Forward dynamics: qdd carries τ, out_vec comes back as q̈. Feed
        // the torques just computed so fd must recover the original q̈.
        let mut fd_req = GradientRequest::for_kernel(n, KernelKind::ForwardDynamics);
        fill_case(&plan, 0, &mut fd_req);
        let want_qdd = fd_req.qdd.clone();
        fd_req.qdd.copy_from_slice(&want_tau);
        let fd_req = server.serve(key, fd_req, &slot).expect("fd round trip");
        for (i, (got, want)) in fd_req.out_vec.iter().zip(&want_qdd).enumerate() {
            assert!(
                (got - want).abs() <= 1e-8 * want.abs().max(1.0),
                "{backend:?} fd accel {i}: {got} vs {want}"
            );
        }

        // Gradient requests still work through the same server, and the
        // whole family cost exactly one plan build.
        let mut grad = GradientRequest::for_dof(n);
        fill_case(&plan, 1, &mut grad);
        let grad = server.serve(key, grad, &slot).expect("grad round trip");
        assert_eq!(grad.out.dqdd_dq.rows(), n);
        let stats = server.stats();
        assert_eq!(
            stats.plans_built, 1,
            "{backend:?}: all three kernel shards must share one plan"
        );
        assert_eq!(stats.completed, 3);
    }
}

#[test]
fn serve_round_trip_and_stats_observability() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend: BackendKind::Accel,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let slot = ResponseSlot::new();
    let mut req = GradientRequest::for_dof(plan.dof());
    for turn in 0..5 {
        fill_case(&plan, turn, &mut req);
        req = server.serve(key, req, &slot).expect("round trip");
        assert_eq!(req.out.dqdd_dq.rows(), plan.dof());
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    // Single in-flight request per flush: every flush is a partial lane
    // group on any wide tier.
    assert_eq!(stats.flushes, 5);
    if plan.serve_width() > 1 {
        assert_eq!(stats.ragged_flushes, 5);
    }
    assert_eq!(stats.queue_high_water, 1);
}
