//! Parity of the serving tier: a gradient served through the
//! micro-batcher — coalesced into wide lane-groups, or flushed ragged
//! when fewer requests are queued — must be **bit-identical** to a direct
//! `GradientBackend::gradient_into` call on the same backend and tier.
//!
//! The serving path adds queuing, SoA lane marshalling, and a block copy
//! back into the caller's buffer, but no arithmetic of its own, so exact
//! equality (not a tolerance) is the contract. A wave of pipelined
//! submissions lets the worker coalesce whatever has queued when it goes
//! free (how much is timing-dependent; the exact one-flush shapes, full
//! groups plus a ragged tail included, are pinned by the worker-less
//! shard tests in `crates/serve/src/shard.rs`); lone requests submitted
//! one at a time force partial-lane (ragged) flushes. Both are asserted
//! per backend and per host-supported execution tier.

use proptest::prelude::*;
use robomorphic::dynamics::{forward_dynamics, mass_matrix_inverse};
use robomorphic::engine::{BackendKind, RobotPlan};
use robomorphic::model::robots;
use robomorphic::serve::{GradientRequest, GradientServer, ResponseSlot, ServeConfig, ServeStats};
use robomorphic::spatial::ExecTier;

/// Deterministically fills a request from proptest draws (via a
/// forward-dynamics solve, so `qdd` is consistent with a real workload).
fn fill_request(plan: &RobotPlan, vals: &[f64], k: usize, req: &mut GradientRequest) {
    let n = plan.dof();
    for i in 0..n {
        req.q[i] = vals[(3 * k + i) % vals.len()];
        req.qd[i] = 1.5 * vals[(3 * k + i + 7) % vals.len()];
    }
    let tau: Vec<f64> = (0..n)
        .map(|i| 2.0 * vals[(3 * k + i + 13) % vals.len()])
        .collect();
    let qdd = forward_dynamics(plan.model(), &req.q, &req.qd, &tau)
        .expect("built-in robots have SPD mass matrices");
    req.qdd.copy_from_slice(&qdd);
    req.minv = mass_matrix_inverse(plan.model(), &req.q).expect("SPD");
}

/// Serves `count` requests in waves of `wave` (each wave submitted in
/// full before any wait), asserts each response is bit-identical to the
/// direct (unbatched) backend call, and returns the server's counters.
fn check_parity(
    backend: BackendKind,
    tier: ExecTier,
    vals: &[f64],
    count: usize,
    wave: usize,
) -> ServeStats {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend,
        tier: Some(tier),
        queue_capacity: count.max(4),
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).expect("registered");

    // A wave's slots are all submitted before any wait, so a wide wave
    // finds the worker with a deep queue to coalesce from.
    let slots: Vec<ResponseSlot> = (0..wave).map(|_| ResponseSlot::new()).collect();
    let mut direct = plan.backend(backend);
    for first in (0..count).step_by(wave) {
        let ks = first..(first + wave).min(count);
        for (k, slot) in ks.clone().zip(&slots) {
            let mut req = GradientRequest::for_dof(plan.dof());
            fill_request(&plan, vals, k, &mut req);
            server.submit(key, req, slot).expect("admitted");
        }
        for (k, slot) in ks.zip(&slots) {
            let served = slot.wait();
            let mut want = GradientRequest::for_dof(plan.dof());
            fill_request(&plan, vals, k, &mut want);
            direct
                .gradient_into(&want.q, &want.qd, &want.qdd, &want.minv, &mut want.out)
                .expect("dimensions match");
            assert_eq!(
                served.out, want.out,
                "served response {k}/{count} must be bit-identical to the direct \
                 {backend:?} gradient at tier {tier}"
            );
        }
    }
    server.stats()
}

fn host_tiers() -> Vec<ExecTier> {
    let mut tiers = vec![ExecTier::Portable];
    let native = ExecTier::detect();
    if native != ExecTier::Portable {
        tiers.push(native);
    }
    tiers
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// Parity of a wave of one lane group plus `extra` requests, per
    /// backend and host tier, however the worker happens to split it.
    #[test]
    fn served_gradients_are_bit_identical_to_direct_calls(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
        extra in 1usize..4,
    ) {
        for tier in host_tiers() {
            for backend in [BackendKind::Cpu, BackendKind::Accel] {
                // One full lane group plus a ragged tail of `extra`.
                let plan = RobotPlan::with_tier(&robots::iiwa14(), tier);
                let count = plan.serve_width() + extra;
                let stats = check_parity(backend, tier, &vals, count, count);
                prop_assert_eq!((stats.completed, stats.shed), (count as u64, 0));
            }
        }
    }

    /// Lone requests, one in flight at a time: every flush is a single
    /// request, ragged (a partial lane: every f64 serve width is at least
    /// 2), still bit-identical.
    #[test]
    fn ragged_linger_flushes_stay_exact(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            let stats = check_parity(backend, ExecTier::detect(), &vals, 3, 1);
            prop_assert_eq!((stats.flushes, stats.ragged_flushes), (3, 3));
        }
    }
}
