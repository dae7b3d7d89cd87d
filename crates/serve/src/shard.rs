//! Per-morphology shard: bounded admission queue, dynamic micro-batcher
//! workers, and the flush/respond hot path.

use crate::error::{Rejected, ServeError};
use crate::slot::{GradientRequest, ResponseSlot, SlotInner};
use crate::ServeConfig;
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{
    check_dims, DynamicsBackend, GradientBatchOutput, GradientOutput, KernelKind, KernelOutput,
};
use robo_sim::engine::{BackendKind, RobotPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Monotonic shard counters (all relaxed: they are observability, not
/// synchronization).
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) ragged_flushes: AtomicU64,
    pub(crate) high_water: AtomicU64,
}

/// One admitted request waiting for a worker.
struct Pending {
    req: GradientRequest,
    slot: Arc<SlotInner>,
}

struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

/// One (morphology, kernel) serving queue: the shared plan, the kernel of
/// the multifunction family this queue runs, the bounded queue the
/// micro-batcher coalesces from, and the worker threads that drain it.
pub(crate) struct Shard {
    plan: Arc<RobotPlan>,
    kernel: KernelKind,
    kind: BackendKind,
    capacity: usize,
    max_batch: usize,
    queue: Mutex<Queue>,
    work_cv: Condvar,
    pub(crate) stats: ShardStats,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shard {
    /// The shard for one kernel of the family: its queue and counters,
    /// with no worker threads until [`Shard::spawn_workers`].
    pub(crate) fn new(plan: Arc<RobotPlan>, kernel: KernelKind, cfg: &ServeConfig) -> Arc<Self> {
        Arc::new(Self {
            max_batch: cfg.max_batch(plan.serve_width()),
            capacity: cfg.queue_capacity.max(1),
            kernel,
            kind: cfg.backend,
            queue: Mutex::new(Queue {
                pending: VecDeque::with_capacity(cfg.queue_capacity.max(1)),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            stats: ShardStats::default(),
            workers: Mutex::new(Vec::new()),
            plan,
        })
    }

    /// Starts `count` worker threads draining this shard.
    pub(crate) fn spawn_workers(self: &Arc<Self>, count: usize) {
        let (key, kernel) = (self.plan.morphology_key(), self.kernel);
        let mut workers = self.workers.lock().unwrap_or_else(|p| p.into_inner());
        workers.extend((0..count).map(|w| {
            let shard = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("serve-{key}-{kernel}-{w}"))
                .spawn(move || worker_loop(&shard))
                .expect("spawn serve worker")
        }));
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admission: validate, mark the slot pending, and queue — or shed
    /// with a typed error, handing the buffer back untouched.
    // By-value buffer return on rejection keeps the shed path
    // allocation-free; see `GradientServer::submit`.
    #[allow(clippy::result_large_err)]
    pub(crate) fn enqueue(
        &self,
        req: GradientRequest,
        slot: &ResponseSlot,
    ) -> Result<(), Rejected> {
        let _span = robo_trace::span("serve.enqueue");
        debug_assert_eq!(
            req.kernel, self.kernel,
            "request routed to wrong kernel shard"
        );
        if let Err(e) = check_dims(self.plan.dof(), &req.q, &req.qd, &req.qdd, &req.minv) {
            return Err(Rejected {
                error: ServeError::Dimension(e),
                req,
            });
        }
        if let Some(what) = non_finite_field(&req) {
            return Err(Rejected {
                error: ServeError::NonFinite { what },
                req,
            });
        }
        if !slot.inner.begin() {
            return Err(Rejected {
                error: ServeError::SlotBusy,
                req,
            });
        }
        let mut q = self.lock_queue();
        if q.shutdown {
            drop(q);
            slot.inner.cancel();
            return Err(Rejected {
                error: ServeError::ShuttingDown,
                req,
            });
        }
        if q.pending.len() >= self.capacity {
            let depth = q.pending.len();
            drop(q);
            slot.inner.cancel();
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected {
                error: ServeError::Overloaded {
                    depth,
                    capacity: self.capacity,
                },
                req,
            });
        }
        q.pending.push_back(Pending {
            req,
            slot: Arc::clone(&slot.inner),
        });
        let depth = q.pending.len() as u64;
        drop(q);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.high_water.fetch_max(depth, Ordering::Relaxed);
        self.work_cv.notify_one();
        Ok(())
    }

    /// Marks the shard draining: no new admissions, workers flush what is
    /// queued and exit. Every already-accepted request is still answered.
    pub(crate) fn begin_shutdown(&self) {
        self.lock_queue().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Joins the worker threads (call after [`Shard::begin_shutdown`]).
    pub(crate) fn join_workers(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The coalescing policy, work-conserving: a worker that finds
    /// requests queued takes up to `max_batch` of them into `local` and
    /// flushes at once; it parks only while the queue is empty. Returns
    /// false once the shard is shut down *and* drained.
    ///
    /// Batches fill to `max_batch` only where requests pile up while the
    /// workers are busy (one saturated worker does); with several workers
    /// at moderate load each free worker takes the few it finds. A lone
    /// request never idles waiting for company that may not come.
    fn collect(&self, local: &mut Vec<Pending>) -> bool {
        let mut q = self.lock_queue();
        while q.pending.is_empty() {
            if q.shutdown {
                return false;
            }
            q = self.work_cv.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        let n = q.pending.len().min(self.max_batch);
        let _span = robo_trace::span_items("serve.coalesce", n);
        local.extend(q.pending.drain(..n));
        true
    }

    /// Executes one coalesced batch on the worker's warm backend and
    /// completes every slot. Alloc-free once warm: the lane-view vector is
    /// recycled across flushes and outputs land in the callers' buffers.
    ///
    /// The gradient kernel runs through the wide batch path (SIMD lane
    /// groups); the vector-valued kernels (`id`, `fd`) are latency-bound
    /// single evaluations, so the batch is a plain loop of `run_into`
    /// calls reusing the worker's scratch [`KernelOutput`].
    fn flush(
        &self,
        backend: &mut dyn DynamicsBackend,
        local: &mut Vec<Pending>,
        states_buf: &mut Vec<GradientState<'static, f64>>,
        batch: &mut GradientBatchOutput,
        kout: &mut KernelOutput,
    ) {
        match self.kernel {
            KernelKind::Gradient => self.flush_gradient(backend, local, states_buf, batch),
            KernelKind::InverseDynamics | KernelKind::ForwardDynamics => {
                self.flush_vector(backend, local, kout)
            }
        }
    }

    /// Gradient-kernel flush: one wide `gradient_batch_into` over the
    /// whole coalesced batch.
    fn flush_gradient(
        &self,
        backend: &mut dyn DynamicsBackend,
        local: &mut Vec<Pending>,
        states_buf: &mut Vec<GradientState<'static, f64>>,
        batch: &mut GradientBatchOutput,
    ) {
        let n = local.len();
        let result = {
            let _span = robo_trace::span_items("serve.flush", n);
            let mut states = recycle_states(std::mem::take(states_buf));
            states.extend(local.iter().map(|p| GradientState {
                q: &p.req.q,
                qd: &p.req.qd,
                qdd: &p.req.qdd,
                minv: &p.req.minv,
            }));
            let result = backend.gradient_batch_into(&states, batch);
            *states_buf = park_states(states);
            result
        };
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.plan.serve_width().max(1)) {
            self.stats.ragged_flushes.fetch_add(1, Ordering::Relaxed);
        }
        let _span = robo_trace::span_items("serve.respond", n);
        for (i, mut p) in local.drain(..).enumerate() {
            // Dimensions were validated against this plan at admission, so
            // the batch call cannot fail; if it somehow did, the slot is
            // still completed (buffer returned untouched) rather than
            // stranding a parked client.
            if result.is_ok() {
                copy_block(batch, i, &mut p.req.out);
            }
            // Count before waking the client, so a stats snapshot taken
            // right after a wait() returns already sees the completion.
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            p.slot.fulfil(p.req);
        }
    }

    /// Vector-kernel flush (`id`/`fd`): evaluate each request through the
    /// family and copy the result into its `out_vec` buffer. Lane-group
    /// raggedness does not apply — there is no wide path to leave idle —
    /// so only `flushes` is counted.
    fn flush_vector(
        &self,
        backend: &mut dyn DynamicsBackend,
        local: &mut Vec<Pending>,
        kout: &mut KernelOutput,
    ) {
        let n = local.len();
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let _span = robo_trace::span_items("serve.flush", n);
        for mut p in local.drain(..) {
            let result = backend.run_into(
                self.kernel,
                &p.req.q,
                &p.req.qd,
                &p.req.qdd,
                &p.req.minv,
                kout,
            );
            if result.is_ok() {
                let src = match self.kernel {
                    KernelKind::InverseDynamics => &kout.tau,
                    KernelKind::ForwardDynamics => &kout.qdd,
                    KernelKind::Gradient => unreachable!("gradient takes the wide path"),
                };
                p.req.out_vec.clear();
                p.req.out_vec.extend_from_slice(src);
            }
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            p.slot.fulfil(p.req);
        }
    }
}

/// Worker thread body: a private warm backend plus recycled scratch, fed
/// by [`Shard::collect`] until shutdown drains the queue.
fn worker_loop(shard: &Shard) {
    let mut backend = shard.plan.backend(shard.kind);
    let mut local: Vec<Pending> = Vec::with_capacity(shard.max_batch);
    let mut states: Vec<GradientState<'static, f64>> = Vec::with_capacity(shard.max_batch);
    let mut batch = GradientBatchOutput::new();
    let mut kout = KernelOutput::new();
    while shard.collect(&mut local) {
        shard.flush(
            backend.as_mut(),
            &mut local,
            &mut states,
            &mut batch,
            &mut kout,
        );
    }
}

/// The first request input holding NaN or ±∞, by field name.
fn non_finite_field(req: &GradientRequest) -> Option<&'static str> {
    [
        ("q", req.q.as_slice()),
        ("qd", &req.qd),
        ("qdd", &req.qdd),
        ("minv", req.minv.as_slice()),
    ]
    .into_iter()
    .find(|(_, v)| !v.iter().all(|x| x.is_finite()))
    .map(|(what, _)| what)
}

/// Copies state `i`'s SoA blocks into a caller's dense output buffer.
/// `resize_zeroed` at an unchanged size is a no-op, so warm buffers make
/// this pure copying.
fn copy_block(batch: &GradientBatchOutput, i: usize, out: &mut GradientOutput) {
    let n = batch.dof();
    for (flat, mat) in [
        (batch.dqdd_dq_at(i), &mut out.dqdd_dq),
        (batch.dqdd_dqd_at(i), &mut out.dqdd_dqd),
        (batch.dtau_dq_at(i), &mut out.dtau_dq),
        (batch.dtau_dqd_at(i), &mut out.dtau_dqd),
    ] {
        mat.resize_zeroed(n, n);
        for r in 0..n {
            for c in 0..n {
                mat[(r, c)] = flat[r * n + c];
            }
        }
    }
}

/// Reclaims the parked lane-view vector's allocation under a fresh borrow
/// lifetime, so per-flush `GradientState` views never allocate.
fn recycle_states<'a>(v: Vec<GradientState<'static, f64>>) -> Vec<GradientState<'a, f64>> {
    debug_assert!(v.is_empty(), "parked state vectors are always empty");
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, cap) = (v.as_mut_ptr(), v.capacity());
    // SAFETY: the vector is empty, so only its allocation is reused.
    // `GradientState<'static, f64>` and `GradientState<'a, f64>` differ
    // only in lifetime — identical layout and allocator — so rebuilding a
    // zero-length vector over the same allocation is valid.
    unsafe { Vec::from_raw_parts(ptr.cast(), 0, cap) }
}

/// Parks a drained lane-view vector between flushes by erasing its borrow
/// lifetime (inverse of [`recycle_states`]).
fn park_states(mut v: Vec<GradientState<'_, f64>>) -> Vec<GradientState<'static, f64>> {
    v.clear();
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, cap) = (v.as_mut_ptr(), v.capacity());
    // SAFETY: cleared above, so no element (and no borrow) survives; as in
    // `recycle_states`, only the layout-identical allocation crosses the
    // lifetime change.
    unsafe { Vec::from_raw_parts(ptr.cast(), 0, cap) }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use robo_model::robots;
    use robo_spatial::ExecTier;
    use std::time::Duration;

    /// An iiwa14 gradient shard on `kind` at `tier` with no workers yet:
    /// nothing flushes until a test spawns one, so queue states are exact.
    fn shard_without_workers(
        kind: BackendKind,
        tier: ExecTier,
        queue_capacity: usize,
    ) -> Arc<Shard> {
        let plan = Arc::new(RobotPlan::with_tier(&robots::iiwa14(), tier));
        let cfg = ServeConfig {
            queue_capacity,
            backend: kind,
            ..ServeConfig::default()
        };
        Shard::new(plan, KernelKind::Gradient, &cfg)
    }

    /// Every (backend, tier) pair the serving parity contract covers: CPU
    /// and accelerator, at the portable tier and the host's native one.
    fn backends_and_tiers() -> Vec<(BackendKind, ExecTier)> {
        let mut tiers = vec![ExecTier::Portable, ExecTier::detect()];
        tiers.dedup();
        tiers
            .into_iter()
            .flat_map(|t| [(BackendKind::Cpu, t), (BackendKind::Accel, t)])
            .collect()
    }

    /// A request at the deterministic evaluation point `k` (`q̈` from a
    /// forward-dynamics solve, so it is consistent with a real workload).
    pub(crate) fn request(plan: &RobotPlan, k: usize) -> GradientRequest {
        let mut req = GradientRequest::for_dof(plan.dof());
        req.q = (0..plan.dof())
            .map(|i| 0.07 * (i + k) as f64 - 0.2)
            .collect();
        req.qd = req.q.iter().map(|q| 0.5 - q).collect();
        let tau = vec![0.3 + 0.1 * k as f64; plan.dof()];
        req.qdd = robo_dynamics::forward_dynamics(plan.model(), &req.q, &req.qd, &tau).unwrap();
        req.minv = robo_dynamics::mass_matrix_inverse(plan.model(), &req.q).unwrap();
        req
    }

    /// Admits requests `0..count`, one fresh slot each.
    fn admit(shard: &Shard, count: usize) -> Vec<ResponseSlot> {
        let slots: Vec<_> = (0..count).map(|_| ResponseSlot::new()).collect();
        for (k, slot) in slots.iter().enumerate() {
            let req = request(&shard.plan, k);
            shard.enqueue(req, slot).expect("under capacity");
        }
        slots
    }

    /// Collects every response, checks each bit-identical to a direct
    /// call on the shard's backend and tier, stops the workers and returns
    /// `(flushes, ragged_flushes)`.
    fn answer_exactly(shard: &Shard, slots: &[ResponseSlot]) -> (u64, u64) {
        let mut direct = shard.plan.backend(shard.kind);
        for (k, slot) in slots.iter().enumerate() {
            let got = slot.wait_timeout(Duration::from_secs(60)).expect("flushed");
            let mut want = request(&shard.plan, k);
            direct
                .gradient_into(&want.q, &want.qd, &want.qdd, &want.minv, &mut want.out)
                .unwrap();
            let (kind, tier) = (shard.kind, shard.plan.tier());
            assert_eq!(got.out, want.out, "{kind:?} at {tier}: response {k}");
        }
        shard.begin_shutdown();
        shard.join_workers();
        let s = &shard.stats;
        assert_eq!(s.completed.load(Ordering::Relaxed), slots.len() as u64);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (count(&s.flushes), count(&s.ragged_flushes))
    }

    #[test]
    fn overload_sheds_typed_and_drain_answers_the_admitted() {
        let capacity = 4;
        let shard = shard_without_workers(BackendKind::Cpu, ExecTier::detect(), capacity);
        let slots = admit(&shard, capacity);
        let extra = ResponseSlot::new();
        let rejected = shard
            .enqueue(request(&shard.plan, capacity), &extra)
            .expect_err("queue is full");
        let (depth, dof) = (capacity, shard.plan.dof());
        assert_eq!(rejected.error, ServeError::Overloaded { depth, capacity });
        // The shed path hands the buffer back untouched.
        assert_eq!(rejected.req.q.len(), dof);
        assert!(!extra.is_pending());
        let s = &shard.stats;
        assert_eq!(s.shed.load(Ordering::Relaxed), 1);
        assert_eq!(s.submitted.load(Ordering::Relaxed), capacity as u64);
        assert_eq!(s.high_water.load(Ordering::Relaxed), capacity as u64);
        // Graceful shutdown: a worker started on a draining shard still
        // answers every admitted request before it exits.
        shard.begin_shutdown();
        shard.spawn_workers(1);
        answer_exactly(&shard, &slots);
    }

    #[test]
    fn a_queued_batch_flushes_at_once_and_exactly() {
        // Queued before the worker starts, a full `max_batch` (four lane
        // groups), or two groups plus three lanes of a third, goes out as
        // one flush, every lane bit-exact. f64 serves at least 2 wide, so
        // three extra lanes never fill a group.
        for (kind, tier) in backends_and_tiers() {
            for ragged in [0, 1] {
                let shard = shard_without_workers(kind, tier, 256);
                let width = shard.plan.serve_width();
                let count = [shard.max_batch, 2 * width + 3][ragged as usize];
                assert!(count <= shard.max_batch, "fits one flush");
                let slots = admit(&shard, count);
                shard.spawn_workers(1);
                let flushed = answer_exactly(&shard, &slots);
                assert_eq!(flushed, (1, ragged), "{count} on {kind:?} at {tier}");
            }
        }
    }

    #[test]
    fn a_lone_request_flushes_alone() {
        let shard = shard_without_workers(BackendKind::Cpu, ExecTier::detect(), 256);
        shard.spawn_workers(1);
        // Give the worker time to park on the empty queue, so admission
        // (most likely) has to wake it; the flush shape is the same if not.
        std::thread::sleep(Duration::from_millis(20));
        let slots = admit(&shard, 1);
        // One request is a partial lane group: f64 serves at least 2 wide.
        assert_eq!(answer_exactly(&shard, &slots), (1, 1));
    }
}
