//! The morphology-keyed plan cache: build-once-per-robot with
//! concurrent-miss coalescing, fronting the per-kernel shard set.
//!
//! Plan builds are the expensive cold path (template customization plus
//! netlist compilation), so the cache must guarantee that N simultaneous
//! first requests for one morphology trigger exactly **one** build. The
//! first miss installs a `Building` stub and builds outside the map lock;
//! every concurrent miss parks on the stub's gate and re-reads the map
//! once the builder publishes.
//!
//! A published entry is a [`MorphShards`]: the one shared [`RobotPlan`]
//! plus up to one shard per [`KernelKind`]. Shards spawn lazily on first
//! submission of their kernel — registering a morphology costs one plan
//! build regardless of how many kernels it later serves.

use crate::shard::Shard;
use crate::ServeConfig;
use robo_dynamics::engine::KernelKind;
use robo_dynamics::MorphologyKey;
use robo_sim::engine::RobotPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One morphology's serving state: the shared plan and its per-kernel
/// shards. Requests are coalesced per (morphology, kernel) — each kernel
/// gets its own queue and workers, all over the same plan.
pub(crate) struct MorphShards {
    plan: Arc<RobotPlan>,
    shards: Mutex<[Option<Arc<Shard>>; KernelKind::ALL.len()]>,
}

impl MorphShards {
    pub(crate) fn new(plan: Arc<RobotPlan>) -> Self {
        Self {
            plan,
            shards: Mutex::new([None, None, None]),
        }
    }

    pub(crate) fn plan(&self) -> &Arc<RobotPlan> {
        &self.plan
    }

    /// The kernel's shard, spawning it (queue + workers) on first use.
    /// The plan is never rebuilt — every kernel's shard shares it.
    pub(crate) fn shard(&self, kernel: KernelKind, cfg: &ServeConfig) -> Arc<Shard> {
        let mut shards = self.shards.lock().unwrap_or_else(|p| p.into_inner());
        match &shards[kernel.index()] {
            Some(s) => Arc::clone(s),
            None => {
                let s = Shard::new(Arc::clone(&self.plan), kernel, cfg);
                s.spawn_workers(cfg.resolved_workers());
                shards[kernel.index()] = Some(Arc::clone(&s));
                s
            }
        }
    }

    /// Installs `kernel`'s shard with no worker threads, so a test can
    /// fill its queue exactly before anything flushes.
    #[cfg(test)]
    pub(crate) fn install_idle_shard(&self, kernel: KernelKind, cfg: &ServeConfig) -> Arc<Shard> {
        let s = Shard::new(Arc::clone(&self.plan), kernel, cfg);
        self.shards.lock().unwrap_or_else(|p| p.into_inner())[kernel.index()] =
            Some(Arc::clone(&s));
        s
    }

    /// Every shard spawned so far, in kernel order.
    pub(crate) fn live_shards(&self) -> Vec<Arc<Shard>> {
        self.shards
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .flatten()
            .map(Arc::clone)
            .collect()
    }
}

/// Parking spot for threads that lost the build race: opened exactly once,
/// when the winning builder publishes (or abandons) its entry.
struct BuildGate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl BuildGate {
    fn new() -> Self {
        Self {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn open(&self) {
        *self.done.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.cv.notify_all();
    }
}

enum Entry {
    Building(Arc<BuildGate>),
    Ready(Arc<MorphShards>),
}

/// The server-wide plan cache. One entry per morphology; entries hold the
/// shared plan and its per-kernel shards.
pub(crate) struct PlanCache {
    entries: Mutex<HashMap<MorphologyKey, Entry>>,
    builds: AtomicUsize,
}

/// Unwind protection for the build critical section: if the builder
/// panics, the stub is removed and the gate opened so parked threads
/// retry (and surface the same panic by rebuilding) instead of hanging.
struct AbandonOnUnwind<'a> {
    cache: &'a PlanCache,
    key: MorphologyKey,
    gate: &'a Arc<BuildGate>,
    armed: bool,
}

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut entries = self.cache.lock();
        if matches!(entries.get(&self.key), Some(Entry::Building(_))) {
            entries.remove(&self.key);
        }
        drop(entries);
        self.gate.open();
    }
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<MorphologyKey, Entry>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Total plans actually built (cache misses that won the build race) —
    /// the coalescing guarantee's observable: N concurrent cold requests
    /// leave this at 1, however many kernels the morphology serves.
    pub(crate) fn plans_built(&self) -> usize {
        self.builds.load(Ordering::Acquire)
    }

    /// The morphology's shard set, waiting out an in-flight build; `None`
    /// if the morphology was never registered.
    pub(crate) fn get(&self, key: MorphologyKey) -> Option<Arc<MorphShards>> {
        loop {
            let gate = {
                let entries = self.lock();
                match entries.get(&key) {
                    None => return None,
                    Some(Entry::Ready(morph)) => return Some(Arc::clone(morph)),
                    Some(Entry::Building(gate)) => Arc::clone(gate),
                }
            };
            gate.wait();
        }
    }

    /// The morphology's shard set, building the plan via `build` on a
    /// miss. Concurrent callers for the same key coalesce: exactly one
    /// runs `build`, the rest park until it publishes.
    pub(crate) fn get_or_build(
        &self,
        key: MorphologyKey,
        build: impl FnOnce() -> Arc<MorphShards>,
    ) -> Arc<MorphShards> {
        loop {
            let gate = {
                let mut entries = self.lock();
                match entries.get(&key) {
                    Some(Entry::Ready(morph)) => return Arc::clone(morph),
                    Some(Entry::Building(gate)) => Arc::clone(gate),
                    None => {
                        let gate = Arc::new(BuildGate::new());
                        entries.insert(key, Entry::Building(Arc::clone(&gate)));
                        drop(entries);
                        let mut unwind = AbandonOnUnwind {
                            cache: self,
                            key,
                            gate: &gate,
                            armed: true,
                        };
                        // The expensive part runs outside the map lock so
                        // other morphologies hit the cache meanwhile.
                        let morph = build();
                        unwind.armed = false;
                        self.builds.fetch_add(1, Ordering::AcqRel);
                        self.lock().insert(key, Entry::Ready(Arc::clone(&morph)));
                        gate.open();
                        return morph;
                    }
                }
            };
            gate.wait();
        }
    }

    /// Snapshot of every live shard across all ready morphologies (for
    /// stats aggregation and shutdown).
    pub(crate) fn shards(&self) -> Vec<Arc<Shard>> {
        self.lock()
            .values()
            .filter_map(|e| match e {
                Entry::Ready(morph) => Some(morph.live_shards()),
                Entry::Building(_) => None,
            })
            .flatten()
            .collect()
    }
}
