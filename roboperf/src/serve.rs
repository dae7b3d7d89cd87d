//! The serving workloads: one generator thread driving a `GradientServer`
//! with one micro-batcher worker.
//!
//! * Open loop (`serve_sparse`): Poisson arrivals at a fixed rate; each
//!   request is timed from its scheduled send time, and a late generator
//!   shows in the lateness samples.
//! * Window (`serve_saturated`): a fixed number of requests is always
//!   outstanding; each taken response is resubmitted with the next state
//!   at once, so every flush is a full batch.

use crate::affinity;
use crate::check::Tally;
use crate::inputs::{Rng, State};
use crate::stats::{Rate, Samples};
use crate::tracer::Tracer;
use robo_dynamics::MorphologyKey;
use robo_model::RobotModel;
use robo_serve::{GradientRequest, GradientServer, ResponseSlot, ServeConfig, ServeStats};
use robo_sim::engine::RobotPlan;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Micro-batcher workers: with the generator that makes two runnable
/// threads, which a 2-CPU host runs without contention.
pub const WORKERS: usize = 1;

/// The offered load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson arrivals at `rate` requests per second.
    Open { rate: f64 },
    /// `window` requests always outstanding.
    Window { window: usize },
}

/// What one timed segment measured.
#[derive(Debug, Default)]
pub struct Segment {
    pub tally: Tally,
    /// Per-request latency, µs (misses for refused requests).
    pub latency_us: Samples,
    /// How late each send was against its schedule, µs.
    pub late_us: Samples,
    /// Duration of `GradientServer::submit`, ns.
    pub submit_ns: Samples,
    /// From `submit` returning to the response being taken, µs.
    pub wait_us: Samples,
    pub completed: u64,
    pub rate: Rate,
    pub elapsed_s: f64,
}

impl Segment {
    /// Completions per second: the median window rate, or the whole
    /// segment's mean if it was shorter than one window.
    pub fn throughput_per_s(&self) -> f64 {
        self.rate
            .median()
            .unwrap_or(self.completed as f64 / self.elapsed_s)
    }

    pub fn merge(&mut self, other: &Segment) {
        self.tally.add(other.tally);
        self.latency_us.extend(&other.latency_us);
        self.late_us.extend(&other.late_us);
        self.submit_ns.extend(&other.submit_ns);
        self.wait_us.extend(&other.wait_us);
        self.completed += other.completed;
        self.rate.extend(&other.rate);
        self.elapsed_s += other.elapsed_s;
    }
}

/// One client request buffer and its completion slot.
struct Client {
    slot: ResponseSlot,
    req: Option<GradientRequest>,
    state: usize,
    due: Instant,
    sent: Instant,
}

impl Client {
    fn new(dof: usize) -> Self {
        let now = Instant::now();
        Self {
            slot: ResponseSlot::new(),
            req: Some(GradientRequest::for_dof(dof)),
            state: 0,
            due: now,
            sent: now,
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub struct ServeBench {
    server: GradientServer,
    key: MorphologyKey,
    pool: Vec<State>,
    rng: Rng,
    idle: Vec<Client>,
    /// The generator's pin, released when the bench is dropped.
    pinned: Option<affinity::Pinned>,
}

/// The server configuration every serving workload uses.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

impl ServeBench {
    /// Builds the server, registers `robot` (plan build, shard and
    /// worker spawn), and pins the calling thread and the new workers one
    /// per CPU.
    pub fn new(robot: &RobotModel, pool: Vec<State>, rng: Rng) -> Self {
        let before = affinity::threads();
        let server = GradientServer::with_config(config());
        let key = server.register(robot);
        let workers: Vec<u32> = affinity::threads()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        let pinned = affinity::pin_generator_and_workers(&workers);
        Self {
            server,
            key,
            pool,
            rng,
            idle: Vec::new(),
            pinned,
        }
    }

    /// Whether the generator and the workers run one per CPU.
    pub fn pinned(&self) -> bool {
        self.pinned.is_some()
    }

    pub fn plan(&self) -> Arc<RobotPlan> {
        self.server
            .plan(self.key)
            .expect("registered at construction")
    }

    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// The server's batch-full threshold in requests.
    pub fn max_batch(&self) -> usize {
        self.server.config().max_batch(self.plan().serve_width())
    }

    fn client(&mut self) -> Client {
        let dof = self.pool[0].q.len();
        self.idle.pop().unwrap_or_else(|| Client::new(dof))
    }

    /// Loads the next seeded state into `c`'s request and submits it.
    /// Returns the in-flight client, or `None` (recycling it) if the
    /// server refused the request.
    fn submit(&mut self, mut c: Client, seg: &mut Segment) -> Option<Client> {
        c.state = (self.rng.next_u64() % self.pool.len() as u64) as usize;
        let s = &self.pool[c.state];
        let mut req = c.req.take().expect("idle clients hold their buffer");
        req.q.copy_from_slice(&s.q);
        req.qd.copy_from_slice(&s.qd);
        req.qdd.copy_from_slice(&s.qdd);
        let n = s.q.len();
        for r in 0..n {
            for k in 0..n {
                req.minv[(r, k)] = s.minv[(r, k)];
            }
        }
        let t0 = Instant::now();
        let res = {
            let _span = robo_trace::span("bench.submit");
            self.server.submit(self.key, req, &c.slot)
        };
        c.sent = Instant::now();
        seg.submit_ns.push((c.sent - t0).as_nanos() as f64);
        match res {
            Ok(()) => Some(c),
            Err(rejected) => {
                c.req = Some(rejected.req);
                seg.tally.refused();
                seg.latency_us.miss();
                self.idle.push(c);
                None
            }
        }
    }

    /// Records a taken response: latency from the due time, wait from
    /// submit return, and the output check.
    fn complete(&mut self, mut c: Client, req: GradientRequest, seg: &mut Segment) -> Instant {
        let t = Instant::now();
        seg.latency_us.push(micros(t - c.due));
        seg.wait_us.push(micros(t - c.sent));
        seg.completed += 1;
        seg.rate.tick(t);
        {
            let _span = robo_trace::span("bench.check");
            seg.tally.answered(&self.pool[c.state].reference, &req.out);
        }
        c.req = Some(req);
        self.idle.push(c);
        t
    }

    /// Runs `load` for `dur`, then drains every outstanding request.
    pub fn run(&mut self, load: Load, dur: Duration, tracer: &mut Tracer) -> Segment {
        match load {
            Load::Open { rate } => self.run_open(rate, dur, tracer),
            Load::Window { window } => self.run_window(window, dur, tracer),
        }
    }

    fn run_open(&mut self, rate: f64, dur: Duration, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        let mut busy: Vec<Client> = Vec::new();
        let start = Instant::now();
        seg.rate.start(start);
        let end = start + dur;
        let mut due = start + Duration::from_secs_f64(self.rng.exp(1.0 / rate));
        let mut last = start;
        loop {
            let now = Instant::now();
            if due < end && now >= due {
                let mut c = self.client();
                c.due = due;
                seg.late_us.push(micros(now - due));
                busy.extend(self.submit(c, &mut seg));
                due += Duration::from_secs_f64(self.rng.exp(1.0 / rate));
                continue;
            }
            if due >= end && busy.is_empty() {
                break;
            }
            let mut i = 0;
            while i < busy.len() {
                if let Some(req) = busy[i].slot.try_take() {
                    let c = busy.swap_remove(i);
                    last = self.complete(c, req, &mut seg);
                } else {
                    i += 1;
                }
            }
            tracer.poll();
            std::thread::yield_now();
        }
        seg.elapsed_s = (last - start).as_secs_f64();
        seg
    }

    fn run_window(&mut self, window: usize, dur: Duration, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        let mut ring: VecDeque<Client> = VecDeque::with_capacity(window);
        let start = Instant::now();
        seg.rate.start(start);
        let end = start + dur;
        let mut last = start;
        for _ in 0..window {
            let mut c = self.client();
            c.due = Instant::now();
            ring.extend(self.submit(c, &mut seg));
        }
        while let Some(c) = ring.pop_front() {
            let req = {
                let _span = robo_trace::span("bench.wait");
                c.slot.wait()
            };
            last = self.complete(c, req, &mut seg);
            if last < end {
                // The window's schedule is "resend as soon as a response
                // is taken": lateness is the refill delay.
                let mut c = self.client();
                let now = Instant::now();
                c.due = now;
                seg.late_us.push(micros(now - last));
                ring.extend(self.submit(c, &mut seg));
            }
            tracer.poll();
        }
        seg.elapsed_s = (last - start).as_secs_f64();
        seg
    }
}
