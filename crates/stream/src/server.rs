//! Stateful streaming server: sticky sessions over a worker pool.
//!
//! # Lifecycle
//!
//! A caller [`open`](StreamServer::open_session)s a session, submits
//! steps with [`step`](StreamServer::step) (each step is one token
//! through the recurrent network, answered in the final report), and
//! [`close`](StreamServer::close_session)s it. Per-session hidden state
//! lives **inside one worker thread** for the session's whole life:
//!
//! * **Sticky routing** — a session's worker is a pure hash of its id
//!   (`splitmix64_mix(id) % workers`), so every step of a session lands
//!   on the same bounded queue and is processed by the same thread, in
//!   submission order. Hidden state is owned by that thread's local map
//!   and **never crosses a thread boundary** — no lock protects it
//!   because no other thread can reach it.
//! * **Bounded queues** — each worker has its own bounded queue;
//!   admission control is per-worker ([`StreamError::QueueFull`]) plus
//!   a per-session in-flight cap ([`StreamError::SessionBusy`]).
//! * **TTL eviction** — with [`StreamConfig::idle_ttl`] set, a worker
//!   sweeps its sessions whenever its queue goes idle and drops any
//!   session whose last step is older than the TTL (and has nothing in
//!   flight). Later steps fail typed with
//!   [`StreamError::UnknownSession`].
//!
//! # Faults and quarantine
//!
//! A step runs under `catch_unwind` with the `ffdl-fault` injection
//! points of the stateless pools (latency spike, worker panic) plus the
//! engine-level NaN poisoning. A panicking or NaN step **quarantines
//! the session**: its hidden state can no longer be trusted, so every
//! later step is refused typed ([`FailureKind::SessionQuarantined`] for
//! queued steps, [`StreamError::SessionQuarantined`] at submit). Other
//! sessions on the same worker are untouched — their state was not
//! reachable from the faulted step. NaN steps also count against the
//! serving *generation* through the same [`ModelSlot`] supervisor
//! `ffdl-serve` uses: past [`HealthConfig::unhealthy_threshold`] the
//! generation is quarantined and the pool auto-rolls-back through the
//! registry binding.
//!
//! # Hot-swap policy: reset-on-swap
//!
//! A hidden state is only meaningful against the weights that produced
//! it. When the model generation changes mid-stream (swap or
//! auto-rollback), every session's state is **deterministically reset
//! to zeros at its next step** — the step observes the new generation,
//! replaces its hidden state with [`StreamEngine::fresh_state`], and
//! the session restarts its sequence on the new model. The alternative
//! (draining sessions on the old generation) would hold generations
//! alive for unbounded session lifetimes; reset is O(1), immediate, and
//! exactly replayable: a replay on the new model from the reset point
//! matches the served outputs bit for bit.

use crate::engine::StreamEngine;
use crate::queue::{Popped, PushError, WorkQueue};
use ffdl_core::full_registry;
use ffdl_deploy::{DeployError, NonFiniteStage, Prediction};
use ffdl_nn::{clone_network, LayerRegistry, Network};
use ffdl_registry::ModelStore;
use ffdl_serve::{
    FailureKind, HealthConfig, ModelSlot, RunCounts, ServeError, ServeFailure, ServeReport,
    ServeResponse,
};
use ffdl_telemetry::{Gauge, Registry, RegistrySnapshot};
use ffdl_tensor::Tensor;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a worker waits on an empty queue before running idle
/// housekeeping (TTL eviction) and re-checking for shutdown.
const IDLE_WAIT: Duration = Duration::from_millis(2);

/// Configuration for a streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Worker threads; sessions are hash-stuck to one of them.
    pub workers: usize,
    /// Bounded queue depth **per worker**; steps beyond it are rejected
    /// with [`StreamError::QueueFull`].
    pub queue_depth: usize,
    /// Maximum steps of one session admitted but not yet answered;
    /// beyond it submits fail with [`StreamError::SessionBusy`]. Keeps
    /// one chatty session from monopolising its worker's queue.
    pub session_inflight: u32,
    /// Evict sessions idle longer than this (checked when the owning
    /// worker's queue goes idle). `None` disables eviction.
    pub idle_ttl: Option<Duration>,
    /// Per-step deadline from admission; expired steps are shed at
    /// dequeue as typed [`FailureKind::DeadlineExceeded`] failures.
    pub deadline: Option<Duration>,
    /// Numerical-health policy, shared with `ffdl-serve`: finiteness
    /// checking per step, and generation quarantine + auto-rollback
    /// past the threshold.
    pub health: HealthConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 256,
            session_inflight: 32,
            idle_ttl: None,
            deadline: None,
            health: HealthConfig::default(),
        }
    }
}

impl StreamConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be >= 1".into()));
        }
        if self.session_inflight == 0 {
            return Err(ServeError::InvalidConfig(
                "session_inflight must be >= 1".into(),
            ));
        }
        if self.health.unhealthy_threshold > 0 && !self.health.check_finite {
            return Err(ServeError::InvalidConfig(
                "unhealthy_threshold requires health.check_finite".into(),
            ));
        }
        Ok(())
    }
}

/// Typed submit-side errors of the session API. Queue-level and model
/// errors stay [`ServeError`]; these name the *session* condition the
/// caller must react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The session was never opened, was closed, or was TTL-evicted.
    UnknownSession(u64),
    /// [`StreamServer::open_session`] on an id that is already open.
    SessionExists(u64),
    /// The session is at its in-flight cap; retry after a response.
    SessionBusy {
        /// The session that is over its cap.
        session: u64,
        /// Steps currently admitted but unanswered.
        inflight: u32,
    },
    /// An earlier fault (panic or NaN step) quarantined this session;
    /// its state is untrusted and further steps are refused.
    SessionQuarantined(u64),
    /// The session's worker queue is at capacity (backpressure).
    QueueFull(u64),
    /// The server is shutting down.
    Closed,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownSession(id) => {
                write!(f, "session {id} is not open (never opened, closed, or evicted)")
            }
            StreamError::SessionExists(id) => write!(f, "session {id} is already open"),
            StreamError::SessionBusy { session, inflight } => write!(
                f,
                "session {session} has {inflight} steps in flight (over its cap)"
            ),
            StreamError::SessionQuarantined(id) => write!(
                f,
                "session {id} was quarantined by an earlier fault; steps are refused"
            ),
            StreamError::QueueFull(id) => write!(
                f,
                "worker queue for session {id} is full (backpressure)"
            ),
            StreamError::Closed => write!(f, "stream server is shut down"),
        }
    }
}

impl Error for StreamError {}

/// Shared per-session record in the admission directory. Submitters
/// bump `inflight`; the owning worker decrements it and flips
/// `quarantined` on faults. Everything else about a session lives in
/// the worker's thread-local state.
struct SessionMeta {
    inflight: AtomicU32,
    quarantined: AtomicBool,
}

/// One step waiting in a worker queue.
struct StepRequest {
    id: u64,
    session: u64,
    features: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    meta: Arc<SessionMeta>,
}

/// A unit of work on a worker queue. FIFO order per queue makes the
/// `Close` message a drain barrier: it is processed after every step of
/// the session admitted before the close.
enum Work {
    Step(StepRequest),
    Close { session: u64 },
}

/// What a worker hands back when joined.
struct WorkerOutput {
    telemetry: RegistrySnapshot,
    responses: Vec<ServeResponse>,
    failures: Vec<ServeFailure>,
    evicted: u64,
    steps: u64,
    session_quarantines: u64,
    expired: u64,
    restarts: u64,
}

/// Decrements a session's in-flight count when the step leaves the
/// worker, whatever path it leaves by.
struct InflightGuard<'a>(&'a AtomicU32);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Thread-local state of one session on its owning worker.
struct SessionState {
    hidden: crate::engine::SessionHidden,
    /// Generation the hidden state was computed under; a mismatch with
    /// the worker's engine triggers the reset-on-swap policy.
    generation: u64,
    last_step: Instant,
    meta: Arc<SessionMeta>,
}

/// The sticky worker for a session id: a pure hash, stable for the
/// session's life and across runs.
fn sticky_worker(session: u64, workers: usize) -> usize {
    (ffdl_rng::splitmix64_mix(session) % workers as u64) as usize
}

/// A running streaming server. See the module docs for the lifecycle,
/// fault, and hot-swap semantics.
pub struct StreamServer {
    queues: Vec<Arc<WorkQueue<Work>>>,
    directory: Arc<Mutex<HashMap<u64, Arc<SessionMeta>>>>,
    handles: Vec<JoinHandle<Result<WorkerOutput, ServeError>>>,
    model: Arc<ModelSlot>,
    layers: Arc<LayerRegistry>,
    workers: usize,
    deadline: Option<Duration>,
    session_inflight: u32,
    check_finite: bool,
    rejections: AtomicU64,
    sessions_opened: AtomicU64,
    started: Instant,
    registry: Registry,
    active_gauge: Arc<Gauge>,
    next_step_id: AtomicU64,
}

impl StreamServer {
    /// Starts a pool serving `network`, resolving layer types through
    /// [`ffdl_core::full_registry`]. Rollback targets are retained
    /// in-memory only; use [`start_from_store`](Self::start_from_store)
    /// for the durable registry path.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero count in the config,
    /// [`ServeError::Clone`] when the network fails its wire
    /// round-trip.
    pub fn start(network: &Network, config: &StreamConfig) -> Result<Self, ServeError> {
        Self::start_inner(network, config, full_registry(), None, None)
    }

    /// [`start`](Self::start) with a caller-supplied layer registry, for
    /// models using layers beyond [`full_registry`] (e.g. the pinned
    /// `delay` layer benches serve to make worker-scaling numbers
    /// host-independent).
    ///
    /// # Errors
    ///
    /// As for [`start`](Self::start).
    pub fn start_with_registry(
        network: &Network,
        config: &StreamConfig,
        layers: LayerRegistry,
    ) -> Result<Self, ServeError> {
        Self::start_inner(network, config, layers, None, None)
    }

    /// Starts a pool serving the active generation of `name` in
    /// `store`, keeping the binding for
    /// [`swap_from_store`](Self::swap_from_store) and for durable
    /// auto-rollback.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the load fails, plus everything
    /// [`start`](Self::start) reports.
    pub fn start_from_store(
        store: &ModelStore,
        name: &str,
        config: &StreamConfig,
    ) -> Result<Self, ServeError> {
        let layers = full_registry();
        let (network, version) = store.load(name, None, &layers)?;
        Self::start_inner(
            &network,
            config,
            layers,
            Some((store.clone(), name.to_string())),
            Some(version.generation),
        )
    }

    fn start_inner(
        network: &Network,
        config: &StreamConfig,
        layers: LayerRegistry,
        binding: Option<(ModelStore, String)>,
        registry_gen: Option<u64>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let layers = Arc::new(layers);
        let check_finite = config.health.check_finite;
        let threshold = config.health.unhealthy_threshold;

        // Clone up front so a broken model is reported before any
        // thread spawns.
        let mut engines = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            engines.push(StreamEngine::new(
                clone_network(network, &layers)?,
                check_finite,
            ));
        }
        let shared = Arc::new(clone_network(network, &layers)?);
        let model = Arc::new(ModelSlot::new(shared, registry_gen, binding));

        let registry = Registry::new();
        let active_gauge = registry.gauge("ffdl.stream.active_sessions");
        let directory: Arc<Mutex<HashMap<u64, Arc<SessionMeta>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let queues: Vec<Arc<WorkQueue<Work>>> = (0..config.workers)
            .map(|_| Arc::new(WorkQueue::new(config.queue_depth)))
            .collect();

        let idle_ttl = config.idle_ttl;
        let handles = engines
            .into_iter()
            .enumerate()
            .map(|(worker, engine)| {
                let queue = Arc::clone(&queues[worker]);
                let model = Arc::clone(&model);
                let layers = Arc::clone(&layers);
                let directory = Arc::clone(&directory);
                let active_gauge = Arc::clone(&active_gauge);
                thread::spawn(move || {
                    worker_loop(
                        worker,
                        engine,
                        queue,
                        model,
                        layers,
                        directory,
                        active_gauge,
                        idle_ttl,
                        check_finite,
                        threshold,
                    )
                })
            })
            .collect();

        Ok(Self {
            queues,
            directory,
            handles,
            model,
            layers,
            workers: config.workers,
            deadline: config.deadline,
            session_inflight: config.session_inflight,
            check_finite,
            rejections: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            started: Instant::now(),
            registry,
            active_gauge,
            next_step_id: AtomicU64::new(0),
        })
    }

    /// The worker a session's steps are stuck to — a pure hash of the
    /// id, exposed so tests and benches can assert the stickiness
    /// invariant against [`ServeResponse::worker`].
    pub fn worker_of(&self, session: u64) -> usize {
        sticky_worker(session, self.workers)
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sessions currently open (directory size: opened, not yet closed
    /// or evicted).
    pub fn active_sessions(&self) -> usize {
        self.directory.lock().expect("stream directory poisoned").len()
    }

    /// The current model generation (starts at 1; every swap or
    /// auto-rollback bumps it).
    pub fn generation(&self) -> u64 {
        self.model.generation()
    }

    /// Steps admitted but not yet answered, over all open sessions.
    /// Zero means every submitted step has its response or failure
    /// recorded — the quiescence check callers use before a swap whose
    /// effect they want attributed to a known step boundary.
    pub fn inflight_steps(&self) -> u64 {
        let dir = self.directory.lock().expect("stream directory poisoned");
        dir.values()
            .map(|m| m.inflight.load(Ordering::Acquire) as u64)
            .sum()
    }

    /// Opens a session. Its id is caller-assigned; its worker is fixed
    /// by [`worker_of`](Self::worker_of) from this moment on.
    ///
    /// # Errors
    ///
    /// [`StreamError::SessionExists`] when the id is already open.
    pub fn open_session(&self, session: u64) -> Result<(), StreamError> {
        let mut dir = self.directory.lock().expect("stream directory poisoned");
        if dir.contains_key(&session) {
            return Err(StreamError::SessionExists(session));
        }
        dir.insert(
            session,
            Arc::new(SessionMeta {
                inflight: AtomicU32::new(0),
                quarantined: AtomicBool::new(false),
            }),
        );
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        if ffdl_telemetry::enabled() {
            self.active_gauge.set(dir.len() as i64);
        }
        Ok(())
    }

    /// Submits one step of `session`. `id` is the caller-assigned
    /// request id the response or failure will carry in the report;
    /// [`next_step_id`](Self::next_step_id) hands out fresh ones.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] for a session never opened,
    /// closed, or evicted; [`StreamError::SessionQuarantined`] after a
    /// fault hit the session; [`StreamError::SessionBusy`] over the
    /// in-flight cap; [`StreamError::QueueFull`] when the sticky
    /// worker's queue is at depth.
    pub fn step(&self, session: u64, id: u64, features: Tensor) -> Result<(), StreamError> {
        let meta = {
            let dir = self.directory.lock().expect("stream directory poisoned");
            dir.get(&session)
                .cloned()
                .ok_or(StreamError::UnknownSession(session))?
        };
        if meta.quarantined.load(Ordering::Acquire) {
            return Err(StreamError::SessionQuarantined(session));
        }
        let inflight = meta.inflight.fetch_add(1, Ordering::AcqRel);
        if inflight >= self.session_inflight {
            meta.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(StreamError::SessionBusy { session, inflight });
        }
        let now = Instant::now();
        let request = StepRequest {
            id,
            session,
            features,
            enqueued: now,
            deadline: self.deadline.map(|d| now + d),
            meta: Arc::clone(&meta),
        };
        match self.queues[sticky_worker(session, self.workers)].try_push(Work::Step(request)) {
            Ok(()) => Ok(()),
            Err(e) => {
                meta.inflight.fetch_sub(1, Ordering::AcqRel);
                match e {
                    PushError::Full => {
                        self.rejections.fetch_add(1, Ordering::Relaxed);
                        Err(StreamError::QueueFull(session))
                    }
                    PushError::Closed => Err(StreamError::Closed),
                }
            }
        }
    }

    /// A fresh, monotonically-increasing step id.
    pub fn next_step_id(&self) -> u64 {
        self.next_step_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Closes a session: later [`step`](Self::step)s fail typed
    /// immediately, and the owning worker drops the hidden state after
    /// finishing every step admitted before the close (the `Close`
    /// message rides the same FIFO queue).
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] when the session is not open;
    /// [`StreamError::Closed`] when the server is shutting down.
    pub fn close_session(&self, session: u64) -> Result<(), StreamError> {
        let removed = {
            let mut dir = self.directory.lock().expect("stream directory poisoned");
            let removed = dir.remove(&session);
            if removed.is_some() && ffdl_telemetry::enabled() {
                self.active_gauge.set(dir.len() as i64);
            }
            removed
        };
        if removed.is_none() {
            return Err(StreamError::UnknownSession(session));
        }
        self.queues[sticky_worker(session, self.workers)]
            .push_wait(Work::Close { session })
            .map_err(|_| StreamError::Closed)
    }

    /// Installs `network` as the next generation (O(1) `Arc` swap).
    /// Sessions adopt it via the reset-on-swap policy at their next
    /// step.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when the network fails its wire
    /// round-trip.
    pub fn swap_model(&self, network: &Network) -> Result<u64, ServeError> {
        let cloned = Arc::new(clone_network(network, &self.layers)?);
        Ok(self.model.swap(cloned))
    }

    /// Loads a generation (`None` = active) from the bound store and
    /// installs it, like [`swap_model`](Self::swap_model).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the server was not started
    /// from a store; [`ServeError::Registry`] when the load fails.
    pub fn swap_from_store(&self, generation: Option<u64>) -> Result<u64, ServeError> {
        let Some((store, name)) = self.model.binding() else {
            return Err(ServeError::InvalidConfig(
                "swap_from_store requires a server started from a store".into(),
            ));
        };
        self.model
            .swap_from_store(&store, &name, generation, None, &self.layers)
    }

    /// Replays a whole token sequence single-threaded on the **current**
    /// generation, from a fresh zero state — the reference the serving
    /// path is judged against (same [`StreamEngine::step`] code path).
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when cloning the model fails,
    /// [`ServeError::Inference`] when a replay step fails.
    pub fn replay(&self, tokens: &[Tensor]) -> Result<Vec<Prediction>, ServeError> {
        let (_, network) = self.model.clone_current(&self.layers)?;
        let mut engine = StreamEngine::new(network, self.check_finite);
        engine.replay(tokens).map_err(ServeError::Inference)
    }

    /// Shuts the pool down: closes every queue, drains admitted work,
    /// joins the workers, and assembles the report.
    ///
    /// # Errors
    ///
    /// The first worker-fatal error, if any ([`ServeError::Clone`] from
    /// a failed post-swap rebuild, [`ServeError::Inference`] from a
    /// non-recoverable step error, [`ServeError::WorkerPanic`] if a
    /// worker died outside supervision).
    pub fn finish(self) -> Result<StreamReport, ServeError> {
        for queue in &self.queues {
            queue.close();
        }
        let mut responses = Vec::new();
        let mut failures = Vec::new();
        let mut telemetry = self.registry.snapshot();
        let mut evicted = 0u64;
        let mut steps = 0u64;
        let mut session_quarantines = 0u64;
        let mut expired = 0u64;
        let mut restarts = 0u64;
        let mut first_error: Option<ServeError> = None;
        for handle in self.handles {
            match handle.join() {
                Ok(Ok(output)) => {
                    responses.extend(output.responses);
                    failures.extend(output.failures);
                    telemetry.merge(&output.telemetry);
                    evicted += output.evicted;
                    steps += output.steps;
                    session_quarantines += output.session_quarantines;
                    expired += output.expired;
                    restarts += output.restarts;
                }
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_error.get_or_insert(ServeError::worker_panic(
                        "stream worker crashed outside supervision",
                    ));
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let wall = self.started.elapsed();
        let (quarantines, auto_rollbacks) = self.model.counts();
        let counts = RunCounts {
            queue_full_rejections: self.rejections.load(Ordering::Relaxed),
            worker_restarts: restarts,
            shed: 0,
            brownout: 0,
            expired,
            quarantines,
            auto_rollbacks,
            model_generation: self.model.generation(),
        };
        let serve = ServeReport::from_parts(
            responses,
            failures,
            self.workers,
            wall,
            counts,
            telemetry,
            self.deadline,
        );
        Ok(StreamReport {
            serve,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_evicted: evicted,
            sessions_quarantined: session_quarantines,
            steps,
        })
    }
}

/// One worker: pops its sticky queue, steps its sessions, owns their
/// hidden state for life.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    mut engine: StreamEngine,
    queue: Arc<WorkQueue<Work>>,
    model: Arc<ModelSlot>,
    layers: Arc<LayerRegistry>,
    directory: Arc<Mutex<HashMap<u64, Arc<SessionMeta>>>>,
    active_gauge: Arc<Gauge>,
    idle_ttl: Option<Duration>,
    check_finite: bool,
    threshold: u32,
) -> Result<WorkerOutput, ServeError> {
    // Per-thread registry: merged into the report at finish(), so the
    // hot path never shares a metric cache line across workers.
    let telemetry = Registry::new();
    let steps_counter = telemetry.counter("ffdl.stream.steps");
    let evicted_counter = telemetry.counter("ffdl.stream.evicted");
    let quarantine_counter = telemetry.counter("ffdl.stream.session_quarantines");
    let expired_counter = telemetry.counter("ffdl.stream.expired");
    let restarts_counter = telemetry.counter("ffdl.stream.worker_restarts");
    let step_hist = telemetry.histogram("ffdl.stream.step_ns");

    // The engine handed in was cloned at generation 1; a fresh counter
    // load instead would mislabel steps if a swap lands before this
    // thread first runs.
    let mut engine_gen = 1u64;
    let mut sessions: HashMap<u64, SessionState> = HashMap::new();
    let mut output = WorkerOutput {
        telemetry: RegistrySnapshot::default(),
        responses: Vec::new(),
        failures: Vec::new(),
        evicted: 0,
        steps: 0,
        session_quarantines: 0,
        expired: 0,
        restarts: 0,
    };

    loop {
        let work = match queue.pop(IDLE_WAIT) {
            Popped::Closed => break,
            Popped::Idle => {
                evict_idle(
                    &mut sessions,
                    idle_ttl,
                    &directory,
                    &active_gauge,
                    &evicted_counter,
                    &mut output.evicted,
                );
                continue;
            }
            Popped::Item(work) => work,
        };
        let request = match work {
            Work::Close { session } => {
                sessions.remove(&session);
                continue;
            }
            Work::Step(request) => request,
        };
        let _inflight = InflightGuard(&request.meta.inflight);

        // Adopt a hot-swap between steps: rebuild the engine from the
        // slot. Sessions reset at their next step (below).
        if model.generation() != engine_gen {
            let (generation, network) = model.clone_current(&layers)?;
            engine = StreamEngine::new(network, check_finite);
            engine_gen = generation;
        }

        if let Some(deadline) = request.deadline {
            if Instant::now() > deadline {
                output.failures.push(ServeFailure {
                    id: request.id,
                    kind: FailureKind::DeadlineExceeded,
                    generation: engine_gen,
                    tenant: None,
                });
                output.expired += 1;
                if ffdl_telemetry::enabled() {
                    expired_counter.inc();
                }
                continue;
            }
        }
        if request.meta.quarantined.load(Ordering::Acquire) {
            // Step was queued before the quarantining fault resolved.
            output.failures.push(ServeFailure {
                id: request.id,
                kind: FailureKind::SessionQuarantined {
                    session: request.session,
                },
                generation: engine_gen,
                tenant: None,
            });
            continue;
        }

        let state = sessions.entry(request.session).or_insert_with(|| SessionState {
            hidden: engine.fresh_state(),
            generation: engine_gen,
            last_step: request.enqueued,
            meta: Arc::clone(&request.meta),
        });
        if state.generation != engine_gen {
            // Reset-on-swap: the old hidden state is meaningless
            // against the new weights; restart the sequence.
            state.hidden = engine.fresh_state();
            state.generation = engine_gen;
        }

        let step_started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(spike) = ffdl_fault::latency_spike() {
                thread::sleep(spike);
            }
            ffdl_fault::maybe_panic("stream.worker.step");
            engine.step(&mut state.hidden, &request.features)
        }));
        match outcome {
            Ok(Ok(prediction)) => {
                state.last_step = Instant::now();
                output.responses.push(ServeResponse {
                    id: request.id,
                    prediction,
                    latency_us: request.enqueued.elapsed().as_secs_f64() * 1e6,
                    worker,
                    batch_size: 1,
                    generation: engine_gen,
                    tenant: None,
                });
                output.steps += 1;
                if ffdl_telemetry::enabled() {
                    steps_counter.inc();
                    step_hist
                        .record(u64::try_from(step_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            }
            Ok(Err(DeployError::NonFinite { stage, .. })) => {
                output.failures.push(ServeFailure {
                    id: request.id,
                    kind: FailureKind::UnhealthyModel,
                    generation: engine_gen,
                    tenant: None,
                });
                if matches!(stage, NonFiniteStage::Logits) {
                    // The hidden state advanced before the NaN was
                    // caught: the session is untrusted from here on.
                    request.meta.quarantined.store(true, Ordering::Release);
                    output.session_quarantines += 1;
                    if ffdl_telemetry::enabled() {
                        quarantine_counter.inc();
                    }
                    model.report_unhealthy(engine_gen, 1, threshold, &layers);
                }
            }
            Ok(Err(e)) => {
                // A structural error (shape mismatch, foreign state) is
                // a caller bug, not a fault to supervise: fail the
                // worker typed, like the stateless pools.
                return Err(ServeError::Inference(e));
            }
            Err(_panic) => {
                output.failures.push(ServeFailure {
                    id: request.id,
                    kind: FailureKind::WorkerPanic,
                    generation: engine_gen,
                    tenant: None,
                });
                output.restarts += 1;
                if ffdl_telemetry::enabled() {
                    restarts_counter.inc();
                }
                // The engine's scratch may be mid-write: rebuild it.
                // The faulted session's state may be too: quarantine.
                request.meta.quarantined.store(true, Ordering::Release);
                output.session_quarantines += 1;
                if ffdl_telemetry::enabled() {
                    quarantine_counter.inc();
                }
                let (generation, network) = model.clone_current(&layers)?;
                engine = StreamEngine::new(network, check_finite);
                engine_gen = generation;
            }
        }
    }

    output.telemetry = telemetry.snapshot();
    Ok(output)
}

/// Drops sessions idle past the TTL with nothing in flight, removing
/// them from the shared directory so later steps fail typed at submit.
fn evict_idle(
    sessions: &mut HashMap<u64, SessionState>,
    idle_ttl: Option<Duration>,
    directory: &Mutex<HashMap<u64, Arc<SessionMeta>>>,
    active_gauge: &Gauge,
    evicted_counter: &ffdl_telemetry::Counter,
    evicted: &mut u64,
) {
    let Some(ttl) = idle_ttl else { return };
    let now = Instant::now();
    let mut dir = directory.lock().expect("stream directory poisoned");
    sessions.retain(|id, state| {
        let idle = now.duration_since(state.last_step) >= ttl;
        if idle && state.meta.inflight.load(Ordering::Acquire) == 0 {
            dir.remove(id);
            *evicted += 1;
            if ffdl_telemetry::enabled() {
                evicted_counter.inc();
            }
            false
        } else {
            true
        }
    });
    if ffdl_telemetry::enabled() {
        active_gauge.set(dir.len() as i64);
    }
}

/// The streaming run's report: the familiar [`ServeReport`] (per-step
/// latency percentiles, failures by kind, merged telemetry) plus the
/// session ledger.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-step statistics, assembled by [`ServeReport::from_parts`] —
    /// `requests` is the number of answered steps; every admitted step
    /// ends in `responses` or `failures`.
    pub serve: ServeReport,
    /// Sessions opened over the run.
    pub sessions_opened: u64,
    /// Sessions dropped by TTL eviction.
    pub sessions_evicted: u64,
    /// Sessions quarantined by faults (panic or NaN step).
    pub sessions_quarantined: u64,
    /// Steps answered (equals `serve.requests`).
    pub steps: u64,
}

impl StreamReport {
    /// The serve table plus a `stream` section.
    pub fn table(&self) -> String {
        use fmt::Write as _;
        let mut out = self.serve.table();
        writeln!(out, "stream stats").expect("string write");
        writeln!(out, "  {:<22} {:>12}", "sessions opened", self.sessions_opened)
            .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "sessions evicted", self.sessions_evicted
        )
        .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "sessions quarantined", self.sessions_quarantined
        )
        .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "steps answered", self.steps).expect("string write");
        out
    }

    /// One flat JSON row: the serve row with the stream fields spliced
    /// in (stays one line, like every committed `BENCH_*.json` row).
    pub fn json_row(&self, label: &str) -> String {
        let base = self.serve.json_row(label);
        let body = base.strip_suffix('}').unwrap_or(&base);
        format!(
            "{body}, \"sessions\": {}, \"sessions_evicted\": {}, \
             \"sessions_quarantined\": {}, \"steps\": {}}}",
            self.sessions_opened, self.sessions_evicted, self.sessions_quarantined, self.steps,
        )
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

/// Assembles a `BENCH_stream.json`-style document from labelled
/// reports.
pub fn stream_bench_json(rows: &[(String, &StreamReport)]) -> String {
    let mut out = String::new();
    out.push_str(
        "{\n  \"bench\": \"stream\",\n  \"unit\": \"steps_per_sec\",\n  \"results\": [\n",
    );
    for (i, (label, report)) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&report.json_row(label));
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sticky_hash_is_stable_and_in_range() {
        for workers in 1..5usize {
            for session in 0..64u64 {
                let w = sticky_worker(session, workers);
                assert!(w < workers);
                assert_eq!(w, sticky_worker(session, workers));
            }
        }
        // With more than one worker the hash actually spreads sessions.
        let spread: std::collections::HashSet<usize> =
            (0..64).map(|s| sticky_worker(s, 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn config_validation() {
        let ok = StreamConfig::default();
        assert!(ok.validate().is_ok());
        assert!(StreamConfig { workers: 0, ..ok.clone() }.validate().is_err());
        assert!(StreamConfig { queue_depth: 0, ..ok.clone() }.validate().is_err());
        assert!(StreamConfig { session_inflight: 0, ..ok.clone() }
            .validate()
            .is_err());
        let bad_health = StreamConfig {
            health: HealthConfig {
                check_finite: false,
                unhealthy_threshold: 2,
            },
            ..ok
        };
        assert!(bad_health.validate().is_err());
    }

    #[test]
    fn stream_error_display() {
        assert!(StreamError::UnknownSession(7).to_string().contains("7"));
        assert!(StreamError::SessionExists(3).to_string().contains("already"));
        assert!(StreamError::SessionBusy { session: 1, inflight: 9 }
            .to_string()
            .contains("9"));
        assert!(StreamError::SessionQuarantined(2)
            .to_string()
            .contains("quarantined"));
        assert!(StreamError::QueueFull(4).to_string().contains("full"));
        assert!(StreamError::Closed.to_string().contains("shut down"));
    }
}
