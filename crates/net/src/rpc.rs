//! Cluster RPC: one request path to every provider, per-provider
//! failure injection, and a resilient quorum engine.
//!
//! A provider is reached in one of two ways, the closest laptop
//! analogues of the paper's independent DAS sites:
//! * in process ([`Cluster::spawn_concurrent`]) — a [`SharedService`]
//!   behind a pool of worker threads draining one crossbeam channel;
//! * over TCP ([`Cluster::connect_tcp_with`]) — a [`TcpClient`]: the
//!   quorum engine writes each request onto the provider's socket from
//!   the calling thread, and the client's reader thread delivers the
//!   reply straight onto the quorum's reply channel.
//!
//! Quorum calls are *first-k-wins*: every in-flight attempt replies onto
//! one shared channel tagged with an attempt token, and the engine
//! returns the moment enough valid responses have arrived — stragglers
//! are abandoned, timed-out attempts are retried per [`RetryPolicy`],
//! failures escalate to hedge launches at the next-fastest provider, and
//! providers with open circuit breakers (see
//! [`HealthTracker`](crate::resilience::HealthTracker)) are skipped
//! unless the quorum cannot be met without them. A crashed provider
//! degrades into a timeout exactly as a dead site would.
//!
//! Failure injection (per provider, switchable at runtime) sits at the
//! one dispatch step both transports share, so it behaves the same on
//! either:
//! * [`FailureMode::Crashed`] — requests are not sent (client times out).
//! * [`FailureMode::Omission`] — each response is dropped with probability p.
//! * [`FailureMode::Byzantine`] — each response has one bit flipped with
//!   probability p (exercises share-consistency detection).
//! * [`Cluster::set_latency`] — each request is held back by a link
//!   delay before it is sent; no provider thread sleeps.

use crate::cost::TrafficStats;
use crate::resilience::{
    Admission, BreakerConfig, HealthTracker, ProviderOutcome, QuorumError, RetryPolicy, SystemClock,
};
use crate::transport::{TcpClient, TcpClientConfig, TransportError};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Index of a provider within a cluster (0-based).
pub type ProviderId = usize;

/// A request handler that serves many requests concurrently: the worker
/// pool spawned by [`Cluster::spawn_concurrent`] calls `handle` from
/// several threads at once, so implementations synchronize internally
/// (e.g. the provider engine's read/write lock).
pub trait SharedService: Send + Sync {
    /// Handle one request payload, producing a response payload.
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<F> SharedService for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// Per-provider failure behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureMode {
    /// Normal operation.
    Healthy,
    /// Provider is down: requests vanish.
    Crashed,
    /// Each response is dropped with this probability.
    Omission(f64),
    /// Each response is corrupted (random bit flipped) with this
    /// probability.
    Byzantine(f64),
}

/// RPC failure as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No response within the deadline (crashed/omitting provider).
    Timeout(ProviderId),
    /// The provider id does not exist.
    UnknownProvider(ProviderId),
    /// A quorum call could not gather enough valid responses.
    QuorumUnreachable {
        /// Responses required.
        needed: usize,
        /// Valid responses obtained.
        got: usize,
    },
    /// The cluster was shut down.
    Closed,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout(p) => write!(f, "provider {p} timed out"),
            RpcError::UnknownProvider(p) => write!(f, "unknown provider {p}"),
            RpcError::QuorumUnreachable { needed, got } => write!(
                f,
                "quorum unreachable: {got} of the required {needed} providers responded"
            ),
            RpcError::Closed => write!(f, "cluster closed"),
        }
    }
}

impl std::error::Error for RpcError {}

/// How a quorum call fans out and when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumMode {
    /// Return as soon as enough valid responses arrive; stragglers are
    /// abandoned and providers with open breakers are skipped when the
    /// quorum can be met without them. For idempotent reads.
    FirstK,
    /// Contact every listed provider (breakers notwithstanding) and wait
    /// for each to resolve. Required for writes, which must reach all
    /// replicas and must not be silently skipped.
    All,
}

/// Tuning for [`Cluster::call_quorum_opts`].
pub struct QuorumOptions<'a> {
    /// Retry schedule for failed attempts. Use [`RetryPolicy::none`] for
    /// non-idempotent requests.
    pub retry: RetryPolicy,
    /// Extra providers contacted up front beyond the response target, to
    /// race stragglers (hedged requests). [`QuorumMode::FirstK`] only.
    pub hedge: usize,
    /// Extra responses collected beyond `need` when available (the quorum
    /// still succeeds with `need`). Lets callers cross-check shares.
    pub extra: usize,
    /// Fan-out / return discipline.
    pub mode: QuorumMode,
    /// Application-level response check; a rejected response counts as a
    /// failed attempt (retried, then reported as
    /// [`ProviderOutcome::Rejected`]).
    #[allow(clippy::type_complexity)]
    pub validate: Option<&'a dyn Fn(ProviderId, &[u8]) -> Result<(), String>>,
}

impl Default for QuorumOptions<'_> {
    fn default() -> Self {
        QuorumOptions {
            retry: RetryPolicy::none(),
            hedge: 0,
            extra: 0,
            mode: QuorumMode::FirstK,
            validate: None,
        }
    }
}

/// One request handed to an in-process worker pool.
struct Envelope {
    request: Vec<u8>,
    reply_to: Sender<(u64, Vec<u8>)>,
    token: u64,
}

/// A cloneable switch over one provider's failure mode, detached from
/// the [`Cluster`] borrow so another thread can inject churn mid-call.
#[derive(Clone)]
pub struct FailureSwitch(Arc<Mutex<FailureMode>>);

impl FailureSwitch {
    /// Flip the provider's failure mode.
    pub fn set(&self, mode: FailureMode) {
        *self.0.lock() = mode;
    }

    /// The current failure mode.
    pub fn get(&self) -> FailureMode {
        *self.0.lock()
    }
}

/// How the cluster reaches one provider.
enum Transport {
    /// In process: envelopes on the channel a worker pool drains.
    Pool {
        tx: Sender<Envelope>,
        workers: Vec<JoinHandle<()>>,
    },
    /// Over TCP: requests written straight onto the provider's socket.
    Tcp(TcpClient),
}

struct ProviderHandle {
    /// `None` once the cluster has been shut down, or when the OS
    /// refused every worker thread: calls then fail with
    /// [`RpcError::Closed`].
    transport: Option<Transport>,
    failure: Arc<Mutex<FailureMode>>,
    /// Injected link delay, applied to each request before it is sent.
    latency: Mutex<Duration>,
    /// Draws omission drops and Byzantine bit flips.
    rng: Mutex<StdRng>,
}

impl ProviderHandle {
    fn new(id: ProviderId, transport: Option<Transport>) -> Self {
        ProviderHandle {
            transport,
            failure: Arc::new(Mutex::new(FailureMode::Healthy)),
            latency: Mutex::new(Duration::ZERO),
            rng: Mutex::new(StdRng::seed_from_u64(0x5eed ^ id as u64)),
        }
    }

    /// The one dispatch step: hand attempt `token` to the provider. A
    /// crashed provider swallows it, and a transport error leaves it to
    /// its deadline, so a dead socket looks exactly like a crash.
    /// Returns false only when the provider is closed.
    fn submit(&self, request: &[u8], reply_to: &Sender<(u64, Vec<u8>)>, token: u64) -> bool {
        let Some(transport) = &self.transport else {
            return false;
        };
        if *self.failure.lock() == FailureMode::Crashed {
            return true;
        }
        match transport {
            Transport::Pool { tx, .. } => tx
                .send(Envelope {
                    request: request.to_vec(),
                    reply_to: reply_to.clone(),
                    token,
                })
                .is_ok(),
            Transport::Tcp(client) => {
                client.submit(request, reply_to.clone(), token) != Err(TransportError::Closed)
            }
        }
    }

    /// Reply-side fault injection: `None` drops the reply (omission);
    /// Byzantine mode may flip one bit.
    fn inject(&self, mut response: Vec<u8>) -> Option<Vec<u8>> {
        match *self.failure.lock() {
            FailureMode::Omission(p) => (self.rng.lock().gen::<f64>() >= p).then_some(response),
            FailureMode::Byzantine(p) => {
                let mut rng = self.rng.lock();
                if !response.is_empty() && rng.gen::<f64>() < p {
                    let idx = rng.gen_range(0..response.len());
                    let bit = rng.gen_range(0u32..8);
                    if let Some(byte) = response.get_mut(idx) {
                        *byte ^= 1u8 << bit;
                    }
                }
                Some(response)
            }
            FailureMode::Healthy | FailureMode::Crashed => Some(response),
        }
    }

    /// Tear the transport down and join every thread it owns.
    fn close(&mut self) {
        match self.transport.take() {
            Some(Transport::Pool { tx, workers }) => {
                // Dropping the sender ends every worker's `recv` loop.
                drop(tx);
                for w in workers {
                    let _ = w.join();
                }
            }
            Some(Transport::Tcp(client)) => client.close(),
            None => {}
        }
    }
}

/// A running cluster of providers plus client-side metering and
/// per-provider health tracking.
pub struct Cluster {
    providers: Vec<ProviderHandle>,
    stats: TrafficStats,
    timeout: Duration,
    health: HealthTracker,
}

impl Cluster {
    fn from_providers(providers: Vec<ProviderHandle>, timeout: Duration) -> Self {
        let n = providers.len();
        Cluster {
            providers,
            stats: TrafficStats::new(),
            timeout,
            health: HealthTracker::new(n, BreakerConfig::default(), Arc::new(SystemClock::new())),
        }
    }

    /// Worker-pool size used when callers don't pick one: `min(4, cores)`.
    /// Small enough that a laptop cluster of n providers doesn't
    /// oversubscribe, large enough to overlap slow requests.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }

    /// Serve in-process providers, each from `workers` threads draining
    /// one request channel, so a provider serves up to `workers`
    /// requests at once and responses may return out of order — the
    /// quorum engine multiplexes them by attempt token. With one worker
    /// a provider serves its requests one at a time, in arrival order.
    pub fn spawn_concurrent(
        services: Vec<Arc<dyn SharedService>>,
        timeout: Duration,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        let providers = services
            .into_iter()
            .enumerate()
            .map(|(id, service)| {
                let (tx, rx) = unbounded::<Envelope>();
                let threads: Vec<JoinHandle<()>> = (0..workers)
                    .filter_map(|w| {
                        let service = Arc::clone(&service);
                        let rx = rx.clone();
                        std::thread::Builder::new()
                            .name(format!("dasp-provider-{id}-w{w}"))
                            .spawn(move || {
                                while let Ok(env) = rx.recv() {
                                    // dasp::allow(E1): the caller may have
                                    // returned and dropped its reply rx;
                                    // a dead waiter is not an error here.
                                    let _ = env
                                        .reply_to
                                        .send((env.token, service.handle(&env.request)));
                                }
                            })
                            .ok()
                    })
                    .collect();
                // If the OS refuses every worker thread the provider is
                // closed — calls to it fail with RpcError::Closed —
                // instead of panicking the whole cluster at construction.
                let transport = (!threads.is_empty()).then_some(Transport::Pool {
                    tx,
                    workers: threads,
                });
                ProviderHandle::new(id, transport)
            })
            .collect();
        Self::from_providers(providers, timeout)
    }

    /// Connect to remote TCP providers, one [`TcpClient`] per address.
    /// Requests go straight onto each provider's socket from the calling
    /// thread; no client-side worker pool sits in between, so `workers`
    /// is unused here (the parameter stays so existing callers compile).
    ///
    /// Providers are dialed lazily, on first use: an unreachable one
    /// behaves like a crashed provider — its attempts time out as
    /// [`RpcError::Timeout`] — and heals once it comes up, so a client
    /// starts whenever the providers it needs are reachable. Building
    /// the cluster itself does not fail.
    pub fn connect_tcp_with(
        addrs: &[std::net::SocketAddr],
        timeout: Duration,
        _workers: usize,
        cfg: TcpClientConfig,
    ) -> std::io::Result<Self> {
        let providers = addrs
            .iter()
            .enumerate()
            .map(|(id, addr)| {
                let client = TcpClient::new(*addr, cfg.clone());
                ProviderHandle::new(id, Some(Transport::Tcp(client)))
            })
            .collect();
        Ok(Self::from_providers(providers, timeout))
    }

    /// Replace the default circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.health = HealthTracker::new(self.n(), breaker, Arc::new(SystemClock::new()));
        self
    }

    /// Number of providers.
    pub fn n(&self) -> usize {
        self.providers.len()
    }

    /// The shared traffic meters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Per-provider health: breaker states, failure streaks, latency
    /// EWMAs. Print `health().snapshot()` for a table.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The per-call (and default per-attempt) timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Set a provider's failure mode.
    pub fn set_failure(&self, provider: ProviderId, mode: FailureMode) {
        if let Some(h) = self.providers.get(provider) {
            *h.failure.lock() = mode;
        }
    }

    /// A cloneable, thread-safe handle to one provider's failure switch.
    /// Lets a churn thread flip failure modes while the owner of the
    /// cluster keeps issuing calls (soak tests).
    pub fn failure_switch(&self, provider: ProviderId) -> Option<FailureSwitch> {
        self.providers
            .get(provider)
            .map(|h| FailureSwitch(Arc::clone(&h.failure)))
    }

    /// Inject a real link delay in front of every provider (live WAN
    /// emulation — complements the analytical [`crate::NetworkModel`]):
    /// each request is sent that long after it is issued. The delay
    /// holds no provider thread, so requests to one provider overlap.
    /// The call timeout must exceed the injected latency.
    pub fn set_latency(&self, delay: Duration) {
        for h in &self.providers {
            *h.latency.lock() = delay;
        }
    }

    /// Inject latency at a single provider (a straggler, not a WAN).
    pub fn set_latency_for(&self, provider: ProviderId, delay: Duration) {
        if let Some(h) = self.providers.get(provider) {
            *h.latency.lock() = delay;
        }
    }

    /// Stop accepting requests and join every thread the cluster owns:
    /// pool workers, TCP readers and batchers. In-flight requests are
    /// abandoned; subsequent calls return [`RpcError::Closed`].
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        for p in &mut self.providers {
            p.close();
        }
    }

    /// Call one provider, counting the exchange as a round trip.
    pub fn call(&self, provider: ProviderId, request: Vec<u8>) -> Result<Vec<u8>, RpcError> {
        self.call_with_retry(provider, request, &RetryPolicy::none())
    }

    /// Call one provider, retrying failed attempts per `policy` with
    /// jittered exponential backoff. Counts one round trip. Only use for
    /// idempotent requests.
    pub fn call_with_retry(
        &self,
        provider: ProviderId,
        request: Vec<u8>,
        policy: &RetryPolicy,
    ) -> Result<Vec<u8>, RpcError> {
        let opts = QuorumOptions {
            retry: policy.clone(),
            mode: QuorumMode::All,
            ..Default::default()
        };
        match self.run_quorum(vec![(provider, request)], 1, &opts).pop() {
            Some((_, Ok(response))) => Ok(response),
            Some((_, Err(ProviderOutcome::Unsent))) => Err(RpcError::UnknownProvider(provider)),
            Some((_, Err(ProviderOutcome::Disconnected))) => Err(RpcError::Closed),
            _ => Err(RpcError::Timeout(provider)),
        }
    }

    /// Fan a (provider-specific) request out to a subset of providers in
    /// parallel; returns per-provider results. Counts one round trip.
    pub fn call_many(
        &self,
        requests: Vec<(ProviderId, Vec<u8>)>,
    ) -> Vec<(ProviderId, Result<Vec<u8>, RpcError>)> {
        type Slot = (ProviderId, Result<Vec<u8>, RpcError>);
        let n = self.providers.len();
        let mut slots: Vec<Slot> = Vec::new();
        let mut valid = Vec::new();
        let mut valid_pos = Vec::new();
        for (i, (provider, request)) in requests.into_iter().enumerate() {
            if provider < n {
                valid_pos.push(i);
                valid.push((provider, request));
                // Placeholder, overwritten below: run_quorum in All mode
                // resolves every submitted request exactly once.
                slots.push((provider, Err(RpcError::Timeout(provider))));
            } else {
                slots.push((provider, Err(RpcError::UnknownProvider(provider))));
            }
        }
        let opts = QuorumOptions {
            mode: QuorumMode::All,
            ..Default::default()
        };
        let resolutions = self.run_quorum(valid, 0, &opts);
        for (pos, (provider, resolution)) in valid_pos.into_iter().zip(resolutions) {
            let resolved = (
                provider,
                match resolution {
                    Ok(response) => Ok(response),
                    Err(ProviderOutcome::Disconnected) => Err(RpcError::Closed),
                    Err(_) => Err(RpcError::Timeout(provider)),
                },
            );
            if let Some(slot) = slots.get_mut(pos) {
                *slot = resolved;
            }
        }
        slots
    }

    /// Fan out and return as soon as `k` successes arrive (the paper's
    /// "any k of the service providers must be available"). Responses
    /// beyond the first k successes may be discarded.
    pub fn call_quorum(
        &self,
        requests: Vec<(ProviderId, Vec<u8>)>,
        k: usize,
    ) -> Result<Vec<(ProviderId, Vec<u8>)>, RpcError> {
        let opts = QuorumOptions {
            hedge: usize::MAX,
            ..Default::default()
        };
        self.call_quorum_opts(requests, k, &opts)
            .map_err(|e| RpcError::QuorumUnreachable {
                needed: e.needed,
                got: e.got,
            })
    }

    /// First-k-wins quorum call with retries, hedging, and breaker-aware
    /// provider selection. Returns the successful `(provider, response)`
    /// pairs in request order — at least `need` of them, up to
    /// `need + extra` — or a [`QuorumError`] post-mortem.
    pub fn call_quorum_opts(
        &self,
        requests: Vec<(ProviderId, Vec<u8>)>,
        need: usize,
        opts: &QuorumOptions<'_>,
    ) -> Result<Vec<(ProviderId, Vec<u8>)>, QuorumError> {
        let resolutions = self.run_quorum(requests, need, opts);
        let got = resolutions.iter().filter(|(_, r)| r.is_ok()).count();
        if got >= need {
            Ok(resolutions
                .into_iter()
                .filter_map(|(p, r)| r.ok().map(|v| (p, v)))
                .collect())
        } else {
            Err(QuorumError {
                needed: need,
                got,
                per_provider: resolutions
                    .into_iter()
                    .map(|(p, r)| {
                        (
                            p,
                            match r {
                                Ok(_) => ProviderOutcome::Ok,
                                Err(outcome) => outcome,
                            },
                        )
                    })
                    .collect(),
            })
        }
    }

    /// The quorum engine: one shared reply channel, token-tagged
    /// attempts, an event loop over response/timeout/retry deadlines.
    /// Returns each request's resolution in request order.
    fn run_quorum(
        &self,
        requests: Vec<(ProviderId, Vec<u8>)>,
        need: usize,
        opts: &QuorumOptions<'_>,
    ) -> Vec<(ProviderId, Result<Vec<u8>, ProviderOutcome>)> {
        self.stats.record_round_trip();
        let n_req = requests.len();
        let want = match opts.mode {
            QuorumMode::All => n_req,
            QuorumMode::FirstK => need.saturating_add(opts.extra).min(n_req),
        };
        let per_attempt = opts.retry.per_attempt_timeout.unwrap_or(self.timeout);
        let max_attempts = opts.retry.max_attempts.max(1);

        struct Cand<'c> {
            provider: ProviderId,
            /// `None` for an unknown provider id.
            handle: Option<&'c ProviderHandle>,
            request: Vec<u8>,
            attempts: u32,
            /// (token, sent_at, deadline) of the attempt in flight.
            live: Option<(u64, Instant, Instant)>,
            /// When the live attempt, held back by an injected link
            /// delay, is actually sent.
            send_at: Option<Instant>,
            retry_at: Option<Instant>,
            held: bool,
            done: Option<Result<Vec<u8>, ProviderOutcome>>,
        }

        let mut cands: Vec<Cand> = requests
            .into_iter()
            .map(|(provider, request)| {
                let handle = self.providers.get(provider);
                Cand {
                    provider,
                    handle,
                    request,
                    attempts: 0,
                    live: None,
                    send_at: None,
                    retry_at: None,
                    held: false,
                    done: handle.is_none().then_some(Err(ProviderOutcome::Unsent)),
                }
            })
            .collect();

        // Launch order: admitted candidates, fastest EWMA first with
        // never-measured providers leading (so they get sampled), then —
        // only when the quorum cannot be met otherwise — providers whose
        // breaker is open.
        let mut admitted: Vec<(usize, ProviderId)> = Vec::new();
        let mut held: VecDeque<usize> = VecDeque::new();
        for (idx, c) in cands.iter_mut().enumerate() {
            if c.done.is_some() {
                continue;
            }
            let admit = match opts.mode {
                QuorumMode::All => Admission::Yes,
                QuorumMode::FirstK => self.health.admit(c.provider),
            };
            if admit == Admission::No {
                c.held = true;
                held.push_back(idx);
            } else {
                admitted.push((idx, c.provider));
            }
        }
        admitted.sort_by_key(|&(_, p)| match self.health.ewma_latency(p) {
            None => (0u8, Duration::ZERO, p),
            Some(d) => (1u8, d, p),
        });
        let mut ready: VecDeque<usize> = admitted.into_iter().map(|(idx, _)| idx).collect();

        let (reply_tx, reply_rx) = unbounded::<(u64, Vec<u8>)>();
        // (candidate index, sent_at) of every attempt, indexed by its
        // token; stale tokens stay mapped so a slow first attempt can
        // still satisfy its candidate.
        let mut sent: Vec<(usize, Instant)> = Vec::new();
        let mut successes = 0usize;

        // Hand the live attempt to its provider's transport.
        let send = |c: &mut Cand| {
            let (Some((token, _, _)), Some(handle)) = (c.live, c.handle) else {
                return;
            };
            if !handle.submit(&c.request, &reply_tx, token) {
                c.done = Some(Err(ProviderOutcome::Disconnected));
            }
        };
        let launch = |cands: &mut [Cand], idx: usize, sent: &mut Vec<(usize, Instant)>| {
            let Some(c) = cands.get_mut(idx) else { return };
            c.attempts += 1;
            let token = sent.len() as u64;
            let now = Instant::now();
            self.stats.record_send(c.request.len());
            sent.push((idx, now));
            c.live = Some((token, now, now + per_attempt));
            let delay = c.handle.map_or(Duration::ZERO, |h| *h.latency.lock());
            if delay.is_zero() {
                send(c);
            } else {
                c.send_at = Some(now + delay);
            }
        };

        // Initial wave: everything in All mode; the response target plus
        // the hedge allowance in FirstK mode.
        let wave = match opts.mode {
            QuorumMode::All => ready.len(),
            QuorumMode::FirstK => want.saturating_add(opts.hedge).min(ready.len()),
        };
        for _ in 0..wave {
            let Some(idx) = ready.pop_front() else { break };
            launch(&mut cands, idx, &mut sent);
        }

        loop {
            let now = Instant::now();

            // Send attempts whose injected link delay has elapsed.
            for c in cands.iter_mut() {
                if c.done.is_none() && matches!(c.send_at, Some(at) if now >= at) {
                    c.send_at = None;
                    send(c);
                }
            }

            // Finalize attempts past their deadline: record the failure,
            // schedule a retry if budget and the quorum still need it,
            // and escalate by launching the next-best unsent provider.
            let timed_out: Vec<usize> = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.done.is_none() && matches!(c.live, Some((_, _, dl)) if now >= dl)
                })
                .map(|(i, _)| i)
                .collect();
            for idx in timed_out {
                if let Some(c) = cands.get_mut(idx) {
                    self.health.record_failure(c.provider);
                    c.live = None;
                    c.send_at = None;
                    if c.attempts < max_attempts && successes < need {
                        c.retry_at = Some(now + opts.retry.backoff_for(c.provider, c.attempts));
                    } else {
                        c.done = Some(Err(ProviderOutcome::TimedOut {
                            attempts: c.attempts,
                        }));
                    }
                }
                if successes < want {
                    if let Some(next) = ready.pop_front() {
                        launch(&mut cands, next, &mut sent);
                    }
                }
            }

            // Fire retries that have cooled down.
            let due: Vec<usize> = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.done.is_none()
                        && c.live.is_none()
                        && matches!(c.retry_at, Some(at) if now >= at)
                })
                .map(|(i, _)| i)
                .collect();
            for idx in due {
                let Some(c) = cands.get_mut(idx) else {
                    continue;
                };
                c.retry_at = None;
                if successes < need {
                    launch(&mut cands, idx, &mut sent);
                } else {
                    c.done = Some(Err(ProviderOutcome::TimedOut {
                        attempts: c.attempts,
                    }));
                }
            }

            // Quorum met: cancel pending retries so only live attempts
            // can still add responses (bounds degraded-read latency).
            if successes >= need {
                for c in cands.iter_mut() {
                    if c.done.is_none() && c.live.is_none() && c.retry_at.take().is_some() {
                        c.done = Some(Err(ProviderOutcome::TimedOut {
                            attempts: c.attempts,
                        }));
                    }
                }
            }

            // Top up: the quorum must stay reachable — force-include
            // held (breaker-open) providers when nothing else remains.
            // (`successes` is fixed here; each `launch` grows `live`
            // until the invariant holds or the queues run dry.)
            loop {
                if successes >= need {
                    break;
                }
                let live = cands
                    .iter()
                    .filter(|c| c.done.is_none() && c.live.is_some())
                    .count();
                let retries = cands
                    .iter()
                    .filter(|c| c.done.is_none() && c.retry_at.is_some())
                    .count();
                if successes + live + retries >= need {
                    break;
                }
                let Some(idx) = ready.pop_front().or_else(|| held.pop_front()) else {
                    break;
                };
                launch(&mut cands, idx, &mut sent);
            }

            if successes >= want {
                break;
            }
            let live = cands
                .iter()
                .filter(|c| c.done.is_none() && c.live.is_some())
                .count();
            let retries = cands
                .iter()
                .filter(|c| c.done.is_none() && c.retry_at.is_some())
                .count();
            if live == 0 && retries == 0 {
                break;
            }

            // Sleep until the next deadline or the next response.
            let next_event = cands
                .iter()
                .filter(|c| c.done.is_none())
                .flat_map(|c| {
                    c.live
                        .map(|(_, _, dl)| dl)
                        .into_iter()
                        .chain(c.retry_at)
                        .chain(c.send_at)
                })
                .min();
            let Some(next_event) = next_event else { break };
            let wait = next_event
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO);
            let Ok((token, payload)) = reply_rx.recv_timeout(wait) else {
                continue;
            };
            let Some(&(idx, sent_at)) = usize::try_from(token).ok().and_then(|t| sent.get(t))
            else {
                continue;
            };
            let Some(c) = cands.get_mut(idx) else {
                continue;
            };
            // An omitted reply never arrived: its attempt rides to its
            // deadline.
            let Some(payload) = c.handle.and_then(|h| h.inject(payload)) else {
                continue;
            };
            if c.done.is_some() {
                continue; // duplicate/late response for a settled candidate
            }
            self.stats.record_recv(payload.len());
            let verdict = match opts.validate {
                Some(f) => f(c.provider, &payload),
                None => Ok(()),
            };
            match verdict {
                Ok(()) => {
                    self.health.record_success(c.provider, sent_at.elapsed());
                    c.live = None;
                    c.send_at = None;
                    c.retry_at = None;
                    c.done = Some(Ok(payload));
                    successes += 1;
                }
                Err(reason) => {
                    self.health.record_failure(c.provider);
                    if c.live.map(|(t, _, _)| t) == Some(token) {
                        c.live = None;
                        c.send_at = None;
                    }
                    if c.live.is_none() && c.retry_at.is_none() {
                        if c.attempts < max_attempts && successes < need {
                            c.retry_at = Some(
                                Instant::now() + opts.retry.backoff_for(c.provider, c.attempts),
                            );
                        } else {
                            c.done = Some(Err(ProviderOutcome::Rejected {
                                attempts: c.attempts,
                                reason,
                            }));
                        }
                    }
                    if successes < want {
                        if let Some(next) = ready.pop_front() {
                            launch(&mut cands, next, &mut sent);
                        }
                    }
                }
            }
        }

        cands
            .into_iter()
            .map(|c| {
                let resolution = match c.done {
                    Some(r) => r,
                    None if c.attempts > 0 => Err(ProviderOutcome::TimedOut {
                        attempts: c.attempts,
                    }),
                    None if c.held => Err(ProviderOutcome::BreakerOpen),
                    None => Err(ProviderOutcome::Unsent),
                };
                (c.provider, resolution)
            })
            .collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_cluster(n: usize) -> Cluster {
        let services: Vec<Arc<dyn SharedService>> = (0..n)
            .map(|id| {
                Arc::new(move |req: &[u8]| {
                    let mut out = vec![id as u8];
                    out.extend_from_slice(req);
                    out
                }) as Arc<dyn SharedService>
            })
            .collect();
        Cluster::spawn_concurrent(services, Duration::from_millis(200), 1)
    }

    fn mirror_cluster(n: usize, timeout: Duration, breaker: BreakerConfig) -> Cluster {
        let services: Vec<Arc<dyn SharedService>> = (0..n)
            .map(|_| Arc::new(|req: &[u8]| req.to_vec()) as Arc<dyn SharedService>)
            .collect();
        Cluster::spawn_concurrent(services, timeout, 1).with_breaker(breaker)
    }

    #[test]
    fn call_roundtrip() {
        let cluster = echo_cluster(3);
        let resp = cluster.call(1, b"ping".to_vec()).unwrap();
        assert_eq!(resp, b"\x01ping");
    }

    #[test]
    fn unknown_provider() {
        let cluster = echo_cluster(2);
        assert_eq!(cluster.call(5, vec![]), Err(RpcError::UnknownProvider(5)));
    }

    #[test]
    fn crashed_provider_times_out_but_others_serve() {
        let cluster = echo_cluster(3);
        cluster.set_failure(0, FailureMode::Crashed);
        assert_eq!(cluster.call(0, b"x".to_vec()), Err(RpcError::Timeout(0)));
        assert!(cluster.call(1, b"x".to_vec()).is_ok());
        // Recovery.
        cluster.set_failure(0, FailureMode::Healthy);
        assert!(cluster.call(0, b"x".to_vec()).is_ok());
    }

    #[test]
    fn fan_out_hits_all() {
        let cluster = echo_cluster(4);
        let reqs = (0..4).map(|i| (i, vec![i as u8])).collect();
        let results = cluster.call_many(reqs);
        assert_eq!(results.len(), 4);
        for (provider, result) in results {
            assert_eq!(result.unwrap(), vec![provider as u8, provider as u8]);
        }
        // One fan-out = one round trip.
        assert_eq!(cluster.stats().snapshot().round_trips, 1);
    }

    #[test]
    fn fan_out_reports_unknown_providers_in_order() {
        let cluster = echo_cluster(2);
        let results = cluster.call_many(vec![(0, vec![1]), (7, vec![2]), (1, vec![3])]);
        assert_eq!(results.len(), 3);
        assert!(results[0].1.is_ok());
        assert_eq!(results[1].1, Err(RpcError::UnknownProvider(7)));
        assert!(results[2].1.is_ok());
    }

    #[test]
    fn quorum_tolerates_crashes() {
        let cluster = echo_cluster(4);
        cluster.set_failure(2, FailureMode::Crashed);
        let reqs = (0..4).map(|i| (i, vec![9])).collect();
        let got = cluster.call_quorum(reqs, 2).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(p, _)| *p != 2));
    }

    #[test]
    fn quorum_unreachable_when_too_many_crash() {
        let cluster = echo_cluster(3);
        cluster.set_failure(0, FailureMode::Crashed);
        cluster.set_failure(1, FailureMode::Crashed);
        let reqs = (0..3).map(|i| (i, vec![])).collect();
        assert_eq!(
            cluster.call_quorum(reqs, 2),
            Err(RpcError::QuorumUnreachable { needed: 2, got: 1 })
        );
    }

    #[test]
    fn first_k_wins_ignores_a_slow_straggler() {
        let cluster = echo_cluster(5);
        cluster.set_latency_for(4, Duration::from_millis(120));
        let reqs = (0..5).map(|i| (i, vec![7])).collect();
        let start = Instant::now();
        let got = cluster.call_quorum(reqs, 3).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(p, _)| *p != 4), "straggler not awaited");
        assert!(
            elapsed < Duration::from_millis(100),
            "first-k-wins returned in {elapsed:?}, must beat the straggler"
        );
    }

    #[test]
    fn hedged_extra_responses_are_returned_when_available() {
        let cluster = echo_cluster(4);
        let opts = QuorumOptions {
            extra: 1,
            hedge: 1,
            ..Default::default()
        };
        let reqs = (0..4).map(|i| (i, vec![1])).collect();
        let got = cluster.call_quorum_opts(reqs, 2, &opts).unwrap();
        assert_eq!(got.len(), 3, "need + extra responses collected");
    }

    #[test]
    fn quorum_succeeds_with_need_when_extra_is_unavailable() {
        let cluster = echo_cluster(3);
        cluster.set_failure(2, FailureMode::Crashed);
        let opts = QuorumOptions {
            extra: 1,
            hedge: 2,
            ..Default::default()
        };
        let reqs = (0..3).map(|i| (i, vec![1])).collect();
        let got = cluster.call_quorum_opts(reqs, 2, &opts).unwrap();
        assert_eq!(got.len(), 2, "extra is best-effort, need is the floor");
    }

    #[test]
    fn validator_rejections_do_not_count_toward_quorum() {
        let cluster = echo_cluster(3);
        let reject_p0 = |p: ProviderId, _resp: &[u8]| {
            if p == 0 {
                Err("untrusted share".to_string())
            } else {
                Ok(())
            }
        };
        let opts = QuorumOptions {
            hedge: usize::MAX,
            validate: Some(&reject_p0),
            ..Default::default()
        };
        let reqs: Vec<_> = (0..3).map(|i| (i, vec![1])).collect();
        let got = cluster.call_quorum_opts(reqs.clone(), 2, &opts).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(p, _)| *p != 0));

        let err = cluster.call_quorum_opts(reqs, 3, &opts).unwrap_err();
        assert_eq!(err.needed, 3);
        assert_eq!(err.got, 2);
        assert!(err.per_provider.iter().any(|(p, o)| {
            *p == 0 && matches!(o, ProviderOutcome::Rejected { reason, .. } if reason == "untrusted share")
        }));
    }

    #[test]
    fn retry_heals_an_omitting_provider() {
        let cluster = echo_cluster(1);
        cluster.set_failure(0, FailureMode::Omission(0.7));
        let policy = RetryPolicy {
            max_attempts: 30,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            per_attempt_timeout: Some(Duration::from_millis(25)),
            jitter_seed: 7,
        };
        let resp = cluster
            .call_with_retry(0, b"hi".to_vec(), &policy)
            .expect("retries ride out omission faults");
        assert_eq!(resp, b"\x00hi");
        assert_eq!(cluster.stats().snapshot().round_trips, 1);
    }

    #[test]
    fn quorum_retries_heal_omission_faults() {
        let cluster = echo_cluster(3);
        cluster.set_failure(1, FailureMode::Omission(0.9));
        let opts = QuorumOptions {
            retry: RetryPolicy {
                max_attempts: 40,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                per_attempt_timeout: Some(Duration::from_millis(20)),
                jitter_seed: 3,
            },
            mode: QuorumMode::All,
            ..Default::default()
        };
        let reqs = (0..3).map(|i| (i, vec![5])).collect();
        let got = cluster.call_quorum_opts(reqs, 3, &opts).unwrap();
        assert_eq!(got.len(), 3, "omitting provider healed by retries");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let mut cluster = mirror_cluster(
            2,
            Duration::from_millis(50),
            BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(80),
            },
        );
        cluster.set_failure(0, FailureMode::Crashed);
        assert!(cluster.call(0, vec![1]).is_err());
        assert!(cluster.call(0, vec![1]).is_err());
        assert_eq!(
            cluster.health().breaker_state(0),
            crate::resilience::BreakerState::Open
        );

        // FirstK quorum skips the sick provider entirely.
        let reqs: Vec<_> = (0..2).map(|i| (i, vec![2])).collect();
        let opts = QuorumOptions {
            hedge: usize::MAX,
            ..Default::default()
        };
        let start = Instant::now();
        let got = cluster.call_quorum_opts(reqs.clone(), 1, &opts).unwrap();
        assert_eq!(got, vec![(1, vec![2])]);
        assert!(
            start.elapsed() < Duration::from_millis(40),
            "open breaker must not cost a timeout"
        );

        // After healing + cooldown, a half-open probe re-admits it.
        cluster.set_failure(0, FailureMode::Healthy);
        std::thread::sleep(Duration::from_millis(100));
        let got = cluster.call_quorum_opts(reqs, 2, &opts).unwrap();
        assert_eq!(got.len(), 2, "probe re-admits the healed provider");
        assert_eq!(
            cluster.health().breaker_state(0),
            crate::resilience::BreakerState::Closed
        );
        cluster.shutdown();
    }

    #[test]
    fn open_breaker_is_force_included_when_quorum_requires_it() {
        let cluster = mirror_cluster(
            2,
            Duration::from_millis(50),
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(3600),
            },
        );
        cluster.set_failure(0, FailureMode::Crashed);
        assert!(cluster.call(0, vec![1]).is_err());
        cluster.set_failure(0, FailureMode::Healthy);
        // Breaker on 0 is open with an hour of cooldown left, but a
        // quorum of 2 of 2 cannot be met without it.
        let reqs: Vec<_> = (0..2).map(|i| (i, vec![3])).collect();
        let got = cluster
            .call_quorum_opts(reqs, 2, &QuorumOptions::default())
            .unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn shutdown_makes_subsequent_calls_fail_fast() {
        let mut cluster = echo_cluster(2);
        assert!(cluster.call(0, vec![1]).is_ok());
        cluster.shutdown();
        cluster.shutdown(); // idempotent
        let start = Instant::now();
        assert_eq!(cluster.call(0, vec![1]), Err(RpcError::Closed));
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "no timeout wait"
        );
        let results = cluster.call_many(vec![(0, vec![1]), (1, vec![2])]);
        assert!(results.iter().all(|(_, r)| *r == Err(RpcError::Closed)));
        let err = cluster
            .call_quorum((0..2).map(|i| (i, vec![])).collect(), 1)
            .unwrap_err();
        assert_eq!(err, RpcError::QuorumUnreachable { needed: 1, got: 0 });
    }

    #[test]
    fn byzantine_mode_corrupts_responses() {
        let cluster = echo_cluster(1);
        cluster.set_failure(0, FailureMode::Byzantine(1.0));
        let mut corrupted = 0;
        for _ in 0..20 {
            let resp = cluster.call(0, b"abc".to_vec()).unwrap();
            if resp != b"\x00abc" {
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 20, "p=1.0 must corrupt every response");
    }

    #[test]
    fn omission_mode_drops_some() {
        let cluster = echo_cluster(1);
        cluster.set_failure(0, FailureMode::Omission(1.0));
        assert_eq!(cluster.call(0, vec![1]), Err(RpcError::Timeout(0)));
        cluster.set_failure(0, FailureMode::Omission(0.0));
        assert!(cluster.call(0, vec![1]).is_ok());
    }

    #[test]
    fn traffic_is_metered() {
        let cluster = echo_cluster(2);
        cluster.call(0, vec![0u8; 100]).unwrap();
        let snap = cluster.stats().snapshot();
        assert_eq!(snap.bytes_sent, 100);
        assert_eq!(snap.bytes_received, 101);
        assert_eq!(snap.messages_sent, 1);
    }

    #[test]
    fn injected_latency_slows_calls_and_parallel_fanout_shares_it() {
        let cluster = echo_cluster(3);
        cluster.set_latency(Duration::from_millis(30));
        let start = std::time::Instant::now();
        cluster.call(0, vec![1]).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "serial call delayed"
        );
        // Fan-out to all three in parallel: latency is paid once, not 3×.
        let start = std::time::Instant::now();
        let results = cluster.call_many((0..3).map(|p| (p, vec![2])).collect());
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(30));
        assert!(
            elapsed < Duration::from_millis(85),
            "parallel fan-out took {elapsed:?}; latency must not serialize"
        );
        // Three requests to one single-worker provider overlap too: the
        // delay is a link delay and holds no provider thread.
        let start = std::time::Instant::now();
        let results = cluster.call_many((0..3).map(|i| (0, vec![i])).collect());
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(85),
            "three requests to one provider took {elapsed:?}; the delay must not queue them"
        );
        cluster.set_latency(Duration::ZERO);
        let start = std::time::Instant::now();
        cluster.call(0, vec![3]).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(25),
            "latency cleared"
        );
    }

    #[test]
    fn health_snapshot_reflects_call_outcomes() {
        let cluster = echo_cluster(2);
        cluster.call(0, vec![1]).unwrap();
        cluster.set_failure(1, FailureMode::Crashed);
        let _ = cluster.call(1, vec![1]);
        let snap = cluster.health().snapshot();
        assert_eq!(snap.providers[0].total_successes, 1);
        assert!(snap.providers[0].ewma_latency.is_some());
        assert_eq!(snap.providers[1].total_failures, 1);
    }

    /// One provider whose per-request sleep is the first request byte
    /// (in milliseconds), echoing the request back.
    fn sleepy_shared_provider() -> Arc<dyn SharedService> {
        Arc::new(|req: &[u8]| {
            let ms = u64::from(req.first().copied().unwrap_or(0));
            std::thread::sleep(Duration::from_millis(ms));
            req.to_vec()
        })
    }

    #[test]
    fn default_workers_is_bounded() {
        let w = Cluster::default_workers();
        assert!((1..=4).contains(&w), "default workers {w}");
    }

    #[test]
    fn worker_pool_overlaps_slow_and_fast_requests() {
        // Two workers: a 60 ms request must not serialize behind-queued
        // fast requests; responses multiplex back by token, out of order.
        let cluster =
            Cluster::spawn_concurrent(vec![sleepy_shared_provider()], Duration::from_secs(2), 2);
        let start = Instant::now();
        let results = cluster.call_many(vec![(0, vec![60, 1]), (0, vec![20, 2]), (0, vec![20, 3])]);
        let elapsed = start.elapsed();
        // Every request got its own reply despite the shared channel.
        assert_eq!(results.len(), 3);
        for (i, expect) in [vec![60u8, 1], vec![20, 2], vec![20, 3]].iter().enumerate() {
            assert_eq!(results[i].1.as_ref().unwrap(), expect, "slot {i}");
        }
        // Compare against a serial replay rather than a wall-clock bound,
        // so the assertion holds on loaded machines too: one worker pays
        // the 60 ms sleep plus both 20 ms requests end to end (~100 ms),
        // while two workers overlap them inside the 60 ms (~40 ms of
        // slack, enough that scheduler jitter cannot flip the verdict).
        let serial = {
            let cluster = Cluster::spawn_concurrent(
                vec![sleepy_shared_provider()],
                Duration::from_secs(2),
                1,
            );
            let start = Instant::now();
            let results =
                cluster.call_many(vec![(0, vec![60, 1]), (0, vec![20, 2]), (0, vec![20, 3])]);
            assert!(results.iter().all(|(_, r)| r.is_ok()));
            start.elapsed()
        };
        assert!(
            elapsed < serial,
            "2-worker pool ({elapsed:?}) must beat the serial provider ({serial:?})"
        );
    }

    #[test]
    fn worker_pool_preserves_failure_switch_semantics() {
        let cluster =
            Cluster::spawn_concurrent(vec![sleepy_shared_provider()], Duration::from_millis(80), 4);
        cluster.set_failure(0, FailureMode::Crashed);
        assert_eq!(cluster.call(0, vec![0]), Err(RpcError::Timeout(0)));
        cluster.set_failure(0, FailureMode::Healthy);
        assert_eq!(cluster.call(0, vec![0, 9]).unwrap(), vec![0, 9]);
    }

    #[test]
    fn concurrent_cluster_shutdown_joins_all_workers() {
        let mut cluster = Cluster::spawn_concurrent(
            vec![sleepy_shared_provider()],
            Duration::from_millis(200),
            3,
        );
        assert!(cluster.call(0, vec![1]).is_ok());
        cluster.shutdown();
        cluster.shutdown(); // idempotent
        assert_eq!(cluster.call(0, vec![1]), Err(RpcError::Closed));
    }

    #[test]
    fn stateful_service_keeps_state_across_calls() {
        struct Counter(Mutex<u64>);
        impl SharedService for Counter {
            fn handle(&self, _req: &[u8]) -> Vec<u8> {
                let mut n = self.0.lock();
                *n += 1;
                n.to_le_bytes().to_vec()
            }
        }
        let cluster = Cluster::spawn_concurrent(
            vec![Arc::new(Counter(Mutex::new(0)))],
            Duration::from_millis(200),
            1,
        );
        cluster.call(0, vec![]).unwrap();
        let second = cluster.call(0, vec![]).unwrap();
        assert_eq!(u64::from_le_bytes(second.try_into().unwrap()), 2);
    }
}
