//! Transport equivalence: the resilience stack — first-k-wins quorum,
//! hedged reads, retries, circuit breakers, failure injection — must
//! behave identically whether providers are in-process services behind
//! channels or remote processes behind real TCP sockets.
//!
//! This is the tentpole's core acceptance test: every scenario below
//! runs twice, once per transport, through the *same* cluster code with
//! zero `resilience.rs` changes, and asserts the same observable
//! outcome.

use dasp_net::{
    BreakerConfig, BreakerState, Cluster, FailureMode, QuorumMode, QuorumOptions, ReactorConfig,
    RetryPolicy, RpcError, SharedService, TcpClient, TcpClientConfig, TcpServer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    Channel,
    Tcp,
    /// TCP with a 1 ms client-side coalescing window: requests ride in
    /// multi-query batch frames. Same resilience semantics required.
    TcpBatched,
    /// A blocking `TcpClient` served from an in-process worker pool —
    /// the shape for wrapping each remote call, e.g. to time it.
    TcpPooled,
}

const TRANSPORTS: [Transport; 3] = [Transport::Channel, Transport::Tcp, Transport::TcpBatched];

/// Deterministic service: response = [provider tag, request bytes...].
struct TaggedEcho(u8);

impl SharedService for TaggedEcho {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.push(self.0);
        out.extend_from_slice(request);
        out
    }
}

/// A cluster of `n` tagged echo providers on the given transport. The
/// TCP servers ride along so they outlive the cluster.
struct Fixture {
    cluster: Cluster,
    _servers: Vec<TcpServer>,
}

fn fixture(transport: Transport, n: usize, timeout: Duration, breaker: BreakerConfig) -> Fixture {
    let servers: Vec<TcpServer> = match transport {
        Transport::Channel => Vec::new(),
        _ => (0..n)
            .map(|i| {
                TcpServer::serve(
                    "127.0.0.1:0",
                    Arc::new(TaggedEcho(i as u8)),
                    ReactorConfig::default(),
                )
                .expect("bind")
            })
            .collect(),
    };
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let tcp = |batch_window| TcpClientConfig {
        batch_window,
        ..TcpClientConfig::default()
    };
    let cluster = match transport {
        Transport::Channel => {
            let services: Vec<Arc<dyn SharedService>> = (0..n)
                .map(|i| Arc::new(TaggedEcho(i as u8)) as Arc<dyn SharedService>)
                .collect();
            Cluster::spawn_concurrent(services, timeout, 1)
        }
        Transport::Tcp => {
            Cluster::connect_tcp_with(&addrs, timeout, 1, tcp(Duration::ZERO)).expect("connect")
        }
        Transport::TcpBatched => {
            Cluster::connect_tcp_with(&addrs, timeout, 1, tcp(Duration::from_millis(1)))
                .expect("connect")
        }
        Transport::TcpPooled => {
            let cfg = TcpClientConfig {
                call_timeout: timeout.saturating_mul(2),
                error_hold: timeout.saturating_mul(2),
                ..tcp(Duration::ZERO)
            };
            let clients: Vec<Arc<dyn SharedService>> = addrs
                .iter()
                .map(|a| {
                    Arc::new(TcpClient::connect(*a, cfg.clone()).expect("dial"))
                        as Arc<dyn SharedService>
                })
                .collect();
            Cluster::spawn_concurrent(clients, timeout, 1)
        }
    };
    Fixture {
        cluster: cluster.with_breaker(breaker),
        _servers: servers,
    }
}

fn expected(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(payload);
    out
}

const TIMEOUT: Duration = Duration::from_millis(300);

#[test]
fn plain_calls_identical_on_both_transports() {
    for t in TRANSPORTS {
        let fx = fixture(t, 3, TIMEOUT, BreakerConfig::default());
        for p in 0..3 {
            let resp = fx.cluster.call(p, b"hello".to_vec()).expect("call");
            assert_eq!(resp, expected(p as u8, b"hello"), "{t:?} provider {p}");
        }
    }
}

#[test]
fn first_k_wins_quorum_identical_on_both_transports() {
    for t in TRANSPORTS {
        let fx = fixture(t, 5, TIMEOUT, BreakerConfig::default());
        // One crash: 3-of-5 still succeeds.
        fx.cluster.set_failure(0, FailureMode::Crashed);
        let reqs: Vec<_> = (0..5).map(|p| (p, b"q".to_vec())).collect();
        let got = fx.cluster.call_quorum(reqs.clone(), 3).expect("quorum");
        assert!(got.len() >= 3, "{t:?}: {} responses", got.len());
        assert!(
            got.iter().all(|(p, r)| *r == expected(*p as u8, b"q")),
            "{t:?}: wrong quorum payloads"
        );
        assert!(
            got.iter().all(|(p, _)| *p != 0),
            "{t:?}: crashed provider responded"
        );
        // Three crashes: 3-of-5 with 2 alive must fail on both.
        fx.cluster.set_failure(1, FailureMode::Crashed);
        fx.cluster.set_failure(2, FailureMode::Crashed);
        let err = fx.cluster.call_quorum(reqs, 3).expect_err("unreachable");
        assert!(
            matches!(
                err,
                RpcError::QuorumUnreachable {
                    got: 2,
                    needed: 3,
                    ..
                }
            ),
            "{t:?}: {err:?}"
        );
    }
}

#[test]
fn hedged_reads_race_stragglers_on_both_transports() {
    for t in TRANSPORTS {
        let fx = fixture(t, 4, TIMEOUT, BreakerConfig::default());
        // Provider 0 is a straggler; a hedge launched up front must win
        // well before 0's injected delay, on either transport.
        fx.cluster.set_latency_for(0, Duration::from_millis(150));
        let opts = QuorumOptions {
            retry: RetryPolicy::none(),
            hedge: 2,
            extra: 0,
            mode: QuorumMode::FirstK,
            validate: None,
        };
        let reqs: Vec<_> = (0..4).map(|p| (p, b"h".to_vec())).collect();
        let start = Instant::now();
        let got = fx.cluster.call_quorum_opts(reqs, 2, &opts).expect("quorum");
        let elapsed = start.elapsed();
        assert!(got.len() >= 2, "{t:?}");
        assert!(
            elapsed < Duration::from_millis(100),
            "{t:?}: hedged read took {elapsed:?}, straggler not masked"
        );
    }
}

#[test]
fn circuit_breaker_opens_identically_on_both_transports() {
    let breaker = BreakerConfig {
        failure_threshold: 3,
        cooldown: Duration::from_secs(30),
    };
    let short = Duration::from_millis(80);
    for t in TRANSPORTS {
        let fx = fixture(t, 3, short, breaker);
        fx.cluster.set_failure(2, FailureMode::Crashed);
        for _ in 0..3 {
            let err = fx.cluster.call(2, b"x".to_vec()).expect_err("crashed");
            assert!(matches!(err, RpcError::Timeout(2)), "{t:?}: {err:?}");
        }
        let snap = fx.cluster.health().snapshot();
        assert_eq!(snap.providers[2].state, BreakerState::Open, "{t:?}");
        assert_eq!(snap.providers[0].state, BreakerState::Closed, "{t:?}");
        assert_eq!(snap.providers[1].state, BreakerState::Closed, "{t:?}");
        // Healthy providers keep serving while 2's breaker is open.
        assert_eq!(
            fx.cluster.call(0, b"y".to_vec()).expect("healthy"),
            expected(0, b"y"),
            "{t:?}"
        );
    }
}

#[test]
fn retries_heal_omission_identically_on_both_transports() {
    let policy = RetryPolicy {
        max_attempts: 30,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        per_attempt_timeout: Some(Duration::from_millis(25)),
        jitter_seed: 7,
    };
    for t in TRANSPORTS {
        let fx = fixture(t, 2, TIMEOUT, BreakerConfig::default());
        fx.cluster.set_failure(1, FailureMode::Omission(0.8));
        // Same seed → same per-provider RNG stream → the same attempts
        // drop on every transport; retries recover within the schedule.
        let resp = fx
            .cluster
            .call_with_retry(1, b"r".to_vec(), &policy)
            .expect("retries heal omission");
        assert_eq!(resp, expected(1, b"r"), "{t:?}");
    }
}

#[test]
fn byzantine_injection_sits_above_the_socket_on_both_transports() {
    // Byzantine corruption is injected at the cluster's dispatch step,
    // when the (possibly remote) service's reply is received — so a
    // validate hook sees and rejects the same corruption on either
    // transport.
    for t in TRANSPORTS {
        let fx = fixture(t, 3, TIMEOUT, BreakerConfig::default());
        fx.cluster.set_failure(0, FailureMode::Byzantine(1.0));
        let validate = |p: usize, r: &[u8]| {
            if r == expected(p as u8, b"b").as_slice() {
                Ok(())
            } else {
                Err("corrupt share".to_string())
            }
        };
        let opts = QuorumOptions {
            retry: RetryPolicy::none(),
            hedge: usize::MAX,
            extra: 0,
            mode: QuorumMode::FirstK,
            validate: Some(&validate),
        };
        let reqs: Vec<_> = (0..3).map(|p| (p, b"b".to_vec())).collect();
        let got = fx.cluster.call_quorum_opts(reqs, 2, &opts).expect("quorum");
        assert!(got.len() >= 2, "{t:?}");
        assert!(
            got.iter().all(|(p, r)| *r == expected(*p as u8, b"b")),
            "{t:?}: corrupt response passed validation"
        );
    }
}

#[test]
fn query_many_positions_identical_with_batching_on_and_off() {
    // Full client stack over real providers: the same secret-shared
    // deployment (same key seed, same rows, same client RNG seed) is
    // stood up twice — once with the coalescing window off, once with a
    // 1 ms window — and `query_many` must return position-identical
    // decoded rows. Batching may only change wire shape, never results.
    use dasp_client::{ColumnSpec, DataSource, Predicate, TableSchema, Value};
    use dasp_core::client::ClientKeys;
    use dasp_server::service::tcp_provider_fleet;
    use dasp_sss::ShareMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (k, n) = (2usize, 4usize);
    let rows: Vec<Vec<Value>> = (0..120u64)
        .map(|i| vec![Value::Int(i % 12), Value::Int(i * 31 % (1 << 16))])
        .collect();
    let mut outcomes = Vec::new();
    let mut fleets = Vec::new(); // keep servers alive until both queries ran
    for window_us in [0u64, 1000] {
        let mut rng = StdRng::seed_from_u64(4242);
        let keys = ClientKeys::generate(k, n, &mut rng).unwrap();
        let (servers, addrs) = tcp_provider_fleet(n, ReactorConfig::default()).expect("bind fleet");
        fleets.push(servers);
        let cluster = Cluster::connect_tcp_with(
            &addrs,
            Duration::from_secs(2),
            1,
            TcpClientConfig {
                batch_window: Duration::from_micros(window_us),
                ..TcpClientConfig::default()
            },
        )
        .expect("connect");
        let mut ds = DataSource::with_seed(keys, cluster, 99).unwrap();
        ds.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnSpec::numeric("k", 1 << 16, ShareMode::Deterministic),
                    ColumnSpec::numeric("v", 1 << 20, ShareMode::OrderPreserving),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        ds.insert("t", &rows).unwrap();
        let predicates: Vec<Vec<Predicate>> = (0..9u64)
            .map(|i| vec![Predicate::eq("k", i % 12)])
            .collect();
        outcomes.push(ds.query_many("t", &predicates).expect("query_many"));
    }
    let (off, on) = (&outcomes[0], &outcomes[1]);
    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(on).enumerate() {
        assert!(!a.is_empty(), "query {i} matched nothing — weak test");
        assert_eq!(a, b, "query {i}: batching changed decoded rows");
    }
}

#[test]
fn worker_pools_multiplex_identically_on_both_transports() {
    // Out-of-order completion under a worker pool: a slow request issued
    // first must not block a fast one (token multiplexing), channel or
    // socket alike. call_many fans out concurrently on both.
    for t in TRANSPORTS {
        let fx = fixture(t, 4, Duration::from_secs(2), BreakerConfig::default());
        let reqs: Vec<_> = (0..4).map(|p| (p, vec![p as u8; 1000])).collect();
        let start = Instant::now();
        let results = fx.cluster.call_many(reqs);
        assert_eq!(results.len(), 4);
        for (p, r) in &results {
            assert_eq!(
                r.as_ref().expect("ok"),
                &expected(*p as u8, &vec![*p as u8; 1000]),
                "{t:?}"
            );
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{t:?}: fan-out serialized"
        );
    }
}

#[test]
fn injected_latency_is_a_link_delay_on_every_transport() {
    // One worker per in-process provider, three requests to provider 0:
    // the delay holds no thread, so the three overlap inside one delay
    // instead of queueing for three.
    for t in TRANSPORTS {
        let fx = fixture(t, 1, Duration::from_secs(2), BreakerConfig::default());
        fx.cluster.set_latency(Duration::from_millis(40));
        let start = Instant::now();
        let results = fx
            .cluster
            .call_many((0..3u8).map(|i| (0, vec![i])).collect());
        let elapsed = start.elapsed();
        for (i, (_, r)) in results.iter().enumerate() {
            assert_eq!(r.as_ref().expect("ok"), &expected(0, &[i as u8]), "{t:?}");
        }
        assert!(elapsed >= Duration::from_millis(40), "{t:?}: {elapsed:?}");
        assert!(
            elapsed < Duration::from_millis(80),
            "{t:?}: three delayed requests took {elapsed:?}"
        );
    }
}

#[test]
fn pooled_tcp_client_keeps_the_resilience_semantics() {
    // A TcpClient behind an in-process worker pool rides the same
    // dispatch step as the direct socket: crash, Byzantine and quorum
    // behave the same.
    let fx = fixture(Transport::TcpPooled, 3, TIMEOUT, BreakerConfig::default());
    for p in 0..3 {
        let resp = fx.cluster.call(p, b"hello".to_vec()).expect("call");
        assert_eq!(resp, expected(p as u8, b"hello"));
    }
    fx.cluster.set_failure(0, FailureMode::Crashed);
    assert_eq!(fx.cluster.call(0, b"x".to_vec()), Err(RpcError::Timeout(0)));
    fx.cluster.set_failure(1, FailureMode::Byzantine(1.0));
    let reqs: Vec<_> = (0..3).map(|p| (p, b"q".to_vec())).collect();
    // Provider 0 is down, so a 2-of-3 quorum takes 1's corrupted reply.
    let got = fx.cluster.call_quorum(reqs, 2).expect("quorum");
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].0, 1);
    assert_ne!(got[0].1, expected(1, b"q"), "Byzantine reply passed intact");
    assert_eq!(got[1], (2, expected(2, b"q")));
}

#[test]
fn shutdown_closes_every_transport() {
    for t in [
        Transport::Channel,
        Transport::Tcp,
        Transport::TcpBatched,
        Transport::TcpPooled,
    ] {
        let mut fx = fixture(t, 2, TIMEOUT, BreakerConfig::default());
        assert!(fx.cluster.call(0, b"up".to_vec()).is_ok(), "{t:?}");
        fx.cluster.shutdown();
        let start = Instant::now();
        assert_eq!(
            fx.cluster.call(0, b"x".to_vec()),
            Err(RpcError::Closed),
            "{t:?}"
        );
        let all = fx
            .cluster
            .call_many((0..2).map(|p| (p, b"y".to_vec())).collect());
        assert!(
            all.iter().all(|(_, r)| *r == Err(RpcError::Closed)),
            "{t:?}"
        );
        assert!(start.elapsed() < TIMEOUT, "{t:?}: closed calls waited");
    }
}

#[test]
fn client_starts_with_one_provider_down_and_uses_it_once_up() {
    // k = 2 of n = 3 and the third address has no listener yet: the
    // client still connects, and once a provider binds that address the
    // whole stack — writes to every provider included — works.
    use dasp_client::{ColumnSpec, DataSource, Predicate, TableSchema, Value};
    use dasp_core::client::ClientKeys;
    use dasp_server::service::{serve_provider_tcp, tcp_provider_fleet};
    use dasp_sss::ShareMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (_servers, mut addrs) = tcp_provider_fleet(2, ReactorConfig::default()).expect("bind");
    let down = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("probe port");
    addrs.push(down);
    let keys = ClientKeys::generate(2, 3, &mut StdRng::seed_from_u64(5)).unwrap();
    let mut ds = DataSource::connect_tcp_with(
        keys,
        &addrs,
        Duration::from_millis(300),
        1,
        TcpClientConfig::default(),
    )
    .expect("a provider being down must not stop the client");
    let mut revived = None;
    for _ in 0..50 {
        match serve_provider_tcp(&down.to_string(), ReactorConfig::default()) {
            Ok(s) => {
                revived = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let _revived = revived.expect("bind the down provider's address");
    let schema = TableSchema::new(
        "t",
        vec![ColumnSpec::numeric("k", 1 << 16, ShareMode::Deterministic)],
    )
    .unwrap();
    ds.create_table(schema).expect("create on all three");
    let rows: Vec<Vec<Value>> = (0..20u64).map(|i| vec![Value::Int(i % 5)]).collect();
    ds.insert("t", &rows).expect("insert on all three");
    assert_eq!(
        ds.select("t", &[Predicate::eq("k", 3u64)]).unwrap().len(),
        4
    );
}
