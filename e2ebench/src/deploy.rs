//! The deployment every workload runs on: n durable providers served
//! over loopback TCP in this process, and one `DataSource` per client
//! thread, each with its own keys and its own bulk-loaded table.

use crate::model::{gen_rows, Model, Row, KEY_DOMAIN, NAME_WIDTH, SALARY_DOMAIN, SSN_DOMAIN};
use crate::trace::{table_name, Recorder, TimedCall, TimedProvider};
use dasp_client::{ClientKeys, ColumnSpec, DataSource, TableSchema, Value};
use dasp_net::{Cluster, ReactorConfig, SharedService, TcpClient, TcpClientConfig, TcpServer};
use dasp_server::service::serve_shared_provider_tcp;
use dasp_server::{DurableConfig, ProviderService};
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threshold.
pub const K: usize = 2;
/// Providers.
pub const N: usize = 3;
/// Rows per bulk-load `insert`.
pub const LOAD_BATCH: usize = 1000;
/// Cluster per-attempt timeout.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// What to deploy.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Client threads (one table each).
    pub clients: usize,
    /// Rows per table.
    pub rows: u64,
    /// Workload seed.
    pub seed: u64,
    /// Parent directory for provider state.
    pub data_dir: PathBuf,
}

/// The transport settings every client uses: no request coalescing,
/// whatever the environment says.
pub fn client_config() -> TcpClientConfig {
    TcpClientConfig {
        batch_window: Duration::ZERO,
        ..TcpClientConfig::default()
    }
}

/// One running provider.
pub struct Provider {
    pub service: Arc<ProviderService>,
    pub server: TcpServer,
}

/// A running deployment.
pub struct Deployment {
    pub providers: Vec<Provider>,
    pub clients: Vec<DataSource>,
    pub models: Vec<Model>,
    pub recorder: Option<Arc<Recorder>>,
    /// Wall time of provider spawn, table creation and bulk load.
    pub setup_s: f64,
    dir: PathBuf,
}

fn schema(client: usize) -> Result<TableSchema, String> {
    TableSchema::new(
        &table_name(client),
        vec![
            ColumnSpec::numeric("key", KEY_DOMAIN, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", SALARY_DOMAIN, ShareMode::OrderPreserving),
            ColumnSpec::text("name", NAME_WIDTH, ShareMode::Deterministic),
            ColumnSpec::numeric("ssn", SSN_DOMAIN, ShareMode::Random),
        ],
    )
    .map_err(|e| format!("schema: {e}"))
}

/// Seed of client `c`'s rows, keys and op stream.
pub fn client_seed(seed: u64, client: usize, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((client as u64) << 32) ^ stream
}

fn connect(
    keys: ClientKeys,
    addrs: &[std::net::SocketAddr],
    client: usize,
    recorder: Option<&Arc<Recorder>>,
) -> Result<DataSource, String> {
    let workers = Cluster::default_workers();
    let Some(rec) = recorder else {
        return DataSource::connect_tcp_with(keys, addrs, TIMEOUT, workers, client_config())
            .map_err(|e| format!("connect: {e}"));
    };
    // The same cluster `connect_tcp_with` builds, with each provider's
    // TcpClient behind a timing wrapper.
    let cfg = TcpClientConfig {
        error_hold: TIMEOUT.saturating_mul(2),
        call_timeout: TIMEOUT.saturating_mul(2),
        ..client_config()
    };
    let mut services: Vec<Arc<dyn SharedService>> = Vec::with_capacity(addrs.len());
    for (p, addr) in addrs.iter().enumerate() {
        let tcp = TcpClient::connect(*addr, cfg.clone()).map_err(|e| format!("connect: {e}"))?;
        services.push(Arc::new(TimedCall::new(tcp, client, p, Arc::clone(rec))));
    }
    let cluster = Cluster::spawn_concurrent(services, TIMEOUT, workers);
    DataSource::new(keys, cluster).map_err(|e| format!("client: {e}"))
}

fn load(ds: &mut DataSource, client: usize, rows: &[Row]) -> Result<(), String> {
    ds.create_table(schema(client)?)
        .map_err(|e| format!("create table: {e}"))?;
    for chunk in rows.chunks(LOAD_BATCH) {
        let values: Vec<Vec<Value>> = chunk.iter().map(Row::values).collect();
        let ids = ds
            .insert(&table_name(client), &values)
            .map_err(|e| format!("bulk insert: {e}"))?;
        if ids.len() != chunk.len() {
            return Err(format!(
                "bulk insert stored {} of {} rows",
                ids.len(),
                chunk.len()
            ));
        }
    }
    Ok(())
}

impl Deployment {
    /// Spawn providers in a fresh directory under `plan.data_dir`, connect
    /// the clients and bulk-load their tables. `tag` names the directory.
    pub fn up(plan: &Plan, tag: &str, traced: bool) -> Result<Self, String> {
        let dir = plan
            .data_dir
            .join(format!("run-{}-{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let recorder = traced.then(|| Arc::new(Recorder::new(N, plan.clients)));
        let tables: Vec<Vec<Row>> = (0..plan.clients)
            .map(|c| gen_rows(client_seed(plan.seed, c, 1), plan.rows))
            .collect();
        let keys: Vec<ClientKeys> = (0..plan.clients)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(client_seed(plan.seed, c, 2));
                ClientKeys::generate(K, N, &mut rng).map_err(|e| format!("keys: {e}"))
            })
            .collect::<Result<_, _>>()?;

        let started = Instant::now();
        let mut providers = Vec::with_capacity(N);
        for p in 0..N {
            let (service, _) =
                ProviderService::durable(&dir.join(format!("p{p}")), DurableConfig::default())
                    .map_err(|e| format!("provider {p}: {e}"))?;
            let service = Arc::new(service);
            let served: Arc<dyn SharedService> = match &recorder {
                Some(rec) => Arc::new(TimedProvider {
                    inner: Arc::clone(&service),
                    provider: p,
                    rec: Arc::clone(rec),
                }),
                None => Arc::clone(&service) as Arc<dyn SharedService>,
            };
            let server = serve_shared_provider_tcp("127.0.0.1:0", served, ReactorConfig::default())
                .map_err(|e| format!("serve provider {p}: {e}"))?;
            providers.push(Provider { service, server });
        }
        let addrs: Vec<_> = providers.iter().map(|p| p.server.local_addr()).collect();
        let clients = std::thread::scope(|s| {
            let handles: Vec<_> = keys
                .into_iter()
                .zip(&tables)
                .enumerate()
                .map(|(c, (keys, rows))| {
                    let addrs = &addrs;
                    let recorder = recorder.as_ref();
                    s.spawn(move || -> Result<DataSource, String> {
                        let mut ds = connect(keys, addrs, c, recorder)?;
                        load(&mut ds, c, rows)?;
                        Ok(ds)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "loader thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?;
        let setup_s = started.elapsed().as_secs_f64();
        Ok(Deployment {
            providers,
            clients,
            models: tables.into_iter().map(Model::new).collect(),
            recorder,
            setup_s,
            dir,
        })
    }

    /// Stop clients and providers and delete the provider directories.
    pub fn down(self) -> Result<(), String> {
        let Deployment {
            providers,
            clients,
            dir,
            ..
        } = self;
        drop(clients);
        for mut p in providers {
            p.server.shutdown();
        }
        remove_dir(&dir)
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(())
}
