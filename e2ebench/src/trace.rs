//! Outside-in tracing: spans recorded around calls into each layer's
//! public functions, never inside the program.
//!
//! * [`TimedCall`] wraps one provider's `TcpClient` on the client side
//!   (a `SharedService` the cluster workers call): a *call* span covers
//!   quorum worker → socket → reactor → server worker → reply.
//! * [`TimedProvider`] wraps `ProviderService` before it is served: an
//!   *exec* span covers decode, engine execution and encode (writes: WAL
//!   append, commit wait and publish too).
//! * The client thread records an *op* span around each `DataSource` call.
//!
//! Exec spans are matched to call spans by (client, provider), request
//! digest and time containment; the client is read from the table the
//! decoded request names. [`analyze`] turns the spans into per-layer
//! metrics and the blocking-path split of each op.

use crate::model::Kind;
use crate::stats::{Samples, P50, P99};
use dasp_net::{SharedService, TcpClient};
use dasp_server::{ProviderService, Request};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Name of client `c`'s table; [`client_of_table`] inverts it.
pub fn table_name(client: usize) -> String {
    format!("bench_c{client}")
}

/// The client owning `table`, if it is a benchmark table.
pub fn client_of_table(table: &str) -> Option<usize> {
    table.strip_prefix("bench_c")?.parse().ok()
}

/// 64-bit FNV-1a digest of a request payload.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (target table, is-write) of an encoded request.
fn classify(payload: &[u8]) -> (Option<String>, bool) {
    let Ok(req) = Request::decode(payload) else {
        return (None, false);
    };
    match req {
        Request::CreateTable { name, .. } => (Some(name), true),
        Request::Insert { table, .. }
        | Request::Delete { table, .. }
        | Request::Update { table, .. }
        | Request::Increment { table, .. }
        | Request::Commit { table, .. } => (Some(table), true),
        Request::Query { table, .. }
        | Request::QueryOrdered { table, .. }
        | Request::GroupedAggregate { table, .. }
        | Request::VerifiedRange { table, .. } => (Some(table), false),
        Request::DropAllTables => (None, true),
        _ => (None, false),
    }
}

/// A client-side provider call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSpan {
    pub client: usize,
    pub provider: usize,
    /// The op in flight on the client when the call started.
    pub op: u64,
    pub start: u64,
    pub end: u64,
    pub write: bool,
    pub digest: u64,
}

/// A server-side execution of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpan {
    pub provider: usize,
    pub client: Option<usize>,
    pub start: u64,
    pub end: u64,
    pub write: bool,
    pub digest: u64,
}

/// One `DataSource` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    pub client: usize,
    pub op: u64,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Request + reply bytes the client's cluster metered during the op.
    pub bytes: u64,
    /// Requests the quorum engine sent during the op.
    pub sent: u64,
    /// Replies the quorum engine consumed during the op.
    pub replies: u64,
}

/// WAL counters accumulated across checkpoint generations: a checkpoint
/// resets the log's record and byte counters, so a drop marks one.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalTrack {
    last_records: u64,
    last_bytes: u64,
    pub records: u64,
    pub bytes: u64,
    pub checkpoints: u64,
}

impl WalTrack {
    fn observe(&mut self, records: u64, bytes: u64) {
        if records < self.last_records {
            self.checkpoints += 1;
            self.records += records;
            self.bytes += bytes;
        } else {
            self.records += records - self.last_records;
            self.bytes += bytes.saturating_sub(self.last_bytes);
        }
        self.last_records = records;
        self.last_bytes = bytes;
    }
}

/// In-memory span store shared by every wrapper of one deployment.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    calls: Mutex<Vec<CallSpan>>,
    execs: Mutex<Vec<ExecSpan>>,
    ops: Mutex<Vec<OpSpan>>,
    wal: Vec<Mutex<WalTrack>>,
    /// Per client: the op id currently in flight.
    current: Vec<Arc<AtomicU64>>,
}

impl Recorder {
    /// A stopped recorder for `providers` providers and `clients` clients.
    pub fn new(providers: usize, clients: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
            execs: Mutex::new(Vec::new()),
            ops: Mutex::new(Vec::new()),
            wal: (0..providers).map(|_| Mutex::default()).collect(),
            current: (0..clients).map(|_| Arc::default()).collect(),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start or stop recording.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Mark `op` as client `client`'s op in flight.
    pub fn begin_op(&self, client: usize, op: u64) {
        if let Some(c) = self.current.get(client) {
            c.store(op, Ordering::SeqCst);
        }
    }

    /// Record a finished op.
    pub fn push_op(&self, span: OpSpan) {
        self.ops.lock().push(span);
    }

    /// Feed provider `p`'s WAL counters into its tracker.
    pub fn observe_wal(&self, p: usize, engine: &ProviderService) {
        if let (Some(track), Some(s)) = (self.wal.get(p), engine.engine().wal_stats()) {
            track.lock().observe(s.records, s.durable_bytes);
        }
    }

    /// Zero the WAL trackers' accumulators at the start of a window.
    pub fn reset_wal(&self, providers: &[Arc<ProviderService>]) {
        for (p, svc) in providers.iter().enumerate() {
            self.observe_wal(p, svc);
            if let Some(track) = self.wal.get(p) {
                let mut t = track.lock();
                *t = WalTrack {
                    last_records: t.last_records,
                    last_bytes: t.last_bytes,
                    ..WalTrack::default()
                };
            }
        }
    }

    /// Take every recorded span.
    pub fn drain(&self) -> Spans {
        Spans {
            ops: std::mem::take(&mut *self.ops.lock()),
            calls: std::mem::take(&mut *self.calls.lock()),
            execs: std::mem::take(&mut *self.execs.lock()),
            wal: self.wal.iter().map(|t| *t.lock()).collect(),
        }
    }
}

/// Everything one traced window recorded.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    pub ops: Vec<OpSpan>,
    pub calls: Vec<CallSpan>,
    pub execs: Vec<ExecSpan>,
    pub wal: Vec<WalTrack>,
}

/// Client-side timing wrapper around one provider's `TcpClient`.
pub struct TimedCall {
    pub inner: TcpClient,
    pub client: usize,
    pub provider: usize,
    pub rec: Arc<Recorder>,
    pub current: Arc<AtomicU64>,
}

impl TimedCall {
    /// Wrap `inner`, attributing calls to `client`'s op in flight.
    pub fn new(inner: TcpClient, client: usize, provider: usize, rec: Arc<Recorder>) -> Self {
        let current = rec.current.get(client).cloned().unwrap_or_default();
        TimedCall {
            inner,
            client,
            provider,
            rec,
            current,
        }
    }
}

impl SharedService for TimedCall {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if !self.rec.is_on() {
            return self.inner.handle(request);
        }
        let op = self.current.load(Ordering::SeqCst);
        let start = self.rec.now();
        let reply = self.inner.handle(request);
        let end = self.rec.now();
        let (_, write) = classify(request);
        self.rec.calls.lock().push(CallSpan {
            client: self.client,
            provider: self.provider,
            op,
            start,
            end,
            write,
            digest: digest(request),
        });
        reply
    }
}

/// Server-side timing wrapper around `ProviderService`.
pub struct TimedProvider {
    pub inner: Arc<ProviderService>,
    pub provider: usize,
    pub rec: Arc<Recorder>,
}

impl SharedService for TimedProvider {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if !self.rec.is_on() {
            return SharedService::handle(&*self.inner, request);
        }
        let start = self.rec.now();
        let reply = SharedService::handle(&*self.inner, request);
        let end = self.rec.now();
        let (table, write) = classify(request);
        if write {
            self.rec.observe_wal(self.provider, &self.inner);
        }
        self.rec.execs.lock().push(ExecSpan {
            provider: self.provider,
            client: table.as_deref().and_then(client_of_table),
            start,
            end,
            write,
            digest: digest(request),
        });
        reply
    }
}

// ---- analysis ----

/// Length of the union of `spans` clipped to `[lo, hi]`.
pub fn union_len(spans: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = spans
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time: `[lo, hi]` minus the part its children cover.
pub fn self_time(lo: u64, hi: u64, children: &[(u64, u64)]) -> u64 {
    (hi - lo).saturating_sub(union_len(children, lo, hi))
}

/// Match each call to the exec span that served it: same client and
/// provider, same request digest, exec inside the call. Among several
/// candidates the earliest-started unmatched call wins (one connection
/// delivers requests in order). Returns, per call, the exec index.
pub fn match_calls(calls: &[CallSpan], execs: &[ExecSpan]) -> Vec<Option<usize>> {
    let mut by_key: HashMap<(usize, usize, u64), Vec<usize>> = HashMap::new();
    for (i, c) in calls.iter().enumerate() {
        by_key
            .entry((c.client, c.provider, c.digest))
            .or_default()
            .push(i);
    }
    for idxs in by_key.values_mut() {
        idxs.sort_by_key(|&i| calls[i].start);
    }
    let mut order: Vec<usize> = (0..execs.len()).collect();
    order.sort_by_key(|&i| execs[i].start);
    let mut matched = vec![None; calls.len()];
    for ei in order {
        let e = &execs[ei];
        let Some(client) = e.client else { continue };
        let Some(cands) = by_key.get(&(client, e.provider, e.digest)) else {
            continue;
        };
        if let Some(&ci) = cands.iter().find(|&&ci| {
            matched[ci].is_none() && calls[ci].start <= e.start && e.end <= calls[ci].end
        }) {
            matched[ci] = Some(ei);
        }
    }
    matched
}

/// One call of an op with its matched server execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    pub provider: usize,
    pub start: u64,
    pub end: u64,
    pub write: bool,
    /// Matched exec duration (0 when unmatched).
    pub exec: u64,
}

/// An op's time split along its blocking path.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PathSplit {
    pub client: u64,
    pub transport: u64,
    pub server: u64,
    /// Per read round: k-th reply's end minus the first reply's end.
    pub stragglers: Vec<u64>,
}

/// Drop calls of an earlier op from `legs`. A request the quorum engine
/// sent during one op can reach a provider only after the next op began
/// (the provider's cluster workers were busy), so it is recorded under
/// the next op. The op sent `sent` requests itself; each extra call is
/// the earliest of two same-direction calls to one provider, since a
/// provider's queue is first in, first out.
pub fn drop_stale(legs: &mut Vec<Leg>, sent: usize) {
    legs.sort_by_key(|l| l.start);
    while legs.len() > sent {
        let stale = (0..legs.len()).find(|&i| {
            legs[i + 1..]
                .iter()
                .any(|l| l.provider == legs[i].provider && l.write == legs[i].write)
        });
        match stale {
            Some(i) => {
                legs.remove(i);
            }
            None => break,
        }
    }
}

/// Split an op along its blocking path. The op's calls fall into quorum
/// rounds: a round fans one request of one direction out to each
/// provider, so a call opens the next round when its provider already
/// has a call in the current round or its direction differs. A round
/// returns once it has consumed the replies it wants; `replies` is the
/// op's total, and a shortfall against the calls made is charged to read
/// rounds (first-k-wins), first to last. The round's completing reply is
/// its `want`-th to end: its server exec goes to `server`, the rest of its
/// call span to `transport`, and the remainder of the op span to
/// `client`. The three add up to the op span.
pub fn split_op(start: u64, end: u64, legs: &[Leg], replies: u64, k: usize) -> PathSplit {
    let mut legs: Vec<Leg> = legs.to_vec();
    legs.sort_by_key(|l| l.start);
    let mut rounds: Vec<Vec<Leg>> = Vec::new();
    for leg in legs {
        match rounds.last_mut() {
            Some(r)
                if r.iter()
                    .all(|l| l.provider != leg.provider && l.write == leg.write) =>
            {
                r.push(leg)
            }
            _ => rounds.push(vec![leg]),
        }
    }
    let calls: usize = rounds.iter().map(Vec::len).sum();
    let mut shortfall = calls.saturating_sub(usize::try_from(replies).unwrap_or(calls));
    let mut out = PathSplit::default();
    let mut blocked = 0;
    for r in &mut rounds {
        r.sort_by_key(|l| l.end);
        let write = r.iter().any(|l| l.write);
        let mut want = r.len();
        if !write {
            let cut = shortfall.min(want.saturating_sub(1));
            want -= cut;
            shortfall -= cut;
            if let (Some(first), Some(kth)) = (r.first(), r.get(k.min(r.len()).max(1) - 1)) {
                out.stragglers.push(kth.end - first.end);
            }
        }
        let done = r[want - 1];
        let span = (done.end.min(end)).saturating_sub(done.start.max(start));
        let exec = done.exec.min(span);
        out.server += exec;
        out.transport += span - exec;
        blocked += span;
    }
    out.client = (end - start).saturating_sub(blocked);
    out
}

/// Counters read from the deployment around the traced window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deltas {
    pub wall_s: f64,
    pub frames_in: u64,
    pub failed_calls: u64,
    pub rows_examined: u64,
    pub index_probes: u64,
    pub full_scans: u64,
    pub fsyncs: u64,
    pub replies: u64,
}

/// One reported figure: value, unit, and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Per-layer figures by metric name.
pub type Figures = BTreeMap<String, Figure>;

fn put(f: &mut Figures, name: String, value: f64, unit: &'static str, samples: usize) {
    f.insert(
        name,
        Figure {
            value,
            unit,
            samples,
        },
    );
}

fn put_pcts(f: &mut Figures, name: &str, s: &Samples) {
    for (bp, tag) in [(P50, "p50"), (P99, "p99")] {
        if let Some(v) = s.pct(bp) {
            put(f, format!("{name}.{tag}"), v, "us", s.len());
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Turn one traced window into per-layer figures: per kind and per
/// direction where the workload has them, plus workload-wide aggregates.
pub fn analyze(spans: &Spans, d: &Deltas, k: usize) -> Figures {
    let mut f = Figures::new();
    let matched = match_calls(&spans.calls, &spans.execs);
    let op_ids: HashMap<(usize, u64), Kind> = spans
        .ops
        .iter()
        .map(|o| ((o.client, o.op), o.kind))
        .collect();
    let mut legs: HashMap<(usize, u64), Vec<Leg>> = HashMap::new();
    let mut rpc: [Vec<f64>; 2] = Default::default();
    let mut transport: [Vec<f64>; 2] = Default::default();
    let mut calls_in_window = 0usize;
    let mut unmatched = 0usize;
    for (c, m) in spans.calls.iter().zip(&matched) {
        if !op_ids.contains_key(&(c.client, c.op)) {
            continue;
        }
        calls_in_window += 1;
        let dir = usize::from(c.write);
        let span = c.end - c.start;
        rpc[dir].push(us(span));
        let exec = m.map_or(0, |ei| {
            let e = &spans.execs[ei];
            e.end - e.start
        });
        if m.is_some() {
            transport[dir].push(us(span - exec));
        } else {
            unmatched += 1;
        }
        legs.entry((c.client, c.op)).or_default().push(Leg {
            provider: c.provider,
            start: c.start,
            end: c.end,
            write: c.write,
            exec,
        });
    }
    for (dir, name) in [(0, "read"), (1, "write")] {
        put_pcts(
            &mut f,
            &format!("net.rpc_us.{name}"),
            &Samples::new(rpc[dir].clone()),
        );
        put_pcts(
            &mut f,
            &format!("net.transport_us.{name}"),
            &Samples::new(transport[dir].clone()),
        );
    }
    let mut exec: [Vec<f64>; 2] = Default::default();
    let mut busy_ns = 0u64;
    let mut read_execs = 0usize;
    for e in &spans.execs {
        exec[usize::from(e.write)].push(us(e.end - e.start));
        busy_ns += e.end - e.start;
        read_execs += usize::from(!e.write);
    }
    put_pcts(
        &mut f,
        "server.exec_us.read",
        &Samples::new(exec[0].clone()),
    );
    put_pcts(
        &mut f,
        "server.exec_us.write",
        &Samples::new(exec[1].clone()),
    );

    // Per op: self time, blocking path, stragglers, bytes.
    let mut self_all = Vec::new();
    let mut stragglers = Vec::new();
    let mut stale = 0usize;
    let mut unbalanced = 0usize;
    let mut path_all = [0u64; 3];
    let mut by_kind: BTreeMap<Kind, (Vec<f64>, [u64; 4], usize, u64)> = BTreeMap::new();
    for o in &spans.ops {
        let mut op_legs = legs.get(&(o.client, o.op)).cloned().unwrap_or_default();
        let recorded = op_legs.len();
        drop_stale(&mut op_legs, usize::try_from(o.sent).unwrap_or(usize::MAX));
        stale += recorded - op_legs.len();
        let children: Vec<(u64, u64)> = op_legs.iter().map(|l| (l.start, l.end)).collect();
        let own = us(self_time(o.start, o.end, &children));
        let split = split_op(o.start, o.end, &op_legs, o.replies, k);
        if split.client + split.transport + split.server != o.end - o.start {
            unbalanced += 1;
        }
        stragglers.extend(split.stragglers.iter().map(|&s| us(s)));
        self_all.push(own);
        path_all[0] += split.client;
        path_all[1] += split.transport;
        path_all[2] += split.server;
        let e = by_kind.entry(o.kind).or_default();
        e.0.push(own);
        e.1[0] += o.end - o.start;
        e.1[1] += split.client;
        e.1[2] += split.transport;
        e.1[3] += split.server;
        e.2 += op_legs.len();
        e.3 += o.bytes;
    }
    let n_ops = spans.ops.len();
    for (kind, (selfs, path, calls, bytes)) in &by_kind {
        let name = kind.name();
        let n = selfs.len();
        put_pcts(
            &mut f,
            &format!("client.self_us.{name}"),
            &Samples::new(selfs.clone()),
        );
        put(
            &mut f,
            format!("client.rpc_per_op.{name}"),
            ratio(*calls as f64, n as f64),
            "count",
            n,
        );
        put(
            &mut f,
            format!("net.bytes_per_op.{name}"),
            ratio(*bytes as f64, n as f64),
            "B",
            n,
        );
        let mean = |ns: u64| ratio(us(ns), n as f64);
        put(&mut f, format!("path.{name}.op_us"), mean(path[0]), "us", n);
        put(
            &mut f,
            format!("path.{name}.client_us"),
            mean(path[1]),
            "us",
            n,
        );
        put(
            &mut f,
            format!("path.{name}.transport_us"),
            mean(path[2]),
            "us",
            n,
        );
        put(
            &mut f,
            format!("path.{name}.server_us"),
            mean(path[3]),
            "us",
            n,
        );
    }
    put_pcts(&mut f, "client.self_us", &Samples::new(self_all));
    let total_calls: usize = by_kind.values().map(|v| v.2).sum();
    let total_bytes: u64 = by_kind.values().map(|v| v.3).sum();
    put(
        &mut f,
        "client.rpc_per_op".into(),
        ratio(total_calls as f64, n_ops as f64),
        "count",
        n_ops,
    );
    put(
        &mut f,
        "net.bytes_per_op".into(),
        ratio(total_bytes as f64, n_ops as f64),
        "B",
        n_ops,
    );
    let mean_all = |ns: u64| ratio(us(ns), n_ops as f64);
    put(
        &mut f,
        "path.client_us".into(),
        mean_all(path_all[0]),
        "us",
        n_ops,
    );
    put(
        &mut f,
        "path.transport_us".into(),
        mean_all(path_all[1]),
        "us",
        n_ops,
    );
    put(
        &mut f,
        "path.server_us".into(),
        mean_all(path_all[2]),
        "us",
        n_ops,
    );
    put(
        &mut f,
        "path.unbalanced_ops".into(),
        unbalanced as f64,
        "count",
        n_ops,
    );
    put_pcts(&mut f, "net.straggler_us", &Samples::new(stragglers));

    let calls = calls_in_window as f64;
    put(
        &mut f,
        "net.useful_reply_ratio".into(),
        ratio(d.replies as f64, calls),
        "ratio",
        calls_in_window,
    );
    put(
        &mut f,
        "net.frames_per_call".into(),
        ratio(d.frames_in as f64, calls),
        "count",
        calls_in_window,
    );
    put(
        &mut f,
        "net.failed_calls".into(),
        d.failed_calls as f64,
        "count",
        calls_in_window,
    );
    put(
        &mut f,
        "net.unmatched_calls".into(),
        unmatched as f64,
        "count",
        calls_in_window,
    );
    put(
        &mut f,
        "net.late_dispatched_calls".into(),
        stale as f64,
        "count",
        calls_in_window,
    );
    put(
        &mut f,
        "server.busy_cores".into(),
        ratio(busy_ns as f64 / 1e9, d.wall_s),
        "cores",
        spans.execs.len(),
    );
    put(
        &mut f,
        "server.rows_examined_per_read".into(),
        ratio(d.rows_examined as f64, read_execs as f64),
        "rows",
        read_execs,
    );
    put(
        &mut f,
        "server.index_probe_share".into(),
        ratio(
            d.index_probes as f64,
            (d.index_probes + d.full_scans) as f64,
        ),
        "ratio",
        read_execs,
    );

    let records: u64 = spans.wal.iter().map(|w| w.records).sum();
    let wal_bytes: u64 = spans.wal.iter().map(|w| w.bytes).sum();
    let checkpoints: u64 = spans.wal.iter().map(|w| w.checkpoints).sum();
    let fsyncs = d.fsyncs as usize;
    put(
        &mut f,
        "storage.fsyncs_per_s".into(),
        ratio(d.fsyncs as f64, d.wall_s),
        "1/s",
        fsyncs,
    );
    put(
        &mut f,
        "storage.wal_bytes_per_op".into(),
        ratio(wal_bytes as f64, n_ops as f64),
        "B",
        n_ops,
    );
    put(
        &mut f,
        "storage.checkpoints".into(),
        checkpoints as f64,
        "count",
        exec[1].len(),
    );
    if let Some((updates, ..)) = by_kind.get(&Kind::Update) {
        let n = updates.len();
        put(
            &mut f,
            "storage.wal_records_per_fsync".into(),
            ratio(records as f64, d.fsyncs as f64),
            "count",
            fsyncs,
        );
        put(
            &mut f,
            "storage.wal_bytes_per_update".into(),
            ratio(wal_bytes as f64, n as f64),
            "B",
            n,
        );
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_handles_nested_and_overlapping_children() {
        // Nested: [20,30] inside [10,40]; overlapping: [35,60] and [50,70].
        let kids = [(10, 40), (20, 30), (35, 60), (50, 70)];
        assert_eq!(union_len(&kids, 0, 100), 60);
        assert_eq!(self_time(0, 100, &kids), 40);
        // Clipping: children sticking out of the parent count only inside.
        assert_eq!(self_time(15, 55, &kids), 0);
        assert_eq!(self_time(0, 100, &[(80, 120), (90, 95)]), 80);
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(0, 10), (90, 100)]), 80);
    }

    fn call(client: usize, provider: usize, start: u64, end: u64, digest: u64) -> CallSpan {
        CallSpan {
            client,
            provider,
            op: 0,
            start,
            end,
            write: false,
            digest,
        }
    }

    fn exec(client: usize, provider: usize, start: u64, end: u64, digest: u64) -> ExecSpan {
        ExecSpan {
            provider,
            client: Some(client),
            start,
            end,
            write: false,
            digest,
        }
    }

    #[test]
    fn execs_match_the_call_that_contains_them() {
        let calls = [
            call(0, 0, 0, 100, 7),   // 0
            call(1, 0, 5, 50, 7),    // 1: other client, same digest
            call(0, 1, 0, 100, 7),   // 2: other provider
            call(0, 0, 120, 200, 7), // 3: later call, same key
            call(0, 0, 130, 140, 9), // 4: overlapping, other request
        ];
        let execs = [
            exec(0, 0, 150, 190, 7), // -> 3
            exec(1, 0, 10, 40, 7),   // -> 1
            exec(0, 0, 10, 90, 7),   // -> 0
            exec(0, 1, 20, 30, 7),   // -> 2
            exec(0, 0, 131, 139, 9), // -> 4
            exec(0, 0, 300, 310, 7), // outside every call
        ];
        assert_eq!(
            match_calls(&calls, &execs),
            vec![Some(2), Some(1), Some(3), Some(0), Some(4)]
        );
        // Two identical in-flight calls: each exec takes the earliest
        // unmatched call containing it.
        let calls = [call(0, 0, 0, 100, 1), call(0, 0, 10, 110, 1)];
        let execs = [exec(0, 0, 20, 30, 1), exec(0, 0, 40, 50, 1)];
        assert_eq!(match_calls(&calls, &execs), vec![Some(0), Some(1)]);
        // An exec of an unknown client matches nothing.
        let mut orphan = exec(0, 0, 20, 30, 1);
        orphan.client = None;
        assert_eq!(match_calls(&calls[..1], &[orphan]), vec![None]);
    }

    #[test]
    fn a_previous_ops_late_call_is_dropped() {
        let leg = |provider, start| Leg {
            provider,
            start,
            end: start + 10,
            write: false,
            exec: 1,
        };
        // Provider 2's first call was queued by the previous op.
        let mut legs = vec![leg(0, 5), leg(2, 3), leg(1, 6), leg(2, 7)];
        drop_stale(&mut legs, 3);
        assert_eq!(legs, vec![leg(0, 5), leg(1, 6), leg(2, 7)]);
        // Nothing to drop when the op sent every recorded call.
        let mut legs = vec![leg(0, 5), leg(1, 6)];
        drop_stale(&mut legs, 2);
        assert_eq!(legs.len(), 2);
    }

    #[test]
    fn blocking_path_sums_to_the_op_span() {
        let leg = |provider, start, end, write, exec| Leg {
            provider,
            start,
            end,
            write,
            exec,
        };
        // A first-2-of-3 read: the 2nd reply (ends at 50) completes it.
        let legs = [
            leg(0, 10, 40, false, 20),
            leg(1, 11, 50, false, 30),
            leg(2, 12, 90, false, 70),
        ];
        let s = split_op(0, 60, &legs, 2, 2);
        assert_eq!((s.client, s.transport, s.server), (21, 9, 30));
        assert_eq!(s.client + s.transport + s.server, 60);
        assert_eq!(s.stragglers, vec![10]);
        // A read of all 3 whose third call was dispatched late, after the
        // first reply: still one round.
        let legs = [
            leg(0, 10, 20, false, 5),
            leg(1, 10, 22, false, 5),
            leg(2, 21, 30, false, 5),
        ];
        let s = split_op(0, 40, &legs, 3, 2);
        assert_eq!((s.client, s.transport, s.server), (31, 4, 5));
        // ... even when it started after both other replies were in.
        let legs = [
            leg(0, 10, 20, false, 5),
            leg(1, 10, 22, false, 5),
            leg(2, 25, 30, false, 5),
        ];
        let s = split_op(0, 40, &legs, 3, 2);
        assert_eq!((s.client, s.transport, s.server), (35, 0, 5));
        assert_eq!(s.stragglers, vec![2]);
        // Read round of 3 then a write round to all 3 (an eager update).
        let legs = [
            leg(0, 10, 20, false, 5),
            leg(1, 10, 22, false, 5),
            leg(2, 10, 25, false, 5),
            leg(0, 30, 40, true, 6),
            leg(1, 30, 45, true, 8),
            leg(2, 31, 44, true, 7),
        ];
        let s = split_op(0, 50, &legs, 6, 2);
        assert_eq!(s.server, 5 + 8);
        assert_eq!(s.transport, (15 - 5) + (15 - 8));
        assert_eq!(s.client + s.transport + s.server, 50);
        assert_eq!(s.stragglers, vec![2]);
    }
}
