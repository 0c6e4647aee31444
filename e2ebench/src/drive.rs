//! The closed loop: each client thread issues its next op only after the
//! previous one returned, times it, then checks it against the plaintext
//! model outside the timed interval.

use crate::deploy::client_seed;
use crate::model::{Kind, Model, Op, OpGen, Outcome, SALARY_DOMAIN};
use crate::trace::{table_name, OpSpan, Recorder};
use dasp_client::{ClientError, DataSource, Predicate, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// point, scan and sum in equal thirds on both clients.
    ReadMix,
    /// Only eager updates on both clients.
    UpdateHeavy,
    /// Client 0 runs the read mix, client 1 updates.
    Mixed,
}

const READS: &[Kind] = &[Kind::Point, Kind::Scan, Kind::Sum];
const UPDATES: &[Kind] = &[Kind::Update];

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::ReadMix, Workload::UpdateHeavy, Workload::Mixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMix => "read-mix",
            Workload::UpdateHeavy => "update-heavy",
            Workload::Mixed => "mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The client roles: the distinct kind sets the clients issue.
    pub fn roles(self) -> &'static [&'static [Kind]] {
        match self {
            Workload::ReadMix => &[READS],
            Workload::UpdateHeavy => &[UPDATES],
            Workload::Mixed => &[READS, UPDATES],
        }
    }

    /// The kinds the workload issues.
    pub fn all_kinds(self) -> Vec<Kind> {
        Kind::ALL
            .into_iter()
            .filter(|k| self.roles().iter().any(|r| r.contains(k)))
            .collect()
    }

    /// The kinds client `c` issues.
    pub fn kinds(self, client: usize) -> &'static [Kind] {
        match (self, client) {
            (Workload::ReadMix, _) => READS,
            (Workload::UpdateHeavy, _) => UPDATES,
            (Workload::Mixed, 0) => READS,
            (Workload::Mixed, _) => UPDATES,
        }
    }
}

/// Run one op through the client API.
pub fn execute(ds: &mut DataSource, table: &str, op: &Op) -> Result<Outcome, ClientError> {
    match *op {
        Op::Point { key } => ds
            .select(table, &[Predicate::eq("key", key)])
            .map(Outcome::Rows),
        Op::Scan { lo, hi } => ds
            .select(table, &[Predicate::between("salary", lo, hi)])
            .map(Outcome::Rows),
        Op::Sum { lo, hi } => ds
            .sum(table, "salary", &[Predicate::between("salary", lo, hi)])
            .map(Outcome::Agg),
        Op::Update { key, salary } => ds
            .update_where(
                table,
                &[Predicate::eq("key", key)],
                &[("salary", Value::Int(salary))],
            )
            .map(Outcome::Updated),
    }
}

/// What one client thread measured.
#[derive(Debug, Default)]
pub struct ClientWindow {
    /// (kind, latency µs) of every measured op that passed the oracle.
    pub latencies: Vec<(Kind, f64)>,
    /// Ops issued, warm-up and read-back included.
    pub attempted: u64,
    /// Ops that errored or disagreed with the oracle.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// When the last measured op that passed the oracle returned.
    pub last_end: Option<Instant>,
    /// Provider-call failures the client's health tracker saw while
    /// measuring.
    pub failed_calls: u64,
    /// Replies the client's quorum engine consumed while measuring.
    pub replies: u64,
}

impl ClientWindow {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub clients: Vec<ClientWindow>,
    /// Measurement start to the last measured op's return.
    pub wall_s: f64,
}

impl Window {
    /// Latencies of one kind, all clients.
    pub fn of(&self, kind: Kind) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| &c.latencies)
            .filter(|(k, _)| *k == kind)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Every measured latency of the clients that issue `kinds` in
    /// `workload` (one client role: the read rotation or the updates).
    pub fn role(&self, workload: Workload, kinds: &[Kind]) -> Vec<f64> {
        self.clients
            .iter()
            .enumerate()
            .filter(|(c, _)| workload.kinds(*c) == kinds)
            .flat_map(|(_, cw)| cw.latencies.iter().map(|&(_, v)| v))
            .collect()
    }

    /// Measured ops that completed correctly.
    pub fn completed(&self) -> usize {
        self.clients.iter().map(|c| c.latencies.len()).sum()
    }

    /// Completed ops per second over the measured window.
    pub fn ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }
}

fn failures(ds: &DataSource) -> u64 {
    ds.health().providers.iter().map(|p| p.total_failures).sum()
}

fn client_loop(
    c: usize,
    ds: &mut DataSource,
    model: &mut Model,
    ops: OpGen,
    rec: Option<&Recorder>,
    measuring: &AtomicBool,
    stop: &AtomicBool,
) -> ClientWindow {
    let mut w = ClientWindow::default();
    let table = table_name(c);
    let mut before: Option<(u64, u64)> = None;
    for (seq, op) in ops.enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let measured = measuring.load(Ordering::SeqCst);
        if measured && before.is_none() {
            before = Some((
                failures(ds),
                ds.cluster().stats().snapshot().messages_received,
            ));
        }
        let id = ((c as u64) << 40) | seq as u64;
        let traffic = rec.map(|r| {
            r.begin_op(c, id);
            ds.cluster().stats().snapshot()
        });
        let span_start = rec.map_or(0, Recorder::now);
        let started = Instant::now();
        let out = execute(ds, &table, &op);
        let elapsed = started.elapsed();
        let span_end = rec.map_or(0, Recorder::now);
        // Outside the timed interval from here on.
        w.attempted += 1;
        let verdict = out
            .map_err(|e| format!("{op:?}: {e}"))
            .and_then(|o| model.check(&op, &o));
        match verdict {
            Ok(()) if measured => {
                w.latencies.push((op.kind(), elapsed.as_secs_f64() * 1e6));
                w.last_end = Some(started + elapsed);
                if let (Some(r), Some(t0)) = (rec, traffic) {
                    let d = ds.cluster().stats().snapshot().since(&t0);
                    r.push_op(OpSpan {
                        client: c,
                        op: id,
                        kind: op.kind(),
                        start: span_start,
                        end: span_end,
                        bytes: d.total_bytes(),
                        sent: d.messages_sent,
                        replies: d.messages_received,
                    });
                }
            }
            Ok(()) => {}
            Err(e) => w.fail(e),
        }
    }
    if let Some((f0, r0)) = before {
        w.failed_calls = failures(ds).saturating_sub(f0);
        w.replies = ds
            .cluster()
            .stats()
            .snapshot()
            .messages_received
            .saturating_sub(r0);
    }
    w
}

/// After a run: read every table back, one client at a time, and compare
/// it with the model. Mismatches count as failed ops of the window.
pub fn read_back(clients: &mut [DataSource], models: &[Model], window: &mut Window) {
    let all = [Predicate::between("salary", 0u64, SALARY_DOMAIN - 1)];
    for (c, ((ds, model), w)) in clients
        .iter_mut()
        .zip(models)
        .zip(window.clients.iter_mut())
        .enumerate()
    {
        w.attempted += 1;
        let verdict = ds
            .select(&table_name(c), &all)
            .map_err(|e| format!("read-back: {e}"))
            .and_then(|rows| model.check_table(&rows));
        if let Err(e) = verdict {
            w.fail(e);
        }
    }
}

/// The edges of the measured window, where the main thread snapshots
/// provider counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// Right before measuring starts.
    Start,
    /// Right after the last client returned.
    End,
}

/// How long to warm up and to measure.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub warmup: Duration,
    pub measure: Duration,
}

/// Run `workload` on the deployment's clients: warm up, then measure.
/// `edge` runs on this thread at the window's edges.
#[allow(clippy::too_many_arguments)]
pub fn run(
    clients: &mut [DataSource],
    models: &mut [Model],
    rec: Option<Arc<Recorder>>,
    workload: Workload,
    seed: u64,
    rows: u64,
    timing: Timing,
    edge: &mut dyn FnMut(Edge),
) -> Window {
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut measure_start = Instant::now();
    let windows: Vec<ClientWindow> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(models.iter_mut())
            .enumerate()
            .map(|(c, (ds, model))| {
                let ops = OpGen::new(client_seed(seed, c, 3), workload.kinds(c), rows);
                let (rec, measuring, stop) = (rec.as_deref(), &measuring, &stop);
                s.spawn(move || client_loop(c, ds, model, ops, rec, measuring, stop))
            })
            .collect();
        std::thread::sleep(timing.warmup);
        edge(Edge::Start);
        if let Some(r) = &rec {
            r.set_on(true);
        }
        measure_start = Instant::now();
        measuring.store(true, Ordering::SeqCst);
        std::thread::sleep(timing.measure);
        stop.store(true, Ordering::SeqCst);
        let out = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientWindow {
                    attempted: 1,
                    failed: 1,
                    errors: vec!["client thread panicked".into()],
                    ..ClientWindow::default()
                })
            })
            .collect();
        if let Some(r) = &rec {
            r.set_on(false);
        }
        edge(Edge::End);
        out
    });
    let last = windows.iter().filter_map(|c| c.last_end).max();
    let wall_s = last.map_or(0.0, |l| l.duration_since(measure_start).as_secs_f64());
    Window {
        clients: windows,
        wall_s,
    }
}
