//! End-to-end benchmark of the outsourced database: `DataSource` clients
//! → quorum → loopback TCP → `ProviderService` engine → WAL, with n = 3
//! durable providers and closed-loop clients in one process.
//!
//! ```text
//! e2ebench --workload read-mix|update-heavy|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the shipped stack and prints the end-to-end
//! metrics; `--trace 1` adds a traced deployment and prints the per-layer
//! split. Every line before the last is a human-readable report; the last
//! line is one JSON object (see README.md).

mod deploy;
mod drive;
mod model;
mod stats;
mod trace;

use deploy::{Deployment, Plan, K, N, TIMEOUT};
use drive::{Edge, Timing, Window, Workload};
use model::Kind;
use stats::{geomean, median, weighted_pct, Samples, P50, P99};
use std::path::PathBuf;
use std::time::Duration;
use trace::{Deltas, Figure, Figures};

/// Command-line options.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: u64,
    clients: usize,
    setups: usize,
    warmup: Duration,
    data_dir: PathBuf,
}

const USAGE: &str = "usage: e2ebench --workload read-mix|update-heavy|mixed --seed N \
--seconds S --trace 0|1 [--data-dir DIR]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::ReadMix,
            seed: 1,
            seconds: 20.0,
            trace: false,
            rows: 20_000,
            clients: 2,
            setups: 5,
            warmup: Duration::from_millis(1000),
            data_dir: PathBuf::from("e2ebench/.data"),
        };
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
                }
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--data-dir" => args.data_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
        }
        Ok(args)
    }

    fn plan(&self) -> Plan {
        Plan {
            clients: self.clients,
            rows: self.rows,
            seed: self.seed,
            data_dir: self.data_dir.clone(),
        }
    }

    fn timing(&self) -> Timing {
        Timing {
            warmup: self.warmup,
            measure: Duration::from_secs_f64(self.seconds),
        }
    }
}

/// Environment variables that would make a provider crash on purpose.
const CRASH_VARS: [&str; 2] = ["DASP_CRASH_POINT", "DASP_CRASH_AFTER"];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_config(a: &Args) {
    println!(
        "config workload={} seed={} seconds={} trace={} nproc={} clients={} rows={} setups={} warmup_ms={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc(),
        a.clients,
        a.rows,
        a.setups,
        a.warmup.as_millis()
    );
    println!("config durable={:?}", dasp_server::DurableConfig::default());
    println!("config reactor={:?}", dasp_net::ReactorConfig::default());
    println!(
        "config cluster k={K} n={N} workers={} hedge=1 timeout={TIMEOUT:?} retry={:?}",
        dasp_net::Cluster::default_workers(),
        dasp_net::RetryPolicy::default()
    );
    println!("config transport={:?}", deploy::client_config());
    if let Ok(v) = std::env::var("DASP_BATCH_WINDOW_US") {
        println!("config note: DASP_BATCH_WINDOW_US={v} is ignored (batch_window pinned to 0)");
    }
}

/// VmHWM of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn fig(value: f64, unit: &'static str, samples: usize) -> Figure {
    Figure {
        value,
        unit,
        samples,
    }
}

/// Name of a client role in the report.
fn role_name(kinds: &[Kind]) -> &'static str {
    if kinds.contains(&Kind::Update) {
        "updates"
    } else {
        "reads"
    }
}

/// The end-to-end figures of one window.
///
/// The gated latencies have a mix fixed by the workload, not by how many
/// ops of each kind the closed loop happened to complete: `op_p50_us` is
/// the geometric mean of the per-kind medians, so a change of any kind
/// (the fast `point` too) moves it; `op_p99_us` is the p99 of all ops
/// with each client role (the read rotation, the updates) weighing the
/// same, so a faster updater cannot shift the tail by adding samples.
fn end_to_end(w: &Window, workload: Workload) -> Figures {
    let mut f = Figures::new();
    let done = w.completed();
    f.insert("ops_per_s".into(), fig(w.ops_per_s(), "1/s", done));
    let mut put = |name: &str, s: &Samples| {
        for (bp, tag) in [(P50, "p50"), (P99, "p99")] {
            if let Some(v) = s.pct(bp) {
                f.insert(format!("{name}_{tag}_us"), fig(v, "us", s.len()));
            }
        }
    };
    let mut p50s = Vec::new();
    for k in workload.all_kinds() {
        let s = Samples::new(w.of(k));
        p50s.extend(s.pct(P50));
        put(k.name(), &s);
    }
    let roles: Vec<Vec<f64>> = workload
        .roles()
        .iter()
        .map(|kinds| w.role(workload, kinds))
        .collect();
    for (kinds, lat) in workload.roles().iter().zip(&roles) {
        put(role_name(kinds), &Samples::new(lat.clone()));
    }
    if p50s.len() == workload.all_kinds().len() {
        f.insert("op_p50_us".into(), fig(geomean(&p50s), "us", done));
    }
    if let Some(v) = weighted_pct(&roles, P99) {
        f.insert("op_p99_us".into(), fig(v, "us", done));
    }
    let attempted = w.attempted();
    let ratio = if attempted > 0 {
        w.failed() as f64 / attempted as f64
    } else {
        1.0
    };
    f.insert(
        "failed_ratio".into(),
        fig(ratio, "ratio", attempted as usize),
    );
    f
}

fn print_figures(title: &str, f: &Figures) {
    println!("== {title}");
    for (name, x) in f {
        println!(
            "  {name:<34} {:>14.3} {:<6} n={}",
            x.value, x.unit, x.samples
        );
    }
}

fn print_errors(w: &Window) {
    for (c, cw) in w.clients.iter().enumerate() {
        for e in &cw.errors {
            println!("error client {c}: {e}");
        }
    }
}

/// The metrics of the final JSON line, in the order given, by name.
fn pick(f: &Figures, names: &[(&str, &str)]) -> Result<Vec<(String, Figure)>, String> {
    names
        .iter()
        .map(|(out, from)| {
            f.get(*from)
                .cloned()
                .map(|x| ((*out).to_string(), x))
                .ok_or_else(|| format!("metric {from} has too few samples to report"))
        })
        .collect()
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, Figure)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, x)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// End-to-end metrics of the JSON line: (reported name, figure name).
const E2E: [(&str, &str); 5] = [
    ("ops_per_s", "ops_per_s"),
    ("p50_us", "op_p50_us"),
    ("p99_us", "op_p99_us"),
    ("setup_s", "setup_s"),
    ("peak_rss_mib", "peak_rss_mib"),
];

/// Per-layer metrics of the JSON line: every workload has them.
/// `storage.checkpoints` is in the report only: a default checkpoint
/// comes every 4096 writes per provider, which only the traced
/// `update-heavy` window reaches, and only on a fast enough host.
const PER_LAYER: [&str; 24] = [
    "client.self_us.p50",
    "client.self_us.p99",
    "client.rpc_per_op",
    "net.rpc_us.read.p50",
    "net.rpc_us.read.p99",
    "net.transport_us.read.p50",
    "net.transport_us.read.p99",
    "net.straggler_us.p50",
    "net.straggler_us.p99",
    "net.bytes_per_op",
    "net.useful_reply_ratio",
    "net.frames_per_call",
    "net.failed_calls",
    "server.exec_us.read.p50",
    "server.exec_us.read.p99",
    "server.busy_cores",
    "server.rows_examined_per_read",
    "server.index_probe_share",
    "storage.fsyncs_per_s",
    "storage.wal_bytes_per_op",
    "path.client_us",
    "path.transport_us",
    "path.server_us",
    "trace.overhead",
];

/// Provider-side counters summed over the fleet.
#[derive(Debug, Default, Clone, Copy)]
struct FleetCounters {
    frames_in: u64,
    rows_examined: u64,
    index_probes: u64,
    full_scans: u64,
    fsyncs: u64,
}

fn fleet(providers: &[deploy::Provider]) -> FleetCounters {
    let mut c = FleetCounters::default();
    for p in providers {
        let e = p.service.engine().stats();
        c.frames_in += p.server.stats().frames_in;
        c.rows_examined += e.rows_examined;
        c.index_probes += e.index_probes;
        c.full_scans += e.full_scans;
        c.fsyncs += p.service.engine().wal_stats().map_or(0, |w| w.fsyncs);
    }
    c
}

/// Untraced: set up, run the workload, then set up `setups - 1` more
/// times for the set-up time's median; report the end-to-end metrics.
/// Peak RSS is read before the extra set-ups, so it covers one
/// deployment and its run.
fn untraced(a: &Args) -> Result<bool, String> {
    let plan = a.plan();
    let mut dep = Deployment::up(&plan, "measured", false)?;
    let mut setups = vec![dep.setup_s];
    let mut w = drive::run(
        &mut dep.clients,
        &mut dep.models,
        None,
        a.workload,
        a.seed,
        a.rows,
        a.timing(),
        &mut |_| {},
    );
    let peak = peak_rss_mib()?;
    drive::read_back(&mut dep.clients, &dep.models, &mut w);
    dep.down()?;
    for i in 1..a.setups {
        let d = Deployment::up(&plan, &format!("setup{i}"), false)?;
        setups.push(d.setup_s);
        d.down()?;
    }
    let shown: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!("setup times (s): {}", shown.join(" "));
    let mut f = end_to_end(&w, a.workload);
    f.insert("setup_s".into(), fig(median(&setups), "s", setups.len()));
    f.insert("peak_rss_mib".into(), fig(peak, "MiB", 1));
    print_figures(&format!("end-to-end ({}, untraced)", a.workload.name()), &f);
    print_errors(&w);
    let (attempted, failed) = (w.attempted(), w.failed());
    println!("ops attempted={attempted} failed={failed}");
    let metrics = pick(&f, &E2E)?;
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    Ok(failed == 0)
}

/// Traced: an untraced reference window half as long as `--seconds` for
/// the overhead, then a traced deployment whose spans give the per-layer
/// split. The traced window is twice as long as `--seconds`, so per-op
/// p99s rest on at least 1000 ops even on `update-heavy`.
fn traced(a: &Args) -> Result<bool, String> {
    let traced_timing = Timing {
        measure: a.timing().measure * 2,
        ..a.timing()
    };
    let reference_timing = Timing {
        measure: a.timing().measure / 2,
        ..a.timing()
    };
    let plan = a.plan();
    let mut reference = Deployment::up(&plan, "reference", false)?;
    let mut w0 = drive::run(
        &mut reference.clients,
        &mut reference.models,
        None,
        a.workload,
        a.seed,
        a.rows,
        reference_timing,
        &mut |_| {},
    );
    drive::read_back(&mut reference.clients, &reference.models, &mut w0);
    reference.down()?;
    let untraced = end_to_end(&w0, a.workload);
    print_figures(
        &format!("end-to-end ({}, untraced reference)", a.workload.name()),
        &untraced,
    );

    let mut dep = Deployment::up(&plan, "traced", true)?;
    let rec = dep
        .recorder
        .clone()
        .ok_or("traced deployment has no recorder")?;
    let services: Vec<_> = dep.providers.iter().map(|p| p.service.clone()).collect();
    let providers = &dep.providers;
    let mut counters = (FleetCounters::default(), FleetCounters::default());
    let mut w = drive::run(
        &mut dep.clients,
        &mut dep.models,
        Some(rec.clone()),
        a.workload,
        a.seed,
        a.rows,
        traced_timing,
        &mut |edge| match edge {
            Edge::Start => {
                rec.reset_wal(&services);
                counters.0 = fleet(providers);
            }
            Edge::End => {
                for (p, s) in services.iter().enumerate() {
                    rec.observe_wal(p, s);
                }
                counters.1 = fleet(providers);
            }
        },
    );
    let spans = rec.drain();
    drive::read_back(&mut dep.clients, &dep.models, &mut w);
    dep.down()?;
    let (c0, c1) = counters;
    let deltas = Deltas {
        wall_s: w.wall_s,
        frames_in: c1.frames_in - c0.frames_in,
        failed_calls: w.clients.iter().map(|c| c.failed_calls).sum(),
        rows_examined: c1.rows_examined - c0.rows_examined,
        index_probes: c1.index_probes - c0.index_probes,
        full_scans: c1.full_scans - c0.full_scans,
        fsyncs: c1.fsyncs - c0.fsyncs,
        replies: w.clients.iter().map(|c| c.replies).sum(),
    };
    let mut f = trace::analyze(&spans, &deltas, K);
    let traced_e2e = end_to_end(&w, a.workload);
    let rate = |f: &Figures| f.get("ops_per_s").map_or(0.0, |x| x.value);
    let overhead = if rate(&untraced) > 0.0 {
        rate(&traced_e2e) / rate(&untraced)
    } else {
        0.0
    };
    f.insert(
        "trace.overhead".into(),
        fig(overhead, "ratio", w.completed()),
    );
    print_figures(
        &format!("end-to-end ({}, traced)", a.workload.name()),
        &traced_e2e,
    );
    print_figures(&format!("per-layer ({})", a.workload.name()), &f);
    print_blocking_path(&f);
    print_errors(&w0);
    print_errors(&w);
    let attempted = w0.attempted() + w.attempted();
    let failed = w0.failed() + w.failed();
    println!("ops attempted={attempted} failed={failed}");
    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|n| (*n, *n)).collect();
    let metrics = pick(&f, &names)?;
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    Ok(failed == 0)
}

/// Per kind: mean op time = client + transport + server on the blocking
/// path.
fn print_blocking_path(f: &Figures) {
    println!("== blocking path (mean us per op)");
    for k in Kind::ALL {
        let get = |part: &str| f.get(&format!("path.{}.{part}", k.name())).map(|x| x.value);
        if let (Some(op), Some(c), Some(t), Some(s)) = (
            get("op_us"),
            get("client_us"),
            get("transport_us"),
            get("server_us"),
        ) {
            println!(
                "  {:<7} op {op:>10.1} = client {c:>10.1} + transport {t:>9.1} + server {s:>10.1}   (residual {:.3})",
                k.name(),
                op - (c + t + s)
            );
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = CRASH_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("e2ebench: refusing to run with {var} set: it would crash a provider mid-run");
        std::process::exit(2);
    }
    print_config(&args);
    if let Err(e) = std::fs::create_dir_all(&args.data_dir) {
        eprintln!("e2ebench: create {}: {e}", args.data_dir.display());
        std::process::exit(2);
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) {
        let dir = std::env::temp_dir().join(format!(
            "e2ebench-smoke-{}-{}",
            std::process::id(),
            workload.name()
        ));
        let args = Args {
            workload,
            seed: 11,
            seconds: 0.5,
            trace,
            rows: 400,
            clients: 2,
            setups: 1,
            warmup: Duration::from_millis(100),
            data_dir: dir.clone(),
        };
        let w = {
            let mut dep = Deployment::up(&args.plan(), "smoke", trace).expect("deploy");
            let mut w = drive::run(
                &mut dep.clients,
                &mut dep.models,
                dep.recorder.clone(),
                workload,
                args.seed,
                args.rows,
                args.timing(),
                &mut |_| {},
            );
            drive::read_back(&mut dep.clients, &dep.models, &mut w);
            if let Some(rec) = &dep.recorder {
                let spans = rec.drain();
                assert!(!spans.ops.is_empty() && !spans.calls.is_empty());
                let f = trace::analyze(&spans, &Deltas::default(), K);
                assert_eq!(f.get("net.unmatched_calls").map(|x| x.value), Some(0.0));
            }
            dep.down().expect("teardown");
            w
        };
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            w.failed(),
            0,
            "{:?}",
            w.clients.iter().map(|c| &c.errors).collect::<Vec<_>>()
        );
        assert!(w.completed() > 0);
        for c in 0..2 {
            for k in workload.kinds(c) {
                assert!(
                    !w.of(*k).is_empty(),
                    "{} issued no {}",
                    workload.name(),
                    k.name()
                );
            }
        }
    }

    #[test]
    fn smoke_read_mix() {
        smoke(Workload::ReadMix, false);
    }

    #[test]
    fn smoke_update_heavy() {
        smoke(Workload::UpdateHeavy, false);
    }

    #[test]
    fn smoke_mixed_traced() {
        smoke(Workload::Mixed, true);
    }

    #[test]
    fn args_need_a_known_workload() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload mixed --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 3").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload mixed --trace 2").is_err());
    }

    /// A reader client issuing `reads` rotations of point (1 ms), scan
    /// (2 ms) and sum (4 ms), and an updater issuing `copies` times each
    /// of 1000 updates taking 10.001 to 11 ms.
    fn mixed_window(reads: usize, copies: usize) -> Window {
        let rotation = [
            (Kind::Point, 1000.0),
            (Kind::Scan, 2000.0),
            (Kind::Sum, 4000.0),
        ];
        let reader = drive::ClientWindow {
            latencies: rotation.iter().copied().cycle().take(3 * reads).collect(),
            ..Default::default()
        };
        let updater = drive::ClientWindow {
            latencies: (1..=1000)
                .flat_map(|i| vec![(Kind::Update, 10_000.0 + f64::from(i)); copies])
                .collect(),
            ..Default::default()
        };
        Window {
            clients: vec![reader, updater],
            wall_s: 10.0,
        }
    }

    #[test]
    fn gated_latencies_have_a_fixed_mix() {
        let get = |w: &Window, name: &str| end_to_end(w, Workload::Mixed)[name].value;
        let w = mixed_window(400, 1);
        let p50 = geomean(&[1000.0, 2000.0, 4000.0, 10_500.0]);
        assert!((get(&w, "op_p50_us") - p50).abs() < 1e-6);
        // The reads weigh half, so the p99 is the updates' p98.
        assert_eq!(get(&w, "op_p99_us"), 10_980.0);
        // Twice as many updates of the same distribution, as a faster
        // updater would complete: a pooled p50 or p99 would move.
        let more = mixed_window(400, 2);
        assert_eq!(get(&more, "op_p50_us"), get(&w, "op_p50_us"));
        assert_eq!(get(&more, "op_p99_us"), get(&w, "op_p99_us"));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = vec![("setup_s".to_string(), fig(0.8127, "s", 3))];
        assert_eq!(
            json_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
