//! `serve-hot` and `serve-churn`: the shipped `ad-serve` binary as a
//! child process, driven by two closed-loop clients on persistent TCP
//! connections with seeded Zipf(s=1) key draws.
//!
//! The traced runs replay the run's request sequence in process through
//! the daemon's public layers (`handle_request`, `PlanStore`, `Persist`,
//! `request::plan`) with spans around each call, reporting these serving
//! layers on the host line, and trace the planning of the workload's key
//! set through [`PlanTrace`] for the per-layer metrics every workload
//! reports.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_serve::{handle_request, Persist, PlanRecord, PlanStore, ServeCtx, ServerConfig};
use ad_util::{Json, WorkerPool};
use atomic_dataflow::{request, OptimizerConfig, PlanRequest, Strategy};
use dnn_graph::models;
use engine_model::HardwareConfig;

use crate::host;
use crate::planner::PlanTrace;
use crate::report::Report;
use crate::stats::{geomean, key_stream, median, tail, Zipf};
use crate::trace::{self, Tracer};

/// The edge machine of the churn key set, sent inline as `hw`.
const EDGE_HW_JSON: &str = include_str!("../edge_4x4.json");

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Closed-loop clients (one persistent connection each).
const CLIENTS: u64 = 2;

/// The churn daemon's plan-cache capacity.
const CHURN_CAPACITY: usize = 12;

/// Appends the traced churn run times through `Persist`, so that the
/// append tail is read from enough samples.
const APPEND_SAMPLES: usize = 1000;

/// Paths and knobs shared by the serve workloads.
pub struct Ctx {
    /// The `ad-serve` binary.
    pub bin: PathBuf,
    /// Run-private scratch directory (cache directories live here).
    pub dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
}

/// One cache key and the request line that asks for it.
#[derive(Debug, Clone)]
struct Key {
    model: &'static str,
    strategy: Strategy,
    edge: bool,
    batch: usize,
    /// The request line, newline included.
    line: String,
    cfg: OptimizerConfig,
    graph_fp: String,
    config_fp: String,
}

impl Key {
    fn new(
        model: &'static str,
        strategy: Strategy,
        edge: bool,
        batch: usize,
    ) -> Result<Self, String> {
        // Mirrors the daemon's `--fast` request decoding, so the
        // fingerprints computed here must equal the daemon's.
        let (hw, hw_field) = if edge {
            let doc = Json::parse(EDGE_HW_JSON).map_err(|e| e.to_string())?;
            let hw = HardwareConfig::from_json(&doc).map_err(|e| e.to_string())?;
            (hw, format!(",\"hw\":{}", doc.to_compact()))
        } else {
            (HardwareConfig::paper_default(), String::new())
        };
        let cfg = OptimizerConfig::for_hardware(&hw)
            .map_err(|e| e.to_string())?
            .with_fast_search()
            .with_batch(batch);
        let graph = models::by_name(model).ok_or_else(|| format!("unknown model {model}"))?;
        let line = format!(
            "{{\"op\":\"plan\",\"model\":\"{model}\",\"strategy\":\"{}\",\"batch\":{batch}{hw_field}}}\n",
            strategy.label()
        );
        Ok(Self {
            model,
            strategy,
            edge,
            batch,
            line,
            cfg,
            graph_fp: graph.canonical_fingerprint().to_string(),
            config_fp: request::config_fingerprint(&cfg, strategy).to_string(),
        })
    }

    fn label(&self) -> String {
        format!(
            "{}/{}/{}/b{}",
            self.model,
            self.strategy.label(),
            if self.edge { "edge4x4" } else { "paper8x8" },
            self.batch
        )
    }
}

/// The 32 churn keys in Zipf rank order: batch outermost, so small
/// batches are the popular keys and large ones the cold tail.
fn churn_keys() -> Result<Vec<Key>, String> {
    let mut keys = Vec::new();
    for batch in [1, 2, 4, 8] {
        for model in ["tiny_cnn", "tiny_branchy"] {
            for strategy in [Strategy::AtomicDataflow, Strategy::LayerSequential] {
                for edge in [false, true] {
                    keys.push(Key::new(model, strategy, edge, batch)?);
                }
            }
        }
    }
    Ok(keys)
}

/// The hot key set: the four paper models at batch 1 (the most popular
/// ranks), then the 32 churn keys.
fn hot_keys() -> Result<Vec<Key>, String> {
    let mut keys = crate::plan_paper::MODELS
        .iter()
        .map(|m| Key::new(m, Strategy::AtomicDataflow, false, 1))
        .collect::<Result<Vec<_>, _>>()?;
    keys.extend(churn_keys()?);
    Ok(keys)
}

/// An `ok` response, split into the fields the gates read.
struct Resp<'a> {
    cached: bool,
    graph_fp: String,
    config_fp: String,
    /// The plan payload bytes, exactly as sent.
    plan: &'a str,
}

/// Splits a response line; `Err` carries the daemon's error or refusal.
fn parse_response(line: &str) -> Result<Resp<'_>, String> {
    let line = line.trim_end();
    // The plan payload is spliced in verbatim as the last member; parse
    // only the head and keep the payload bytes as sent.
    let (head, plan) = match line.find(",\"plan\":") {
        Some(i) if line.ends_with('}') => {
            (format!("{}}}", &line[..i]), &line[i + 8..line.len() - 1])
        }
        _ => (line.to_string(), ""),
    };
    let doc = Json::parse(&head).map_err(|e| format!("unparsable response: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("response without ok")
            .to_string());
    }
    let text = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let flag = |k: &str| doc.get(k).and_then(Json::as_bool) == Some(true);
    Ok(Resp {
        cached: flag("cached"),
        graph_fp: text("graph_fp"),
        config_fp: text("config_fp"),
        plan,
    })
}

/// A running `ad-serve` child. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    /// Held open so the daemon's later status lines never meet a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// Longest wait for one response or for the daemon to exit, so a hung
/// daemon fails the run instead of stalling it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A connection to the daemon with [`IO_TIMEOUT`] on reads.
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(conn)
}

impl Daemon {
    /// Spawns the daemon and waits for its first response (a `stats`
    /// op). Returns the daemon, seconds from spawn to that response, and
    /// the stats payload.
    fn start(bin: &Path, args: &[String]) -> Result<(Self, f64, Json), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut stdout = BufReader::new(out);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("ad-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {:?}", banner.trim()));
        };
        let d = Self {
            child,
            _stdout: stdout,
            addr,
        };
        let stats = d.stats()?;
        Ok((d, t0.elapsed().as_secs_f64(), stats))
    }

    /// One request on a fresh connection.
    fn request_once(&self, line: &str) -> Result<String, String> {
        let mut conn = connect(self.addr)?;
        conn.write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        BufReader::new(conn)
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        Ok(resp)
    }

    /// The `stats` op payload.
    fn stats(&self) -> Result<Json, String> {
        let resp = self.request_once("{\"op\":\"stats\"}\n")?;
        let doc = Json::parse(&resp).map_err(|e| format!("stats response: {e}"))?;
        doc.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats op failed: {}", resp.trim()))
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        host::peak_rss_mb(self.child.id())
    }

    /// Asks the daemon to shut down and waits (at most [`IO_TIMEOUT`])
    /// for it to exit cleanly; on timeout, `Drop` kills it.
    fn shutdown(mut self) -> Result<(), String> {
        self.request_once("{\"op\":\"shutdown\"}\n")?;
        let deadline = Instant::now() + IO_TIMEOUT;
        let status = loop {
            match self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                None => return Err("daemon did not exit after shutdown".into()),
            }
        };
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts the daemon, checks its first `stats` payload with `check` and
/// keeps it running. With a report, the daemon is started
/// [`SETUP_REPEATS`] times (all but the last stopped again) and the median
/// start-up time is reported as `setup_s`; the traced runs, which report
/// no end-to-end metric, start it once.
fn start_daemon(
    bin: &Path,
    args: impl Fn(usize) -> Vec<String>,
    check: impl Fn(&Json) -> Result<(), String>,
    r: Option<&mut Report>,
) -> Result<Daemon, String> {
    let repeats = if r.is_some() { SETUP_REPEATS } else { 1 };
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..repeats {
        if let Some(d) = last.take() {
            Daemon::shutdown(d)?;
            std::thread::sleep(host::SETUP_GAP);
        }
        let (d, secs, stats) = Daemon::start(bin, &args(i))?;
        check(&stats)?;
        times.push(secs);
        last = Some(d);
    }
    if let Some(r) = r {
        r.metric(
            "setup_s",
            median(&times).unwrap_or(f64::NAN),
            "s",
            times.len(),
        );
    }
    last.ok_or_else(|| "daemon not started".to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    Failed,
}

/// One client-side sample: key rank, latency and outcome.
#[derive(Debug, Clone, Copy)]
struct Sample {
    key: usize,
    ms: f64,
    outcome: Outcome,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// The plan bytes of the first `ok` response to each key.
    first: BTreeMap<usize, String>,
    violations: Vec<String>,
    errors: Vec<String>,
}

/// Runs [`CLIENTS`] closed-loop clients against `addr` for `budget`;
/// `gate` checks every `ok` response against its key. Returns the client
/// logs (in client order) and the measured seconds.
fn drive(
    addr: SocketAddr,
    keys: &[Key],
    seed: u64,
    budget: Duration,
    gate: &(dyn Fn(usize, &Resp<'_>) -> Result<(), String> + Sync),
) -> Result<(Vec<ClientLog>, f64), String> {
    let zipf = Zipf::new(keys.len(), 1.0);
    let t0 = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || -> Result<ClientLog, String> {
                    let mut conn = connect(addr)?;
                    conn.set_nodelay(true).map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
                    let mut log = ClientLog::default();
                    let mut line = String::new();
                    for key in key_stream(zipf, seed, c) {
                        if t0.elapsed() >= budget {
                            break;
                        }
                        line.clear();
                        let t = Instant::now();
                        conn.write_all(keys[key].line.as_bytes())
                            .map_err(|e| format!("send: {e}"))?;
                        reader
                            .read_line(&mut line)
                            .map_err(|e| format!("receive: {e}"))?;
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let outcome = match parse_response(&line) {
                            Ok(resp) => {
                                if let Err(v) = gate(key, &resp) {
                                    log.violations.push(v);
                                }
                                log.first
                                    .entry(key)
                                    .or_insert_with(|| resp.plan.to_string());
                                if resp.cached {
                                    Outcome::Hit
                                } else {
                                    Outcome::Miss
                                }
                            }
                            Err(e) => {
                                log.errors.push(e);
                                Outcome::Failed
                            }
                        };
                        log.samples.push(Sample { key, ms, outcome });
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((logs, t0.elapsed().as_secs_f64()))
}

/// Folds the client logs into `r`: counts, violations, errors. Returns
/// all samples and the first plan served for each key.
fn absorb(r: &mut Report, logs: Vec<ClientLog>) -> (Vec<Sample>, BTreeMap<usize, String>) {
    let mut all = Vec::new();
    let mut first = BTreeMap::new();
    for log in logs {
        for v in log.violations {
            r.check(false, || v);
        }
        if let Some(e) = log.errors.last() {
            r.note("last_error", Json::from(e.as_str()));
        }
        r.failed += log.errors.len() as u64;
        r.attempted += log.samples.len() as u64;
        all.extend(log.samples);
        for (k, plan) in log.first {
            first.entry(k).or_insert(plan);
        }
    }
    (all, first)
}

fn latencies(samples: &[Sample], keep: impl Fn(Outcome) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s.outcome))
        .map(|s| s.ms)
        .collect()
}

/// Simulated cycles of a plan payload (`stats.total_cycles`).
fn plan_cycles(plan: &str) -> Result<f64, String> {
    Json::parse(plan)
        .map_err(|e| format!("unparsable plan: {e}"))?
        .get("stats")
        .and_then(|s| s.get("total_cycles"))
        .and_then(Json::as_f64)
        .ok_or_else(|| "plan without stats.total_cycles".to_string())
}

/// One measured phase against a running daemon, reported as the
/// end-to-end metrics (set-up aside). Returns the samples.
fn measure(
    r: &mut Report,
    daemon: &Daemon,
    keys: &[Key],
    seed: u64,
    seconds: u64,
    gate: &(dyn Fn(usize, &Resp<'_>) -> Result<(), String> + Sync),
) -> Result<Vec<Sample>, String> {
    let pid = daemon.child.id();
    let cpu0 = host::tasks_cpu_ms(pid)?;
    let (logs, secs) = drive(daemon.addr, keys, seed, Duration::from_secs(seconds), gate)?;
    let cpu_ms = host::tasks_cpu_ms(pid)? - cpu0;
    let rss_mb = daemon.peak_rss_mb()?;
    let (samples, first) = absorb(r, logs);
    let ok = latencies(&samples, |o| o != Outcome::Failed);
    let nan = f64::NAN;
    r.metric("throughput_rps", ok.len() as f64 / secs, "1/s", ok.len());
    r.metric("latency_ms", median(&ok).unwrap_or(nan), "ms", ok.len());
    r.metric("peak_rss_mb", rss_mb, "MB", 1);
    let cycles = first
        .values()
        .map(|p| plan_cycles(p))
        .collect::<Result<Vec<_>, _>>()?;
    r.metric(
        "sim_cycles_geomean",
        geomean(&cycles).unwrap_or(nan),
        "cycles",
        cycles.len(),
    );
    outcome_notes(r, &samples);
    r.note("cpu_ms_per_op", Json::Num(cpu_ms / ok.len().max(1) as f64));
    r.note("seconds_measured", Json::Num(secs));
    r.note("keys_served", Json::from(first.len()));
    Ok(samples)
}

/// Hit and miss latencies and the overall tail, on the host line.
fn outcome_notes(r: &mut Report, samples: &[Sample]) {
    for (name, outcome) in [("hit_ms_p50", Outcome::Hit), ("miss_ms_p50", Outcome::Miss)] {
        let xs = latencies(samples, |o| o == outcome);
        if let Some(m) = median(&xs) {
            r.note(name, Json::Num(m));
            r.note(&format!("{name}_samples"), Json::from(xs.len()));
        }
    }
    if let Some(t) = tail(&latencies(samples, |o| o != Outcome::Failed), 99.0) {
        r.note("latency_ms_tail", Json::Num(t.value));
        r.note("latency_ms_tail_pct", Json::Num(t.pct));
    }
}

/// Traces, cold and in process, the planning of every Atomic-Dataflow key
/// of `keys` once through [`PlanTrace::plan`] (request ids from `req0`),
/// checking the fingerprints against the key's.
fn trace_keys(pt: &mut PlanTrace, keys: &[Key], req0: u64, r: &mut Report) -> Result<(), String> {
    let pool = Arc::new(WorkerPool::new(host::nproc()));
    let ad = keys
        .iter()
        .filter(|k| matches!(k.strategy, Strategy::AtomicDataflow));
    for (i, k) in (req0..).zip(ad) {
        let cfg = k.cfg.with_parallelism(pool.threads());
        let resp = pt.plan(k.model, cfg, &pool, i, r)?;
        r.check(
            resp.graph_fp.to_string() == k.graph_fp && resp.config_fp.to_string() == k.config_fp,
            || format!("{}: traced plan fingerprints differ", k.label()),
        );
    }
    Ok(())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn daemon_args(cache_dir: &Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = ["--fast", "--workers=2", "--addr=127.0.0.1:0"]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect();
    args.push(format!("--cache-dir={}", cache_dir.display()));
    args
}

fn ms_median(tr: &Tracer, span: &str) -> (f64, usize) {
    let d: Vec<f64> = trace::durations(tr.spans(), span)
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    (median(&d).unwrap_or(f64::NAN), d.len())
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

/// Untimed preparation: plans every hot key into a persistent store in
/// `dir` and returns each key's plan bytes.
fn prepare_hot(dir: &Path, keys: &[Key]) -> Result<Vec<String>, String> {
    fresh_dir(dir)?;
    let store = PlanStore::open(128, dir).map_err(|e| format!("open store: {e}"))?;
    let pool = Arc::new(WorkerPool::new(host::nproc()));
    keys.iter()
        .map(|k| {
            let g = models::by_name(k.model).ok_or("unknown model")?;
            let out = store
                .get_or_plan_pooled(&g, k.cfg, k.strategy, Some(&pool))
                .map_err(|e| format!("prepare {}: {e}", k.label()))?;
            if out.graph_fp.to_string() != k.graph_fp || out.config_fp.to_string() != k.config_fp {
                return Err(format!("prepare {}: fingerprints differ", k.label()));
            }
            Ok(out.plan)
        })
        .collect()
}

fn hot_gate<'a>(
    keys: &'a [Key],
    plans: &'a [String],
) -> impl Fn(usize, &Resp<'_>) -> Result<(), String> + Sync + 'a {
    move |k, resp| {
        if !resp.cached {
            Err(format!("{}: served as a miss", keys[k].label()))
        } else if resp.plan != plans[k] {
            Err(format!(
                "{}: hit bytes differ from the prepared plan",
                keys[k].label()
            ))
        } else {
            Ok(())
        }
    }
}

fn hot_daemon(
    cx: &Ctx,
    keys: &[Key],
    cache: &Path,
    r: Option<&mut Report>,
) -> Result<Daemon, String> {
    let want = keys.len() as u64;
    let check = |stats: &Json| {
        let recovered = stats
            .get("persist")
            .and_then(|p| p.get("recovered"))
            .and_then(Json::as_u64);
        if recovered == Some(want) {
            Ok(())
        } else {
            Err(format!("daemon recovered {recovered:?} plans, want {want}"))
        }
    };
    start_daemon(&cx.bin, |_| daemon_args(cache, &[]), check, r)
}

/// `serve-hot`, untraced.
pub fn run_hot(cx: &Ctx, r: &mut Report) -> Result<(), String> {
    let keys = hot_keys()?;
    let cache = cx.dir.join("hot-cache");
    let plans = prepare_hot(&cache, &keys)?;
    let daemon = hot_daemon(cx, &keys, &cache, Some(r))?;
    let gate = hot_gate(&keys, &plans);
    measure(r, &daemon, &keys, cx.seed, cx.seconds, &gate)?;
    daemon.shutdown()
}

/// `serve-hot`, traced: a shorter TCP phase for the transport share, the
/// same request sequence replayed in process layer by layer, and the
/// planning of the hot key set traced stage by stage.
pub fn run_hot_traced(cx: &Ctx, r: &mut Report) -> Result<PlanTrace, String> {
    let keys = hot_keys()?;
    let cache = cx.dir.join("hot-cache");
    let plans = prepare_hot(&cache, &keys)?;

    // Recovery of the prepared directory, in process.
    let mut recover_ms = Vec::new();
    let mut recovered = 0;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let store = PlanStore::open(128, &cache).map_err(|e| format!("reopen: {e}"))?;
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        recovered = store.persist_stats().map_or(0, |p| p.recovered);
    }

    let daemon = hot_daemon(cx, &keys, &cache, None)?;
    let gate = hot_gate(&keys, &plans);
    let budget = Duration::from_secs(cx.seconds.div_ceil(2));
    let (logs, _) = drive(daemon.addr, &keys, cx.seed, budget, &gate)?;
    daemon.shutdown()?;
    let (samples, _) = absorb(r, logs);
    let tcp_hit_ms = median(&latencies(&samples, |o| o == Outcome::Hit)).unwrap_or(f64::NAN);

    let store = PlanStore::open(128, &cache).map_err(|e| format!("reopen: {e}"))?;
    let sc = ServerConfig {
        fast: true,
        workers: 2,
        ..ServerConfig::default()
    };
    let mut pt = PlanTrace::default();
    replay_hot(&samples, &keys, &plans, &store, &sc, &mut pt.tr, r)?;
    let n = samples.len();
    for (layer, span) in [
        ("edge.parse_us", "edge.parse"),
        ("hit.graph_build_us", "graph.build"),
        ("hit.graph_fingerprint_us", "graph.fingerprint"),
        ("store.hit_us", "store.hit"),
        ("edge.handle_hit_us", "edge.handle_hit"),
    ] {
        r.layer(layer, ms_median(&pt.tr, span).0 * 1e3, "us", n);
    }
    let (handle_hit_ms, _) = ms_median(&pt.tr, "edge.handle_hit");
    r.layer("transport.hit_ms", tcp_hit_ms - handle_hit_ms, "ms", n);
    r.layer(
        "persist.recover_ms",
        median(&recover_ms).unwrap_or(f64::NAN),
        "ms",
        recover_ms.len(),
    );
    r.layer("persist.recovered", recovered as f64, "count", 1);

    trace_keys(&mut pt, &keys, n as u64, r)?;
    pt.report(r);
    Ok(pt)
}

/// Replays the hot request sequence in process: the steps of a hit one
/// by one, then the whole edge handler.
fn replay_hot(
    samples: &[Sample],
    keys: &[Key],
    plans: &[String],
    store: &PlanStore,
    sc: &ServerConfig,
    tr: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let ctx = ServeCtx {
        store,
        sc,
        pool: None,
        admission: None,
        clock: None,
    };
    for (i, s) in samples.iter().enumerate() {
        let k = &keys[s.key];
        let line = k.line.trim_end();
        tr.set_request(i as u64);
        tr.span("request", |tr| -> Result<(), String> {
            tr.span("edge.parse", |_| Json::parse(line))
                .map_err(|e| e.to_string())?;
            let g = tr
                .span("graph.build", |_| models::by_name(k.model))
                .ok_or("unknown model")?;
            std::hint::black_box(tr.span("graph.fingerprint", |_| g.canonical_fingerprint()));
            let out = tr
                .span("store.hit", |_| store.get_or_plan(&g, k.cfg, k.strategy))
                .map_err(|e| e.to_string())?;
            r.check(out.cached && out.plan == plans[s.key], || {
                format!("{}: in-process lookup is not the prepared hit", k.label())
            });
            let reply = tr.span("edge.handle_hit", |_| handle_request(&ctx, line));
            let ok = parse_response(reply.text())
                .is_ok_and(|resp| resp.cached && resp.plan == plans[s.key]);
            r.check(ok, || {
                format!("{}: in-process handler is not the prepared hit", k.label())
            });
            Ok(())
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------------

fn churn_gate(keys: &[Key]) -> impl Fn(usize, &Resp<'_>) -> Result<(), String> + Sync + '_ {
    move |k, resp| {
        let key = &keys[k];
        if resp.graph_fp == key.graph_fp && resp.config_fp == key.config_fp {
            Ok(())
        } else {
            Err(format!(
                "{}: fingerprints {}/{} differ from {}/{}",
                key.label(),
                resp.graph_fp,
                resp.config_fp,
                key.graph_fp,
                key.config_fp
            ))
        }
    }
}

fn churn_daemon(cx: &Ctx, r: Option<&mut Report>) -> Result<Daemon, String> {
    let capacity = format!("--capacity={CHURN_CAPACITY}");
    let args = |i: usize| {
        let dir = cx.dir.join(format!("churn-cache-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        daemon_args(&dir, &[&capacity])
    };
    let check = |stats: &Json| match stats.get("entries").and_then(Json::as_u64) {
        Some(0) => Ok(()),
        other => Err(format!(
            "churn daemon starts with {other:?} entries, want 0"
        )),
    };
    start_daemon(&cx.bin, args, check, r)
}

/// `serve-churn`, untraced.
pub fn run_churn(cx: &Ctx, r: &mut Report) -> Result<(), String> {
    let keys = churn_keys()?;
    let daemon = churn_daemon(cx, Some(r))?;
    let gate = churn_gate(&keys);
    measure(r, &daemon, &keys, cx.seed, cx.seconds, &gate)?;
    r.note("daemon_stats", daemon.stats()?);
    daemon.shutdown()
}

/// `serve-churn`, traced: a shorter TCP phase read through the `stats`
/// op, then the run's request sequence replayed in process through
/// `handle_request` on a fresh store, every miss re-planned cold through
/// `request::plan`, the misses' `PlanRecord`s replayed through `Persist`,
/// and the planning of the churn key set traced stage by stage.
pub fn run_churn_traced(cx: &Ctx, r: &mut Report) -> Result<PlanTrace, String> {
    let keys = churn_keys()?;
    let daemon = churn_daemon(cx, None)?;
    let gate = churn_gate(&keys);
    let budget = Duration::from_secs(cx.seconds.div_ceil(2));
    let (logs, _) = drive(daemon.addr, &keys, cx.seed, budget, &gate)?;
    let stats = daemon.stats()?;
    daemon.shutdown()?;
    let (samples, _) = absorb(r, logs);
    let tcp_miss_ms = median(&latencies(&samples, |o| o == Outcome::Miss)).unwrap_or(f64::NAN);
    store_counters(r, &stats, samples.len());

    let pool = Arc::new(WorkerPool::new(3));
    let mut pt = PlanTrace::default();
    let misses = replay_churn(cx, &samples, &keys, &pool, &mut pt.tr)?;

    // Every miss of the replay, planned cold in process.
    let mut records = Vec::new();
    for &k in &misses {
        let key = &keys[k];
        let g = models::by_name(key.model).ok_or("unknown model")?;
        let req = PlanRequest::new(&g, key.cfg.with_parallelism(pool.threads()))
            .with_strategy(key.strategy)
            .with_pool(pool.clone());
        let resp = pt
            .tr
            .span("planner.plan", |_| request::plan(&req))
            .map_err(|e| format!("{}: {e}", key.label()))?;
        records.push(PlanRecord {
            graph_fp: resp.graph_fp,
            config_fp: resp.config_fp,
            warm_cfg_fp: request::batchless_config_fingerprint(&key.cfg, key.strategy),
            batch: key.batch,
            specs: resp.detail.map(|d| d.specs),
            plan: resp.plan,
        });
    }
    let (append_us, compact_ms) = replay_persist(&cx.dir.join("persist-replay"), &records)?;

    let (handle_miss, n_miss) = ms_median(&pt.tr, "edge.handle_miss");
    let (plan_miss, n_plan) = ms_median(&pt.tr, "planner.plan");
    r.layer("planner.miss_ms", plan_miss, "ms", n_plan);
    r.layer("edge.handle_miss_ms", handle_miss, "ms", n_miss);
    r.layer("transport.miss_ms", tcp_miss_ms - handle_miss, "ms", n_miss);
    r.layer(
        "persist.append_us_p50",
        median(&append_us).unwrap_or(f64::NAN),
        "us",
        append_us.len(),
    );
    if let Some(t) = tail(&append_us, 99.0) {
        r.layer("persist.append_us_tail", t.value, "us", t.n);
        r.note("persist.append_us_tail_pct", Json::Num(t.pct));
    }
    r.layer(
        "persist.compact_ms",
        median(&compact_ms).unwrap_or(f64::NAN),
        "ms",
        compact_ms.len(),
    );

    trace_keys(&mut pt, &keys, samples.len() as u64, r)?;
    pt.report(r);
    Ok(pt)
}

/// Store and persistence counters from the daemon's `stats` op.
fn store_counters(r: &mut Report, stats: &Json, n: usize) {
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(stats, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let (hits, misses) = (get(&["hits"]), get(&["misses"]));
    r.layer("store.hit_ratio", hits / (hits + misses), "share", n);
    r.layer(
        "store.warm_start_ratio",
        get(&["warm_starts"]) / misses,
        "share",
        n,
    );
    for (layer, path) in [
        ("store.evictions", &["evictions"][..]),
        ("store.shared_failures", &["shared_failures"]),
        ("persist.wal_records", &["persist", "wal_records"]),
        ("persist.compactions", &["persist", "compactions"]),
        ("persist.io_errors", &["persist", "io_errors"]),
    ] {
        r.layer(layer, get(path), "count", n);
    }
}

/// Replays the churn request sequence through `handle_request` on a
/// fresh persistent store shaped like the daemon's. Returns the key of
/// every request that missed.
fn replay_churn(
    cx: &Ctx,
    samples: &[Sample],
    keys: &[Key],
    pool: &Arc<WorkerPool>,
    tr: &mut Tracer,
) -> Result<Vec<usize>, String> {
    let dir = cx.dir.join("replay");
    fresh_dir(&dir)?;
    let store = PlanStore::open(CHURN_CAPACITY, &dir).map_err(|e| format!("open store: {e}"))?;
    let sc = ServerConfig {
        fast: true,
        workers: 2,
        ..ServerConfig::default()
    };
    let ctx = ServeCtx {
        store: &store,
        sc: &sc,
        pool: Some(pool),
        admission: None,
        clock: None,
    };
    let mut misses = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        tr.set_request(i as u64);
        let key = &keys[s.key];
        let reply = tr.span_named(
            |_| handle_request(&ctx, key.line.trim_end()),
            |reply| match parse_response(reply.text()) {
                Ok(resp) if resp.cached => "edge.handle_hit",
                _ => "edge.handle_miss",
            },
        );
        let resp = parse_response(reply.text()).map_err(|e| format!("{}: {e}", key.label()))?;
        churn_gate(keys)(s.key, &resp)?;
        if !resp.cached {
            misses.push(s.key);
        }
    }
    Ok(misses)
}

/// Appends the miss records through `Persist` in `dir` (cycling until
/// [`APPEND_SAMPLES`] appends), compacting whenever the log asks for it
/// with the most recent [`CHURN_CAPACITY`] records as the live set.
/// Returns append times (µs) and compaction times (ms).
fn replay_persist(dir: &Path, records: &[PlanRecord]) -> Result<(Vec<f64>, Vec<f64>), String> {
    fresh_dir(dir)?;
    if records.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let io = |e: std::io::Error| format!("persist replay: {e}");
    let (mut p, _) = Persist::open(dir).map_err(io)?;
    let mut live: VecDeque<&PlanRecord> = VecDeque::new();
    let (mut append_us, mut compact_ms) = (Vec::new(), Vec::new());
    for rec in records
        .iter()
        .cycle()
        .take(records.len().max(APPEND_SAMPLES))
    {
        let t = Instant::now();
        p.append(rec).map_err(io)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        live.retain(|l| (l.graph_fp, l.config_fp) != (rec.graph_fp, rec.config_fp));
        live.push_back(rec);
        if live.len() > CHURN_CAPACITY {
            live.pop_front();
        }
        if p.wants_compaction(live.len()) {
            let t = Instant::now();
            p.compact(live.iter().copied()).map_err(io)?;
            compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((append_us, compact_ms))
}
