//! `plan-paper`: one closed-loop caller runs `request::plan` in process on
//! the paper-default configuration, no cache.
//!
//! The untraced run times whole `request::plan` calls. The traced run
//! puts every plan of the same cycle through [`PlanTrace::plan`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_util::{Json, WorkerPool};
use atomic_dataflow::{request, OptimizerConfig, PlanRequest};
use dnn_graph::{models, Graph};
use engine_model::HardwareConfig;

use crate::host;
use crate::planner::{timed_plan, PlanTrace};
use crate::report::Report;
use crate::stats::{geomean, geomean_of_medians, median, permutation};

/// The four paper workloads, cycled in a seeded order.
pub const MODELS: [&str; 4] = ["resnet50", "inception_v3", "vgg19", "efficientnet"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// What a caller builds before its first plan: the graphs, the paper
/// configuration and one persistent worker pool of `nproc` threads,
/// warmed up by planning a small graph once.
struct Setup {
    graphs: Vec<Graph>,
    cfg: OptimizerConfig,
    pool: Arc<WorkerPool>,
}

/// The warm-up graph: small, so set-up stays short, but planned through
/// the whole pipeline, so the pool's threads, scratch arenas and the
/// allocator are warm before the first timed plan. (Without it set-up is
/// well under a millisecond, and its run-to-run spread on a shared host
/// is larger than any bound.)
const WARM_UP: &str = "tiny_branchy";

fn setup() -> Result<Setup, String> {
    let threads = host::nproc();
    let cfg = OptimizerConfig::for_hardware(&HardwareConfig::paper_default())
        .map_err(|e| e.to_string())?
        .with_parallelism(threads);
    let graph = |m: &str| models::by_name(m).ok_or_else(|| format!("unknown model {m}"));
    let graphs = MODELS
        .iter()
        .map(|m| graph(m))
        .collect::<Result<Vec<_>, _>>()?;
    let pool = Arc::new(WorkerPool::new(threads));
    let warm = graph(WARM_UP)?;
    request::plan(&PlanRequest::new(&warm, cfg).with_pool(pool.clone()))
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(Setup { graphs, cfg, pool })
}

/// Per-model reference output (first plan of the run): later repeats must
/// return the same bytes and cycles.
#[derive(Default)]
struct Reference {
    plans: Vec<Option<(String, u64)>>,
}

impl Reference {
    fn check(&mut self, r: &mut Report, m: usize, resp: &request::PlanResponse) {
        let (plan, cycles) = (&resp.plan, resp.stats.total_cycles);
        if self.plans.len() <= m {
            self.plans.resize(m + 1, None);
        }
        match &self.plans[m] {
            None => self.plans[m] = Some((plan.clone(), cycles)),
            Some((p0, c0)) => r.check(p0 == plan && *c0 == cycles, || {
                format!(
                    "{}: repeat plan differs from the first ({cycles} vs {c0} cycles)",
                    MODELS[m]
                )
            }),
        }
    }

    fn cycles(&self) -> Vec<f64> {
        self.plans
            .iter()
            .flatten()
            .map(|(_, c)| *c as f64)
            .collect()
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, r: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        // Dropping the previous set-up joins its pool threads, untimed.
        if s.take().is_some() {
            std::thread::sleep(host::SETUP_GAP);
        }
        let t0 = Instant::now();
        s = Some(setup()?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.ok_or("no set-up")?;
    r.metric(
        "setup_s",
        median(&setup_s).unwrap_or(f64::NAN),
        "s",
        setup_s.len(),
    );

    let order = permutation(MODELS.len(), seed);
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let mut reference = Reference::default();
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut n = 0usize;
    // Whole cycles only, so every model has the same number of samples.
    while n % MODELS.len() != 0 || t0.elapsed() < budget {
        let m = order[n % MODELS.len()];
        n += 1;
        r.attempted += 1;
        let (w, c, resp) = timed_plan(&s.graphs[m], s.cfg, &s.pool);
        match resp {
            Ok(resp) => {
                wall[m].push(w);
                cpu[m].push(c);
                reference.check(r, m, &resp);
            }
            Err(e) => {
                r.failed += 1;
                r.note("last_error", Json::from(format!("{}: {e}", MODELS[m])));
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let ok = r.attempted - r.failed;
    let plans = usize::try_from(ok).unwrap_or(usize::MAX);
    let nan = f64::NAN;
    r.metric("throughput_rps", ok as f64 / elapsed, "1/s", plans);
    r.metric(
        "latency_ms",
        geomean_of_medians(&wall).unwrap_or(nan),
        "ms",
        plans,
    );
    r.metric(
        "peak_rss_mb",
        host::peak_rss_mb(std::process::id())?,
        "MB",
        1,
    );
    let cycles = reference.cycles();
    r.metric(
        "sim_cycles_geomean",
        geomean(&cycles).unwrap_or(nan),
        "cycles",
        cycles.len(),
    );
    r.note(
        "cpu_ms_per_op",
        Json::Num(geomean_of_medians(&cpu).unwrap_or(nan)),
    );
    r.note("seconds_measured", Json::Num(elapsed));
    r.note("plan_order", Json::from(order_names(&order)));
    let per_model = MODELS
        .iter()
        .zip(&wall)
        .map(|(m, w)| (m.to_string(), Json::Num(median(w).unwrap_or(nan))))
        .collect();
    r.note("plan_ms_median", Json::Obj(per_model));
    Ok(())
}

fn order_names(order: &[usize]) -> String {
    order
        .iter()
        .map(|&m| MODELS[m])
        .collect::<Vec<_>>()
        .join(",")
}

/// The traced run: per-layer metrics from the same seeded model cycle,
/// every plan traced through [`PlanTrace::plan`].
pub fn run_traced(seed: u64, seconds: u64, r: &mut Report) -> Result<PlanTrace, String> {
    let s = setup()?;
    let order = permutation(MODELS.len(), seed);
    let mut reference = Reference::default();
    let mut pt = PlanTrace::default();
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut n = 0usize;
    while n % MODELS.len() != 0 || t0.elapsed() < budget {
        let m = order[n % MODELS.len()];
        n += 1;
        r.attempted += 1;
        match pt.plan(MODELS[m], s.cfg, &s.pool, n as u64, r) {
            Ok(resp) => reference.check(r, m, &resp),
            Err(e) => {
                r.failed += 1;
                r.note("last_error", Json::from(e));
            }
        }
    }
    pt.report(r);
    r.note("seconds_measured", Json::Num(t0.elapsed().as_secs_f64()));
    r.note("plan_order", Json::from(order_names(&order)));
    Ok(pt)
}
