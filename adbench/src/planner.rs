//! The planner layers, traced: every workload's traced run puts its plans
//! through [`PlanTrace::plan`], so every workload reports the same
//! per-layer metrics.
//!
//! One traced plan builds and fingerprints the graph, runs `request::plan`
//! as a black box, then `Optimizer::optimize` alone (their gap is what the
//! request layer adds), then replays `optimize`'s candidate loop stage by
//! stage (`Stage::run`, then `validate::admit` after each stage) twice:
//! with the recorder off and on, whose gap is the tracing overhead. Both
//! replays must reach the cycles `request::plan` returned.

use std::sync::Arc;
use std::time::Instant;

use accel_sim::SimStats;
use ad_util::WorkerPool;
use atomic_dataflow::pipeline::{AtomGenStage, LowerStage, MapStage, ScheduleStage, SimulateStage};
use atomic_dataflow::{
    request, validate, CostInterner, Optimizer, OptimizerConfig, PlanContext, PlanRequest,
    ScheduleMode, ScratchPool, Stage,
};
use dnn_graph::{models, Graph};

use crate::host;
use crate::report::Report;
use crate::trace::{self, Tracer};

/// One timed `request::plan` call: wall ms, process CPU ms, response.
pub fn timed_plan(
    graph: &Graph,
    cfg: OptimizerConfig,
    pool: &Arc<WorkerPool>,
) -> (f64, f64, Result<request::PlanResponse, String>) {
    let req = PlanRequest::new(graph, cfg).with_pool(pool.clone());
    let (w0, c0) = (Instant::now(), host::process_cpu_ms());
    let resp = request::plan(&req);
    let wall = w0.elapsed().as_secs_f64() * 1e3;
    (
        wall,
        host::process_cpu_ms() - c0,
        resp.map_err(|e| e.to_string()),
    )
}

/// Counters summed over one replay's candidates, plus its winner.
#[derive(Default)]
struct Replay {
    candidates: u64,
    atoms: u64,
    sa_iters: u64,
    rounds: u64,
    tasks: u64,
    winner: Option<SimStats>,
}

/// Shared state of one replayed `Optimizer::optimize` call, as the
/// optimizer builds it: one cost interner and one scratch pool across
/// candidates.
struct ReplayCtx<'a> {
    graph: &'a Graph,
    cfg: OptimizerConfig,
    pool: &'a Arc<WorkerPool>,
    interner: Arc<CostInterner>,
    scratch: Arc<ScratchPool>,
}

/// Replays `Optimizer::optimize`'s candidate loop sequentially: one
/// pipeline per granularity target, the cheapest kept (earliest on ties),
/// then the LayerOrder refinement at the winning target when DP search is
/// on. Every stage is followed by `validate::admit`.
fn replay(
    graph: &Graph,
    cfg: OptimizerConfig,
    pool: &Arc<WorkerPool>,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let rc = ReplayCtx {
        graph,
        cfg,
        pool,
        interner: Arc::new(CostInterner::new()),
        scratch: Arc::new(ScratchPool::new(pool.threads())),
    };
    let mut out = Replay::default();
    let mut best: Option<(usize, SimStats)> = None;
    for &target in cfg.search_targets.iter().filter(|&&t| t != 0) {
        let stats = tr.span("candidate", |tr| {
            candidate(&rc, target, cfg.schedule_mode, tr, &mut out)
        })?;
        if best
            .as_ref()
            .is_none_or(|(_, b)| stats.total_cycles < b.total_cycles)
        {
            best = Some((target, stats));
        }
    }
    let (target, mut winner) = best.ok_or("no granularity target configured")?;
    if matches!(cfg.schedule_mode, ScheduleMode::Dp { .. }) {
        let lo = tr.span("optimizer.refine", |tr| {
            candidate(&rc, target, ScheduleMode::LayerOrder, tr, &mut out)
        })?;
        if lo.total_cycles < winner.total_cycles {
            winner = lo;
        }
    }
    out.winner = Some(winner);
    Ok(out)
}

/// One candidate pipeline through `Stage::run`, admitted after each stage.
fn candidate(
    rc: &ReplayCtx<'_>,
    target: usize,
    mode: ScheduleMode,
    tr: &mut Tracer,
    out: &mut Replay,
) -> Result<SimStats, String> {
    let mut ctx = PlanContext::new(rc.graph, rc.cfg);
    ctx.cost_interner = Some(rc.interner.clone());
    ctx.pool = Some(rc.pool.clone());
    ctx.scratch = Some(rc.scratch.clone());
    let stages: [&dyn Stage; 5] = [
        &AtomGenStage {
            target: Some(target),
        },
        &ScheduleStage { mode: Some(mode) },
        &MapStage,
        &LowerStage,
        &SimulateStage,
    ];
    for stage in stages {
        let name = stage.name();
        tr.span(name, |_| stage.run(&mut ctx))
            .map_err(|e| format!("{name}: {e}"))?;
        tr.span("validate", |_| validate::admit(&mut ctx))
            .map_err(|e| format!("admission after {name}: {e}"))?;
    }
    let missing = |what: &str| format!("candidate produced no {what}");
    out.candidates += 1;
    out.atoms += ctx.dag.as_ref().ok_or_else(|| missing("dag"))?.atom_count() as u64;
    let gen = ctx
        .gen_report
        .as_ref()
        .ok_or_else(|| missing("gen report"))?;
    out.sa_iters += gen.history.len().saturating_sub(1) as u64;
    out.rounds += ctx
        .schedule
        .as_ref()
        .ok_or_else(|| missing("schedule"))?
        .len() as u64;
    out.tasks += ctx
        .program
        .as_ref()
        .ok_or_else(|| missing("program"))?
        .tasks()
        .len() as u64;
    ctx.stats.take().ok_or_else(|| missing("stats"))
}

/// Sums over the plans a traced run replays, and the recorders.
pub struct PlanTrace {
    /// The recorder whose spans are reported and written out.
    pub tr: Tracer,
    off: Tracer,
    plans: u64,
    build_us: f64,
    fingerprint_us: f64,
    plan_wall_ms: f64,
    plan_cpu_ms: f64,
    assemble_ms: f64,
    replay_off_ms: f64,
    replay_on_ms: f64,
    candidates: u64,
    atoms: u64,
    sa_iters: u64,
    rounds: u64,
    tasks: u64,
    dram_blocked_share: f64,
    noc_blocked_share: f64,
    pe_util: f64,
}

impl Default for PlanTrace {
    fn default() -> Self {
        Self {
            tr: Tracer::new(true),
            off: Tracer::new(false),
            plans: 0,
            build_us: 0.0,
            fingerprint_us: 0.0,
            plan_wall_ms: 0.0,
            plan_cpu_ms: 0.0,
            assemble_ms: 0.0,
            replay_off_ms: 0.0,
            replay_on_ms: 0.0,
            candidates: 0,
            atoms: 0,
            sa_iters: 0,
            rounds: 0,
            tasks: 0,
            dram_blocked_share: 0.0,
            noc_blocked_share: 0.0,
            pe_util: 0.0,
        }
    }
}

impl PlanTrace {
    /// Traces one Atomic-Dataflow plan of `model` under `cfg` on `pool`
    /// (request id `req`) and returns `request::plan`'s response. A replay
    /// that misses the response's cycles is a violation in `r`.
    ///
    /// # Errors
    ///
    /// Unknown model, or a planning call that fails.
    pub fn plan(
        &mut self,
        model: &str,
        cfg: OptimizerConfig,
        pool: &Arc<WorkerPool>,
        req: u64,
        r: &mut Report,
    ) -> Result<request::PlanResponse, String> {
        let t = Instant::now();
        let graph = models::by_name(model).ok_or_else(|| format!("unknown model {model}"))?;
        let build_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        std::hint::black_box(graph.canonical_fingerprint());
        let fingerprint_us = t.elapsed().as_secs_f64() * 1e6;

        // The request as a black box, then `optimize` alone.
        let (plan_ms, cpu_ms, resp) = timed_plan(&graph, cfg, pool);
        let resp = resp.map_err(|e| format!("{model}: {e}"))?;
        let t = Instant::now();
        Optimizer::new(cfg)
            .with_pool(pool.clone())
            .optimize(&graph)
            .map_err(|e| format!("{model}: optimize: {e}"))?;
        let optimize_ms = t.elapsed().as_secs_f64() * 1e3;

        // The same replay with the recorder off, then on.
        let t = Instant::now();
        let plain = replay(&graph, cfg, pool, &mut self.off)?;
        let replay_off_ms = t.elapsed().as_secs_f64() * 1e3;
        self.tr.set_request(req);
        let t = Instant::now();
        let traced = self.tr.span("replay", |tr| replay(&graph, cfg, pool, tr))?;
        let replay_on_ms = t.elapsed().as_secs_f64() * 1e3;

        let want = resp.stats.total_cycles;
        for (label, rp) in [("untraced", &plain), ("traced", &traced)] {
            let got = rp.winner.as_ref().map_or(0, |w| w.total_cycles);
            r.check(got == want, || {
                format!("{model}: {label} replay winner has {got} cycles, request::plan {want}")
            });
        }
        let w = traced.winner.as_ref().ok_or("replay without winner")?;
        let engine_cycles = (w.total_cycles as f64 * w.engine_busy_cycles.len() as f64).max(1.0);
        self.plans += 1;
        self.build_us += build_us;
        self.fingerprint_us += fingerprint_us;
        self.plan_wall_ms += plan_ms;
        self.plan_cpu_ms += cpu_ms;
        self.assemble_ms += plan_ms - optimize_ms;
        self.replay_off_ms += replay_off_ms;
        self.replay_on_ms += replay_on_ms;
        self.candidates += traced.candidates;
        self.atoms += traced.atoms;
        self.sa_iters += traced.sa_iters;
        self.rounds += traced.rounds;
        self.tasks += traced.tasks;
        self.dram_blocked_share += w.dram_blocked_cycles as f64 / engine_cycles;
        self.noc_blocked_share += w.noc_blocked_cycles as f64 / engine_cycles;
        self.pe_util += w.pe_utilization;
        Ok(resp)
    }

    /// Adds the per-layer metrics, each per traced plan.
    pub fn report(&self, r: &mut Report) {
        let plans = self.plans.max(1) as f64;
        let n = usize::try_from(self.plans).unwrap_or(usize::MAX);
        let spans = self.tr.spans();
        let selfs = trace::self_by_name(spans);
        let self_ms = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let sum_ms = |name: &str| trace::durations(spans, name).iter().sum::<u64>() as f64 / 1e6;
        r.metric("graph.build_us", self.build_us / plans, "us", n);
        r.metric("graph.fingerprint_us", self.fingerprint_us / plans, "us", n);
        r.metric("request.plan_ms", self.plan_wall_ms / plans, "ms", n);
        r.metric("request.assemble_ms", self.assemble_ms / plans, "ms", n);
        let stages = [
            "atomgen", "schedule", "map", "lower", "simulate", "validate",
        ];
        for stage in stages {
            r.metric(&format!("{stage}.self_ms"), self_ms(stage) / plans, "ms", n);
        }
        // The replay's wall time (the root `replay` spans) is partitioned
        // into stage self times, validate time and whatever no stage covers.
        let replay_ms = sum_ms("replay");
        let attributed: f64 = stages.iter().map(|s| self_ms(s)).sum();
        r.metric(
            "plan.unattributed_ms",
            (replay_ms - attributed) / plans,
            "ms",
            n,
        );
        r.metric("replay.wall_ms", replay_ms / plans, "ms", n);
        r.metric(
            "optimizer.refine_ms",
            sum_ms("optimizer.refine") / plans,
            "ms",
            n,
        );
        r.metric(
            "optimizer.candidates",
            self.candidates as f64 / plans,
            "count",
            n,
        );
        r.metric("atomgen.atoms", self.atoms as f64 / plans, "count", n);
        r.metric("atomgen.sa_iters", self.sa_iters as f64 / plans, "count", n);
        r.metric("schedule.rounds", self.rounds as f64 / plans, "count", n);
        r.metric("lower.tasks", self.tasks as f64 / plans, "count", n);
        r.metric(
            "simulate.us_per_task",
            self_ms("simulate") * 1e3 / self.tasks.max(1) as f64,
            "us",
            n,
        );
        r.metric(
            "simulate.dram_blocked_share",
            self.dram_blocked_share / plans,
            "share",
            n,
        );
        r.metric(
            "simulate.noc_blocked_share",
            self.noc_blocked_share / plans,
            "share",
            n,
        );
        r.metric("simulate.pe_util", self.pe_util / plans, "share", n);
        r.metric(
            "pool.cpu_per_wall",
            self.plan_cpu_ms / self.plan_wall_ms,
            "ratio",
            n,
        );
        r.metric(
            "trace.overhead_share",
            (self.replay_on_ms - self.replay_off_ms) / self.replay_off_ms,
            "share",
            n,
        );
    }
}
