//! The result of one run: correctness, counts, metrics with their units,
//! and the facts needed to read them (sample counts, layer readings).

use ad_util::Json;

/// The end-to-end metrics, as `BENCHMARK.json` lists them: every workload
/// reports each of them on an untraced run.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_rps",
    "latency_ms",
    "peak_rss_mb",
    "sim_cycles_geomean",
];

/// The per-layer metrics, as `BENCHMARK.json` lists them: every workload
/// reports each of them on a traced run.
pub const PER_LAYER: [&str; 24] = [
    "graph.build_us",
    "graph.fingerprint_us",
    "request.plan_ms",
    "request.assemble_ms",
    "atomgen.self_ms",
    "schedule.self_ms",
    "map.self_ms",
    "lower.self_ms",
    "simulate.self_ms",
    "validate.self_ms",
    "plan.unattributed_ms",
    "replay.wall_ms",
    "optimizer.refine_ms",
    "optimizer.candidates",
    "atomgen.atoms",
    "atomgen.sa_iters",
    "schedule.rounds",
    "lower.tasks",
    "simulate.us_per_task",
    "simulate.dram_blocked_share",
    "simulate.noc_blocked_share",
    "simulate.pe_util",
    "pool.cpu_per_wall",
    "trace.overhead_share",
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `1/s`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (plans or requests).
    pub attempted: u64,
    /// Operations that returned an error or a refusal.
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub violations: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Layer readings that only some workloads have (the serving layers),
    /// carried on the host line instead of the result line.
    pub layers: Vec<Metric>,
    /// Further facts for the host line.
    pub notes: Vec<(String, Json)>,
}

impl Report {
    /// Records a correctness-gate failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds a metric computed from `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a layer reading to the host line.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a violation for every name of `want` that is not reported
    /// exactly once, and for every reported name not in `want`.
    pub fn check_names(&mut self, want: &[&str]) {
        for w in want {
            let n = self.metrics.iter().filter(|m| m.name == *w).count();
            self.check(n == 1, || format!("metric {w} reported {n} times"));
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !want.contains(&m.name.as_str()))
            .map(|m| m.name.clone())
            .collect();
        for name in extra {
            self.check(false, || format!("metric {name} is not in the manifest"));
        }
    }

    /// Adds a fact to the host line.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Whether every correctness gate passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The host line: host facts, notes, sample counts per metric and
    /// the percentile used for each tail.
    pub fn host_line(&self, mut facts: Vec<(String, Json)>) -> String {
        facts.extend(self.notes.iter().cloned());
        let samples = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::from(m.samples)))
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::from(m.unit)),
                    ("samples".into(), Json::from(m.samples)),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        facts.push(("samples".into(), Json::Obj(samples)));
        facts.push(("layers".into(), Json::Obj(layers)));
        facts.push(("violations".into(), Json::from(self.violations.len())));
        facts.push((
            "first_violations".into(),
            Json::Arr(
                self.violations
                    .iter()
                    .take(20)
                    .map(|v| Json::from(v.as_str()))
                    .collect(),
            ),
        ));
        Json::Obj(vec![("host".into(), Json::Obj(facts))]).to_compact()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN: a non-finite value is `null` (and a
                // violation, see `main`).
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names of one list of `BENCHMARK.json`, in file order.
    fn manifest_names(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn name_lists_match_the_manifest() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
    }

    #[test]
    fn missing_and_extra_names_are_violations() {
        let mut r = Report::default();
        r.metric("a", 1.0, "ms", 1);
        r.metric("c", 1.0, "ms", 1);
        r.check_names(&["a", "b"]);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations[0].contains("metric b reported 0 times"));
        assert!(r.violations[1].contains("metric c is not in the manifest"));
    }
}
