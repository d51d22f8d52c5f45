//! The benchmark binary for the planner and the `ad-serve` daemon.
//!
//! ```text
//! adbench --workload <plan-paper|serve-hot|serve-churn> --seed <n>
//!         --seconds <s> --trace <0|1> --ad-serve <path> --scratch <dir>
//! ```
//!
//! Prints a host line (host facts, sample counts, percentiles used) and,
//! as the last line, the result JSON: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the per-layer ones from the traced run, whose spans
//! are also written to `<scratch>/trace-<workload>-<seed>.jsonl`. Every
//! workload reports every metric of the manifest (`report::END_TO_END`,
//! `report::PER_LAYER`); a missing or extra name fails the run. Exits 1
//! when a correctness gate fails, 2 on a usage error, and without a
//! result line when the run cannot complete.

mod host;
mod plan_paper;
mod planner;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use ad_util::Json;

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    ad_serve: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        ad_serve: PathBuf::from(get("--ad-serve")?),
        scratch: PathBuf::from(get("--scratch")?),
    })
}

fn run(a: &Args, r: &mut Report) -> Result<Option<trace::Tracer>, String> {
    let dir = a
        .scratch
        .join(format!("{}-{}", a.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cx = serve::Ctx {
        bin: a.ad_serve.clone(),
        dir: dir.clone(),
        seed: a.seed,
        seconds: a.seconds,
    };
    let out = match (a.workload.as_str(), a.trace) {
        ("plan-paper", false) => plan_paper::run(a.seed, a.seconds, r).map(|()| None),
        ("plan-paper", true) => plan_paper::run_traced(a.seed, a.seconds, r).map(|p| Some(p.tr)),
        ("serve-hot", false) => serve::run_hot(&cx, r).map(|()| None),
        ("serve-hot", true) => serve::run_hot_traced(&cx, r).map(|p| Some(p.tr)),
        ("serve-churn", false) => serve::run_churn(&cx, r).map(|()| None),
        ("serve-churn", true) => serve::run_churn_traced(&cx, r).map(|p| Some(p.tr)),
        (other, _) => Err(format!(
            "unknown workload {other} (plan-paper|serve-hot|serve-churn)"
        )),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adbench: {e}");
            std::process::exit(2);
        }
    };
    let mut r = Report::default();
    let tracer = match run(&a, &mut r) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("adbench: {}: {e}", a.workload);
            std::process::exit(1);
        }
    };
    if let Some(t) = tracer {
        let path = a
            .scratch
            .join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
        match t.write_jsonl(&path) {
            Ok(()) => r.note("trace_file", Json::from(path.display().to_string())),
            Err(e) => eprintln!("adbench: writing {}: {e}", path.display()),
        }
        r.note("spans", Json::from(t.spans().len()));
    }
    let bad: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        r.check(false, || format!("metric {name} is not a finite number"));
    }
    r.check(r.attempted > 0, || "nothing was attempted".into());
    r.check_names(if a.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    });
    println!("{}", r.host_line(host::facts(&a.workload, a.seed, a.trace)));
    println!("{}", r.result_line());
    if !r.correct() {
        for v in r.violations.iter().take(20) {
            eprintln!("adbench: correctness: {v}");
        }
        std::process::exit(1);
    }
}
