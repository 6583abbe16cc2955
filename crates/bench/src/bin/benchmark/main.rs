//! `benchmark` — one benchmark for the whole routing stack.
//!
//! ```text
//! cargo build --release --offline -p benes-serve -p benes-bench \
//!     --bin benes-serve --bin benchmark
//! target/release/benchmark [--workload NAME]... [--seed N] [--seconds S]
//!                          [--trace 0|1] [--spans PATH] [--out PATH]
//! ```
//!
//! Each workload sets up its system (timed), warms it for [`WARMUP`],
//! then measures for `--seconds`. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it measures half the time
//! untraced and half traced, replays sampled requests through every
//! layer, prints the per-layer metrics and writes the spans as JSON
//! lines. Every metric is printed as `workload metric value unit`; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed, refused or
//! unverified request, or any ledger that does not conserve, makes the
//! exit status nonzero. See README.md for the workloads and the layer
//! map.

mod daemon;
mod host;
mod live;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use workloads::Workload;

/// Requests attempted and the failures among them (plus failed ledger,
/// replay and set-up checks), with the first few messages.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Check {
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics one workload reports, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// `{layer}_p50_ns` (and `{layer}_p99_ns` when `p99`) of raw
    /// nanosecond samples. A layer without samples is a failure.
    pub fn layer(&mut self, layer: &str, mut ns: Vec<u64>, p99: bool, check: &mut Check) {
        if ns.is_empty() {
            check.fail(format!("no samples for layer {layer}"));
        }
        let p50 = stats::quantile(&mut ns, 0.5).unwrap_or(0);
        self.push(format!("{layer}_p50_ns"), p50 as f64, "ns");
        if p99 {
            let p99 = stats::quantile(&mut ns, 0.99).unwrap_or(0);
            self.push(format!("{layer}_p99_ns"), p99 as f64, "ns");
        }
    }
}

/// The untimed warm-up before every measured phase: long enough for the
/// plan cache to fill and the daemons' first lazy set-up to finish.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Settings shared by every workload of one invocation.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
}

impl Config {
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// [`WARMUP`], or the measured phase when that is shorter.
    pub fn warm(&self) -> Duration {
        WARMUP.min(self.measure())
    }

    /// Where the spans of `workload` go: `--spans`, or beside this
    /// executable.
    pub fn spans_path(&self, workload: &str) -> PathBuf {
        self.spans.clone().unwrap_or_else(|| {
            std::env::current_exe()
                .map(|exe| exe.with_file_name(format!("spans-{workload}.jsonl")))
                .unwrap_or_else(|_| PathBuf::from(format!("spans-{workload}.jsonl")))
        })
    }
}

/// One workload's result.
pub struct Report {
    pub workload: &'static str,
    /// Workload parameters as the body of a JSON object.
    pub params: String,
    pub check: Check,
    pub metrics: Metrics,
}

struct Args {
    workloads: Vec<Workload>,
    config: Config,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut config = Config { seed: 1, seconds: 20.0, trace: false, spans: None };
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workloads.push(
                    Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                config.seed =
                    value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                config.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--spans" => config.spans = Some(PathBuf::from(value("--spans")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(config.seconds > 0.0 && config.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Args { workloads, config, out })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(reports: &[Report], prefixed: bool) -> String {
    let mut fields = Vec::new();
    for r in reports {
        for m in &r.metrics.0 {
            let key = if prefixed {
                format!("{}:{}", r.workload, m.name)
            } else {
                m.name.clone()
            };
            fields.push(format!(
                "\"{key}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_number(m.value),
                m.unit
            ));
        }
    }
    format!("{{{}}}", fields.join(","))
}

fn result_json(args: &Args, reports: &[Report]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let errors: Vec<String> =
                r.check.errors.iter().map(|e| host::json_str(e)).collect();
            format!(
                "{{\"name\":\"{}\",\"params\":{{{}}},\"attempted\":{},\"failed\":{},\
                 \"errors\":[{}],\"metrics\":{}}}",
                r.workload,
                r.params,
                r.check.attempted,
                r.check.failed,
                errors.join(","),
                metrics_json(std::slice::from_ref(r), false),
            )
        })
        .collect();
    format!(
        "{{\"host\":{},\"seed\":{},\"seconds\":{},\"warmup\":{},\"trace\":{},\
         \"workloads\":[{}]}}\n",
        host::host_json(),
        args.config.seed,
        args.config.seconds,
        args.config.warm().as_secs_f64(),
        args.config.trace,
        workloads.join(","),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e} (see the module docs for usage)");
            std::process::exit(2);
        }
    };
    let reports: Vec<Report> =
        args.workloads.iter().map(|w| workloads::run(*w, &args.config)).collect();

    // The host block and the parameters go to standard error, so every
    // run's log carries them while the last line of standard output
    // stays the result.
    eprintln!("benchmark: host {}", host::host_json());
    let mut attempted = 0;
    let mut failed = 0;
    for r in &reports {
        for m in &r.metrics.0 {
            println!("{} {} {} {}", r.workload, m.name, m.value, m.unit);
        }
        eprintln!("benchmark: {} params {{{}}}", r.workload, r.params);
        for e in &r.check.errors {
            eprintln!("benchmark: {}: {e}", r.workload);
        }
        attempted += r.check.attempted;
        failed += r.check.failed;
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, result_json(&args, &reports)) {
            eprintln!("benchmark: write {}: {e}", path.display());
            failed += 1;
        }
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&reports, reports.len() > 1),
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Half-second `engine-closed` runs must verify every request and report
/// every metric `BENCHMARK.json` declares for their mode.
#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The metric names of one section of `BENCHMARK.json`: every `"name"`
    /// value between the section's key and the closing bracket of its list.
    fn declared(section: &str) -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = doc.find(&format!("\"{section}\"")).expect("section present");
        let list = &doc[start..];
        let list = &list[..list.find(']').expect("section is a list")];
        list.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    /// A half-second `engine-closed` run, checked to be correct; returns
    /// it and its metric names, each also present in the result line.
    fn smoke(trace: bool, spans: Option<PathBuf>) -> (Report, BTreeSet<String>) {
        let config = Config { seed: 1, seconds: 0.5, trace, spans };
        let r = workloads::run(Workload::EngineClosed, &config);
        assert!(r.check.attempted > 0, "no request attempted");
        assert_eq!(r.check.failed, 0, "{:?}", r.check.errors);
        let json = metrics_json(std::slice::from_ref(&r), false);
        let names: BTreeSet<String> = r.metrics.0.iter().map(|m| m.name.clone()).collect();
        for name in &names {
            assert!(json.contains(&format!("\"{name}\":{{\"value\":")), "{name} in {json}");
        }
        (r, names)
    }

    #[test]
    fn untraced_smoke_emits_every_end_to_end_metric() {
        let (_, names) = smoke(false, None);
        assert_eq!(names, declared("end_to_end"));
    }

    #[test]
    fn traced_smoke_emits_every_per_layer_metric_and_the_spans() {
        let path = std::env::temp_dir()
            .join(format!("benchmark-smoke-spans-{}.jsonl", std::process::id()));
        let (_, names) = smoke(true, Some(path.clone()));
        assert_eq!(names, declared("per_layer"));
        let spans = std::fs::read_to_string(&path).expect("span file written");
        std::fs::remove_file(&path).expect("remove the span file");
        let first = spans.lines().next().expect("at least one span");
        assert!(first.starts_with("{\"name\":\"request\",\"req_id\":"), "{first}");
        assert!(first.contains("\"parent\":null"));
        for name in ["engine.wait", "replay.plan.execute", "replay.cache.get"] {
            assert!(spans.contains(&format!("\"name\":\"{name}\"")), "{name} span");
        }
    }
}
