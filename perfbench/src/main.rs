//! The repository benchmark: seeded workloads that drive the public API of
//! `tage-sim` and `tage-bench` from outside and report what a user of the
//! system sees (end to end) and, in a separate traced run, what each layer
//! costs (per layer). `BENCHMARK.json` at the repository root names every
//! metric; `perfbench/WORKLOADS.md` says why each workload exists and which
//! layers it loads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_lanes --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`; the
//! lines before it are the run record (host, toolchain, seed, parameters)
//! and a readable report. Scratch files live under `.perfbench/` and are
//! removed on exit; a traced run leaves its spans in
//! `.perfbench/spans-<workload>-seed<seed>.json`.

mod grids;
mod host;
mod inputs;
mod layers;
mod sampled;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Tracer;

/// The seed the workloads were developed and tuned on. Claims of a speed-up
/// should be confirmed on another seed as well.
pub const DEVELOPMENT_SEED: u64 = 1;

/// Campaign and daemon worker threads for every workload.
pub const WORKERS: usize = 2;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("branches_per_s", "1/s"),
    ("warm_branches_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not load reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("traces.synthetic.mrec_per_s", "Mrec/s"),
    ("traces.decode.gz.mb_per_s", "MB/s"),
    ("traces.decode.cbp.mb_per_s", "MB/s"),
    ("traces.decode.cbpb.mb_per_s", "MB/s"),
    ("traces.inflate.mb_per_s", "MB/s"),
    ("traces.file.mrec_per_s", "Mrec/s"),
    ("tage.predict.ns_per_branch", "ns"),
    ("tage.train.ns_per_branch", "ns"),
    ("tage.lanes.16.ns_per_branch", "ns"),
    ("tage.lanes.4.ns_per_branch", "ns"),
    ("tage.snapshot.encode_us", "us"),
    ("tage.snapshot.restore_us", "us"),
    ("confidence.classify.ns_per_branch", "ns"),
    ("confidence.estimator.ns_per_branch", "ns"),
    ("predictors.baseline.bimodal.ns_per_branch", "ns"),
    ("predictors.baseline.gshare.ns_per_branch", "ns"),
    ("predictors.baseline.perceptron.ns_per_branch", "ns"),
    ("sim.engine.ns_per_branch", "ns"),
    ("sim.scenarios.energy.ns_per_branch", "ns"),
    ("sim.scenarios.prefetch.ns_per_branch", "ns"),
    ("sim.point.multilane_cell_s", "s"),
    ("sim.point.scalar_cell_s", "s"),
    ("sim.point.shared_predictor_cell_s", "s"),
    ("sim.point.sampled_cell_s", "s"),
    ("sim.multilane.lanes_occupied", "count"),
    ("sim.multilane.scalar_fallback_cells", "count"),
    ("sim.phase.build_plan_s", "s"),
    ("sim.phase.measured_fraction", "ratio"),
    ("sim.phase.replayed_records.cold", "count"),
    ("sim.phase.replayed_records.warm", "count"),
    ("sim.phase.sampling_error_pct", "%"),
    ("sim.warmcache.hits.cold", "count"),
    ("sim.warmcache.misses.cold", "count"),
    ("sim.warmcache.hits.warm", "count"),
    ("sim.warmcache.misses.warm", "count"),
    ("bench.campaign.busy_ratio", "ratio"),
    ("bench.campaign.tail_idle_s", "s"),
    ("bench.campaign.steals", "count"),
    ("bench.cellstore.store_ms", "ms"),
    ("bench.cellstore.load_ms", "ms"),
    ("bench.cellstore.hits", "count"),
    ("bench.cellstore.misses", "count"),
    ("bench.service.http_rtt_ms", "ms"),
    ("bench.service.report_ms", "ms"),
    ("bench.service.queue_wait_ms", "ms"),
    ("bench.service.worker_utilization", "ratio"),
    ("bench.service.cells_computed", "count"),
    ("bench.service.cells_restored", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "grid_lanes",
    "grid_scalar_skewed",
    "sampled_real_traces",
    "serve_closed_loop",
];

/// Everything one workload run accumulates: the tracer, operation and
/// check counts, metric values and report lines.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// Spans (recording only in a traced run).
    pub tracer: Tracer,
    /// Scratch directory, removed when the run ends.
    pub work: PathBuf,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    lines: Vec<String>,
    params: Vec<(&'static str, String)>,
}

impl Run {
    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Counts one output check; a failed one is reported and counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("FAILED check: {}", what()));
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one failed operation with its error.
    pub fn op_failed(&mut self, what: &str, error: impl std::fmt::Display) {
        self.ops(1, 1);
        self.lines.push(format!("FAILED {what}: {error}"));
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records a workload parameter for the run record.
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEVELOPMENT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The final result line: exactly the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
fn result_line(run: &Run) -> Result<String, String> {
    let list: &[(&str, &str)] = if run.traced() {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match run.values.get(name) {
            Some(value) => *value,
            None if run.traced() => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(error) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {error}", work.display());
        return ExitCode::from(2);
    }
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work: work.clone(),
        attempted: 0,
        failed: 0,
        values: BTreeMap::new(),
        lines: Vec::new(),
        params: Vec::new(),
    };
    let outcome = match args.workload.as_str() {
        "grid_lanes" => grids::run(&mut run, &grids::LANES),
        "grid_scalar_skewed" => grids::run(&mut run, &grids::SCALAR_SKEWED),
        "sampled_real_traces" => sampled::run(&mut run),
        "serve_closed_loop" => serve::run(&mut run),
        _ => unreachable!("parse_args checks the workload"),
    };
    run.set("peak_rss_mb", host::peak_rss_mb());
    let result = outcome.and_then(|()| result_line(&run));
    if run.traced() {
        let path = PathBuf::from(".perfbench")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, spans::to_json(run.tracer.spans())) {
            Ok(()) => run.line(format!("spans written to {}", path.display())),
            Err(error) => run.line(format!("cannot write {}: {error}", path.display())),
        }
        for (name, (count, total, self_s)) in spans::summary(run.tracer.spans()) {
            run.line(format!(
                "span {name}: count={count} total={total:.6} s self={self_s:.6} s"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!(
        "run: {}",
        host::record(&args.workload, args.seed, &run.params)
    );
    for line in &run.lines {
        println!("{line}");
    }
    if run.attempted > 0 {
        println!(
            "failed_ratio = {:.6} ({} of {} operations and checks)",
            run.failed as f64 / run.attempted as f64,
            run.failed,
            run.attempted
        );
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_bench::jsonish;

    fn names(json: &str, section: &str) -> Vec<(String, String)> {
        jsonish::extract_array_objects(json, section)
            .iter()
            .map(|entry| {
                (
                    jsonish::string_field(entry, "name").expect("named"),
                    jsonish::string_field(entry, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = jsonish::extract_array_objects(&json, "workloads")
            .iter()
            .map(|w| jsonish::string_field(w, "name").expect("named"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn result_line_fills_bypassed_layers_with_zero_and_requires_end_to_end() {
        let mut run = Run {
            seed: 1,
            seconds: 1.0,
            tracer: Tracer::new(false),
            work: PathBuf::new(),
            attempted: 3,
            failed: 0,
            values: BTreeMap::new(),
            lines: Vec::new(),
            params: Vec::new(),
        };
        assert!(
            result_line(&run).is_err(),
            "end-to-end metrics are required"
        );
        for (name, _) in END_TO_END {
            run.set(name, 1.5);
        }
        let line = result_line(&run).unwrap();
        jsonish::validate_document(&line, jsonish::DEFAULT_MAX_DEPTH).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));

        run.tracer = Tracer::new(true);
        run.check(false, || "mismatch".to_string());
        let line = result_line(&run).unwrap();
        assert!(line.contains("\"correct\": false"));
        assert!(line.contains("\"bench.trace_overhead_pct\": {\"value\": 0, \"unit\": \"%\"}"));
        assert!(!line.contains("setup_s"));
    }
}
