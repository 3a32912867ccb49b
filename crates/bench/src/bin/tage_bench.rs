//! `tage-bench` — the cross-product campaign runner.
//!
//! Expands a declarative predictor × confidence-scheme × suite grid into
//! sweep points, executes them through the generic simulation engine with a
//! work-stealing queue over points, and writes a versioned JSON campaign
//! report (see `docs/CAMPAIGNS.md` for the grid format and schema).
//!
//! ```text
//! tage-bench [--predictors LIST] [--schemes LIST] [--suites LIST]
//!            [--scenario LIST] [--trace-dir DIR]... [--branches N]
//!            [--workers N] [--engine multilane|scalar] [--label STR]
//!            [--out PATH] [--no-timing] [--list]
//!            [--checkpoint DIR | --resume DIR] [--max-cells N]
//!            [--sample] [--sample-interval N] [--sample-k N] [--sample-seed N]
//! tage-bench --explore [--budget-bits N] [--max-geometries N] [...]
//! tage-bench --export-traces DIR [--gzip] [--suites LIST] [--branches N]
//! tage-bench --check PATH
//! tage-bench --submit http://HOST:PORT [--no-wait] [grid flags...]
//! tage-bench --paper ARTEFACT,...|all [--branches N] [--out PATH]
//! ```
//!
//! Lists are comma-separated grid tokens; `--list` prints every known axis
//! value. Suites stream — synthetic registry tokens generate records on the
//! fly, and `--trace-dir` adds a file-backed suite over every `*.trace`
//! file in a directory, read chunk by chunk through
//! `tage_traces::source::BinaryFileSource` (when only `--trace-dir` suites
//! are given the synthetic default is dropped). `--export-traces` writes
//! the selected synthetic suites to disk as binary traces (streamed, never
//! materialized) so a follow-up run can consume them with `--trace-dir` —
//! this is what the CI campaign-smoke job does (`--gzip` writes
//! `.trace.gz` files instead — the std-only stored-block gzip framing the
//! gzip-native decoder reads back). `--check` structurally validates an
//! existing report (schema version + required fields) and exits non-zero
//! on mismatch.
//!
//! **Phase sampling** (SimPoint-style, see `docs/TRACES.md`): a suite
//! token of the form `sample:<suite>[:interval[:k[:seed]]]` runs the suite
//! through `tage_sim::phase` — each stream is sliced into
//! `interval`-record slices, clustered into at most `k` phases, and only
//! representative slices are simulated, with whole-trace metrics
//! reconstructed as weighted sums. `--sample` (or any `--sample-*`
//! override) instead applies one plan to *every* suite on the grid,
//! including `--trace-dir` suites. Sampled cells pair TAGE predictors with
//! the storage-free scheme on the baseline scenario; other cells are
//! skipped with a reason. Sampled reports stay byte-identical across
//! worker counts, engines, and kill/`--resume` — the sampling plan is part
//! of each cell's content-addressed identity.
//!
//! `--engine` picks the execution path: `multilane` (the default)
//! lane-batches the suite of each group of cells that can all run on lanes
//! (storage-free TAGE cells outside the shared-predictor scenario) through
//! the lockstep engine, and a timed cell's `path` says which engine ran it;
//! `scalar` forces the one-stream-at-a-time path everywhere. The two are
//! bit-identical — timing-free reports byte-match across engines (CI
//! verifies this) — so the flag is purely a throughput control.
//!
//! `--checkpoint DIR` persists every finished cell to DIR as it completes,
//! restoring already-finished cells on a re-run; `--resume DIR` is the same
//! but requires DIR to exist (catching typos on the resume leg). A resumed
//! campaign's timing-free report is byte-identical to an uninterrupted
//! one's. `--max-cells N` caps how many cells one run executes; when cells
//! remain the run prints progress and exits 0 **without** writing `--out`
//! (the CI campaign-smoke job uses this to rehearse a mid-grid kill).
//!
//! `--explore` replaces the predictor axis with a deterministic enumeration
//! of TAGE geometries fitting `--budget-bits` (capped at `--max-geometries`
//! candidates, largest first) and appends an `explore` section to the
//! report: the Pareto front over storage, MPKI, and residual high-bucket
//! misprediction rate. The front is derived from the rendered timing-free
//! cell bytes, so it is byte-identical across worker counts, engines, and
//! kill/`--resume` splits. Unless overridden, `--explore` pairs the
//! candidates with the storage-free scheme only (see `docs/GEOMETRY.md`).
//!
//! `--submit URL` turns the binary into a client of a running `tage-serve`
//! daemon (see `docs/SERVICE.md`): the grid tokens are sent as a campaign,
//! polled to completion, and the final byte-stable report lands in `--out`
//! (or stdout). `--no-wait` returns right after the acknowledgement.
//!
//! `--paper` renders the paper's tables and figures (`table1`–`table3`,
//! `figure2`–`figure6`, `prob_sweep`, `bim_breakdown`, `automaton_cost`,
//! `ablations`, or `all` in that order) from storage-free TAGE cells run
//! through the campaign cell path (`tage_bench::paper`) on every core, to
//! stdout or `--out`. `--paper` must be the first argument; it defaults to
//! 200,000 branches per trace and takes no other flag. `docs/RESULTS.md` is
//! `--paper all`.

use std::path::Path;
use std::process::ExitCode;

use tage_bench::campaign::{
    run_campaign_checkpointed, run_campaign_with_engine, validate_report, CampaignReport,
    CampaignSpec, SCHEMA_VERSION,
};
use tage_bench::cellstore::CellStore;
use tage_bench::explore;
use tage_bench::{cli, paper, DEFAULT_BRANCHES_PER_TRACE};
use tage_sim::engine::default_parallelism;
use tage_sim::point::{PredictorSpec, SchemeSpec};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::EngineKind;
use tage_traces::decoder;
use tage_traces::inflate::gzip_compress;
use tage_traces::source::{BranchSource, SamplingSpec, SourceSuite, SyntheticSource};
use tage_traces::suites;
use tage_traces::writer::StreamingTraceWriter;
use tage_traces::BranchRecord;

/// The default smoke grid: one TAGE size and one baseline predictor, the
/// storage-free scheme against one baseline estimator, over the mini suite.
const DEFAULT_PREDICTORS: &str = "tage-16k,gshare";
const DEFAULT_SCHEMES: &str = "storage-free,jrs-classic";
const DEFAULT_SUITES: &str = "cbp1-mini";
const DEFAULT_SCENARIOS: &str = "baseline";
const DEFAULT_BRANCHES: usize = 20_000;

struct Options {
    predictors: String,
    schemes: String,
    schemes_explicit: bool,
    suites: String,
    suites_explicit: bool,
    scenarios: String,
    trace_dirs: Vec<String>,
    branches: usize,
    workers: usize,
    engine: EngineKind,
    label: String,
    out: Option<String>,
    include_timing: bool,
    list: bool,
    check: Option<String>,
    export_traces: Option<String>,
    gzip: bool,
    sample: bool,
    sample_interval: Option<u64>,
    sample_k: Option<usize>,
    sample_seed: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
    max_cells: Option<usize>,
    explore: bool,
    budget_bits: Option<u64>,
    max_geometries: Option<usize>,
    submit: Option<String>,
    no_wait: bool,
}

impl Options {
    /// The grid-wide sampling plan: `Some` when `--sample` or any
    /// `--sample-*` override was given, with unset fields at the
    /// [`SamplingSpec`] defaults.
    fn sampling_plan(&self) -> Option<SamplingSpec> {
        if !self.sample
            && self.sample_interval.is_none()
            && self.sample_k.is_none()
            && self.sample_seed.is_none()
        {
            return None;
        }
        Some(SamplingSpec {
            interval: self
                .sample_interval
                .unwrap_or(SamplingSpec::DEFAULT_INTERVAL),
            k: self.sample_k.unwrap_or(SamplingSpec::DEFAULT_K),
            seed: self.sample_seed.unwrap_or(SamplingSpec::DEFAULT_SEED),
        })
    }
}

/// Default `--budget-bits` for `--explore` (the paper's 64 Kbit point).
const DEFAULT_BUDGET_BITS: u64 = 64 * 1024;
/// Default `--max-geometries` candidate cap for `--explore`.
const DEFAULT_MAX_GEOMETRIES: usize = 16;

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        predictors: DEFAULT_PREDICTORS.to_string(),
        schemes: DEFAULT_SCHEMES.to_string(),
        schemes_explicit: false,
        suites: DEFAULT_SUITES.to_string(),
        suites_explicit: false,
        scenarios: DEFAULT_SCENARIOS.to_string(),
        trace_dirs: Vec::new(),
        branches: DEFAULT_BRANCHES,
        workers: default_parallelism(),
        engine: EngineKind::Multilane,
        label: "campaign".to_string(),
        out: None,
        include_timing: true,
        list: false,
        check: None,
        export_traces: None,
        gzip: false,
        sample: false,
        sample_interval: None,
        sample_k: None,
        sample_seed: None,
        checkpoint: None,
        resume: false,
        max_cells: None,
        explore: false,
        budget_bits: None,
        max_geometries: None,
        submit: None,
        no_wait: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--predictors" => options.predictors = cli::require_value(&mut args, "--predictors")?,
            "--schemes" => {
                options.schemes = cli::require_value(&mut args, "--schemes")?;
                options.schemes_explicit = true;
            }
            "--suites" => {
                options.suites = cli::require_value(&mut args, "--suites")?;
                options.suites_explicit = true;
            }
            "--scenario" | "--scenarios" => {
                options.scenarios = cli::require_value(&mut args, "--scenario")?
            }
            "--trace-dir" => options
                .trace_dirs
                .push(cli::require_value(&mut args, "--trace-dir")?),
            "--branches" => {
                let value = cli::require_value(&mut args, "--branches")?;
                options.branches = cli::parse_count("--branches", &value)?;
            }
            "--workers" => {
                let value = cli::require_value(&mut args, "--workers")?;
                options.workers = cli::parse_count("--workers", &value)?;
            }
            "--engine" => {
                options.engine = parse_engine(&cli::require_value(&mut args, "--engine")?)?
            }
            "--label" => options.label = cli::require_value(&mut args, "--label")?,
            "--out" => options.out = Some(cli::require_value(&mut args, "--out")?),
            "--no-timing" => options.include_timing = false,
            "--list" => options.list = true,
            "--check" => options.check = Some(cli::require_value(&mut args, "--check")?),
            "--export-traces" => {
                options.export_traces = Some(cli::require_value(&mut args, "--export-traces")?)
            }
            "--gzip" => options.gzip = true,
            "--sample" => options.sample = true,
            "--sample-interval" => {
                let value = cli::require_value(&mut args, "--sample-interval")?;
                options.sample_interval =
                    Some(cli::parse_count("--sample-interval", &value)? as u64);
            }
            "--sample-k" => {
                let value = cli::require_value(&mut args, "--sample-k")?;
                options.sample_k = Some(cli::parse_count("--sample-k", &value)?);
            }
            "--sample-seed" => {
                let value = cli::require_value(&mut args, "--sample-seed")?;
                let seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("--sample-seed: \"{value}\" is not a u64"))?;
                options.sample_seed = Some(seed);
            }
            "--checkpoint" => {
                options.checkpoint = Some(cli::require_value(&mut args, "--checkpoint")?)
            }
            "--resume" => {
                options.checkpoint = Some(cli::require_value(&mut args, "--resume")?);
                options.resume = true;
            }
            "--max-cells" => {
                let value = cli::require_value(&mut args, "--max-cells")?;
                options.max_cells = Some(cli::parse_count("--max-cells", &value)?);
            }
            "--explore" => options.explore = true,
            "--submit" => options.submit = Some(cli::require_value(&mut args, "--submit")?),
            "--no-wait" => options.no_wait = true,
            "--budget-bits" => {
                let value = cli::require_value(&mut args, "--budget-bits")?;
                options.budget_bits = Some(cli::parse_count("--budget-bits", &value)? as u64);
            }
            "--max-geometries" => {
                let value = cli::require_value(&mut args, "--max-geometries")?;
                options.max_geometries = Some(cli::parse_count("--max-geometries", &value)?);
            }
            "--paper" => return Err("--paper must be the first argument".to_string()),
            other => {
                return Err(format!(
                    "unknown argument: {other} (see --list or docs/CAMPAIGNS.md)"
                ))
            }
        }
    }
    if options.max_cells.is_some() && options.checkpoint.is_none() {
        return Err("--max-cells requires --checkpoint or --resume".to_string());
    }
    if options.gzip && options.export_traces.is_none() {
        return Err("--gzip requires --export-traces".to_string());
    }
    if options.sample_interval == Some(0) {
        return Err("--sample-interval must be nonzero".to_string());
    }
    if options.sample_k == Some(0) {
        return Err("--sample-k must be nonzero".to_string());
    }
    if !options.explore && (options.budget_bits.is_some() || options.max_geometries.is_some()) {
        return Err("--budget-bits/--max-geometries require --explore".to_string());
    }
    if options.no_wait && options.submit.is_none() {
        return Err("--no-wait requires --submit".to_string());
    }
    if options.submit.is_some() && (options.explore || options.checkpoint.is_some()) {
        return Err(
            "--submit sends the grid to a tage-serve daemon; combine it with the grid flags only, not --explore/--checkpoint/--resume".to_string(),
        );
    }
    Ok(options)
}

fn parse_engine(value: &str) -> Result<EngineKind, String> {
    match value {
        "multilane" => Ok(EngineKind::Multilane),
        "scalar" => Ok(EngineKind::Scalar),
        other => Err(format!(
            "unknown --engine \"{other}\" (known: multilane, scalar)"
        )),
    }
}

/// What `--paper` renders, and where.
struct PaperOptions {
    artefacts: Vec<&'static paper::Artefact>,
    branches: usize,
    out: Option<String>,
}

/// Parses a `--paper` command line: `--paper` and its artefact list first,
/// then `--branches` and `--out`. Any other argument is an error naming
/// it, never silently ignored.
fn parse_paper_options() -> Result<PaperOptions, String> {
    let mut args = std::env::args().skip(2);
    let mut options = PaperOptions {
        artefacts: paper::parse_list(&cli::require_value(&mut args, "--paper")?)?,
        branches: DEFAULT_BRANCHES_PER_TRACE,
        out: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--branches" => {
                let value = cli::require_value(&mut args, "--branches")?;
                options.branches = cli::parse_count("--branches", &value)?;
            }
            "--out" => options.out = Some(cli::require_value(&mut args, "--out")?),
            other => {
                return Err(format!(
                    "--paper does not take {other} (only --branches and --out)"
                ))
            }
        }
    }
    Ok(options)
}

/// `--paper`: renders the requested artefacts to stdout or `--out`.
fn paper_mode() -> ExitCode {
    let options = match parse_paper_options() {
        Ok(options) => options,
        Err(error) => {
            eprintln!("tage-bench: {error}");
            return ExitCode::FAILURE;
        }
    };
    let text = paper::render(&options.artefacts, options.branches, default_parallelism());
    match &options.out {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &text) {
                eprintln!("tage-bench: could not write {path}: {error}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Streams every trace of the selected synthetic suites to
/// `dir/<trace>.trace` as binary files — generator to disk through a
/// bounded buffer, no materialized `Trace` in between. With `gzip`, the
/// stream is framed into a `.trace.gz` gzip container instead (stored
/// DEFLATE blocks, readable by any gzip implementation and by the
/// gzip-native decoder).
fn export_traces(dir: &str, suite_list: &str, branches: usize, gzip: bool) -> Result<(), String> {
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut batch = vec![BranchRecord::default(); 4096];
    let mut exported = 0usize;
    for token in suite_list
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
    {
        let suite =
            suites::by_name(token).ok_or_else(|| format!("unknown suite token \"{token}\""))?;
        for spec in suite.traces() {
            let extension = if gzip { "trace.gz" } else { "trace" };
            let path = dir.join(format!("{}.{extension}", spec.name()));
            let mut source = SyntheticSource::from_spec(spec, branches);
            let records = if gzip {
                // Gzip needs the whole-stream CRC, so the trace is framed
                // in memory and compressed in one pass.
                let mut writer = StreamingTraceWriter::new(Vec::new(), spec.name())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                pump(&mut writer, &mut source, &mut batch, &path)?;
                let records = writer.records_written();
                let bytes = writer
                    .finish()
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                std::fs::write(&path, gzip_compress(&bytes))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                records
            } else {
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let mut writer =
                    StreamingTraceWriter::new(std::io::BufWriter::new(file), spec.name())
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                pump(&mut writer, &mut source, &mut batch, &path)?;
                let records = writer.records_written();
                writer
                    .finish()
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                records
            };
            println!("exported {} ({records} records)", path.display());
            exported += 1;
        }
    }
    println!("{exported} traces exported to {}", dir.display());
    Ok(())
}

/// Drains `source` into `writer` through the shared bounded batch buffer.
fn pump<W: std::io::Write>(
    writer: &mut StreamingTraceWriter<W>,
    source: &mut SyntheticSource,
    batch: &mut [BranchRecord],
    path: &Path,
) -> Result<(), String> {
    loop {
        let filled = source
            .next_batch(batch)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if filled == 0 {
            return Ok(());
        }
        for record in &batch[..filled] {
            writer
                .push(record)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
}

/// Parses a comma-separated axis list. `parse` returns `None` for a token
/// it does not know; the error then lists the `known` tokens.
fn parse_axis<T>(
    axis: &str,
    list: &str,
    parse: impl Fn(&str) -> Option<T>,
    known: &[String],
) -> Result<Vec<T>, String> {
    parse_axis_with(axis, list, |token| {
        parse(token).ok_or_else(|| {
            format!(
                "unknown {axis} token \"{token}\" (known: {})",
                known.join(", ")
            )
        })
    })
}

/// [`parse_axis`] for a parser that explains its own errors.
fn parse_axis_with<T>(
    axis: &str,
    list: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let values = list
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(parse)
        .collect::<Result<Vec<T>, String>>()?;
    if values.is_empty() {
        return Err(format!("the {axis} axis is empty"));
    }
    Ok(values)
}

fn print_axes() {
    println!(
        "predictor tokens: {}",
        PredictorSpec::known_tokens().join(", ")
    );
    println!(
        "scheme tokens:    {}",
        SchemeSpec::known_tokens().join(", ")
    );
    println!("suite tokens:     {}", suites::REGISTRY.join(", "));
    println!(
        "scenario tokens:  {}",
        ScenarioSpec::known_tokens().join(", ")
    );
    println!("file suites:      --trace-dir DIR (streams every decodable trace file, sorted)");
    println!();
    println!("suites:");
    for name in suites::REGISTRY.iter() {
        if let Some(suite) = suites::by_name(name) {
            println!("  {name:<12} {} traces", suite.traces().len());
        }
    }
    println!();
    println!("trace file formats (--trace-dir detects by file-name suffix):");
    for decoder in decoder::REGISTRY.iter() {
        let extensions: Vec<String> = decoder
            .extensions()
            .iter()
            .map(|suffix| format!(".{suffix}"))
            .collect();
        println!(
            "  {:<12} {:<22} {}",
            decoder.format_name(),
            extensions.join(" "),
            decoder.description()
        );
    }
    println!();
    println!(
        "sampled suites:   sample:<suite>[:interval[:k[:seed]]] (defaults {}:{}:{}),",
        SamplingSpec::DEFAULT_INTERVAL,
        SamplingSpec::DEFAULT_K,
        SamplingSpec::DEFAULT_SEED
    );
    println!(
        "                  or --sample/--sample-interval/--sample-k/--sample-seed for every suite"
    );
    println!();
    println!("(storage-free pairs with TAGE predictors only; other cells are skipped;");
    println!(" sampled suites additionally require storage-free × baseline cells)");
}

fn check_report(path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(error) => {
            eprintln!("--check: cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    match validate_report(&json) {
        Ok(summary) => {
            println!(
                "{path}: valid campaign report (schema {}, {} points, {} skipped)",
                summary.schema, summary.points, summary.skipped
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("--check: {path}: {error}");
            ExitCode::FAILURE
        }
    }
}

/// `--submit`: sends the grid tokens to a `tage-serve` daemon instead of
/// executing locally. Unless `--no-wait`, polls the campaign to completion
/// and writes the final byte-stable report to `--out` (or stdout) — the
/// same bytes a local `--no-timing` run of the grid would produce.
fn submit_mode(url: &str, options: &Options) -> ExitCode {
    let split = |list: &str| {
        list.split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect::<Vec<String>>()
    };
    // Mirror local axis resolution: an unmodified default suite list is
    // dropped when file-backed suites are given. A grid-wide --sample plan
    // travels as canonical `sample:` suite tokens — the wire format has no
    // separate sampling field, which also means it cannot reach trace-dir
    // suites (those resolve on the daemon's side of the wire).
    let mut suite_tokens = if options.trace_dirs.is_empty() || options.suites_explicit {
        split(&options.suites)
    } else {
        Vec::new()
    };
    if let Some(plan) = options.sampling_plan() {
        if !options.trace_dirs.is_empty() {
            eprintln!(
                "tage-bench: --sample cannot reach --trace-dir suites through --submit; \
                 run the sampled grid locally or restrict it to registry suites"
            );
            return ExitCode::FAILURE;
        }
        suite_tokens = suite_tokens
            .iter()
            .map(|token| {
                if token.starts_with("sample:") {
                    token.clone()
                } else {
                    plan.suite_token(token)
                }
            })
            .collect();
    }
    let request = tage_bench::service::grid::GridRequest {
        label: options.label.clone(),
        predictors: split(&options.predictors),
        schemes: split(&options.schemes),
        suites: suite_tokens,
        trace_dirs: options.trace_dirs.clone(),
        scenarios: split(&options.scenarios),
        branches_per_trace: options.branches,
    };
    match tage_bench::service::client::submit_grid(url, &request, !options.no_wait) {
        Ok(result) => {
            println!("campaign {} is {}", result.id, result.state);
            if let Some(report) = result.report {
                match &options.out {
                    Some(path) => {
                        if let Err(error) = std::fs::write(path, &report) {
                            eprintln!("tage-bench: could not write {path}: {error}");
                            return ExitCode::FAILURE;
                        }
                        println!("wrote {path}");
                    }
                    None => print!("{report}"),
                }
            } else if !options.no_wait {
                eprintln!("tage-bench: daemon returned no report");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("tage-bench: --submit: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the campaign, through a checkpoint when one was requested. Returns
/// `Ok(None)` when a `--max-cells` cap left cells unexecuted — progress is
/// checkpointed but no finished report exists yet.
fn run_checkpointable_campaign(
    spec: &CampaignSpec,
    options: &Options,
) -> Result<Option<CampaignReport>, String> {
    let Some(dir) = &options.checkpoint else {
        return run_campaign_with_engine(spec, options.workers, options.engine)
            .map(Some)
            .map_err(|e| e.to_string());
    };
    if options.resume && !Path::new(dir).is_dir() {
        return Err(format!("--resume {dir}: no such checkpoint directory"));
    }
    let checkpoint = CellStore::new(dir)
        .map_err(|e| format!("--checkpoint {dir}: cannot create directory: {e}"))?;
    let run = run_campaign_checkpointed(
        spec,
        options.workers,
        options.engine,
        &checkpoint,
        options.max_cells,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "checkpoint {dir}: {} cells restored, {} executed, {} remaining",
        run.restored, run.executed, run.remaining
    );
    if run.store_errors > 0 {
        eprintln!(
            "checkpoint {dir}: {} executed cells could not be stored; a resumed run recomputes them",
            run.store_errors
        );
    }
    if run.remaining > 0 {
        println!(
            "stopping with {} cells unexecuted (--max-cells); resume with --resume {dir}",
            run.remaining
        );
        return Ok(None);
    }
    Ok(Some(run.report))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--paper") {
        return paper_mode();
    }
    let options = match parse_options() {
        Ok(options) => options,
        Err(error) => {
            eprintln!("tage-bench: {error}");
            return ExitCode::FAILURE;
        }
    };
    if options.list {
        print_axes();
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &options.check {
        return check_report(path);
    }
    if let Some(dir) = &options.export_traces {
        return match export_traces(dir, &options.suites, options.branches, options.gzip) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("tage-bench: --export-traces: {error}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(url) = &options.submit {
        return submit_mode(url, &options);
    }

    // --explore swaps the predictor axis for a budgeted geometry
    // enumeration and (unless --schemes was given) pins the scheme axis to
    // storage-free, the estimator the design-space search ranks.
    let budget_bits = options.budget_bits.unwrap_or(DEFAULT_BUDGET_BITS);
    let explore_candidates = if options.explore {
        let geometries = explore::enumerate_geometries(
            budget_bits,
            options.max_geometries.unwrap_or(DEFAULT_MAX_GEOMETRIES),
        );
        if geometries.is_empty() {
            eprintln!("tage-bench: --explore: no geometry fits a {budget_bits}-bit budget");
            return ExitCode::FAILURE;
        }
        println!(
            "explore: {} candidate geometries under {budget_bits} bits",
            geometries.len()
        );
        Some(explore::explore_predictors(geometries))
    } else {
        None
    };
    let candidates = explore_candidates.as_ref().map_or(0, Vec::len);

    let spec = {
        let predictors = match explore_candidates {
            Some(candidates) => Ok(candidates),
            None => parse_axis_with("predictor", &options.predictors, PredictorSpec::parse),
        };
        let scheme_list = if options.explore && !options.schemes_explicit {
            "storage-free"
        } else {
            options.schemes.as_str()
        };
        let schemes = parse_axis(
            "scheme",
            scheme_list,
            SchemeSpec::parse,
            &SchemeSpec::known_tokens(),
        );
        let scenarios = parse_axis(
            "scenario",
            &options.scenarios,
            ScenarioSpec::parse,
            &ScenarioSpec::known_tokens(),
        );
        let suite_names: Vec<String> = suites::REGISTRY.iter().map(|s| s.to_string()).collect();
        // Synthetic registry suites stream through SyntheticSources; an
        // unmodified default is dropped when file-backed suites are given.
        // A `sample:<suite>[:interval[:k[:seed]]]` token resolves the base
        // suite and tags it with the phase-sampling plan.
        let resolve_suite = |token: &str| -> Option<SourceSuite> {
            match SamplingSpec::parse_token(token) {
                Some((base, spec)) => {
                    suites::by_name(base).map(|s| SourceSuite::from_suite(&s).with_sampling(spec))
                }
                None if token.starts_with("sample:") => None,
                None => suites::by_name(token).map(|s| SourceSuite::from_suite(&s)),
            }
        };
        let suites = if options.trace_dirs.is_empty() || options.suites_explicit {
            parse_axis("suite", &options.suites, resolve_suite, &suite_names)
        } else {
            Ok(Vec::new())
        };
        let suites = suites.and_then(|mut list| {
            for dir in &options.trace_dirs {
                match SourceSuite::from_dir(dir) {
                    Ok(suite) => list.push(suite),
                    Err(error) => return Err(format!("--trace-dir {dir}: {error}")),
                }
            }
            // The grid-wide --sample plan covers every suite that does not
            // already carry its own token-level plan.
            if let Some(plan) = options.sampling_plan() {
                list = list
                    .into_iter()
                    .map(|suite| {
                        if suite.sampling().is_some() {
                            suite
                        } else {
                            suite.with_sampling(plan)
                        }
                    })
                    .collect();
            }
            Ok(list)
        });
        match (predictors, schemes, suites, scenarios) {
            (Ok(predictors), Ok(schemes), Ok(suites), Ok(scenarios)) => CampaignSpec {
                label: options.label.clone(),
                predictors,
                schemes,
                suites,
                scenarios,
                branches_per_trace: options.branches,
            },
            (predictors, schemes, suites, scenarios) => {
                for error in [
                    predictors.err(),
                    schemes.err(),
                    suites.err(),
                    scenarios.err(),
                ]
                .into_iter()
                .flatten()
                {
                    eprintln!("tage-bench: {error}");
                }
                return ExitCode::FAILURE;
            }
        }
    };

    println!(
        "== tage-bench campaign \"{}\" — {} × {} × {} × {} grid, {} branches/trace, {} workers, {} engine ==",
        spec.label,
        spec.predictors.len(),
        spec.schemes.len(),
        spec.suites.len(),
        spec.scenarios.len(),
        spec.branches_per_trace,
        options.workers,
        match options.engine {
            EngineKind::Multilane => "multilane",
            EngineKind::Scalar => "scalar",
        },
    );
    let mut report = match run_checkpointable_campaign(&spec, &options) {
        Ok(Some(report)) => report,
        // A --max-cells run stopped with cells remaining: progress is
        // checkpointed, the (partial) report is deliberately not written.
        Ok(None) => return ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("tage-bench: {error}");
            return ExitCode::FAILURE;
        }
    };
    if report.points.is_empty() {
        eprintln!(
            "tage-bench: the grid produced no executable points ({} skipped)",
            report.skipped.len()
        );
        return ExitCode::FAILURE;
    }
    if options.explore {
        if let Err(error) = explore::attach_explore_section(&mut report, budget_bits, candidates) {
            eprintln!("tage-bench: {error}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "{:<14} {:<15} {:<11} {:<17} {:>11} {:>10} {:>10} {:>10}",
        "predictor",
        "scheme",
        "suite",
        "scenario",
        "predictions",
        "mean_mpki",
        "high_pcov",
        "seconds"
    );
    let restored = report
        .points
        .iter()
        .filter(|cell| cell.computed().is_none())
        .count();
    if restored > 0 {
        println!("({restored} cells restored from the checkpoint, not re-printed)");
    }
    for point in report.points.iter().filter_map(|cell| cell.computed()) {
        let result = &point.result;
        println!(
            "{:<14} {:<15} {:<11} {:<17} {:>11} {:>10.3} {:>10.3} {:>10.3}",
            result.predictor,
            result.scheme,
            result.suite,
            result.scenario,
            result.total_predictions(),
            result.mean_mpki(),
            result
                .aggregate
                .level_pcov(tage_confidence::ConfidenceLevel::High),
            point.wall_seconds,
        );
        for (name, value) in &result.scenario_metrics {
            println!("{:>46} {name} = {value:.3}", "");
        }
    }
    for skipped in &report.skipped {
        println!(
            "skipped        {} × {} × {} on {}: {}",
            skipped.predictor, skipped.scheme, skipped.scenario, skipped.suite, skipped.reason
        );
    }
    if let Some(explore_section) = &report.explore {
        println!();
        println!(
            "explore: Pareto front under {} bits ({} of {} candidates survive)",
            explore_section.budget_bits,
            explore_section.pareto.len(),
            explore_section.candidates,
        );
        println!(
            "{:<22} {:>12} {:>10} {:>16}",
            "predictor", "storage_bits", "mean_mpki", "high_mprate_mkp"
        );
        for entry in &explore_section.pareto {
            println!(
                "{:<22} {:>12} {:>10.3} {:>16.3}",
                entry.predictor, entry.storage_bits, entry.mean_mpki, entry.high_mprate_mkp
            );
        }
    }
    println!();
    println!(
        "{} points in {:.3}s on {} workers ({} steals), schema {}",
        report.points.len(),
        report.wall_seconds,
        report.workers,
        report.steals,
        SCHEMA_VERSION
    );

    if let Some(path) = &options.out {
        let json = report.render_json(options.include_timing);
        if let Err(error) = std::fs::write(path, &json) {
            eprintln!("tage-bench: could not write {path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
