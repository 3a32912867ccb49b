//! `serve_closed_loop`: an in-process `tage-serve` daemon (2 workers, the
//! multilane engine, a fresh store and journal) driven by one closed-loop
//! client thread over one connection at a time. The seed draws an
//! interleaving of three request kinds:
//!
//! - fresh one-cell `cbp1-mini` grids, each with its own
//!   `branches_per_trace`;
//! - resubmits of earlier grids under a new label (a new campaign id whose
//!   cell the store answers);
//! - a one-cell grid submitted right behind a multi-cell grid, which waits
//!   for the whole batch ahead of it.
//!
//! Every kind is timed from its submit to holding its final report; the
//! client polls the campaign status back to back with
//! `http::client_request`.

use std::time::{Duration, Instant};

use tage_bench::campaign::{run_campaign, validate_report};
use tage_bench::cellstore::cell_key;
use tage_bench::jsonish;
use tage_bench::service::grid::GridRequest;
use tage_bench::service::http::client_request;
use tage_bench::service::{self, ServeOptions, ServerHandle};
use tage_sim::point::SweepPoint;
use tage_sim::{EngineKind, DEFAULT_LANES};
use tage_traces::source::SyntheticSource;
use tage_traces::{suites, BranchRecord, SplitMix64};

use crate::inputs::{
    accounted_branches, cell_kind, derive_seed, drain, lanes_occupied, throughput, timed, CellKind,
    Pass,
};
use crate::layers::{self, LayerInputs};
use crate::spans::Tracer;
use crate::stats::{describe, median};
use crate::{Run, WORKERS};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Smallest `branches_per_trace` of a fresh one-cell grid.
const FRESH_BRANCHES: usize = 4_000;
/// Smallest `branches_per_trace` of the multi-cell grid ahead of a queued one.
const MULTI_BRANCHES: usize = 100_000;
/// Predictors of the multi-cell grid.
const MULTI_PREDICTORS: [&str; 3] = ["tage-16k", "tage-64k", "tage-256k"];
/// Longest any one request kind may take before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);
/// `GET /healthz` probes behind `bench.service.http_rtt_ms`.
const RTT_PROBES: usize = 20;
/// Multi-cell reports checked against a one-shot run (each costs a grid).
const MULTI_CHECKS: usize = 3;

/// A running daemon that is shut down and joined when dropped.
struct Daemon(Option<ServerHandle>);

impl Daemon {
    fn host(&self) -> String {
        self.0
            .as_ref()
            .expect("daemon is running")
            .addr()
            .to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.request_shutdown();
            handle.join();
        }
    }
}

fn grid(label: String, predictors: &[&str], branches: usize) -> GridRequest {
    GridRequest {
        label,
        predictors: predictors.iter().map(|p| p.to_string()).collect(),
        schemes: vec!["storage-free".to_string()],
        suites: vec!["cbp1-mini".to_string()],
        trace_dirs: Vec::new(),
        scenarios: vec!["baseline".to_string()],
        branches_per_trace: branches,
    }
}

/// One request, inside a span named after its endpoint.
fn request(
    tracer: &mut Tracer,
    host: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    span: &str,
) -> Result<(u16, String), String> {
    tracer.span(span, |_| client_request(host, method, path, body))
}

/// Submits a grid and returns its id and acknowledged state.
fn submit(tracer: &mut Tracer, host: &str, grid: &GridRequest) -> Result<(String, String), String> {
    let (status, body) = request(
        tracer,
        host,
        "POST",
        "/campaigns",
        Some(&grid.to_json()),
        "http POST /campaigns",
    )?;
    if status != 202 {
        return Err(format!("submit returned {status}: {body}"));
    }
    let id = jsonish::string_field(&body, "id").ok_or("acknowledgement carries no id")?;
    let state = jsonish::string_field(&body, "state").unwrap_or_default();
    Ok((id, state))
}

/// Polls a campaign back to back until it finishes, then fetches its
/// report. Returns the report and every status poll's duration.
fn wait_report(
    tracer: &mut Tracer,
    host: &str,
    id: &str,
    mut state: String,
    since: Instant,
) -> Result<(String, Vec<f64>), String> {
    let mut polls = Vec::new();
    while state != "finished" {
        if state == "failed" {
            return Err(format!("campaign {id} failed"));
        }
        if since.elapsed() > OP_TIMEOUT {
            return Err(format!("campaign {id} timed out in state {state}"));
        }
        let (result, seconds) = timed(|| {
            request(
                tracer,
                host,
                "GET",
                &format!("/campaigns/{id}"),
                None,
                "http GET /campaigns/<id>",
            )
        });
        let (status, body) = result?;
        if status != 200 {
            return Err(format!("status poll returned {status}"));
        }
        polls.push(seconds);
        state = jsonish::string_field(&body, "state").ok_or("status carries no state")?;
    }
    let (status, report) = request(
        tracer,
        host,
        "GET",
        &format!("/campaigns/{id}/report"),
        None,
        "http GET /campaigns/<id>/report",
    )?;
    if status != 200 {
        return Err(format!("report fetch returned {status}"));
    }
    Ok((report, polls))
}

/// The request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Cached,
    Queued,
    /// The multi-cell grid a queued request waits behind (not timed).
    Multi,
}

/// One answered request.
struct Served {
    kind: Kind,
    grid: GridRequest,
    report: String,
    seconds: f64,
    traced: bool,
}

/// Starts a daemon over fresh directories, waits for `/healthz` and has it
/// serve one warm-up grid: set-up ends when the daemon has answered its
/// first campaign.
fn start_daemon(run: &mut Run, index: usize, warmup: &GridRequest) -> Result<Daemon, String> {
    let dir = run.work.join(format!("serve-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = ServeOptions::ephemeral(dir.join("store"), dir.join("journal"));
    options.workers = WORKERS;
    options.engine = EngineKind::Multilane;
    run.tracer.span("setup", |t| {
        let daemon =
            Daemon(Some(t.span("tage_bench::service::start", |_| {
                service::start(options)
            })?));
        let host = daemon.host();
        let since = Instant::now();
        loop {
            match request(t, &host, "GET", "/healthz", None, "http GET /healthz") {
                Ok((200, _)) => break,
                _ if since.elapsed() > OP_TIMEOUT => {
                    return Err("daemon never answered /healthz".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let (id, state) = submit(t, &host, warmup)?;
        wait_report(t, &host, &id, state, Instant::now())?;
        Ok(daemon)
    })
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let seed = run.seed;
    run.param("workers", WORKERS);
    run.param("engine", "multilane");
    run.param("clients", 1);
    run.param("fresh_branches_per_trace", format!("{FRESH_BRANCHES}+"));
    run.param("multi_branches_per_trace", format!("{MULTI_BRANCHES}+"));
    run.param(
        "mix",
        "55% fresh, 30% cached resubmit, 15% queued behind a 3-cell grid",
    );

    let offset = (seed % 500) as usize;
    let warmup = grid("warmup".to_string(), &["tage-16k"], FRESH_BRANCHES + offset);
    let mut setup_times = Vec::new();
    let mut daemon = None;
    for index in 0..SETUP_REPS {
        // Dropping the previous daemon shuts it down outside the timing.
        drop(daemon.take());
        let (started, seconds) = timed(|| start_daemon(run, index, &warmup));
        setup_times.push(seconds);
        daemon = Some(started?);
    }
    let daemon = daemon.expect("at least one set-up");
    run.set("setup_s", median(&setup_times));
    let host = daemon.host();

    let mut rng = SplitMix64::new(derive_seed(seed, "serve_closed_loop", 0));
    let (mut fresh_made, mut multi_made, mut resubmits) = (0usize, 0usize, 0usize);
    let mut fresh_grids: Vec<GridRequest> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut polls = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut op = 0usize;
    while Instant::now() < deadline || served.is_empty() {
        let traced = run.traced() && op % 2 == 1;
        op += 1;
        let draw = rng.next_below(100);
        let kind = match draw {
            _ if fresh_grids.is_empty() => Kind::Fresh,
            0..=54 => Kind::Fresh,
            55..=84 => Kind::Cached,
            _ => Kind::Queued,
        };
        let mut fresh_grid = || {
            fresh_made += 1;
            grid(
                format!("fresh-{fresh_made}"),
                &["tage-16k"],
                FRESH_BRANCHES + offset + fresh_made,
            )
        };
        let (grid, ahead) = match kind {
            Kind::Fresh => (fresh_grid(), None),
            Kind::Cached => {
                resubmits += 1;
                let pick = rng.next_below(fresh_grids.len() as u64) as usize;
                let mut again = fresh_grids[pick].clone();
                again.label = format!("resubmit-{resubmits}");
                (again, None)
            }
            Kind::Queued | Kind::Multi => {
                multi_made += 1;
                let multi = grid(
                    format!("multi-{multi_made}"),
                    &MULTI_PREDICTORS,
                    MULTI_BRANCHES + offset + multi_made,
                );
                (fresh_grid(), Some(multi))
            }
        };
        let tracer = &mut run.tracer;
        let outcome = tracer.span(&format!("op.{kind:?}"), |t| -> Result<_, String> {
            let ahead = match &ahead {
                Some(multi) => Some(submit(t, &host, multi)?),
                None => None,
            };
            let since = Instant::now();
            let (id, state) = submit(t, &host, &grid)?;
            let (report, op_polls) = wait_report(t, &host, &id, state, since)?;
            let seconds = since.elapsed().as_secs_f64();
            let behind = match ahead {
                Some((id, state)) => Some(wait_report(t, &host, &id, state, Instant::now())?.0),
                None => None,
            };
            Ok((report, seconds, op_polls, behind))
        });
        match outcome {
            Ok((report, seconds, op_polls, behind)) => {
                run.ops(1, 0);
                polls.extend(op_polls);
                if kind != Kind::Cached {
                    fresh_grids.push(grid.clone());
                }
                if let (Some(multi), Some(report)) = (ahead, behind) {
                    served.push(Served {
                        kind: Kind::Multi,
                        grid: multi,
                        report,
                        seconds: 0.0,
                        traced,
                    });
                }
                served.push(Served {
                    kind,
                    grid,
                    report,
                    seconds,
                    traced,
                });
            }
            Err(error) => run.op_failed(&format!("{kind:?} request"), error),
        }
    }

    let latencies = |kind: Kind, traced: bool| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.kind == kind && s.traced == traced)
            .map(|s| s.seconds * 1e3)
            .collect()
    };
    let passes = |kind: Kind| -> Vec<Pass> {
        served
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| Pass {
                seconds: s.seconds,
                branches: accounted_branches(&jsonish::extract_array_objects(&s.report, "points")),
                traced: s.traced,
            })
            .collect()
    };
    for (name, kind) in [
        ("fresh_submit_ms", Kind::Fresh),
        ("cached_submit_ms", Kind::Cached),
        ("queued_submit_ms", Kind::Queued),
    ] {
        run.line(format!(
            "{name}: {}",
            describe(&latencies(kind, false), "ms")
        ));
    }
    let polls_ms: Vec<f64> = polls.iter().map(|s| s * 1e3).collect();
    run.line(format!(
        "status poll spacing: {}",
        describe(&polls_ms, "ms")
    ));
    let untraced = throughput(&passes(Kind::Fresh), false);
    run.set("branches_per_s", untraced);
    run.set(
        "warm_branches_per_s",
        throughput(&passes(Kind::Cached), false),
    );

    check_reports(run, &served);
    let metrics = request(
        &mut run.tracer,
        &host,
        "GET",
        "/metrics",
        None,
        "http GET /metrics",
    )
    .ok()
    .filter(|(status, _)| *status == 200)
    .map(|(_, body)| body);
    let Some(metrics) = metrics else {
        run.op_failed("GET /metrics", "no 200 response");
        return Ok(());
    };
    let field = |key: &str| jsonish::number_field(&metrics, key).unwrap_or(f64::NAN);
    // The set-up's warm-up grid computed one cell too.
    let computed_expected = served
        .iter()
        .map(|s| match s.kind {
            Kind::Fresh | Kind::Queued => 1,
            Kind::Multi => MULTI_PREDICTORS.len(),
            Kind::Cached => 0,
        })
        .sum::<usize>() as f64
        + 1.0;
    let cached = served.iter().filter(|s| s.kind == Kind::Cached).count() as f64;
    run.check(field("cells_computed") == computed_expected, || {
        format!(
            "daemon computed {} cells; the fresh work needs exactly {computed_expected} (cached resubmits must compute none)",
            field("cells_computed")
        )
    });
    run.check(field("cells_restored") == cached, || {
        format!(
            "daemon restored {} cells for {cached} cached resubmits",
            field("cells_restored")
        )
    });

    if run.traced() {
        run.set(
            "bench.trace_overhead_pct",
            (untraced - throughput(&passes(Kind::Fresh), true)) / untraced * 100.0,
        );
        let mut rtt = Vec::with_capacity(RTT_PROBES);
        for _ in 0..RTT_PROBES {
            let (result, seconds) = timed(|| {
                request(
                    &mut run.tracer,
                    &host,
                    "GET",
                    "/healthz",
                    None,
                    "http GET /healthz",
                )
            });
            run.check(matches!(result, Ok((200, _))), || {
                "GET /healthz failed".to_string()
            });
            rtt.push(seconds * 1e3);
        }
        run.set("bench.service.http_rtt_ms", median(&rtt));
        let reports: Vec<f64> = run
            .tracer
            .durations_s("http GET /campaigns/<id>/report")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        run.set("bench.service.report_ms", median(&reports));
        let queued = median(
            &[
                latencies(Kind::Queued, true),
                latencies(Kind::Queued, false),
            ]
            .concat(),
        );
        let fresh = median(&[latencies(Kind::Fresh, true), latencies(Kind::Fresh, false)].concat());
        run.set("bench.service.queue_wait_ms", queued - fresh);
        run.set(
            "bench.service.worker_utilization",
            field("worker_utilization"),
        );
        run.set("bench.service.cells_computed", field("cells_computed"));
        run.set("bench.service.cells_restored", field("cells_restored"));
        run.set("bench.cellstore.hits", field("cache_hits"));
        run.set("bench.cellstore.misses", field("cache_misses"));
        layer_loops(run, &served)?;
    }
    drop(daemon);
    Ok(())
}

/// Every served report must validate and byte-match a one-shot
/// `run_campaign` of the same `GridRequest::to_spec`.
fn check_reports(run: &mut Run, served: &[Served]) {
    let mut multi_checked = 0;
    for answer in served {
        if answer.kind == Kind::Multi {
            if multi_checked == MULTI_CHECKS {
                continue;
            }
            multi_checked += 1;
        }
        run.check(validate_report(&answer.report).is_ok(), || {
            format!(
                "served report of {} fails validate_report",
                answer.grid.label
            )
        });
        let one_shot = answer
            .grid
            .to_spec()
            .and_then(|spec| run_campaign(&spec, WORKERS).map_err(|e| e.to_string()));
        match one_shot {
            Ok(report) => run.check(report.render_json(false) == answer.report, || {
                format!(
                    "served report of {} differs from a one-shot run",
                    answer.grid.label
                )
            }),
            Err(error) => run.op_failed("one-shot campaign", error),
        }
    }
}

/// Lane and fallback counts of the served grids, then the isolated layer
/// loops over the `cbp1-mini` traces the daemon simulates.
fn layer_loops(run: &mut Run, served: &[Served]) -> Result<(), String> {
    let mut cells = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for answer in served {
        let spec = answer.grid.to_spec()?;
        let (expanded, _) = spec.expand();
        let rendered = jsonish::extract_array_objects(&answer.report, "points");
        for (point, bytes) in expanded.iter().zip(rendered) {
            if cells.len() < 8 {
                cells.push((
                    point.clone(),
                    cell_key(spec.branches_per_trace, point),
                    bytes,
                ));
            }
        }
        points.extend(expanded);
    }
    let batched: Vec<f64> = points
        .iter()
        .filter(|p| cell_kind(p) == CellKind::Multilane)
        .map(|p| lanes_occupied(p) as f64)
        .collect();
    run.set(
        "sim.multilane.lanes_occupied",
        batched.iter().sum::<f64>() / batched.len().max(1) as f64,
    );
    run.set(
        "sim.multilane.scalar_fallback_cells",
        (points.len() - batched.len()) as f64,
    );
    let suite = suites::cbp1_mini();
    let generate = |branches: usize| -> Vec<Vec<BranchRecord>> {
        suite
            .traces()
            .iter()
            .map(|spec| drain(&mut SyntheticSource::from_spec(spec, branches)).expect("synthetic"))
            .collect()
    };
    let records = generate(200_000).swap_remove(1);
    let streams = generate(50_000);
    let inputs = LayerInputs {
        records: &records,
        streams: &streams[..streams.len().min(DEFAULT_LANES)],
        synthetic: suite.traces(),
        synthetic_branches: FRESH_BRANCHES,
        files: None,
        cells: &cells,
    };
    let scratch = run.work.clone();
    layers::measure(run, &inputs, &scratch);
    Ok(())
}
