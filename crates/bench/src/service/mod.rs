//! `tage-serve`: a resumable campaign daemon over a content-addressed
//! result cache.
//!
//! The service turns the one-shot campaign runner ([`crate::campaign`])
//! into a long-lived process: clients `POST /campaigns` declarative grids
//! ([`grid::GridRequest`]), the daemon expands them into cells, runs them
//! through the same cell executor the CLI uses — the same work-stealing
//! scheduler, the same predictor warm cache under `<store>/warm` for
//! phase-sampled cells — and memoizes every finished cell into a shared
//! [`CellStore`]. Three properties fall out of that design:
//!
//! - **Resubmission is free.** A campaign's id is the fnv64 of its
//!   canonical grid JSON, and cell keys are content-addressed, so an
//!   identical or overlapping grid is answered from the store (or attached
//!   to the in-flight computation) instead of re-executed — each unique
//!   cell computes at most once, even across two concurrent campaigns.
//! - **Kill/restart is safe.** Every accepted grid is journaled to
//!   `<journal>/<id>.grid` before the submission is acknowledged; a
//!   restarted daemon re-opens journaled campaigns, restores their
//!   finished cells from the store, and re-queues only the missing ones.
//! - **Reports are byte-stable.** The final `GET /campaigns/<id>/report`
//!   document is the timing-free schema-3 rendering over stored cell
//!   bytes, which byte-matches an uninterrupted one-shot `tage-bench` run
//!   of the same grid — regardless of worker count, engine, restarts, or
//!   which campaign originally computed each cell.
//!
//! The HTTP layer ([`http`]) is a hand-rolled std-only HTTP/1.1 subset;
//! request bodies are hardened through
//! [`jsonish::validate_document`] before any field extraction.

pub mod client;
pub mod grid;
pub mod http;
pub mod metrics;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tage_sim::engine::StealStats;
use tage_sim::point::SweepPoint;
use tage_sim::warmcache;
use tage_sim::EngineKind;
use tage_traces::snapshot::write_atomic;

use crate::campaign::{
    assemble_report, execute_cells, CampaignCell, CampaignReport, CampaignSpec, CellJob,
    SkippedPoint,
};
use crate::cellstore::{cell_key, CellStore};
use crate::jsonish;
use grid::GridRequest;
use http::{read_request, write_response, HttpError, Request};
use metrics::{Metrics, MetricsSnapshot};

/// How long the accept loop and executor sleep between shutdown-flag polls.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Configuration of one [`start`]ed daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads per executor batch.
    pub workers: usize,
    /// Engine every cell runs on (reports are engine-independent).
    pub engine: EngineKind,
    /// Content-addressed cell store directory (shared with
    /// `tage-bench --checkpoint` runs).
    pub store_dir: PathBuf,
    /// Journal directory holding one `<id>.grid` file per accepted
    /// campaign.
    pub journal_dir: PathBuf,
    /// Request-body cap, bytes.
    pub max_body_bytes: usize,
}

impl ServeOptions {
    /// Options binding an ephemeral localhost port over the given store and
    /// journal directories — what the integration tests use.
    pub fn ephemeral(store_dir: impl Into<PathBuf>, journal_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            engine: EngineKind::Multilane,
            store_dir: store_dir.into(),
            journal_dir: journal_dir.into(),
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// A cell waiting to execute: its job plus every campaign position that
/// will receive the rendered bytes.
struct PendingCell {
    job: CellJob,
    /// `(campaign id, point index)` pairs to fill when the cell finishes.
    waiters: Vec<(String, usize)>,
}

/// One accepted campaign.
struct Campaign {
    spec: CampaignSpec,
    /// Cell identities in grid-expansion order (for the pending listing).
    points: Vec<SweepPoint>,
    skipped: Vec<SkippedPoint>,
    /// Rendered timing-free bytes per cell; `None` while pending.
    cells: Vec<Option<String>>,
    /// Cells still `None`.
    pending: usize,
    /// First cell-execution error, which fails the whole campaign.
    error: Option<String>,
    submitted: Instant,
    /// Set when `pending` reaches zero.
    wall_seconds: Option<f64>,
}

impl Campaign {
    fn state_label(&self) -> &'static str {
        if self.error.is_some() {
            "failed"
        } else if self.pending == 0 {
            "finished"
        } else {
            "running"
        }
    }

    /// Builds the (possibly partial) schema-3 report over the finished
    /// cells, pasted verbatim in grid-expansion order.
    fn report(&self, workers: usize) -> CampaignReport {
        let cells = self.cells.iter().flatten();
        let cells = cells.map(|rendered| CampaignCell::Restored(rendered.clone()));
        assemble_report(
            &self.spec,
            cells.collect(),
            self.skipped.clone(),
            StealStats { workers, steals: 0 },
            self.wall_seconds.unwrap_or(0.0),
        )
    }
}

/// The mutex-guarded half of the daemon.
struct ServiceState {
    campaigns: BTreeMap<String, Campaign>,
    /// Unique cells pending or in flight, keyed by [`cell_key`].
    cells: HashMap<u64, PendingCell>,
    /// Keys queued for the next executor batch.
    queue: VecDeque<u64>,
    /// Unique cells inside the currently running batch.
    in_flight: usize,
}

/// Everything the accept loop, the executor, and [`ServerHandle`] share.
struct Shared {
    state: Mutex<ServiceState>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    store: CellStore,
    journal_dir: PathBuf,
    engine: EngineKind,
    workers: usize,
    max_body_bytes: usize,
    started: Instant,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work_ready.notify_all();
    }
}

/// A running daemon: its bound address plus the accept and executor thread
/// handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound socket address (resolves `:0` bindings).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` base URL of this daemon.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Campaigns re-opened from the journal at startup.
    pub fn rehydrated(&self) -> u64 {
        Metrics::read(&self.shared.metrics.campaigns_rehydrated)
    }

    /// Whether a shutdown was requested (signal, `POST /shutdown`, or
    /// [`ServerHandle::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Asks the daemon to stop: no new work is accepted, the running batch
    /// finishes and its cells are persisted, then both threads exit.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits for the accept loop and executor to exit. Call
    /// [`ServerHandle::request_shutdown`] first (or let a client
    /// `POST /shutdown`), or this blocks forever.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Binds, rehydrates journaled campaigns, and spawns the daemon threads.
///
/// # Errors
///
/// A human-readable string when a directory cannot be created or the
/// address cannot be bound.
pub fn start(options: ServeOptions) -> Result<ServerHandle, String> {
    let store = CellStore::new(&options.store_dir)
        .map_err(|e| format!("cell store {}: {e}", options.store_dir.display()))?;
    std::fs::create_dir_all(&options.journal_dir)
        .map_err(|e| format!("journal dir {}: {e}", options.journal_dir.display()))?;
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot make listener nonblocking: {e}"))?;
    let shared = Arc::new(Shared {
        state: Mutex::new(ServiceState {
            campaigns: BTreeMap::new(),
            cells: HashMap::new(),
            queue: VecDeque::new(),
            in_flight: 0,
        }),
        work_ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics: Metrics::default(),
        store,
        journal_dir: options.journal_dir.clone(),
        engine: options.engine,
        workers: options.workers.max(1),
        max_body_bytes: options.max_body_bytes,
        started: Instant::now(),
    });
    rehydrate(&shared);
    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || executor_loop(&shared))
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(ServerHandle {
        addr,
        shared,
        threads: vec![acceptor, executor],
    })
}

/// Re-opens every journaled campaign: parses `<id>.grid`, checks the id
/// still matches the content, and resubmits without re-journaling. Grids
/// that no longer parse or resolve (e.g. a vanished trace directory) are
/// reported on stderr and skipped — the journal file stays for inspection.
fn rehydrate(shared: &Arc<Shared>) {
    let Ok(entries) = std::fs::read_dir(&shared.journal_dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "grid"))
        .collect();
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!(
                "tage-serve: journal {} is unreadable; skipped",
                path.display()
            );
            continue;
        };
        let outcome = GridRequest::parse(&text).and_then(|request| {
            let expected = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if request.id() != expected {
                return Err(format!(
                    "content hashes to {} but the file claims {expected}",
                    request.id()
                ));
            }
            submit(shared, &request, false)
        });
        match outcome {
            Ok(_) => Metrics::bump(&shared.metrics.campaigns_rehydrated),
            Err(error) => {
                eprintln!("tage-serve: journal {}: {error}; skipped", path.display());
            }
        }
    }
}

/// The acknowledgement of one grid submission.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SubmitOutcome {
    id: String,
    state: &'static str,
    cells: usize,
    finished_cells: usize,
    pending_cells: usize,
    /// Whether the id was already known (idempotent resubmission).
    known: bool,
}

impl SubmitOutcome {
    fn render_json(&self) -> String {
        format!(
            "{{\"id\": \"{}\", \"state\": \"{}\", \"cells\": {}, \"finished_cells\": {}, \"pending_cells\": {}, \"known\": {}}}\n",
            self.id, self.state, self.cells, self.finished_cells, self.pending_cells, self.known
        )
    }
}

/// Accepts a grid: resolves and expands it, restores every cell the store
/// already holds, queues the rest (deduplicated against cells other
/// campaigns already queued), and journals the canonical grid JSON.
///
/// Resubmitting a known id returns its current status without touching
/// anything.
fn submit(
    shared: &Arc<Shared>,
    request: &GridRequest,
    journal: bool,
) -> Result<SubmitOutcome, String> {
    let id = request.id();
    {
        let state = shared.state.lock().expect("service state poisoned");
        if let Some(campaign) = state.campaigns.get(&id) {
            return Ok(SubmitOutcome {
                id,
                state: campaign.state_label(),
                cells: campaign.cells.len(),
                finished_cells: campaign.cells.len() - campaign.pending,
                pending_cells: campaign.pending,
                known: true,
            });
        }
    }
    let spec = request.to_spec()?;
    let (points, skipped) = spec.expand();
    if journal {
        write_journal(&shared.journal_dir, &id, &request.to_json())?;
    }
    let outcome = {
        let mut state = shared.state.lock().expect("service state poisoned");
        // Lost a (theoretical) submission race otherwise; the winner's
        // campaign is equivalent by construction.
        if !state.campaigns.contains_key(&id) {
            // Store lookups happen under the lock: the executor stores a
            // cell before it publishes it under this lock, so every cell is
            // either stored, still pending, or new — none slips between.
            let mut cells = Vec::with_capacity(points.len());
            for (index, point) in points.iter().enumerate() {
                let key = cell_key(spec.branches_per_trace, point);
                let stored = shared.store.load_cell(key, point);
                if stored.is_some() {
                    Metrics::bump(&shared.metrics.cells_restored);
                } else if let Some(pending) = state.cells.get_mut(&key) {
                    pending.waiters.push((id.clone(), index));
                } else {
                    let job = CellJob {
                        key,
                        point: point.clone(),
                        branches_per_trace: spec.branches_per_trace,
                    };
                    let waiters = vec![(id.clone(), index)];
                    state.cells.insert(key, PendingCell { job, waiters });
                    state.queue.push_back(key);
                }
                cells.push(stored);
            }
            let pending = cells.iter().filter(|cell| cell.is_none()).count();
            if pending == 0 {
                Metrics::bump(&shared.metrics.campaigns_finished);
            }
            Metrics::bump(&shared.metrics.campaigns_submitted);
            let campaign = Campaign {
                spec,
                points,
                skipped,
                pending,
                cells,
                error: None,
                submitted: Instant::now(),
                wall_seconds: (pending == 0).then_some(0.0),
            };
            state.campaigns.insert(id.clone(), campaign);
        }
        let campaign = &state.campaigns[&id];
        SubmitOutcome {
            id: id.clone(),
            state: campaign.state_label(),
            cells: campaign.cells.len(),
            finished_cells: campaign.cells.len() - campaign.pending,
            pending_cells: campaign.pending,
            known: false,
        }
    };
    shared.work_ready.notify_all();
    Ok(outcome)
}

/// Atomically writes `<journal_dir>/<id>.grid` ([`write_atomic`]).
fn write_journal(journal_dir: &Path, id: &str, canonical_json: &str) -> Result<(), String> {
    write_atomic(
        &journal_dir.join(format!("{id}.grid")),
        canonical_json.as_bytes(),
    )
    .map_err(|e| format!("cannot journal campaign {id}: {e}"))
}

/// The executor: drains the queue into batches, runs each batch through the
/// campaign cell executor (which persists every finished cell to the store
/// before this loop publishes it), and distributes the bytes to every
/// waiting campaign. Cells the shutdown flag skipped go back on the queue.
/// Exits when shutdown is requested and the current batch has been flushed.
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let batch: Vec<CellJob> = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !state.queue.is_empty() {
                    break;
                }
                let (next, _) = shared
                    .work_ready
                    .wait_timeout(state, POLL_INTERVAL)
                    .expect("service state poisoned");
                state = next;
            }
            let keys: Vec<u64> = state.queue.drain(..).collect();
            state.in_flight = keys.len();
            keys.iter()
                .map(|key| state.cells[key].job.clone())
                .collect()
        };
        Metrics::bump(&shared.metrics.batches);
        let batch_start = Instant::now();
        let run = execute_cells(
            &batch,
            shared.workers,
            shared.engine,
            Some(&shared.store),
            Some(&shared.shutdown),
        );
        let metrics = &shared.metrics;
        metrics
            .steals
            .fetch_add(run.stats.steals, Ordering::Relaxed);
        metrics
            .busy_micros
            .fetch_add(batch_start.elapsed().as_micros() as u64, Ordering::Relaxed);
        metrics
            .store_errors
            .fetch_add(run.store_errors as u64, Ordering::Relaxed);
        let mut state = shared.state.lock().expect("service state poisoned");
        for (job, cell) in batch.iter().zip(run.cells) {
            match cell {
                Some(Ok(cell)) => {
                    Metrics::bump(&metrics.cells_computed);
                    let pending = state.cells.remove(&job.key).expect("batched cell tracked");
                    for (campaign_id, index) in pending.waiters {
                        finish_cell(&mut state, shared, &campaign_id, index, &cell.rendered);
                    }
                }
                Some(Err(error)) => {
                    let pending = state.cells.remove(&job.key).expect("batched cell tracked");
                    for (campaign_id, _) in pending.waiters {
                        fail_campaign(&mut state, shared, &campaign_id, &error.to_string());
                    }
                }
                None => state.queue.push_back(job.key),
            }
        }
        state.in_flight = 0;
    }
}

/// Pastes a finished cell into one campaign position and closes the
/// campaign when it was the last pending cell.
fn finish_cell(
    state: &mut ServiceState,
    shared: &Shared,
    campaign_id: &str,
    index: usize,
    rendered: &str,
) {
    let Some(campaign) = state.campaigns.get_mut(campaign_id) else {
        return;
    };
    if campaign.cells[index].is_none() {
        campaign.cells[index] = Some(rendered.to_string());
        campaign.pending -= 1;
    }
    if campaign.pending == 0 && campaign.wall_seconds.is_none() && campaign.error.is_none() {
        campaign.wall_seconds = Some(campaign.submitted.elapsed().as_secs_f64());
        Metrics::bump(&shared.metrics.campaigns_finished);
    }
}

/// Marks a campaign failed on its first cell error.
fn fail_campaign(state: &mut ServiceState, shared: &Shared, campaign_id: &str, error: &str) {
    let Some(campaign) = state.campaigns.get_mut(campaign_id) else {
        return;
    };
    if campaign.error.is_none() {
        campaign.error = Some(error.to_string());
        Metrics::bump(&shared.metrics.campaigns_failed);
    }
}

/// The accept loop: single-threaded, nonblocking accept polling the
/// shutdown flag. Each connection carries one request.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                handle_connection(&mut stream, shared);
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads one request, routes it, writes one response.
fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    Metrics::bump(&shared.metrics.requests);
    match read_request(stream, shared.max_body_bytes) {
        Ok(request) => {
            let (status, reason, body) = route(shared, &request);
            write_response(stream, status, reason, &body);
        }
        Err(HttpError::Io(_)) => {}
        Err(error @ HttpError::Malformed(_)) => {
            write_response(stream, 400, "Bad Request", &error_body(&error.to_string()));
        }
        Err(error @ HttpError::TooLarge { .. }) => {
            write_response(
                stream,
                413,
                "Payload Too Large",
                &error_body(&error.to_string()),
            );
        }
    }
}

fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", jsonish::escape(message))
}

/// Dispatches one request to its endpoint.
fn route(shared: &Arc<Shared>, request: &Request) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/campaigns") => submit_endpoint(shared, &request.body),
        ("GET", "/metrics") => (200, "OK", render_metrics(shared)),
        ("GET", "/healthz") => (200, "OK", "{\"ok\": true}\n".to_string()),
        ("POST", "/shutdown") => {
            shared.request_shutdown();
            (
                200,
                "OK",
                "{\"ok\": true, \"shutting_down\": true}\n".to_string(),
            )
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/campaigns/") {
                if let Some(id) = rest.strip_suffix("/report") {
                    report_endpoint(shared, id)
                } else if rest.contains('/') {
                    (404, "Not Found", error_body("no such endpoint"))
                } else {
                    status_endpoint(shared, rest)
                }
            } else {
                (404, "Not Found", error_body("no such endpoint"))
            }
        }
        _ => (404, "Not Found", error_body("no such endpoint")),
    }
}

/// `POST /campaigns`: hardened parse, then [`submit`].
fn submit_endpoint(shared: &Arc<Shared>, body: &[u8]) -> (u16, &'static str, String) {
    let Ok(body) = std::str::from_utf8(body) else {
        return (400, "Bad Request", error_body("body is not UTF-8"));
    };
    if let Err(error) = jsonish::validate_document(body, jsonish::DEFAULT_MAX_DEPTH) {
        return (400, "Bad Request", error_body(&error.to_string()));
    }
    let request = match GridRequest::parse(body) {
        Ok(request) => request,
        Err(error) => return (400, "Bad Request", error_body(&error)),
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return (
            503,
            "Service Unavailable",
            error_body("daemon is shutting down"),
        );
    }
    match submit(shared, &request, true) {
        Ok(outcome) => (202, "Accepted", outcome.render_json()),
        Err(error) => (400, "Bad Request", error_body(&error)),
    }
}

/// `GET /campaigns/<id>`: incremental status — finished cells pasted
/// verbatim into a partial schema-3 report, pending cells listed by
/// identity.
fn status_endpoint(shared: &Arc<Shared>, id: &str) -> (u16, &'static str, String) {
    let state = shared.state.lock().expect("service state poisoned");
    let Some(campaign) = state.campaigns.get(id) else {
        return (
            404,
            "Not Found",
            error_body(&format!("unknown campaign {id}")),
        );
    };
    let pending: Vec<String> = campaign
        .cells
        .iter()
        .enumerate()
        .filter(|(_, cell)| cell.is_none())
        .map(|(index, _)| {
            let point = &campaign.points[index];
            format!(
                "  {{\"predictor\": \"{}\", \"scheme\": \"{}\", \"suite\": \"{}\", \"scenario\": \"{}\"}}",
                jsonish::escape(&point.predictor.label()),
                jsonish::escape(&point.scheme.label()),
                jsonish::escape(point.suite.name()),
                jsonish::escape(point.scenario.label()),
            )
        })
        .collect();
    let pending = if pending.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n ]", pending.join(",\n"))
    };
    let error = match &campaign.error {
        Some(error) => format!(" \"error\": \"{}\",\n", jsonish::escape(error)),
        None => String::new(),
    };
    let body = format!(
        "{{\n \"id\": \"{id}\",\n \"state\": \"{}\",\n \"cells\": {},\n \"finished_cells\": {},\n \"pending_cells\": {},\n{error} \"pending\": {pending},\n \"report\": {}}}\n",
        campaign.state_label(),
        campaign.cells.len(),
        campaign.cells.len() - campaign.pending,
        campaign.pending,
        campaign.report(shared.workers).render_json(false),
    );
    (200, "OK", body)
}

/// `GET /campaigns/<id>/report`: the final byte-stable document — exactly
/// [`CampaignReport::render_json`]`(false)` over the stored cell bytes,
/// which byte-matches a one-shot CLI run of the same grid.
fn report_endpoint(shared: &Arc<Shared>, id: &str) -> (u16, &'static str, String) {
    let state = shared.state.lock().expect("service state poisoned");
    let Some(campaign) = state.campaigns.get(id) else {
        return (
            404,
            "Not Found",
            error_body(&format!("unknown campaign {id}")),
        );
    };
    if let Some(error) = &campaign.error {
        return (500, "Internal Server Error", error_body(error));
    }
    if campaign.pending > 0 {
        return (
            409,
            "Conflict",
            error_body(&format!(
                "campaign {id} still has {} pending cells",
                campaign.pending
            )),
        );
    }
    (
        200,
        "OK",
        campaign.report(shared.workers).render_json(false),
    )
}

/// `GET /metrics`.
fn render_metrics(shared: &Arc<Shared>) -> String {
    let (queue_depth, cells_in_flight, campaigns_open, campaign_wall_seconds) = {
        let state = shared.state.lock().expect("service state poisoned");
        let walls: Vec<(String, f64)> = state
            .campaigns
            .iter()
            .filter_map(|(id, campaign)| campaign.wall_seconds.map(|wall| (id.clone(), wall)))
            .collect();
        let open = state
            .campaigns
            .values()
            .filter(|campaign| campaign.pending > 0 && campaign.error.is_none())
            .count();
        (state.queue.len(), state.in_flight, open, walls)
    };
    let (warmcache_hits, warmcache_misses) = warmcache::global_counters();
    let metrics = &shared.metrics;
    MetricsSnapshot {
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        workers: shared.workers,
        queue_depth,
        cells_in_flight,
        campaigns_open,
        campaign_wall_seconds,
        requests: Metrics::read(&metrics.requests),
        campaigns_submitted: Metrics::read(&metrics.campaigns_submitted),
        campaigns_rehydrated: Metrics::read(&metrics.campaigns_rehydrated),
        campaigns_finished: Metrics::read(&metrics.campaigns_finished),
        campaigns_failed: Metrics::read(&metrics.campaigns_failed),
        cells_computed: Metrics::read(&metrics.cells_computed),
        cells_restored: Metrics::read(&metrics.cells_restored),
        cache_hits: shared.store.hits(),
        cache_misses: shared.store.misses(),
        store_errors: Metrics::read(&metrics.store_errors),
        warmcache_hits,
        warmcache_misses,
        batches: Metrics::read(&metrics.batches),
        steals: Metrics::read(&metrics.steals),
        busy_seconds: Metrics::read(&metrics.busy_micros) as f64 / 1e6,
    }
    .render_json()
}
