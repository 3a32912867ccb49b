//! `tage-serve`: a resumable campaign daemon over a content-addressed
//! result cache.
//!
//! The service turns the one-shot campaign runner ([`crate::campaign`])
//! into a long-lived process: clients `POST /campaigns` declarative grids
//! ([`grid::GridRequest`]), the daemon expands them into cells, and a pool
//! of long-lived workers runs them through the same executor the CLI uses,
//! one cell at a time as a one-job campaign — the same plan, the same
//! persistence, the same predictor warm cache under `<store>/warm` for
//! phase-sampled cells — memoizing every finished cell into a shared
//! [`CellStore`]. Each worker takes the oldest queued cell as soon as it is
//! free, so a small grid never waits for a whole batch ahead of it. Three
//! properties fall out of that design:
//!
//! - **Resubmission is free.** A campaign's id is the fnv64 of its
//!   canonical grid JSON, and cell keys are content-addressed, so an
//!   identical or overlapping grid is answered from the store (or attached
//!   to the in-flight computation) instead of re-executed — each unique
//!   cell computes at most once, even across two concurrent campaigns.
//! - **Kill/restart is safe.** Every accepted grid with a cell left to
//!   compute is journaled to `<journal>/<id>.grid` before the submission
//!   is acknowledged; a restarted daemon re-opens journaled campaigns,
//!   restores their finished cells from the store, and re-queues only the
//!   missing ones. A grid the store answers in full finishes at submit and
//!   is not journaled: resubmitting it after a restart answers it again.
//! - **Reports are byte-stable.** The final `GET /campaigns/<id>/report`
//!   document is the timing-free schema-4 rendering over stored cell
//!   bytes, which byte-matches an uninterrupted one-shot `tage-bench` run
//!   of the same grid — regardless of worker count, engine, restarts, or
//!   which campaign originally computed each cell.
//!
//! Nothing polls: the listener blocks in `accept`, idle workers block on a
//! condvar, and `GET /campaigns/<id>` on a running campaign is held until
//! the campaign finishes a cell (at most 2 s), so clients may poll back to
//! back.
//!
//! The HTTP layer ([`http`]) is a hand-rolled std-only HTTP/1.1 subset;
//! request bodies are hardened through
//! [`jsonish::validate_document`] before any field extraction.

pub mod client;
pub mod grid;
pub mod http;
pub mod metrics;

use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use tage_sim::engine::StealStats;
use tage_sim::point::SweepPoint;
use tage_sim::warmcache;
use tage_sim::EngineKind;
use tage_traces::snapshot::KeyedFiles;

use crate::campaign::{
    assemble_report, execute_cells, CampaignCell, CampaignError, CampaignSpec, CellJob,
    ExecutedCell, SkippedPoint,
};
use crate::cellstore::{cell_key, CellStore};
use crate::jsonish;
use grid::GridRequest;
use http::{read_request, write_response, HttpError, Request};
use metrics::{Metrics, MetricsSnapshot};

/// The longest `GET /campaigns/<id>` on a running campaign waits for the
/// campaign's next finished cell — well below [`http::IO_TIMEOUT`], so a
/// held client never times out first.
const STATUS_HOLD: Duration = Duration::from_secs(2);

/// How long the accept loop backs off after a failed `accept` (e.g. out of
/// file descriptors), so it does not spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(25);

/// Configuration of one [`start`]ed daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads, each running one cell at a time.
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
    /// Executable cells in the grid.
    cells: usize,
    /// Cells not yet finished.
    pending: usize,
    /// First cell-execution error, which fails the whole campaign.
    error: Option<String>,
    submitted: Instant,
    progress: Progress,
}

/// What a campaign holds: its grid and finished cells while it runs, only
/// its final report once every cell finished.
enum Progress {
    Running(Box<RunningGrid>),
    Finished {
        /// The final timing-free report bytes.
        report: String,
        /// Seconds from submit to the last finished cell.
        wall_seconds: f64,
    },
}

/// A running campaign's grid and the bytes of its finished cells.
struct RunningGrid {
    spec: CampaignSpec,
    /// Cell identities in grid-expansion order (for the pending listing).
    points: Vec<SweepPoint>,
    skipped: Vec<SkippedPoint>,
    /// Rendered timing-free bytes per cell; `None` while pending.
    cells: Vec<Option<String>>,
}

impl RunningGrid {
    /// The (possibly partial) timing-free schema-4 report over the finished
    /// cells, pasted verbatim in grid-expansion order.
    fn render_report(&self) -> String {
        let cells = self.cells.iter().flatten();
        let cells = cells.map(|rendered| CampaignCell::Restored(rendered.clone()));
        // Scheduling figures and wall time are timing fields, never rendered.
        let stats = StealStats {
            workers: 0,
            steals: 0,
        };
        assemble_report(
            &self.spec,
            cells.collect(),
            self.skipped.clone(),
            stats,
            0.0,
        )
        .render_json(false)
    }

    /// The identities of the pending cells, as a JSON array.
    fn render_pending(&self) -> String {
        let pending: Vec<String> = self
            .cells
            .iter()
            .zip(&self.points)
            .filter(|(cell, _)| cell.is_none())
            .map(|(_, point)| {
                format!(
                    "  {{\"predictor\": \"{}\", \"scheme\": \"{}\", \"suite\": \"{}\", \"scenario\": \"{}\"}}",
                    jsonish::escape(&point.predictor.label()),
                    jsonish::escape(&point.scheme.label()),
                    jsonish::escape(point.suite.name()),
                    jsonish::escape(point.scenario.label()),
                )
            })
            .collect();
        if pending.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n ]", pending.join(",\n"))
        }
    }
}

impl Campaign {
    /// A campaign over `grid`, finished at once when the store restored
    /// every cell.
    fn new(grid: RunningGrid) -> Campaign {
        let pending = grid.cells.iter().filter(|cell| cell.is_none()).count();
        let mut campaign = Campaign {
            cells: grid.cells.len(),
            pending,
            error: None,
            submitted: Instant::now(),
            progress: Progress::Running(Box::new(grid)),
        };
        campaign.finish_if_done();
        campaign
    }

    /// Neither finished nor failed.
    fn is_running(&self) -> bool {
        self.pending > 0 && self.error.is_none()
    }

    fn state_label(&self) -> &'static str {
        if self.error.is_some() {
            "failed"
        } else if self.pending == 0 {
            "finished"
        } else {
            "running"
        }
    }

    /// Pastes a finished cell into position `index`; returns whether that
    /// finished the campaign.
    fn fill(&mut self, index: usize, rendered: &str) -> bool {
        let Progress::Running(grid) = &mut self.progress else {
            return false;
        };
        if grid.cells[index].is_some() {
            return false;
        }
        grid.cells[index] = Some(rendered.to_string());
        self.pending -= 1;
        self.finish_if_done()
    }

    /// Records the campaign's first cell error; returns whether it was the
    /// first.
    fn fail(&mut self, error: &str) -> bool {
        let first = self.error.is_none();
        if first {
            self.error = Some(error.to_string());
        }
        first
    }

    /// Once no cell is pending and none failed: renders the final report
    /// once and keeps only its bytes. Returns whether this call finished
    /// the campaign.
    fn finish_if_done(&mut self) -> bool {
        let Progress::Running(grid) = &self.progress else {
            return false;
        };
        if self.pending > 0 || self.error.is_some() {
            return false;
        }
        let mut report = grid.render_report();
        report.shrink_to_fit();
        self.progress = Progress::Finished {
            report,
            wall_seconds: self.submitted.elapsed().as_secs_f64(),
        };
        true
    }
}

/// The mutex-guarded half of the daemon.
struct ServiceState {
    campaigns: BTreeMap<String, Campaign>,
    /// Unique cells queued or executing, keyed by [`cell_key`].
    cells: HashMap<u64, PendingCell>,
    /// Keys waiting for a free worker, oldest first.
    queue: VecDeque<u64>,
    /// Cells a worker is executing.
    in_flight: usize,
}

/// Everything the accept loop, the workers, held status requests and
/// [`ServerHandle`] share.
struct Shared {
    state: Mutex<ServiceState>,
    /// Notified when a cell is queued; idle workers wait on it.
    work_ready: Condvar,
    /// Notified when a worker publishes a cell; held status requests wait
    /// on it.
    progress: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    store: CellStore,
    /// One `<id>.grid` file per journaled campaign.
    journal: KeyedFiles,
    engine: EngineKind,
    workers: usize,
    max_body_bytes: usize,
    started: Instant,
}

impl Shared {
    /// Sets the shutdown flag and wakes every waiting worker and held
    /// status request. The accept loop checks the flag after each
    /// connection; see [`ServerHandle::request_shutdown`] for waking it.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Waiters check the flag and start waiting under the state lock, so
        // once this lock is taken each one either saw the flag or is
        // already waiting for the notifications below. A poisoned lock
        // still orders them.
        drop(self.state.lock());
        self.work_ready.notify_all();
        self.progress.notify_all();
    }
}

/// A running daemon: its bound address plus the accept and worker thread
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

    /// Asks the daemon to stop: no new work is accepted, each worker
    /// finishes and persists the cell it is running, held status requests
    /// are answered, then every thread exits. Queued cells stay journaled
    /// for the next daemon.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
        // Wake the accept loop, blocked in `accept`, with a connection of
        // our own; it sees the flag and exits. A refused connection means
        // it already did.
        let _ = TcpStream::connect(wake_address(self.addr));
    }

    /// Waits for the accept loop, the workers and any held status request
    /// to exit. Call [`ServerHandle::request_shutdown`] first (or let a
    /// client `POST /shutdown`), or this blocks forever.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Where [`ServerHandle::request_shutdown`] connects to wake the accept
/// loop: the bound address, on loopback when bound to every interface.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Binds, rehydrates journaled campaigns, and spawns the accept loop and
/// the workers.
///
/// # Errors
///
/// A human-readable string when a directory cannot be created or the
/// address cannot be bound.
pub fn start(options: ServeOptions) -> Result<ServerHandle, String> {
    let store = CellStore::new(&options.store_dir)
        .map_err(|e| format!("cell store {}: {e}", options.store_dir.display()))?;
    let journal = KeyedFiles::new(&options.journal_dir, "grid")
        .map_err(|e| format!("journal dir {}: {e}", options.journal_dir.display()))?;
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let workers = options.workers.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(ServiceState {
            campaigns: BTreeMap::new(),
            cells: HashMap::new(),
            queue: VecDeque::new(),
            in_flight: 0,
        }),
        work_ready: Condvar::new(),
        progress: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics: Metrics::default(),
        store,
        journal,
        engine: options.engine,
        workers,
        max_body_bytes: options.max_body_bytes,
        started: Instant::now(),
    });
    rehydrate(&shared);
    let mut threads: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    threads.push(acceptor);
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Re-opens every journaled campaign (each `<id>.grid` file), in id
/// order: parses it, checks the id still matches the content, and
/// resubmits without re-journaling. Grids that no longer parse or resolve
/// (e.g. a vanished trace directory) are reported on stderr and skipped —
/// the journal file stays for inspection.
fn rehydrate(shared: &Arc<Shared>) {
    let Ok(keys) = shared.journal.keys() else {
        return;
    };
    for key in keys {
        let path = shared.journal.path(key);
        let Some(text) = shared
            .journal
            .load(key, |bytes| String::from_utf8(bytes).ok())
        else {
            eprintln!(
                "tage-serve: journal {} is unreadable; skipped",
                path.display()
            );
            continue;
        };
        let outcome = GridRequest::parse(&text).and_then(|request| {
            if request.key() != key {
                return Err(format!(
                    "content hashes to {} but the file claims {key:016x}",
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
    fn new(id: String, campaign: &Campaign, known: bool) -> SubmitOutcome {
        SubmitOutcome {
            id,
            state: campaign.state_label(),
            cells: campaign.cells,
            finished_cells: campaign.cells - campaign.pending,
            pending_cells: campaign.pending,
            known,
        }
    }

    fn render_json(&self) -> String {
        format!(
            "{{\"id\": \"{}\", \"state\": \"{}\", \"cells\": {}, \"finished_cells\": {}, \"pending_cells\": {}, \"known\": {}}}\n",
            self.id, self.state, self.cells, self.finished_cells, self.pending_cells, self.known
        )
    }
}

/// Accepts a grid: resolves and expands it, restores every cell the store
/// already holds, queues the rest (deduplicated against cells other
/// campaigns already queued), and journals the canonical grid JSON when a
/// cell is left to compute. A grid the store answers in full finishes at
/// submit and leaves a restarted daemon nothing to resume, so it skips the
/// journal and the disk flush of writing it.
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
            return Ok(SubmitOutcome::new(id, campaign, true));
        }
    }
    let spec = request.to_spec()?;
    let (points, skipped) = spec.expand();
    let keys: Vec<u64> = points
        .iter()
        .map(|point| cell_key(spec.branches_per_trace, point))
        .collect();
    // The daemon never removes a stored cell, so a cell found here stays
    // valid.
    let mut cells: Vec<Option<String>> = keys
        .iter()
        .zip(&points)
        .map(|(&key, point)| shared.store.load_cell(key, point))
        .collect();
    if journal && cells.contains(&None) {
        shared
            .journal
            .store(request.key(), request.to_json().as_bytes())
            .map_err(|e| format!("cannot journal campaign {id}: {e}"))?;
    }
    let (outcome, queued) = {
        let mut state = shared.state.lock().expect("service state poisoned");
        let mut queued = 0;
        // Lost a (theoretical) submission race otherwise; the winner's
        // campaign is equivalent by construction.
        if !state.campaigns.contains_key(&id) {
            for (index, (cell, (&key, point))) in
                cells.iter_mut().zip(keys.iter().zip(&points)).enumerate()
            {
                // A worker stores a cell before it publishes it under this
                // lock, so a cell missed above is still pending, stored
                // since by a campaign that shares it, or new — none slips
                // between.
                if cell.is_none() && !state.cells.contains_key(&key) && shared.store.has_cell(key) {
                    *cell = shared.store.load_cell(key, point);
                }
                if cell.is_some() {
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
                    queued += 1;
                }
            }
            let campaign = Campaign::new(RunningGrid {
                spec,
                points,
                skipped,
                cells,
            });
            if campaign.pending == 0 {
                Metrics::bump(&shared.metrics.campaigns_finished);
            }
            Metrics::bump(&shared.metrics.campaigns_submitted);
            state.campaigns.insert(id.clone(), campaign);
        }
        (
            SubmitOutcome::new(id.clone(), &state.campaigns[&id], false),
            queued,
        )
    };
    // One idle worker per queued cell; a busy worker checks the queue
    // before it waits again.
    for _ in 0..queued {
        shared.work_ready.notify_one();
    }
    Ok(outcome)
}

/// One worker: takes the oldest queued cell as soon as it is free, runs it
/// through the campaign executor (which persists it to the store
/// before this loop publishes it), and hands the bytes to every waiting
/// campaign. A cell that panics fails its campaigns, not the worker. On
/// shutdown the worker exits after its current cell; queued cells stay
/// journaled.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(key) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break state.cells[&key].job.clone();
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .expect("service state poisoned");
            }
        };
        let start = Instant::now();
        let outcome = run_cell(shared, &job);
        let metrics = &shared.metrics;
        metrics
            .busy_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        let outcome = outcome.map(|cell| {
            Metrics::bump(&metrics.cells_computed);
            if cell.store_failed {
                Metrics::bump(&metrics.store_errors);
            }
            cell.rendered
        });
        publish(shared, job.key, &outcome);
    }
}

/// Runs one cell through the campaign executor, as a one-job campaign on
/// one worker over the daemon's store and warm cache, turning a panic into
/// the cell's failure message.
///
/// The cell runs on a short-lived thread of its own, as `steal_map` runs a
/// CLI grid's cells, so its transient allocations come and go with that
/// thread's malloc arena. On the worker itself they would fragment the
/// arena that holds the long-lived campaign bytes `publish` allocates:
/// with glibc that raised perfbench `serve_closed_loop`'s peak RSS by
/// 1.1–1.9 MB (9–17%) on a 2-core Xeon. When no thread can be started, the
/// cell runs on the worker.
fn run_cell(shared: &Shared, job: &CellJob) -> Result<ExecutedCell, String> {
    let run = || {
        let jobs = std::slice::from_ref(job);
        let mut run = execute_cells(jobs, 1, shared.engine, Some(&shared.store));
        run.cells.pop().expect("one cell per job")
    };
    let outcome = std::thread::scope(|scope| {
        let thread = std::thread::Builder::new().spawn_scoped(scope, run);
        match thread {
            Ok(thread) => thread.join(),
            Err(_) => catch_unwind(AssertUnwindSafe(run)),
        }
    });
    match outcome {
        Ok(result) => result.map_err(|error| CampaignError::new(&job.point, error).to_string()),
        Err(payload) => Err(panic_message(&*payload)),
    }
}

/// The failure message of a cell whose execution panicked with `payload`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)");
    format!("cell panicked: {message}")
}

/// Hands a finished cell's bytes, or its error, to every waiting campaign
/// position, then wakes the held status requests.
fn publish(shared: &Shared, key: u64, outcome: &Result<String, String>) {
    let mut state = shared.state.lock().expect("service state poisoned");
    state.in_flight -= 1;
    let cell = state.cells.remove(&key).expect("in-flight cell tracked");
    for (campaign_id, index) in cell.waiters {
        let Some(campaign) = state.campaigns.get_mut(&campaign_id) else {
            continue;
        };
        match outcome {
            Ok(rendered) => {
                if campaign.fill(index, rendered) {
                    Metrics::bump(&shared.metrics.campaigns_finished);
                }
            }
            Err(error) => {
                if campaign.fail(error) {
                    Metrics::bump(&shared.metrics.campaigns_failed);
                }
            }
        }
    }
    drop(state);
    shared.progress.notify_all();
}

/// The accept loop: blocks in `accept` and serves each connection's one
/// request, until shutdown is requested. Held status requests run on
/// threads of its scope, so it exits only once each has been answered.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    std::thread::scope(|scope| {
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                // After a shutdown request this is the wake-up connection (or
                // a request racing it), which is dropped unanswered.
                Ok((stream, _)) if !shared.shutdown.load(Ordering::SeqCst) => {
                    handle_connection(scope, stream, shared);
                }
                Ok(_) => {}
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
    });
}

/// Reads one request, routes it, writes one response — except a status
/// request on a running campaign, which [`hold_status`] answers later.
fn handle_connection<'scope>(
    scope: &'scope Scope<'scope, '_>,
    mut stream: TcpStream,
    shared: &'scope Arc<Shared>,
) {
    Metrics::bump(&shared.metrics.requests);
    match read_request(&mut stream, shared.max_body_bytes) {
        Ok(request) => {
            if let Some((id, pending)) = running_status_request(shared, &request) {
                hold_status(scope, shared, stream, id, pending);
                return;
            }
            let (status, reason, body) = route(shared, &request);
            write_response(&mut stream, status, reason, &body);
        }
        Err(HttpError::Io(_)) => {}
        Err(error @ HttpError::Malformed(_)) => {
            write_response(
                &mut stream,
                400,
                "Bad Request",
                &error_body(&error.to_string()),
            );
        }
        Err(error @ HttpError::TooLarge { .. }) => {
            write_response(
                &mut stream,
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

/// The `<id>` of a `/campaigns/<id>` status path.
fn status_id(path: &str) -> Option<&str> {
    path.strip_prefix("/campaigns/")
        .filter(|id| !id.contains('/'))
}

/// The id and pending-cell count of a `GET /campaigns/<id>` whose campaign
/// is running — the one request that is held.
fn running_status_request(shared: &Shared, request: &Request) -> Option<(String, usize)> {
    let id = status_id(&request.path).filter(|_| request.method == "GET")?;
    let state = shared.state.lock().expect("service state poisoned");
    let campaign = state.campaigns.get(id)?;
    campaign
        .is_running()
        .then(|| (id.to_string(), campaign.pending))
}

/// Answers a status request on a running campaign from a thread of its
/// own, so the accept loop never blocks: the thread waits until one of the
/// campaign's cells finishes, the campaign fails, shutdown is requested,
/// or [`STATUS_HOLD`] passes. When no thread can be started, answers at
/// once.
fn hold_status<'scope>(
    scope: &'scope Scope<'scope, '_>,
    shared: &'scope Shared,
    mut stream: TcpStream,
    id: String,
    pending: usize,
) {
    let held = stream.try_clone().ok().and_then(|mut held| {
        let id = id.clone();
        std::thread::Builder::new()
            .spawn_scoped(scope, move || {
                let (status, reason, body) = held_status(shared, &id, pending);
                write_response(&mut held, status, reason, &body);
            })
            .ok()
    });
    if held.is_none() {
        let (status, reason, body) = status_endpoint(shared, &id);
        write_response(&mut stream, status, reason, &body);
    }
}

/// The status of campaign `id` once it no longer has `pending` cells
/// pending and unfailed, shutdown is requested, or [`STATUS_HOLD`] passed.
fn held_status(shared: &Shared, id: &str, pending: usize) -> (u16, &'static str, String) {
    let state = shared.state.lock().expect("service state poisoned");
    let (state, _) = shared
        .progress
        .wait_timeout_while(state, STATUS_HOLD, |state| {
            !shared.shutdown.load(Ordering::SeqCst)
                && state
                    .campaigns
                    .get(id)
                    .is_some_and(|campaign| campaign.is_running() && campaign.pending == pending)
        })
        .expect("service state poisoned");
    render_status(&state, id)
}

/// Dispatches one request to its endpoint.
fn route(shared: &Arc<Shared>, request: &Request) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/campaigns") => submit_endpoint(shared, &request.body),
        ("GET", "/metrics") => (200, "OK", render_metrics(shared)),
        ("GET", "/healthz") => (200, "OK", "{\"ok\": true}\n".to_string()),
        ("POST", "/shutdown") => {
            // The accept loop checks the flag right after this request.
            shared.request_shutdown();
            (
                200,
                "OK",
                "{\"ok\": true, \"shutting_down\": true}\n".to_string(),
            )
        }
        ("GET", path) => {
            if let Some(id) = status_id(path) {
                status_endpoint(shared, id)
            } else if let Some(id) = path
                .strip_prefix("/campaigns/")
                .and_then(|rest| rest.strip_suffix("/report"))
            {
                report_endpoint(shared, id)
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

/// `GET /campaigns/<id>` on a campaign that is not held ([`hold_status`]).
fn status_endpoint(shared: &Shared, id: &str) -> (u16, &'static str, String) {
    let state = shared.state.lock().expect("service state poisoned");
    render_status(&state, id)
}

/// The status document of campaign `id`: state, counts, pending cells
/// listed by identity, and the report so far — finished cells pasted
/// verbatim into a partial schema-4 report, or the final report bytes
/// once every cell finished.
fn render_status(state: &ServiceState, id: &str) -> (u16, &'static str, String) {
    let Some(campaign) = state.campaigns.get(id) else {
        return (
            404,
            "Not Found",
            error_body(&format!("unknown campaign {id}")),
        );
    };
    let partial;
    let (pending, report) = match &campaign.progress {
        Progress::Finished { report, .. } => ("[]".to_string(), report),
        Progress::Running(grid) => {
            partial = grid.render_report();
            (grid.render_pending(), &partial)
        }
    };
    let error = match &campaign.error {
        Some(error) => format!(" \"error\": \"{}\",\n", jsonish::escape(error)),
        None => String::new(),
    };
    let body = format!(
        "{{\n \"id\": \"{id}\",\n \"state\": \"{}\",\n \"cells\": {},\n \"finished_cells\": {},\n \"pending_cells\": {},\n{error} \"pending\": {pending},\n \"report\": {report}}}\n",
        campaign.state_label(),
        campaign.cells,
        campaign.cells - campaign.pending,
        campaign.pending,
    );
    (200, "OK", body)
}

/// `GET /campaigns/<id>/report`: the final byte-stable document — exactly
/// [`crate::campaign::CampaignReport::render_json`]`(false)` over the
/// stored cell bytes, which byte-matches a one-shot CLI run of the same
/// grid.
fn report_endpoint(shared: &Shared, id: &str) -> (u16, &'static str, String) {
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
    match &campaign.progress {
        Progress::Finished { report, .. } => (200, "OK", report.clone()),
        Progress::Running(_) => (
            409,
            "Conflict",
            error_body(&format!(
                "campaign {id} still has {} pending cells",
                campaign.pending
            )),
        ),
    }
}

/// `GET /metrics`.
fn render_metrics(shared: &Shared) -> String {
    let (queue_depth, cells_in_flight, campaigns_open, campaign_wall_seconds) = {
        let state = shared.state.lock().expect("service state poisoned");
        let walls: Vec<(String, f64)> = state
            .campaigns
            .iter()
            .filter_map(|(id, campaign)| match campaign.progress {
                Progress::Finished { wall_seconds, .. } => Some((id.clone(), wall_seconds)),
                Progress::Running(_) => None,
            })
            .collect();
        let open = state
            .campaigns
            .values()
            .filter(|campaign| campaign.is_running())
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
        busy_seconds: Metrics::read(&metrics.busy_micros) as f64 / 1e6,
    }
    .render_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payloads_become_cell_failure_messages() {
        let literal: Box<dyn Any + Send> = Box::new("index out of bounds");
        assert_eq!(
            panic_message(&*literal),
            "cell panicked: index out of bounds"
        );
        let formatted: Box<dyn Any + Send> = Box::new(format!("bad geometry {}", 7));
        assert_eq!(panic_message(&*formatted), "cell panicked: bad geometry 7");
        let other: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*other), "cell panicked: (no message)");
        // What `join` and `catch_unwind` hand back from real panics.
        let joined = std::thread::scope(|scope| scope.spawn(|| panic!("boom")).join());
        assert_eq!(panic_message(&*joined.unwrap_err()), "cell panicked: boom");
        let caught = catch_unwind(|| panic!("boom {}", 2)).unwrap_err();
        assert_eq!(panic_message(&*caught), "cell panicked: boom 2");
    }

    #[test]
    fn shutdown_wakes_the_accept_loop_on_a_connectable_address() {
        let wake = |addr: &str| wake_address(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7421"), "127.0.0.1:7421");
        assert_eq!(wake("[::]:7421"), "[::1]:7421");
        assert_eq!(wake("127.0.0.1:9"), "127.0.0.1:9");
        assert_eq!(wake("192.168.1.5:80"), "192.168.1.5:80");
    }
}
