//! End-to-end contract of the `tage-serve` campaign daemon: byte-stable
//! reports, content-addressed memoization across campaigns, kill/restart
//! resumability through the journal + cell store, cells scheduled as
//! workers free up, held status polls, and hardened request parsing.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tage_bench::campaign::run_campaign_with_engine;
use tage_bench::jsonish;
use tage_bench::service::client::submit_grid;
use tage_bench::service::grid::GridRequest;
use tage_bench::service::http::client_request;
use tage_bench::service::{start, ServeOptions, ServerHandle};
use tage_sim::EngineKind;

/// The test grid: 2 predictors × 2 schemes × 1 suite × 1 scenario = 3
/// executable cells + 1 skipped (gshare × storage-free).
fn grid(label: &str) -> GridRequest {
    GridRequest {
        label: label.to_string(),
        predictors: vec!["tage-16k".to_string(), "gshare".to_string()],
        schemes: vec!["storage-free".to_string(), "jrs-classic".to_string()],
        suites: vec!["cbp1-mini".to_string()],
        trace_dirs: Vec::new(),
        scenarios: vec!["baseline".to_string()],
        branches_per_trace: 1_000,
    }
}

/// A grid of one `cbp1-mini` × baseline cell per predictor, in order.
fn cells(label: &str, predictors: &[&str], scheme: &str, branches: usize) -> GridRequest {
    GridRequest {
        label: label.to_string(),
        predictors: predictors.iter().map(|p| p.to_string()).collect(),
        schemes: vec![scheme.to_string()],
        suites: vec!["cbp1-mini".to_string()],
        trace_dirs: Vec::new(),
        scenarios: vec!["baseline".to_string()],
        branches_per_trace: branches,
    }
}

/// The byte-stable report a one-shot CLI run of the same grid produces.
fn one_shot_report(request: &GridRequest) -> String {
    let spec = request.to_spec().expect("test grid resolves");
    run_campaign_with_engine(&spec, 2, EngineKind::Multilane)
        .expect("test grid runs")
        .render_json(false)
}

fn temp_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("tage-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    (base.join("cells"), base.join("journal"))
}

fn serve(store: &PathBuf, journal: &PathBuf) -> ServerHandle {
    start(ServeOptions::ephemeral(store, journal)).expect("daemon starts")
}

fn get(handle: &ServerHandle, path: &str) -> (u16, String) {
    client_request(&handle.addr().to_string(), "GET", path, None).expect("request succeeds")
}

fn post(handle: &ServerHandle, path: &str, body: &str) -> (u16, String) {
    client_request(&handle.addr().to_string(), "POST", path, Some(body)).expect("request succeeds")
}

fn metric(handle: &ServerHandle, field: &str) -> f64 {
    let (status, body) = get(handle, "/metrics");
    assert_eq!(status, 200, "{body}");
    jsonish::number_field(&body, field).unwrap_or_else(|| panic!("no metric {field} in {body}"))
}

/// Polls back to back (the daemon holds each poll until progress) until
/// the campaign finishes, then fetches its report.
fn wait_finished(handle: &ServerHandle, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(handle, &format!("/campaigns/{id}"));
        assert_eq!(status, 200, "{body}");
        match jsonish::string_field(&body, "state").as_deref() {
            Some("finished") => break,
            Some("failed") => panic!("campaign failed: {body}"),
            _ => assert!(Instant::now() < deadline, "campaign {id} never finished"),
        }
    }
    let (status, report) = get(handle, &format!("/campaigns/{id}/report"));
    assert_eq!(status, 200, "{report}");
    report
}

/// The report a status document embeds: everything after `"report": `
/// but the document's closing brace.
fn embedded_report(status: &str) -> &str {
    let start = status
        .find("\n \"report\": ")
        .expect("status embeds a report");
    status[start + "\n \"report\": ".len()..]
        .strip_suffix("}\n")
        .expect("the report closes the status document")
}

fn shutdown(handle: ServerHandle) {
    handle.request_shutdown();
    handle.join();
}

#[test]
fn served_report_byte_matches_a_one_shot_cli_run() {
    let (store, journal) = temp_dirs("byte-match");
    let handle = serve(&store, &journal);
    let request = grid("served");
    let expected = one_shot_report(&request);

    let (status, ack) = post(&handle, "/campaigns", &request.to_json());
    assert_eq!(status, 202, "{ack}");
    assert_eq!(
        jsonish::string_field(&ack, "id").as_deref(),
        Some(request.id().as_str())
    );
    let report = wait_finished(&handle, &request.id());
    assert_eq!(report, expected, "served report must byte-match the CLI");

    // The incremental status of a finished campaign embeds the full report
    // and lists nothing pending.
    let (status, body) = get(&handle, &format!("/campaigns/{}", request.id()));
    assert_eq!(status, 200);
    assert_eq!(jsonish::number_field(&body, "pending_cells"), Some(0.0));

    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn resubmitted_and_relabelled_grids_are_answered_from_cache() {
    let (store, journal) = temp_dirs("cache");
    let handle = serve(&store, &journal);
    let request = grid("original");
    let (status, _) = post(&handle, "/campaigns", &request.to_json());
    assert_eq!(status, 202);
    let first = wait_finished(&handle, &request.id());
    assert_eq!(metric(&handle, "cells_computed"), 3.0);

    // Identical resubmission: same id, acknowledged as known, no new work.
    let (status, ack) = post(&handle, "/campaigns", &request.to_json());
    assert_eq!(status, 202);
    assert_eq!(
        jsonish::string_field(&ack, "state").as_deref(),
        Some("finished")
    );
    assert!(ack.contains("\"known\": true"), "{ack}");

    // A differently-labelled grid over the same content is a new campaign,
    // but every cell restores from the store: zero recompute.
    let relabelled = grid("relabelled");
    assert_ne!(relabelled.id(), request.id());
    let (status, ack) = post(&handle, "/campaigns", &relabelled.to_json());
    assert_eq!(status, 202, "{ack}");
    assert_eq!(
        jsonish::number_field(&ack, "pending_cells"),
        Some(0.0),
        "relabelled grid must be fully restored: {ack}"
    );
    let second = wait_finished(&handle, &relabelled.id());
    assert_eq!(metric(&handle, "cells_computed"), 3.0, "no recompute");
    assert_eq!(metric(&handle, "cells_restored"), 3.0);
    // Only the grid that computed is journaled: the relabelled one finished
    // at submit and leaves a restarted daemon nothing to resume.
    let journaled: Vec<String> = std::fs::read_dir(&journal)
        .expect("journal directory exists")
        .map(|entry| {
            entry
                .expect("journal entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    assert_eq!(journaled, vec![format!("{}.grid", request.id())]);
    assert_eq!(
        std::fs::read(journal.join(&journaled[0])).unwrap(),
        request.to_json().as_bytes(),
        "a journal file holds the canonical grid JSON"
    );

    // Only the label line may differ between the two reports.
    let diff: Vec<(&str, &str)> = first
        .lines()
        .zip(second.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(
        diff,
        vec![(" \"label\": \"original\",", " \"label\": \"relabelled\",")]
    );
    shutdown(handle);

    // A restart re-opens the journaled grid only; resubmitting the
    // relabelled one answers it from the store again, byte for byte.
    let restarted = serve(&store, &journal);
    assert_eq!(restarted.rehydrated(), 1);
    let (status, ack) = post(&restarted, "/campaigns", &relabelled.to_json());
    assert_eq!(status, 202, "{ack}");
    assert!(ack.contains("\"known\": false"), "{ack}");
    assert_eq!(wait_finished(&restarted, &relabelled.id()), second);
    assert_eq!(metric(&restarted, "cells_computed"), 0.0);
    shutdown(restarted);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn concurrent_overlapping_campaigns_compute_each_cell_once() {
    let (store, journal) = temp_dirs("concurrent");
    let handle = serve(&store, &journal);
    // Submit two campaigns over the same cells back to back, before the
    // first can finish: the second either attaches to the in-flight cells
    // or restores stored ones — never recomputes.
    let a = grid("concurrent-a");
    let b = grid("concurrent-b");
    let (status, _) = post(&handle, "/campaigns", &a.to_json());
    assert_eq!(status, 202);
    let (status, _) = post(&handle, "/campaigns", &b.to_json());
    assert_eq!(status, 202);
    let report_a = wait_finished(&handle, &a.id());
    let report_b = wait_finished(&handle, &b.id());
    assert_eq!(
        metric(&handle, "cells_computed"),
        3.0,
        "each unique cell computes exactly once across campaigns"
    );
    assert_eq!(
        report_a
            .lines()
            .filter(|l| !l.contains("\"label\""))
            .count(),
        report_b
            .lines()
            .filter(|l| !l.contains("\"label\""))
            .count()
    );
    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn killed_daemon_rehydrates_and_finishes_to_identical_bytes() {
    let (store, journal) = temp_dirs("restart");
    let request = grid("restartable");
    let expected = one_shot_report(&request);

    // First daemon: accept the grid, then die almost immediately — whatever
    // cells the workers finished are in the store, the rest are only in the
    // journal.
    let first = serve(&store, &journal);
    let (status, _) = post(&first, "/campaigns", &request.to_json());
    assert_eq!(status, 202);
    std::thread::sleep(Duration::from_millis(30));
    shutdown(first);

    // Second daemon over the same directories: the journal re-opens the
    // campaign, stored cells restore, missing cells execute.
    let second = serve(&store, &journal);
    assert_eq!(second.rehydrated(), 1, "journaled campaign re-opens");
    let report = wait_finished(&second, &request.id());
    assert_eq!(report, expected, "resumed report must byte-match the CLI");
    shutdown(second);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn rehydrate_skips_bad_journal_files_and_leaves_them_in_place() {
    let (store, journal) = temp_dirs("bad-journal");
    std::fs::create_dir_all(&journal).unwrap();
    let request = grid("rehydrated");
    std::fs::write(
        journal.join(format!("{}.grid", request.id())),
        request.to_json(),
    )
    .unwrap();
    let misfiled = grid("misfiled");
    let bad: [(&str, Vec<u8>); 3] = [
        ("0000000000000001.grid", vec![b'{', 0xff, 0xfe, b'}']),
        ("0000000000000002.grid", b"{\"label\": ".to_vec()),
        ("0000000000000003.grid", misfiled.to_json().into_bytes()),
    ];
    for (name, bytes) in &bad {
        std::fs::write(journal.join(name), bytes).unwrap();
    }

    let handle = serve(&store, &journal);
    assert_eq!(handle.rehydrated(), 1, "only the good grid re-opens");
    assert_eq!(metric(&handle, "campaigns_rehydrated"), 1.0);
    for (name, bytes) in &bad {
        assert_eq!(
            &std::fs::read(journal.join(name)).unwrap(),
            bytes,
            "{name} stays on disk for inspection"
        );
    }
    let (status, _) = get(&handle, &format!("/campaigns/{}", misfiled.id()));
    assert_eq!(status, 404, "a misfiled grid is not submitted");
    let report = wait_finished(&handle, &request.id());
    assert_eq!(report, one_shot_report(&request));
    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn daemon_sampled_cells_restore_warm_checkpoints() {
    let (store, journal) = temp_dirs("sampled");
    let handle = serve(&store, &journal);
    // One interval-100 cluster over 1,500-branch traces leaves gaps between
    // the slices, so the first run stores checkpoints under <store>/warm.
    let mut request = grid("sampled");
    request.predictors = vec!["tage-16k".to_string()];
    request.schemes = vec!["storage-free".to_string()];
    request.suites = vec!["sample:cbp1-mini:100:1:1".to_string()];
    request.branches_per_trace = 1_500;
    let (status, _) = post(&handle, "/campaigns", &request.to_json());
    assert_eq!(status, 202);
    let report = wait_finished(&handle, &request.id());
    assert_eq!(report, one_shot_report(&request));

    // Drop the finished cell, keep the checkpoints, resubmit relabelled:
    // the recomputed cell restores its gaps instead of replaying them.
    for entry in std::fs::read_dir(&store).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "cell") {
            std::fs::remove_file(path).unwrap();
        }
    }
    let hits = metric(&handle, "warmcache_hits");
    let mut again = request.clone();
    again.label = "sampled-again".to_string();
    let (status, _) = post(&handle, "/campaigns", &again.to_json());
    assert_eq!(status, 202);
    let report = wait_finished(&handle, &again.id());
    assert_eq!(report, one_shot_report(&again));
    assert_eq!(metric(&handle, "cells_computed"), 2.0);
    assert!(
        metric(&handle, "warmcache_hits") > hits,
        "daemon sampled cells must restore checkpoints"
    );
    assert_eq!(metric(&handle, "store_errors"), 0.0);

    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn hostile_requests_are_rejected_with_useful_errors() {
    let (store, journal) = temp_dirs("hostile");
    let handle = serve(&store, &journal);

    // Trailing garbage, with its byte offset.
    let (status, body) = post(&handle, "/campaigns", "{\"predictors\": [\"x\"]} extra");
    assert_eq!(status, 400);
    let error = jsonish::string_field(&body, "error").unwrap();
    assert!(
        error.contains("trailing garbage") && error.contains("byte 22"),
        "{error}"
    );

    // Nesting past the depth cap.
    let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    let (status, body) = post(&handle, "/campaigns", &deep);
    assert_eq!(status, 400);
    assert!(body.contains("nesting"), "{body}");

    // Structurally fine, semantically empty.
    let (status, body) = post(&handle, "/campaigns", "{}");
    assert_eq!(status, 400);
    assert!(body.contains("predictors"), "{body}");

    // Unknown axis tokens are named.
    let mut bad = grid("bad");
    bad.predictors = vec!["perceptron-9000".to_string()];
    let (status, body) = post(&handle, "/campaigns", &bad.to_json());
    assert_eq!(status, 400);
    assert!(body.contains("perceptron-9000"), "{body}");

    // Unknown campaign / endpoint.
    let (status, _) = get(&handle, "/campaigns/ffffffffffffffff");
    assert_eq!(status, 404);
    let (status, _) = get(&handle, "/nope");
    assert_eq!(status, 404);

    // Health and metrics answer even with nothing submitted.
    let (status, body) = get(&handle, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("true"));
    assert_eq!(metric(&handle, "campaigns_submitted"), 0.0);

    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn shutdown_endpoint_drains_and_exits() {
    let (store, journal) = temp_dirs("shutdown");
    let handle = serve(&store, &journal);
    let (status, body) = post(&handle, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body}");
    assert!(handle.shutdown_requested());
    handle.join();
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn submit_client_round_trips_the_report() {
    let (store, journal) = temp_dirs("client");
    let handle = serve(&store, &journal);
    let request = grid("via-client");
    let expected = one_shot_report(&request);

    // Fire-and-forget first: the ack carries the id, no report.
    let no_wait = submit_grid(&handle.base_url(), &request, false).expect("submit succeeds");
    assert_eq!(no_wait.id, request.id());
    assert!(no_wait.report.is_none());

    // Waiting resubmission of the same grid converges on the same campaign
    // and returns the byte-stable report.
    let waited = submit_grid(&handle.base_url(), &request, true).expect("submit succeeds");
    assert_eq!(waited.id, request.id());
    assert_eq!(waited.state, "finished");
    assert_eq!(waited.report.as_deref(), Some(expected.as_str()));

    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn a_small_grid_finishes_beside_a_larger_one_instead_of_behind_it() {
    let (store, journal) = temp_dirs("no-head-of-line");
    let handle = serve(&store, &journal);
    // Two workers take the two cheap cells ahead; whichever frees first takes
    // the costly tage-256k cell, the other the one-cell grid right behind.
    let ahead = cells(
        "ahead",
        &["gshare", "bimodal", "tage-256k"],
        "jrs-classic",
        50_000,
    );
    let behind = cells("behind", &["gshare"], "jrs-classic", 1_000);
    let (status, _) = post(&handle, "/campaigns", &ahead.to_json());
    assert_eq!(status, 202);
    let (status, _) = post(&handle, "/campaigns", &behind.to_json());
    assert_eq!(status, 202);
    let report = wait_finished(&handle, &behind.id());
    // `/report` answers at once, without a hold.
    let (status, body) = get(&handle, &format!("/campaigns/{}/report", ahead.id()));
    assert_eq!(
        status, 409,
        "the one-cell grid must finish while the three-cell grid still has a pending cell: {body}"
    );
    assert_eq!(report, one_shot_report(&behind));
    wait_finished(&handle, &ahead.id());
    assert_eq!(metric(&handle, "cells_computed"), 4.0);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn status_polls_are_held_until_progress_or_shutdown() {
    let (store, journal) = temp_dirs("held");
    let handle = serve(&store, &journal);
    // A poll right after the submit waits for the first finished cell
    // instead of answering "nothing yet".
    let request = cells("held", &["tage-16k"], "storage-free", 10_000);
    let (status, _) = post(&handle, "/campaigns", &request.to_json());
    assert_eq!(status, 202);
    let (status, body) = get(&handle, &format!("/campaigns/{}", request.id()));
    assert_eq!(status, 200, "{body}");
    assert!(
        jsonish::number_field(&body, "finished_cells").unwrap() >= 1.0,
        "{body}"
    );
    wait_finished(&handle, &request.id());

    // A poll on a cell that outlasts the test is released by shutdown.
    let slow = cells("held-slow", &["tage-256k"], "storage-free", 250_000);
    let (status, _) = post(&handle, "/campaigns", &slow.to_json());
    assert_eq!(status, 202);
    let first = metric(&handle, "requests");
    let addr = handle.addr().to_string();
    let path = format!("/campaigns/{}", slow.id());
    let poll = std::thread::spawn(move || {
        let response = client_request(&addr, "GET", &path, None);
        (response, Instant::now())
    });
    // The accept loop serves one connection at a time, so once `/metrics`
    // counts the poll besides its own probes, the poll is being held.
    let mut probes = 0.0;
    loop {
        probes += 1.0;
        if metric(&handle, "requests") > first + probes {
            break;
        }
    }
    let released = Instant::now();
    handle.request_shutdown();
    let (response, answered) = poll.join().unwrap();
    let (status, body) = response.expect("held poll is answered");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        jsonish::string_field(&body, "state").as_deref(),
        Some("running")
    );
    assert!(answered > released, "the poll must be held until shutdown");
    let waited = answered - released;
    assert!(
        waited < Duration::from_secs(1),
        "held poll returned {waited:?} after shutdown"
    );
    handle.join();
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn finished_status_embeds_exactly_the_report_bytes() {
    let (store, journal) = temp_dirs("embedded");
    let handle = serve(&store, &journal);
    let request = grid("embedded");
    let (status, _) = post(&handle, "/campaigns", &request.to_json());
    assert_eq!(status, 202);
    let report = wait_finished(&handle, &request.id());
    let (status, body) = get(&handle, &format!("/campaigns/{}", request.id()));
    assert_eq!(status, 200);
    assert_eq!(embedded_report(&body), report);

    // A relabelled grid is finished at submit, every cell restored.
    let relabelled = grid("embedded-relabelled");
    let (status, ack) = post(&handle, "/campaigns", &relabelled.to_json());
    assert_eq!(status, 202);
    assert_eq!(
        jsonish::string_field(&ack, "state").as_deref(),
        Some("finished")
    );
    let (status, body) = get(&handle, &format!("/campaigns/{}", relabelled.id()));
    assert_eq!(status, 200);
    let (status, report) = get(&handle, &format!("/campaigns/{}/report", relabelled.id()));
    assert_eq!(status, 200);
    assert_eq!(embedded_report(&body), report);
    assert_eq!(report, one_shot_report(&relabelled));
    shutdown(handle);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}
