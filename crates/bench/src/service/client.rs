//! The `tage-bench --submit` client: submits a grid to a running
//! `tage-serve` daemon, optionally polls it to completion, and fetches the
//! final byte-stable report. Polls go back to back: the daemon holds a
//! status request on a running campaign until the campaign makes progress.
//!
//! The client and daemon must see the same filesystem when the grid uses
//! `trace_dirs` — the request carries directory *paths*, not trace bytes.

use super::grid::GridRequest;
use super::http::{client_request, host_port_of};
use crate::jsonish;

/// The outcome of one client submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitResult {
    /// Content-addressed campaign id the daemon assigned (equals
    /// [`GridRequest::id`]).
    pub id: String,
    /// Last observed campaign state (`running` when not waiting).
    pub state: String,
    /// The final report document, when the campaign finished and we waited.
    pub report: Option<String>,
}

/// Submits `request` to the daemon at `base_url` (`http://host:port`).
/// With `wait`, polls until the campaign finishes or fails, then fetches
/// `GET /campaigns/<id>/report`; without it, returns right after the
/// acknowledgement.
///
/// # Errors
///
/// A human-readable string on connection failures, non-2xx responses, or a
/// failed campaign (the daemon's error message is passed through).
pub fn submit_grid(
    base_url: &str,
    request: &GridRequest,
    wait: bool,
) -> Result<SubmitResult, String> {
    let host_port = host_port_of(base_url)?;
    let body = request.to_json();
    let (status, response) = client_request(&host_port, "POST", "/campaigns", Some(&body))?;
    if status != 202 {
        return Err(format!(
            "daemon rejected the grid ({status}): {}",
            jsonish::string_field(&response, "error").unwrap_or(response)
        ));
    }
    let id = jsonish::string_field(&response, "id")
        .ok_or_else(|| format!("acknowledgement carries no id: {response}"))?;
    let mut state = jsonish::string_field(&response, "state").unwrap_or_default();
    if !wait {
        return Ok(SubmitResult {
            id,
            state,
            report: None,
        });
    }
    while state != "finished" {
        if state == "failed" {
            let (_, status_body) =
                client_request(&host_port, "GET", &format!("/campaigns/{id}"), None)?;
            return Err(format!(
                "campaign {id} failed: {}",
                jsonish::string_field(&status_body, "error")
                    .unwrap_or_else(|| "unknown cell error".to_string())
            ));
        }
        let (status, status_body) =
            client_request(&host_port, "GET", &format!("/campaigns/{id}"), None)?;
        if status != 200 {
            return Err(format!("status poll for {id} returned {status}"));
        }
        state = jsonish::string_field(&status_body, "state")
            .ok_or_else(|| format!("status for {id} carries no state: {status_body}"))?;
    }
    let (status, report) =
        client_request(&host_port, "GET", &format!("/campaigns/{id}/report"), None)?;
    if status != 200 {
        return Err(format!(
            "report fetch for {id} returned {status}: {}",
            jsonish::string_field(&report, "error").unwrap_or(report)
        ));
    }
    Ok(SubmitResult {
        id,
        state,
        report: Some(report),
    })
}
