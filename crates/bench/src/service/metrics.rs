//! Daemon counters and the `GET /metrics` document.
//!
//! [`Metrics`] is the live atomic-counter block every service thread bumps;
//! [`MetricsSnapshot`] is one consistent reading of it plus the
//! state-derived gauges (queue depth, open campaigns) the router fills in
//! under the state lock. The rendered document is flat JSON — one
//! numeric field per counter — except `campaign_wall_seconds`, which maps
//! finished campaign ids to their wall time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::jsonish;

/// Monotonic counters of one `tage-serve` process. Everything is relaxed
/// atomics: `/metrics` is observability, not a synchronization point.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests handled (any method, any status).
    pub requests: AtomicU64,
    /// Campaigns accepted via `POST /campaigns` (idempotent resubmissions
    /// of a known id are not counted again).
    pub campaigns_submitted: AtomicU64,
    /// Campaigns re-opened from the journal directory at startup.
    pub campaigns_rehydrated: AtomicU64,
    /// Campaigns whose every cell is finished.
    pub campaigns_finished: AtomicU64,
    /// Campaigns that died on a cell execution error.
    pub campaigns_failed: AtomicU64,
    /// Cells executed by this process (each unique cell at most once).
    pub cells_computed: AtomicU64,
    /// Cells answered from the content-addressed store instead of executed.
    pub cells_restored: AtomicU64,
    /// Microseconds the workers spent executing cells, summed over workers.
    pub busy_micros: AtomicU64,
    /// Computed cells the cell store failed to persist (they were still
    /// published; a restarted daemon recomputes them).
    pub store_errors: AtomicU64,
}

impl Metrics {
    /// Adds one to `counter` (relaxed).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads `counter` (relaxed).
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// One consistent `/metrics` reading: the counters plus the gauges only the
/// service state can provide.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the daemon started.
    pub uptime_seconds: f64,
    /// Worker threads, each running one cell at a time.
    pub workers: usize,
    /// Unique cells queued and not yet taken by a worker.
    pub queue_depth: usize,
    /// Unique cells a worker is executing.
    pub cells_in_flight: usize,
    /// Campaigns neither finished nor failed.
    pub campaigns_open: usize,
    /// `(campaign id, wall seconds)` of every finished campaign.
    pub campaign_wall_seconds: Vec<(String, f64)>,
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::campaigns_submitted`].
    pub campaigns_submitted: u64,
    /// See [`Metrics::campaigns_rehydrated`].
    pub campaigns_rehydrated: u64,
    /// See [`Metrics::campaigns_finished`].
    pub campaigns_finished: u64,
    /// See [`Metrics::campaigns_failed`].
    pub campaigns_failed: u64,
    /// See [`Metrics::cells_computed`].
    pub cells_computed: u64,
    /// See [`Metrics::cells_restored`].
    pub cells_restored: u64,
    /// Cell-store lookups that found a valid cell.
    pub cache_hits: u64,
    /// Cell-store lookups that found nothing usable.
    pub cache_misses: u64,
    /// See [`Metrics::store_errors`].
    pub store_errors: u64,
    /// Process-wide predictor warm-state cache hits
    /// ([`tage_sim::warmcache::global_counters`]).
    pub warmcache_hits: u64,
    /// Process-wide predictor warm-state cache misses.
    pub warmcache_misses: u64,
    /// Seconds the workers spent executing cells, summed over workers.
    pub busy_seconds: f64,
}

impl MetricsSnapshot {
    /// Fraction of the workers' combined lifetime spent executing cells:
    /// `busy / (uptime × workers)` (0 when the daemon just started).
    pub fn worker_utilization(&self) -> f64 {
        let capacity = self.uptime_seconds * self.workers as f64;
        if capacity > 0.0 {
            (self.busy_seconds / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Renders the `/metrics` document.
    pub fn render_json(&self) -> String {
        let walls: Vec<String> = self
            .campaign_wall_seconds
            .iter()
            .map(|(id, wall)| format!("\"{}\": {wall:.6}", jsonish::escape(id)))
            .collect();
        format!(
            "{{\n \"uptime_seconds\": {:.6},\n \"workers\": {},\n \"queue_depth\": {},\n \"cells_in_flight\": {},\n \"campaigns_open\": {},\n \"requests\": {},\n \"campaigns_submitted\": {},\n \"campaigns_rehydrated\": {},\n \"campaigns_finished\": {},\n \"campaigns_failed\": {},\n \"cells_computed\": {},\n \"cells_restored\": {},\n \"cache_hits\": {},\n \"cache_misses\": {},\n \"store_errors\": {},\n \"warmcache_hits\": {},\n \"warmcache_misses\": {},\n \"busy_seconds\": {:.6},\n \"worker_utilization\": {:.6},\n \"campaign_wall_seconds\": {{{}}}\n}}\n",
            self.uptime_seconds,
            self.workers,
            self.queue_depth,
            self.cells_in_flight,
            self.campaigns_open,
            self.requests,
            self.campaigns_submitted,
            self.campaigns_rehydrated,
            self.campaigns_finished,
            self.campaigns_failed,
            self.cells_computed,
            self.cells_restored,
            self.cache_hits,
            self.cache_misses,
            self.store_errors,
            self.warmcache_hits,
            self.warmcache_misses,
            self.busy_seconds,
            self.worker_utilization(),
            walls.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_traces::jsonish;

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_seconds: 10.0,
            workers: 4,
            queue_depth: 2,
            cells_in_flight: 3,
            campaigns_open: 1,
            campaign_wall_seconds: vec![("abc123".to_string(), 1.5)],
            requests: 7,
            campaigns_submitted: 2,
            campaigns_rehydrated: 1,
            campaigns_finished: 1,
            campaigns_failed: 0,
            cells_computed: 5,
            cells_restored: 4,
            cache_hits: 4,
            cache_misses: 5,
            store_errors: 2,
            warmcache_hits: 11,
            warmcache_misses: 3,
            busy_seconds: 20.0,
        }
    }

    #[test]
    fn snapshot_renders_a_valid_flat_document() {
        let json = snapshot().render_json();
        jsonish::validate_document(&json, jsonish::DEFAULT_MAX_DEPTH).unwrap();
        assert_eq!(jsonish::number_field(&json, "queue_depth"), Some(2.0));
        assert_eq!(jsonish::number_field(&json, "cells_computed"), Some(5.0));
        assert_eq!(jsonish::number_field(&json, "store_errors"), Some(2.0));
        assert_eq!(
            jsonish::number_field(&json, "worker_utilization"),
            Some(0.5)
        );
        assert!(json.contains("\"abc123\": 1.500000"));
    }

    #[test]
    fn utilization_is_clamped_and_zero_safe() {
        let mut s = snapshot();
        // 20 busy seconds over 10 s × 4 workers.
        assert_eq!(s.worker_utilization(), 0.5);
        s.busy_seconds = 99.0;
        assert_eq!(s.worker_utilization(), 1.0);
        s.workers = 0;
        assert_eq!(s.worker_utilization(), 0.0);
        s.workers = 4;
        s.uptime_seconds = 0.0;
        assert_eq!(s.worker_utilization(), 0.0);
    }
}
