//! The wire form of a campaign grid: what `POST /campaigns` accepts and
//! what the journal persists.
//!
//! A [`GridRequest`] is the declarative half of a [`CampaignSpec`]: axis
//! *tokens* rather than resolved axis values, so it can be serialized
//! canonically, digested into a campaign id, journaled, and re-resolved
//! after a daemon restart. Canonicalization matters: the campaign id is
//! the fnv64 of [`GridRequest::to_json`], so a resubmitted grid — however
//! the client formatted its JSON — maps onto the same campaign and is
//! answered from the already-running (or already-finished) one.

use tage_sim::point::{PredictorSpec, SchemeSpec};
use tage_sim::scenarios::ScenarioSpec;
use tage_traces::jsonish;
use tage_traces::snapshot::fnv1a64;
use tage_traces::source::{SamplingSpec, SourceSuite};
use tage_traces::suites;

use crate::campaign::CampaignSpec;

/// Default `branches_per_trace` when a request omits it (the `tage-bench`
/// CLI default).
pub const DEFAULT_BRANCHES: usize = 20_000;

/// A declarative campaign grid as submitted over the wire: axis tokens
/// plus the per-trace length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRequest {
    /// Campaign label recorded in the report header.
    pub label: String,
    /// Predictor axis tokens (`tage-16k`, `gshare`, `geometry:PATH`, ...).
    pub predictors: Vec<String>,
    /// Confidence-scheme axis tokens.
    pub schemes: Vec<String>,
    /// Synthetic suite registry tokens (may be empty when `trace_dirs` is
    /// not).
    pub suites: Vec<String>,
    /// Directories of `*.trace` files, each becoming a file-backed suite.
    pub trace_dirs: Vec<String>,
    /// Scenario axis tokens.
    pub scenarios: Vec<String>,
    /// Conditional branches per synthetic trace.
    pub branches_per_trace: usize,
}

impl GridRequest {
    /// Renders the canonical JSON form — the bytes the campaign id digests
    /// and the journal stores. Field order, spacing, and escaping are
    /// fixed; parsing then re-rendering any equivalent request yields
    /// identical bytes.
    pub fn to_json(&self) -> String {
        let array = |tokens: &[String]| {
            let quoted: Vec<String> = tokens
                .iter()
                .map(|t| format!("\"{}\"", jsonish::escape(t)))
                .collect();
            format!("[{}]", quoted.join(", "))
        };
        format!(
            "{{\n \"label\": \"{}\",\n \"predictors\": {},\n \"schemes\": {},\n \"suites\": {},\n \"trace_dirs\": {},\n \"scenarios\": {},\n \"branches_per_trace\": {}\n}}\n",
            jsonish::escape(&self.label),
            array(&self.predictors),
            array(&self.schemes),
            array(&self.suites),
            array(&self.trace_dirs),
            array(&self.scenarios),
            self.branches_per_trace
        )
    }

    /// The content-addressed campaign id of this grid: 16 hex digits of
    /// the canonical JSON's fnv64. Stable across clients, restarts, and
    /// formatting differences.
    pub fn id(&self) -> String {
        format!("{:016x}", self.key())
    }

    /// The campaign id as a number: the fnv64 of [`GridRequest::to_json`],
    /// which keys the campaign's journal file.
    pub fn key(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }

    /// Parses a request object (already [`jsonish::validate_document`]-ed
    /// by the router). `label` defaults to `"campaign"`, `scenarios` to
    /// `baseline`, `branches_per_trace` to [`DEFAULT_BRANCHES`]; the axis
    /// arrays are required (suites may be empty only when trace_dirs is
    /// not).
    ///
    /// # Errors
    ///
    /// A human-readable string naming the missing or empty field.
    pub fn parse(json: &str) -> Result<GridRequest, String> {
        let array = |key: &str| {
            jsonish::string_array_field(json, key)
                .ok_or_else(|| format!("missing or malformed string array \"{key}\""))
        };
        let request = GridRequest {
            label: jsonish::string_field(json, "label").unwrap_or_else(|| "campaign".to_string()),
            predictors: array("predictors")?,
            schemes: array("schemes")?,
            suites: jsonish::string_array_field(json, "suites").unwrap_or_default(),
            trace_dirs: jsonish::string_array_field(json, "trace_dirs").unwrap_or_default(),
            scenarios: jsonish::string_array_field(json, "scenarios")
                .unwrap_or_else(|| vec!["baseline".to_string()]),
            branches_per_trace: match jsonish::number_field(json, "branches_per_trace") {
                Some(n) if (1.0..=1e12).contains(&n) => n as usize,
                Some(n) => return Err(format!("branches_per_trace out of range: {n}")),
                None => DEFAULT_BRANCHES,
            },
        };
        if request.predictors.is_empty() {
            return Err("the predictor axis is empty".to_string());
        }
        if request.schemes.is_empty() {
            return Err("the scheme axis is empty".to_string());
        }
        if request.scenarios.is_empty() {
            return Err("the scenario axis is empty".to_string());
        }
        if request.suites.is_empty() && request.trace_dirs.is_empty() {
            return Err("no suites: both \"suites\" and \"trace_dirs\" are empty".to_string());
        }
        Ok(request)
    }

    /// Resolves the tokens into an executable [`CampaignSpec`]: predictor /
    /// scheme / scenario tokens through their parsers, suite tokens through
    /// the registry, trace dirs through [`SourceSuite::from_dir`].
    ///
    /// Suite tokens may carry a phase-sampling plan in the canonical
    /// `sample:<suite>[:interval[:k[:seed]]]` form
    /// ([`SamplingSpec::parse_token`]); the base suite is resolved through
    /// the registry and tagged with the plan, so sampled grids travel over
    /// the wire as ordinary suite tokens.
    ///
    /// # Errors
    ///
    /// A human-readable string naming the unresolvable token.
    pub fn to_spec(&self) -> Result<CampaignSpec, String> {
        let mut predictors = Vec::new();
        for token in &self.predictors {
            predictors.push(
                // The parse error may quote a server-side geometry file;
                // clients only learn the token was not accepted.
                PredictorSpec::parse(token)
                    .map_err(|_| format!("unknown predictor token \"{token}\""))?,
            );
        }
        let mut schemes = Vec::new();
        for token in &self.schemes {
            schemes.push(
                SchemeSpec::parse(token)
                    .ok_or_else(|| format!("unknown scheme token \"{token}\""))?,
            );
        }
        let mut scenarios = Vec::new();
        for token in &self.scenarios {
            scenarios.push(
                ScenarioSpec::parse(token)
                    .ok_or_else(|| format!("unknown scenario token \"{token}\""))?,
            );
        }
        let mut suite_list = Vec::new();
        for token in &self.suites {
            let (base, sampling) = match SamplingSpec::parse_token(token) {
                Some((base, spec)) => (base, Some(spec)),
                None if token.starts_with("sample:") => {
                    return Err(format!("malformed sample suite token \"{token}\""))
                }
                None => (token.as_str(), None),
            };
            let suite =
                suites::by_name(base).ok_or_else(|| format!("unknown suite token \"{token}\""))?;
            let mut suite = SourceSuite::from_suite(&suite);
            if let Some(spec) = sampling {
                suite = suite.with_sampling(spec);
            }
            suite_list.push(suite);
        }
        for dir in &self.trace_dirs {
            suite_list.push(
                SourceSuite::from_dir(dir).map_err(|error| format!("trace_dir {dir}: {error}"))?,
            );
        }
        Ok(CampaignSpec {
            label: self.label.clone(),
            predictors,
            schemes,
            suites: suite_list,
            scenarios,
            branches_per_trace: self.branches_per_trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> GridRequest {
        GridRequest {
            label: "t".to_string(),
            predictors: vec!["tage-16k".to_string(), "gshare".to_string()],
            schemes: vec!["storage-free".to_string(), "jrs-classic".to_string()],
            suites: vec!["cbp1-mini".to_string()],
            trace_dirs: Vec::new(),
            scenarios: vec!["baseline".to_string()],
            branches_per_trace: 1_000,
        }
    }

    #[test]
    fn canonical_json_round_trips_and_ids_are_format_independent() {
        let request = request();
        let parsed = GridRequest::parse(&request.to_json()).unwrap();
        assert_eq!(parsed, request);
        assert_eq!(parsed.id(), request.id());
        // Different formatting, same content: same id.
        let sloppy = "{\"branches_per_trace\":1000,\"scenarios\":[\"baseline\"],\"suites\":[\"cbp1-mini\"],\"schemes\":[\"storage-free\",\"jrs-classic\"],\"predictors\":[\"tage-16k\",\"gshare\"],\"label\":\"t\"}";
        assert_eq!(GridRequest::parse(sloppy).unwrap().id(), request.id());
        // Different content: different id.
        let mut other = request.clone();
        other.branches_per_trace = 2_000;
        assert_ne!(other.id(), request.id());
    }

    #[test]
    fn parse_applies_defaults_and_rejects_empty_axes() {
        let minimal =
            r#"{"predictors": ["tage-16k"], "schemes": ["storage-free"], "suites": ["cbp1-mini"]}"#;
        let parsed = GridRequest::parse(minimal).unwrap();
        assert_eq!(parsed.label, "campaign");
        assert_eq!(parsed.scenarios, vec!["baseline".to_string()]);
        assert_eq!(parsed.branches_per_trace, DEFAULT_BRANCHES);

        for (broken, what) in [
            (r#"{"schemes": ["x"], "suites": ["y"]}"#, "predictors"),
            (
                r#"{"predictors": [], "schemes": ["x"], "suites": ["y"]}"#,
                "predictor",
            ),
            (r#"{"predictors": ["x"], "suites": ["y"]}"#, "schemes"),
            (r#"{"predictors": ["x"], "schemes": ["y"]}"#, "trace_dirs"),
            (
                r#"{"predictors": ["x"], "schemes": ["y"], "suites": ["z"], "branches_per_trace": -5}"#,
                "branches_per_trace",
            ),
        ] {
            let error = GridRequest::parse(broken).unwrap_err();
            assert!(error.contains(what), "{broken} -> {error}");
        }
    }

    #[test]
    fn specs_resolve_tokens_and_name_bad_ones() {
        let spec = request().to_spec().unwrap();
        assert_eq!(spec.predictors.len(), 2);
        assert_eq!(spec.schemes.len(), 2);
        assert_eq!(spec.suites.len(), 1);
        assert_eq!(spec.branches_per_trace, 1_000);

        let mut bad = request();
        bad.predictors = vec!["not-a-predictor".to_string()];
        assert!(bad.to_spec().unwrap_err().contains("not-a-predictor"));
        let mut bad = request();
        bad.suites = vec!["no-such-suite".to_string()];
        assert!(bad.to_spec().unwrap_err().contains("no-such-suite"));
        let mut bad = request();
        bad.trace_dirs = vec!["/no/such/dir".to_string()];
        assert!(bad.to_spec().unwrap_err().contains("/no/such/dir"));
    }

    #[test]
    fn sample_suite_tokens_resolve_to_sampled_suites() {
        let mut sampled = request();
        sampled.suites = vec!["sample:cbp1-mini:250:4:7".to_string()];
        let spec = sampled.to_spec().unwrap();
        assert_eq!(spec.suites.len(), 1);
        let plan = spec.suites[0].sampling().unwrap();
        assert_eq!((plan.interval, plan.k, plan.seed), (250, 4, 7));
        assert_eq!(spec.suites[0].name(), "sample:CBP-1-mini:250:4:7");
        // A sampled grid digests differently from the full grid.
        assert_ne!(sampled.id(), request().id());

        let mut bad = request();
        bad.suites = vec!["sample:cbp1-mini:0:4".to_string()];
        assert!(bad.to_spec().unwrap_err().contains("malformed sample"));
        let mut bad = request();
        bad.suites = vec!["sample:no-such-suite:250".to_string()];
        assert!(bad.to_spec().unwrap_err().contains("no-such-suite"));
    }
}
