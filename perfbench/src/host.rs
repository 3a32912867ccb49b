//! The host and run record attached to every result: CPU, core count, the
//! lane ISA the multilane dispatcher picks here, toolchain, source
//! identity, seed and workload parameters.

use std::path::Path;
use std::process::Command;

use tage_bench::jsonish;
use tage_traces::fnv1a64;

/// The vector ISA `tage::LaneGroup` dispatches to on this host, worked out
/// with the same feature rule as `tage::lanes`: AVX-512 (F, BW, DQ and VL)
/// first, then AVX2, else the build target's baseline.
pub fn lane_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "baseline"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().next().map(|line| line.trim().to_string())
}

/// fnv64 over the path and bytes of every `.rs` and `Cargo.toml` file under
/// the repository's `crates/` and `src/`, in sorted path order: a source
/// identity that also works in checkouts that are not git repositories.
fn source_digest() -> String {
    fn collect(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, files);
            } else if path.extension().is_some_and(|ext| ext == "rs")
                || path.file_name().is_some_and(|name| name == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    collect(Path::new("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in &files {
        bytes.extend_from_slice(path.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x} ({} files)", fnv1a64(&bytes), files.len())
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run record as one JSON object.
pub fn record(workload: &str, seed: u64, params: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let params: Vec<String> = params
        .iter()
        .map(|(key, value)| {
            format!(
                "\"{}\": \"{}\"",
                jsonish::escape(key),
                jsonish::escape(value)
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"cpu\": \"{}\", \"nproc\": {nproc}, \"lane_isa\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"source_fnv64\": \"{}\", \"params\": {{{}}}}}",
        jsonish::escape(workload),
        jsonish::escape(&cpu_model()),
        lane_isa(),
        jsonish::escape(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        jsonish::escape(
            &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into())
        ),
        source_digest(),
        params.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_valid_json_naming_host_and_params() {
        let json = record("grid_lanes", 7, &[("branches_per_trace", "100000".into())]);
        jsonish::validate_document(&json, jsonish::DEFAULT_MAX_DEPTH).unwrap();
        assert_eq!(jsonish::number_field(&json, "seed"), Some(7.0));
        assert!(jsonish::number_field(&json, "nproc").unwrap() >= 1.0);
        assert!(["avx512", "avx2", "baseline"]
            .contains(&jsonish::string_field(&json, "lane_isa").unwrap().as_str()));
        assert_eq!(
            jsonish::string_field(&json, "branches_per_trace").as_deref(),
            Some("100000")
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
