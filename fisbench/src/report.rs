//! Metric names and units, the run's outcome, its metadata block, and
//! the printed report.

use std::collections::BTreeMap;
use std::path::Path;

use fis_core::FisOneConfig;
use fis_types::json::Json;

use crate::corpus::quantile;

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("ari", "score"),
    ("edit_score", "score"),
    ("assign_accuracy", "share"),
    ("scans_per_s", "scans/s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("slo_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_ms", "ms"),
    ("graph.walks_ms", "ms"),
    ("graph.pairs", "count"),
    ("gnn.train_s", "s"),
    ("gnn.train_self_s", "s"),
    ("gnn.batches", "count"),
    ("gnn.batch_ms", "ms"),
    ("gnn.embed_ms", "ms"),
    ("cluster.linkage_ms", "ms"),
    ("core.floor_order_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.assign_us", "us"),
    ("gnn.infer_scan_us", "us"),
    ("nn.nearest_us", "us"),
    ("protocol.frame_kb", "KB"),
    ("protocol.parse_us", "us"),
    ("daemon.handle_p50_us", "us"),
    ("daemon.handle_p99_us", "us"),
    ("daemon.handle_self_us", "us"),
    ("registry.misses", "count"),
    ("registry.evictions", "count"),
    ("registry.hit_ratio", "ratio"),
    ("registry.load_ms", "ms"),
    ("model.artifact_kb", "KB"),
    ("json.artifact_parse_ms", "ms"),
    ("core.from_json_ms", "ms"),
    ("nn.build_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("router.hop_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// How many failure messages a report keeps verbatim.
const MAX_FAILURE_MESSAGES: usize = 8;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed: fits, checked training scans and
    /// requests. A failed operation is an error, an error frame, a row
    /// with failures, or an answer that differs from its reference.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Check results and other lines for the printed report.
    pub notes: Vec<String>,
    /// [`fingerprint`] of the config every model was fitted with.
    pub config: String,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation and whether it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Share of a run's windows, the fastest, that its timing metrics come
/// from (see [`set_request_metrics`]).
const FAST_SHARE_OF_WINDOWS: f64 = 0.1;

/// The requests measured in one stretch of a run.
#[derive(Debug, Default)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    /// Scans answered correctly.
    pub good_scans: usize,
    /// Requests answered correctly within the latency limit.
    pub in_slo: usize,
    /// Wall time of the stretch.
    pub seconds: f64,
}

impl Window {
    /// Adds `other`'s requests and seconds to this window.
    pub fn absorb(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.good_scans += other.good_scans;
        self.in_slo += other.in_slo;
        self.seconds += other.seconds;
    }
}

/// Sets `scans_per_s`, `req_p50_ms`, `req_p90_ms` and `slo_share` from a
/// run's windows. A neighbour on a shared host slows whole seconds of a
/// run, so each timing comes from the fast tenth of the windows: the
/// 10th percentile over windows of each window's own latency percentile,
/// and the 90th percentile of window rates (with fewer than ten windows,
/// the fastest). `slo_share` counts every request of the run.
pub fn set_request_metrics(out: &mut Outcome, windows: &[Window]) {
    let measured: Vec<&Window> = windows
        .iter()
        .filter(|w| !w.latencies_ms.is_empty() && w.seconds > 0.0)
        .collect();
    let per_window = |q: f64| -> Vec<f64> {
        measured
            .iter()
            .map(|w| quantile(&w.latencies_ms, q))
            .collect()
    };
    let rates: Vec<f64> = measured
        .iter()
        .map(|w| w.good_scans as f64 / w.seconds)
        .collect();
    let requests: usize = measured.iter().map(|w| w.latencies_ms.len()).sum();
    let in_slo: usize = measured.iter().map(|w| w.in_slo).sum();
    let p50s = per_window(0.5);
    out.set("scans_per_s", quantile(&rates, 1.0 - FAST_SHARE_OF_WINDOWS));
    out.set("req_p50_ms", quantile(&p50s, FAST_SHARE_OF_WINDOWS));
    out.set(
        "req_p90_ms",
        quantile(&per_window(0.9), FAST_SHARE_OF_WINDOWS),
    );
    out.set("slo_share", in_slo as f64 / requests.max(1) as f64);
    out.note(format!(
        "windows: {} with requests; p50 ms per window: min {:.3} p10 {:.3} median {:.3} max {:.3}",
        measured.len(),
        quantile(&p50s, 0.0),
        quantile(&p50s, 0.1),
        quantile(&p50s, 0.5),
        quantile(&p50s, 1.0),
    ));
}

/// The config fields a reader needs to tell benchmark numbers apart.
pub fn fingerprint(config: &FisOneConfig) -> String {
    let gnn = &config.gnn;
    let fan_out: Vec<String> = gnn.neighbor_samples.iter().map(usize::to_string).collect();
    format!(
        "dim={} epochs={} walks_per_node={} fan_out={} seed={}",
        gnn.dim,
        gnn.epochs,
        gnn.walks_per_node,
        fan_out.join("x"),
        gnn.seed
    )
}

/// Refuses any model not fitted with `FisOneConfig::default()`: the
/// dim-8 `quick` config is not accurate, so no number may come from it.
pub fn check_config(config: &FisOneConfig) -> Result<(), String> {
    let seed = config.gnn.seed;
    if *config == FisOneConfig::quick(seed) {
        return Err(format!(
            "refusing a quick-fitted model ({})",
            fingerprint(config)
        ));
    }
    if *config != FisOneConfig::default().seed(seed) {
        return Err(format!(
            "refusing a model not fitted with the default config ({})",
            fingerprint(config)
        ));
    }
    Ok(())
}

/// Host, toolchain and commit, for the report's metadata block.
pub fn metadata(workload: &str, seed: u64, trace: bool) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("FISBENCH_RUSTC").to_owned()),
        ("commit", commit().unwrap_or_else(|| "unknown".to_owned())),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the report and writes it as JSON to `report_path`; the last
/// line printed is the result object. Returns whether the run was correct.
pub fn emit(
    outcome: &Outcome,
    meta: &[(&'static str, String)],
    names: &[(&'static str, &'static str)],
    report_path: &Path,
) -> bool {
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    for (key, value) in meta {
        println!("meta {key}: {value}");
    }
    println!("config: {}", outcome.config);
    for line in &outcome.notes {
        println!("{line}");
    }
    for message in &outcome.failures {
        println!("FAILED: {message}");
    }
    println!(
        "failed_share: {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let mut metrics = BTreeMap::new();
    for &(name, unit) in names {
        let value = *outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure `{name}`"));
        println!("metric {name}: {value} {unit}");
        metrics.insert(
            name.to_owned(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_owned())),
            ]),
        );
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let report = Json::obj([
        (
            "meta",
            Json::Obj(
                meta.iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("config", Json::Str(outcome.config.clone())),
        (
            "notes",
            Json::Arr(outcome.notes.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "failures",
            Json::Arr(outcome.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("result", result.clone()),
    ]);
    if let Err(e) = std::fs::write(report_path, format!("{report}\n")) {
        eprintln!("fisbench: writing {}: {e}", report_path.display());
    }
    println!("{result}");
    correct
}
