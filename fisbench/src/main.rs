//! The FIS-ONE benchmark: one command runs a named workload from a seed,
//! checks every answer, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path fisbench/Cargo.toml -- \
//!     --workload serve-fresh --seed 1 --seconds 44 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `serve-fresh`: 4 resident buildings behind one in-process daemon
//!   over loopback TCP; answer cache off, uniform held-out scans.
//! - `serve-skewed`: 8 buildings behind an in-process router and 2
//!   daemon shards with a small `max_models` and the answer cache on;
//!   Zipf(1.1) skew over buildings and scans.
//!
//! Both refit their buildings in rounds between stretches of serving, so
//! `fit_s` samples every part of a run. Every model is fitted with
//! `FisOneConfig::default()`; anything else is refused. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` replays the same inputs
//! with spans recorded (written as JSONL under `.bench_out/`) and prints
//! the per-layer metrics. The last line printed is the result object;
//! the exit code is non-zero when any operation failed or any answer
//! differed from its reference.
//!
//! Two flags exist for the self-test: `--toy` shrinks every workload to
//! seconds, and `--corrupt-reference` corrupts one reference answer,
//! which the run must count as a failure.

mod corpus;
mod probe;
mod report;
mod serve;
mod tenant;
mod trace;

use std::path::PathBuf;

use report::Outcome;
use trace::Recorder;

const USAGE: &str = "usage: fisbench --workload serve-fresh|serve-skewed --seed N \
                     --seconds S --trace 0|1 [--toy] [--corrupt-reference]";

/// Directory, relative to the working directory, for reports, traces
/// and the artifacts a run writes.
const OUT_DIR: &str = ".bench_out";

/// Sizes of the workloads; `toy` shrinks them for the self-test.
#[derive(Debug, Clone)]
pub struct Scale {
    pub floors: usize,
    /// Training scans per floor of each building (as many again are
    /// held out).
    pub serve_train_per_floor: usize,
    pub fresh_buildings: usize,
    pub skewed_buildings: usize,
    /// `max_models` of each `serve-skewed` shard.
    pub skewed_max_models: usize,
    /// Shard of each `serve-skewed` building, by Zipf rank: one shard
    /// holds one building more than `max_models`, so its tail buildings
    /// miss the registry on roughly 5-10% of requests.
    pub skewed_placement: Vec<usize>,
}

impl Scale {
    fn full() -> Self {
        Self {
            floors: 5,
            serve_train_per_floor: 32,
            fresh_buildings: 4,
            skewed_buildings: 8,
            skewed_max_models: 4,
            skewed_placement: vec![0, 1, 0, 1, 0, 0, 0, 1],
        }
    }

    fn toy() -> Self {
        Self {
            floors: 3,
            serve_train_per_floor: 6,
            fresh_buildings: 2,
            skewed_buildings: 4,
            skewed_max_models: 2,
            skewed_placement: vec![0, 1, 0, 0],
        }
    }
}

/// Everything a workload needs to run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub corrupt_reference: bool,
    pub rec: Recorder,
    /// Per-run scratch directory under [`OUT_DIR`], removed at exit.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<(String, u64, f64, bool, bool, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut toy, mut corrupt) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            "--toy" => toy = true,
            "--corrupt-reference" => corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(sec), Some(t)) => Ok((w, s, sec, t, toy, corrupt)),
        _ => Err("--workload, --seed, --seconds and --trace are required".to_owned()),
    }
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "serve-fresh" => serve::run(ctx, &serve::Spec::fresh(&ctx.scale)),
        "serve-skewed" => serve::run(ctx, &serve::Spec::skewed(&ctx.scale)),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

fn main() {
    let (workload, seed, seconds, trace, toy, corrupt_reference) = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fisbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("fisbench: creating {}: {e}", scratch.display());
        std::process::exit(1);
    }
    // fis-obs stays silent, and all work runs on a thread budget of one:
    // the pipeline's parallel kernels start threads per call, which on a
    // two-core host swings one fit by up to 2x between runs; the serve
    // workloads get their concurrency from their connections instead.
    fis_obs::set_level(None);
    fis_parallel::set_thread_budget(1);
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        scale: if toy { Scale::toy() } else { Scale::full() },
        corrupt_reference,
        rec: Recorder::new(trace),
        scratch,
    };
    let result = run(&ctx);
    std::fs::remove_dir_all(&ctx.scratch).ok();
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("fisbench: {} failed: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    let stem = format!("{}-seed{}-trace{}", ctx.workload, seed, u8::from(trace));
    let out_dir = PathBuf::from(OUT_DIR);
    let names = if trace {
        let spans = ctx.rec.spans().len();
        let wall = ctx.rec.wall_s();
        outcome.set(
            "trace.overhead_pct",
            100.0 * Recorder::span_cost_ns() * spans as f64 / 1e9 / wall,
        );
        outcome.note(format!("trace: {spans} spans over {wall:.3} s of run"));
        for (name, t) in ctx.rec.totals() {
            outcome.note(format!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let path = out_dir.join(format!("{stem}.trace.jsonl"));
        if let Err(e) = ctx.rec.write_jsonl(&path) {
            eprintln!("fisbench: writing {}: {e}", path.display());
        }
        report::PER_LAYER
    } else {
        outcome.set("peak_rss_mb", report::peak_rss_mb());
        report::END_TO_END
    };
    let meta = report::metadata(&ctx.workload, seed, trace);
    let correct = report::emit(
        &outcome,
        &meta,
        names,
        &out_dir.join(format!("{stem}.json")),
    );
    std::process::exit(if correct { 0 } else { 1 });
}
