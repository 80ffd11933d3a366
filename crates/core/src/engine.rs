//! Multi-building batch execution engine.
//!
//! [`FisEngine`] runs the FIS-ONE pipeline over a whole corpus
//! ([`fis_types::Dataset`]) with buildings dispatched concurrently across
//! a configurable thread budget. Each building is an independent unit of
//! work with its own seeded RNG, so predictions are **bit-identical for
//! any thread count** — parallelism only changes wall-clock time, never
//! results (see the determinism tests in `tests/engine_determinism.rs`).
//!
//! ```no_run
//! use fis_core::{EngineConfig, FisEngine};
//! # fn corpus() -> fis_types::Dataset { unimplemented!() }
//!
//! let engine = FisEngine::new(EngineConfig::default().threads(8));
//! let report = engine.evaluate_corpus(&corpus());
//! println!(
//!     "{} buildings in {:?} ({} ok)",
//!     report.runs.len(),
//!     report.wall,
//!     report.successes().count()
//! );
//! ```

use std::time::{Duration, Instant};

use fis_types::{Building, Dataset};

use crate::error::FisError;
use crate::evaluate::{mean_result, score_prediction, EvalResult};
use crate::model::FittedModel;
use crate::pipeline::{FisOne, FisOneConfig, FloorPrediction};

/// Configuration of the batch engine.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Per-building pipeline configuration (seed included).
    pub pipeline: FisOneConfig,
    /// Worker thread budget for dispatching buildings; `0` (the default)
    /// uses the global [`fis_parallel::thread_budget`].
    pub threads: usize,
}

impl EngineConfig {
    /// Sets the pipeline configuration.
    pub fn pipeline(mut self, pipeline: FisOneConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the thread budget (`0` = use the global budget).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the RNG seed on the embedded pipeline config.
    pub fn seed(mut self, seed: u64) -> Self {
        self.pipeline = self.pipeline.seed(seed);
        self
    }
}

/// Result of running one building through the engine.
#[derive(Debug, Clone)]
pub struct BuildingRun {
    /// The building's name.
    pub building: String,
    /// Number of floors in the building.
    pub floors: usize,
    /// Number of samples in the building.
    pub samples: usize,
    /// Prediction (and, for evaluation runs, scores), or the pipeline
    /// error for this building. One failing building never aborts the
    /// rest of the batch.
    pub outcome: Result<BuildingOutcome, FisError>,
    /// Wall-clock time spent on this building.
    pub elapsed: Duration,
}

/// Successful per-building artifacts.
#[derive(Debug, Clone)]
pub struct BuildingOutcome {
    /// Floor prediction for every sample.
    pub prediction: FloorPrediction,
    /// ARI / NMI / edit scores against ground truth; `None` for
    /// identify-only runs.
    pub eval: Option<EvalResult>,
}

/// Result of a whole-corpus run.
#[derive(Debug, Clone)]
pub struct CorpusRun {
    /// Per-building results, in corpus order.
    pub runs: Vec<BuildingRun>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Thread budget the batch actually used.
    pub threads: usize,
}

impl CorpusRun {
    /// Iterates over buildings that completed successfully.
    pub fn successes(&self) -> impl Iterator<Item = (&BuildingRun, &BuildingOutcome)> {
        self.runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| (r, o)))
    }

    /// Iterates over buildings that failed, with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (&BuildingRun, &FisError)> {
        self.runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r, e)))
    }

    /// Mean ARI / NMI / edit over all scored buildings.
    pub fn mean_eval(&self) -> EvalResult {
        let scores: Vec<EvalResult> = self.successes().filter_map(|(_, o)| o.eval).collect();
        mean_result(&scores)
    }

    /// Sum of per-building times. `cpu_time / wall` is the batch's
    /// utilisation (buildings in flight on average), not a wall-clock
    /// speedup: per-building times stretch when buildings share cores,
    /// so only a serial rerun measures the speedup.
    pub fn cpu_time(&self) -> Duration {
        self.runs.iter().map(|r| r.elapsed).sum()
    }
}

/// Result of fitting one building into a serving artifact.
#[derive(Debug)]
pub struct BuildingFit {
    /// The building's name.
    pub building: String,
    /// Number of floors in the building.
    pub floors: usize,
    /// Number of training scans.
    pub samples: usize,
    /// The fitted model, or the pipeline error. One failing building
    /// never aborts the rest of the batch.
    pub outcome: Result<FittedModel, FisError>,
    /// Wall-clock time spent fitting this building.
    pub elapsed: Duration,
}

/// Result of fitting a whole corpus.
#[derive(Debug)]
pub struct CorpusFit {
    /// Per-building fits, in corpus order.
    pub fits: Vec<BuildingFit>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Thread budget the batch actually used.
    pub threads: usize,
}

impl CorpusFit {
    /// Iterates over buildings that fitted successfully.
    pub fn successes(&self) -> impl Iterator<Item = (&BuildingFit, &FittedModel)> {
        self.fits
            .iter()
            .filter_map(|f| f.outcome.as_ref().ok().map(|m| (f, m)))
    }

    /// Iterates over buildings that failed to fit, with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (&BuildingFit, &FisError)> {
        self.fits
            .iter()
            .filter_map(|f| f.outcome.as_ref().err().map(|e| (f, e)))
    }
}

/// Batch engine running [`FisOne`] over whole corpora in parallel.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct FisEngine {
    config: EngineConfig,
}

impl FisEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    /// Convenience constructor from a pipeline config alone.
    pub fn with_pipeline(pipeline: FisOneConfig) -> Self {
        Self::new(EngineConfig::default().pipeline(pipeline))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The resolved worker budget for this engine.
    pub fn threads(&self) -> usize {
        match self.config.threads {
            0 => fis_parallel::thread_budget(),
            n => n,
        }
    }

    /// Runs `identify` (bottom-floor anchor) on every building
    /// concurrently, without scoring.
    pub fn identify_corpus(&self, corpus: &Dataset) -> CorpusRun {
        self.run(corpus, false)
    }

    /// Runs the pipeline on every building concurrently and scores each
    /// against its ground truth.
    pub fn evaluate_corpus(&self, corpus: &Dataset) -> CorpusRun {
        self.run(corpus, true)
    }

    /// Fits every building of the corpus into a [`FittedModel`]
    /// concurrently — the batch entry point of the fit-once /
    /// serve-forever path (see [`crate::model`]).
    pub fn fit_corpus(&self, corpus: &Dataset) -> CorpusFit {
        let threads = self.threads();
        let started = Instant::now();
        let _budget_guard =
            (self.config.threads != 0).then(|| BudgetGuard::set(self.config.threads));
        let fits = fis_parallel::par_map(corpus.buildings(), 1, |_, building| {
            let fit_started = Instant::now();
            let fis = FisOne::new(self.config.pipeline.clone());
            let outcome = bottom_anchor_or_err(building).and_then(|anchor| {
                fis.fit(
                    building.name(),
                    building.samples(),
                    building.floors(),
                    anchor,
                )
            });
            BuildingFit {
                building: building.name().to_owned(),
                floors: building.floors(),
                samples: building.len(),
                outcome,
                elapsed: fit_started.elapsed(),
            }
        });
        CorpusFit {
            fits,
            wall: started.elapsed(),
            threads,
        }
    }

    fn run(&self, corpus: &Dataset, score: bool) -> CorpusRun {
        let threads = self.threads();
        let started = Instant::now();
        // An explicit per-engine budget is applied through the process
        // global, so serialize explicit-budget batches against each
        // other and restore on drop (panic-safe).
        let _budget_guard =
            (self.config.threads != 0).then(|| BudgetGuard::set(self.config.threads));
        // One building per work item; each builds its own FisOne (and
        // therefore its own seeded RNG), so results do not depend on
        // which worker runs which building.
        let runs = fis_parallel::par_map(corpus.buildings(), 1, |_, building| {
            self.run_building(building, score)
        });
        CorpusRun {
            runs,
            wall: started.elapsed(),
            threads,
        }
    }

    fn run_building(&self, building: &Building, score: bool) -> BuildingRun {
        let started = Instant::now();
        let fis = FisOne::new(self.config.pipeline.clone());
        let outcome = if score {
            evaluate_with_prediction(&fis, building)
        } else {
            bottom_anchor_or_err(building)
                .and_then(|anchor| fis.identify(building.samples(), building.floors(), anchor))
                .map(|prediction| BuildingOutcome {
                    prediction,
                    eval: None,
                })
        };
        BuildingRun {
            building: building.name().to_owned(),
            floors: building.floors(),
            samples: building.len(),
            outcome,
            elapsed: started.elapsed(),
        }
    }
}

/// The building's single labeled anchor, or the engine's canonical error
/// when the bottom floor was never surveyed (shared by the identify and
/// fit batch paths so both report identically).
fn bottom_anchor_or_err(building: &Building) -> Result<fis_types::LabeledAnchor, FisError> {
    building.bottom_anchor().ok_or_else(|| {
        FisError::Anchor(format!(
            "building {} has no sample on the bottom floor",
            building.name()
        ))
    })
}

/// RAII override of the global thread budget: holds a process-wide lock
/// so two explicit-budget engines cannot clobber each other, and
/// restores the previous override even if a building panics.
pub(crate) struct BudgetGuard {
    previous: usize,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl BudgetGuard {
    pub(crate) fn set(threads: usize) -> Self {
        static BUDGET_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let lock = BUDGET_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let previous = fis_parallel::thread_budget_override();
        fis_parallel::set_thread_budget(threads);
        Self {
            previous,
            _lock: lock,
        }
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        fis_parallel::set_thread_budget(self.previous);
    }
}

fn evaluate_with_prediction(
    fis: &FisOne,
    building: &Building,
) -> Result<BuildingOutcome, FisError> {
    let anchor = building.bottom_anchor().ok_or_else(|| {
        FisError::Evaluation(format!(
            "building {} has no sample on the bottom floor",
            building.name()
        ))
    })?;
    let prediction = fis.identify(building.samples(), building.floors(), anchor)?;
    let eval = score_prediction(&prediction, building)?;
    Ok(BuildingOutcome {
        prediction,
        eval: Some(eval),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FisOneConfig;
    use fis_gnn::RfGnnConfig;
    use fis_synth::BuildingConfig;
    use fis_types::Dataset;

    fn quick_config(seed: u64) -> FisOneConfig {
        let mut config = FisOneConfig::default().seed(seed);
        config.gnn = RfGnnConfig::new(8)
            .epochs(3)
            .walks_per_node(2)
            .neighbor_samples(vec![5, 3])
            .seed(seed);
        config
    }

    fn tiny_corpus() -> Dataset {
        let buildings = (0..3)
            .map(|i| {
                BuildingConfig::new(format!("b{i}"), 3)
                    .samples_per_floor(20)
                    .aps_per_floor(8)
                    .atrium_aps(0)
                    .seed(100 + i as u64)
                    .generate()
            })
            .collect();
        Dataset::new("tiny", buildings)
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FisEngine>();
        assert_send_sync::<CorpusRun>();
    }

    #[test]
    fn evaluate_corpus_scores_every_building() {
        let corpus = tiny_corpus();
        let engine = FisEngine::new(EngineConfig::default().pipeline(quick_config(1)));
        let report = engine.evaluate_corpus(&corpus);
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.successes().count(), 3);
        for (run, outcome) in report.successes() {
            assert_eq!(outcome.prediction.labels().len(), run.samples);
            assert!(outcome.eval.is_some());
        }
        let mean = report.mean_eval();
        assert!(mean.ari > 0.0, "mean ari {}", mean.ari);
    }

    #[test]
    fn identify_corpus_skips_scoring() {
        let corpus = tiny_corpus();
        let engine = FisEngine::new(EngineConfig::default().pipeline(quick_config(2)));
        let report = engine.identify_corpus(&corpus);
        assert_eq!(report.successes().count(), 3);
        assert!(report.successes().all(|(_, o)| o.eval.is_none()));
    }

    #[test]
    fn one_bad_building_does_not_poison_the_batch() {
        let mut corpus = tiny_corpus();
        // Two samples cannot form three clusters -> this building fails.
        let sample = |id: u32| {
            fis_types::SignalSample::builder(id)
                .reading(
                    fis_types::MacAddr::from_u64(u64::from(id) + 1),
                    fis_types::Rssi::new(-50.0).unwrap(),
                )
                .build()
        };
        let cramped = fis_types::Building::new(
            "cramped",
            3,
            vec![sample(0), sample(1)],
            vec![
                fis_types::FloorId::BOTTOM,
                fis_types::FloorId::from_index(1),
            ],
        )
        .unwrap();
        corpus.push(cramped);
        let engine = FisEngine::new(EngineConfig::default().pipeline(quick_config(3)));
        let report = engine.evaluate_corpus(&corpus);
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.successes().count(), 3);
        assert_eq!(report.failures().count(), 1);
        assert_eq!(report.failures().next().unwrap().0.building, "cramped");
    }

    #[test]
    fn explicit_thread_budget_is_restored() {
        let corpus = tiny_corpus();
        let before = fis_parallel::thread_budget();
        let engine = FisEngine::new(EngineConfig::default().pipeline(quick_config(4)).threads(2));
        assert_eq!(engine.threads(), 2);
        let _ = engine.evaluate_corpus(&corpus);
        assert_eq!(fis_parallel::thread_budget(), before);
    }

    #[test]
    fn fit_corpus_fits_every_building() {
        let corpus = tiny_corpus();
        let engine = FisEngine::new(EngineConfig::default().pipeline(quick_config(6)));
        let fit = engine.fit_corpus(&corpus);
        assert_eq!(fit.fits.len(), 3);
        assert_eq!(fit.successes().count(), 3);
        for (run, model) in fit.successes() {
            assert_eq!(model.building(), run.building);
            assert_eq!(model.floors(), run.floors);
            assert_eq!(model.training_labels().len(), run.samples);
        }
        // Fitted labels agree with the identify path at the same seed.
        let report = engine.identify_corpus(&corpus);
        for ((_, model), (_, outcome)) in fit.successes().zip(report.successes()) {
            assert_eq!(model.training_labels(), outcome.prediction.labels());
        }
    }

    #[test]
    fn corpus_run_accounting_is_consistent() {
        let corpus = tiny_corpus();
        let engine = FisEngine::new(EngineConfig::default().pipeline(quick_config(5)));
        let report = engine.evaluate_corpus(&corpus);
        assert!(report.cpu_time() >= report.runs.iter().map(|r| r.elapsed).max().unwrap());
        assert!(report.threads >= 1);
        for run in &report.runs {
            assert!(run.floors > 0 && run.samples > 0);
        }
    }
}
