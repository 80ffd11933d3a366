//! Mall survey: the paper's motivating scenario — large shopping malls
//! with open atriums, heavy signal spillover, and purely crowdsourced
//! scans. A small chain of three malls is evaluated **concurrently**
//! through the batch [`FisEngine`], then the flagship mall's pipeline
//! artifacts are shown: the spillover histogram (Figure 1(b)), the
//! cluster similarity matrix, and the recovered floor ordering.
//!
//! ```bash
//! cargo run --release --example mall_survey
//! FIS_THREADS=1 cargo run --release --example mall_survey   # serial
//! ```

use fis_one::core::similarity::{similarity_matrix, ClusterMacProfile};
use fis_one::core::{EngineConfig, FisEngine};
use fis_one::types::stats;
use fis_one::{BuildingConfig, Dataset, FisOneConfig, SimilarityMethod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three malls of one chain, surveyed independently.
    let malls: Vec<_> = [("harbour-mall", 6), ("airport-mall", 5), ("garden-mall", 4)]
        .into_iter()
        .enumerate()
        .map(|(i, (name, floors))| {
            BuildingConfig::new(name, floors)
                .samples_per_floor(100)
                .aps_per_floor(16)
                .atrium_aps(3)
                .footprint(120.0, 90.0)
                .seed(7 + i as u64)
                .generate()
        })
        .collect();
    let corpus = Dataset::new("mall-chain", malls);

    // Figure 1(b) for the flagship mall: floors-per-MAC histogram.
    let flagship = &corpus.buildings()[0];
    let hist = stats::mac_floor_span_histogram(flagship);
    println!(
        "MAC floor-span histogram ({} MACs total):",
        stats::total_macs(flagship)
    );
    for (span, count) in hist.iter().enumerate() {
        println!("  {} floor(s): {}", span + 1, "#".repeat(*count / 2));
    }
    let (adjacent, far) = stats::spillover_contrast(flagship, 3);
    println!("shared MACs: adjacent floors {adjacent:.1} vs distant floors {far:.1}\n");

    // Run the whole chain through the batch engine.
    let engine = FisEngine::new(EngineConfig::default().pipeline(FisOneConfig::default().seed(3)));
    let report = engine.evaluate_corpus(&corpus);
    println!(
        "evaluated {} malls in {:.2?} on {} threads (cpu {:.2?}, utilisation {:.2}x)\n",
        report.runs.len(),
        report.wall,
        report.threads,
        report.cpu_time(),
        report.cpu_time().as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
    );
    for (run, outcome) in report.successes() {
        let scores = outcome.eval.expect("evaluate_corpus scores successes");
        println!(
            "  {:<14} {} floors  ARI {:.3}  NMI {:.3}  edit {:.3}  ({:.2?})",
            run.building, run.floors, scores.ari, scores.nmi, scores.edit, run.elapsed
        );
    }

    // Show the spillover similarity the flagship's indexing solved over.
    let (_, flagship_outcome) = report
        .successes()
        .find(|(run, _)| run.building == flagship.name())
        .ok_or("flagship mall failed")?;
    let prediction = &flagship_outcome.prediction;
    let profiles = ClusterMacProfile::from_assignment(
        flagship.samples(),
        prediction.assignment(),
        flagship.floors(),
    );
    let sim = similarity_matrix(SimilarityMethod::AdaptedJaccard, &profiles);
    println!(
        "\nadapted Jaccard similarity between {} clusters:",
        flagship.name()
    );
    for row in &sim {
        let cells: Vec<String> = row.iter().map(|s| format!("{s:.2}")).collect();
        println!("  [{}]", cells.join(", "));
    }

    println!(
        "\nrecovered bottom-to-top cluster order: {:?}",
        prediction.cluster_order()
    );
    let per_floor: Vec<usize> = (0..flagship.floors())
        .map(|f| {
            prediction
                .labels()
                .iter()
                .zip(flagship.ground_truth())
                .filter(|(p, t)| p.index() == f && p == t)
                .count()
        })
        .collect();
    println!("correct labels per floor: {per_floor:?}");
    Ok(())
}
