//! Workload inputs: synthetic buildings split into training and held-out
//! scans, and the skewed draws the serve workloads use.

use fis_synth::BuildingConfig;
use fis_types::{Building, FloorId, SignalSample};
use rand::Rng;

/// One building of a workload: the training corpus the model is fitted
/// on, plus every other scan of each floor held out as a *fresh* scan the
/// model never saw.
#[derive(Debug, Clone)]
pub struct Site {
    pub train: Building,
    pub held_out: Vec<SignalSample>,
    pub held_truth: Vec<FloorId>,
}

impl Site {
    /// Generates a building with `train_per_floor` training and as many
    /// held-out scans on each floor, entirely from `seed`.
    pub fn generate(name: &str, floors: usize, train_per_floor: usize, seed: u64) -> Self {
        let building = BuildingConfig::new(name, floors)
            .samples_per_floor(2 * train_per_floor)
            .seed(seed)
            .generate();
        let mut seen_on_floor = vec![0usize; floors];
        let (mut train, mut train_truth) = (Vec::new(), Vec::new());
        let (mut held_out, mut held_truth) = (Vec::new(), Vec::new());
        for (scan, &floor) in building.samples().iter().zip(building.ground_truth()) {
            let k = seen_on_floor[floor.index()];
            seen_on_floor[floor.index()] += 1;
            if k.is_multiple_of(2) {
                train.push(scan.clone().with_id(train.len() as u32));
                train_truth.push(floor);
            } else {
                held_out.push(scan.clone().with_id(held_out.len() as u32));
                held_truth.push(floor);
            }
        }
        let train = Building::new(name, floors, train, train_truth)
            .expect("a split of a valid building is a valid building");
        Self {
            train,
            held_out,
            held_truth,
        }
    }

    pub fn name(&self) -> &str {
        self.train.name()
    }
}

/// Seed of building `index` of a workload run with `seed`.
pub fn building_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index as u64 + 1)
}

/// Zipf(`alpha`) weights over ranks `0..n`, normalized to sum to 1.
pub fn zipf_weights(n: usize, alpha: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-alpha)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Exact per-rank counts for a block of `block` draws from `weights`
/// (largest remainder rounding), so every block visits each rank the
/// same number of times and only the order varies with the seed.
pub fn block_counts(weights: &[f64], block: usize) -> Vec<usize> {
    let raw: Vec<f64> = weights.iter().map(|w| w * block as f64).collect();
    let mut counts: Vec<usize> = raw.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = raw[a] - counts[a] as f64;
        let rb = raw[b] - counts[b] as f64;
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = block - counts.iter().sum::<usize>();
    for &rank in order.iter().take(short) {
        counts[rank] += 1;
    }
    counts
}

/// Draws a rank from cumulative weights.
pub fn draw_rank<R: Rng + ?Sized>(rng: &mut R, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("at least one rank");
    let u = rng.gen_range(0.0..total);
    cumulative
        .partition_point(|&c| c <= u)
        .min(cumulative.len() - 1)
}

/// Running sums of `weights`.
pub fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut total = 0.0;
    weights
        .iter()
        .map(|w| {
            total += w;
            total
        })
        .collect()
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The smallest value; for repeats of the same CPU-bound work, which a
/// shared host can only slow down, the steadiest measure of its cost.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
