//! Model extensions beyond the fixed-anchor pipeline: the §VI
//! arbitrary-anchor variant, and *online* extension of a fitted model.
//!
//! # Arbitrary anchor (§VI)
//!
//! With no fixed starting cluster, the TSP is solved from every start and
//! the minimum-cost ordering kept. The anchor's disclosed floor then pins
//! the orientation: its floor corresponds to two candidate path positions
//! (one from each end), and the anchor joins whichever candidate cluster
//! its embedding is closer to (Case 2). When the building has an odd
//! number of floors and the anchor sits exactly in the middle, both
//! candidates coincide positionally and the orientation is undecidable
//! (Case 1) — reported as [`ArbitraryAnchorOutcome::Ambiguous`].
//!
//! # Online extension (drift)
//!
//! [`crate::model::FittedModel::extend`] appends freshly served scans as
//! new reference points and grows the MAC vocabulary *without retraining
//! the encoder* — the serving-side answer to AP churn and renovations.
//! The mechanism lives here as `ExtendedState` (crate-private) plus the
//! public [`ExtensionReport`]:
//!
//! - The **base model is frozen**. Its graph, feature matrix, references,
//!   and VP-tree are untouched, and any scan whose known MACs all belong
//!   to the base vocabulary is answered by exactly the base code path —
//!   which is what makes old-vocabulary answers bit-identical before and
//!   after an extension (appending samples to the shared graph would shift
//!   every MAC node index and perturb neighbor sampling otherwise).
//! - Scans that hear at least one *extension-only* MAC take the extended
//!   path: a second bipartite graph over base + extension scans, the same
//!   trained weights over a feature matrix grown with synthesized rows
//!   (an extension scan's feature is the f(RSS)-weighted mean of its base
//!   MAC features; a new MAC's feature is the weighted mean of the scans
//!   attached to it), and a second VP-tree over every reference re-embedded
//!   in that space. All of it is a pure deterministic function of
//!   `(base model, extension scans)`, so artifacts stay byte-identical
//!   across save → load → save.

use fis_gnn::RfGnn;
use fis_graph::BipartiteGraph;
use fis_linalg::Matrix;
use fis_types::{FloorId, LabeledAnchor, SignalSample};

use crate::error::FisError;
use crate::indexing::solve_path;
use crate::pipeline::{FisOne, FloorPrediction};
use crate::similarity::{similarity_matrix, ClusterMacProfile};
use crate::space::ReferenceSpace;

/// Result of arbitrary-anchor identification.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbitraryAnchorOutcome {
    /// Orientation was determined; per-sample labels are available.
    Resolved(FloorPrediction),
    /// Case 1: the anchor is on the middle floor of an odd building, so
    /// the ordering cannot be oriented. The unoriented cluster order and
    /// the assignment (anchor excluded, `usize::MAX` in its slot) are
    /// returned for inspection.
    Ambiguous {
        /// Clusters along the optimal (unoriented) path.
        order: Vec<usize>,
        /// Cluster per sample; the anchor's slot holds `usize::MAX`.
        assignment: Vec<usize>,
    },
}

/// Runs the §VI pipeline: cluster without the anchor, solve the TSP from
/// every start, pick the max-similarity ordering, and orient it with the
/// anchor's disclosed floor.
///
/// # Errors
///
/// Returns a [`FisError`] if any underlying stage fails or the anchor is
/// inconsistent with the inputs.
pub fn identify_with_arbitrary_anchor(
    fis: &FisOne,
    samples: &[SignalSample],
    floors: usize,
    anchor: LabeledAnchor,
) -> Result<ArbitraryAnchorOutcome, FisError> {
    if anchor.sample.index() >= samples.len() {
        return Err(FisError::Anchor(format!(
            "anchor sample {} out of bounds ({} samples)",
            anchor.sample,
            samples.len()
        )));
    }
    if anchor.floor.index() >= floors {
        return Err(FisError::Anchor(format!(
            "anchor floor {} exceeds {floors} floors",
            anchor.floor
        )));
    }
    if samples.len() < floors + 1 {
        return Err(FisError::Clustering(format!(
            "{} samples cannot form {floors} clusters plus a held-out anchor",
            samples.len()
        )));
    }

    // Stage 1-2 on ALL samples (the anchor's representation is obtained,
    // §VI), then the anchor is withheld from clustering.
    let embeddings = fis.embed(samples)?;
    let anchor_idx = anchor.sample.index();
    let others: Vec<usize> = (0..samples.len()).filter(|&i| i != anchor_idx).collect();
    let other_embeddings = embeddings.gather_rows(&others);
    let other_assignment = fis.cluster_embeddings(&other_embeddings, floors)?;

    // Expand to a full-length assignment with the anchor missing.
    let mut assignment = vec![usize::MAX; samples.len()];
    for (pos, &orig) in others.iter().enumerate() {
        assignment[orig] = other_assignment[pos];
    }

    // Similarity over the anchor-free clusters.
    let other_samples: Vec<SignalSample> = others.iter().map(|&i| samples[i].clone()).collect();
    let profiles = ClusterMacProfile::from_assignment(&other_samples, &other_assignment, floors);
    let sim = similarity_matrix(fis.config().similarity, &profiles);

    // No fixed start: evaluate all starting clusters, keep the cheapest
    // (= maximum sum of adapted Jaccard coefficients).
    let mut best: Option<fis_tsp::PathSolution> = None;
    for start in 0..floors {
        let sol = solve_path(&sim, start, fis.config().solver)?;
        if best.as_ref().is_none_or(|b| sol.cost < b.cost) {
            best = Some(sol);
        }
    }
    let path = best.expect("at least one start");

    // Candidate positions for the anchor's floor, one from each end.
    let f = anchor.floor.index();
    let p_forward = f;
    let p_backward = floors - 1 - f;
    if p_forward == p_backward {
        // Case 1: middle floor of an odd building.
        return Ok(ArbitraryAnchorOutcome::Ambiguous {
            order: path.order,
            assignment,
        });
    }

    // Case 2: the anchor joins the closer candidate cluster by mean
    // embedding distance d(r, C_i) = Σ ||r' − r|| / |C_i|.
    let c_forward = path.order[p_forward];
    let c_backward = path.order[p_backward];
    let d_forward = mean_distance(&embeddings, anchor_idx, &assignment, c_forward);
    let d_backward = mean_distance(&embeddings, anchor_idx, &assignment, c_backward);

    let (anchor_cluster, orientation_forward) = if d_forward <= d_backward {
        (c_forward, true)
    } else {
        (c_backward, false)
    };
    assignment[anchor_idx] = anchor_cluster;

    let floor_of_cluster: Vec<usize> = {
        let mut fc = vec![0usize; floors];
        for (pos, &cluster) in path.order.iter().enumerate() {
            fc[cluster] = if orientation_forward {
                pos
            } else {
                floors - 1 - pos
            };
        }
        fc
    };
    let order: Vec<usize> = if orientation_forward {
        path.order
    } else {
        path.order.into_iter().rev().collect()
    };
    Ok(ArbitraryAnchorOutcome::Resolved(FloorPrediction::new(
        assignment,
        order,
        floor_of_cluster,
    )))
}

/// Mean Euclidean distance from the embedding of `target` to the members
/// of `cluster` (§VI's `d(r, C_i)`), `+inf` for an empty cluster.
fn mean_distance(embeddings: &Matrix, target: usize, assignment: &[usize], cluster: usize) -> f64 {
    let r = embeddings.row(target);
    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, &c) in assignment.iter().enumerate() {
        if c == cluster && i != target {
            sum += fis_linalg::vec_ops::euclidean(embeddings.row(i), r);
            count += 1;
        }
    }
    if count == 0 {
        f64::INFINITY
    } else {
        sum / count as f64
    }
}

/// Convenience: did the outcome resolve, and if so with which labels?
impl ArbitraryAnchorOutcome {
    /// The prediction, if orientation was determined.
    pub fn prediction(&self) -> Option<&FloorPrediction> {
        match self {
            ArbitraryAnchorOutcome::Resolved(p) => Some(p),
            ArbitraryAnchorOutcome::Ambiguous { .. } => None,
        }
    }

    /// Predicted floor labels, if resolved.
    pub fn labels(&self) -> Option<&[FloorId]> {
        self.prediction().map(FloorPrediction::labels)
    }
}

/// What [`crate::model::FittedModel::extend`] did; see the
/// [module docs](self) for the mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionReport {
    /// Scans appended as new reference points in this call.
    pub appended: usize,
    /// Scans skipped because they share no MAC with the base vocabulary
    /// (nothing to anchor their synthesized features or label to).
    pub skipped: usize,
    /// MACs the *whole* extension added beyond the base vocabulary
    /// (cumulative across repeated `extend` calls).
    pub new_macs: usize,
    /// Reference scans the model now holds (base survey + extension).
    pub total_scans: usize,
    /// MAC vocabulary size the model now recognizes.
    pub total_macs: usize,
    /// Floor label handed to each newly appended scan, as counts per
    /// floor index.
    pub floor_counts: Vec<usize>,
}

/// The extended-path state riding alongside a frozen base model:
/// extension scans, their labels, and everything derived from them.
/// Only `samples`, `assignment`, and the space's references are
/// persisted; the rest rebuilds deterministically (see
/// [`build_extended_state`]).
#[derive(Debug, Clone)]
pub(crate) struct ExtendedState {
    /// Extension scans, ids continuing the base sample numbering.
    pub(crate) samples: Vec<SignalSample>,
    /// Cluster per extension scan (self-labeled at extend time).
    pub(crate) assignment: Vec<usize>,
    /// MACs interned beyond the base vocabulary.
    pub(crate) n_new_macs: usize,
    /// The base encoder's weights over a graph of base + extension scans
    /// and its grown feature matrix, with the extended-space embeddings
    /// of *every* reference scan in unified sample order.
    pub(crate) space: ReferenceSpace,
}

/// Builds (or revalidates, when `stored_references` comes from an
/// artifact) the extended-path state. Pure in its inputs: called with the
/// same base model and extension scans it produces bit-identical state,
/// which is what keeps extended artifacts byte-stable across
/// save → load → save.
///
/// # Errors
///
/// Returns [`FisError::Model`] when the extension scans cannot rebuild a
/// graph (non-dense ids), reorder the base vocabulary, hear no MAC, share
/// no MAC with the base vocabulary, or the stored references have the
/// wrong shape; [`FisError::Inference`] if re-embedding fails.
pub(crate) fn build_extended_state(
    base: &ReferenceSpace,
    base_samples: &[SignalSample],
    ext_samples: Vec<SignalSample>,
    ext_assignment: Vec<usize>,
    stored_references: Option<Vec<Vec<f64>>>,
) -> Result<ExtendedState, FisError> {
    let base_macs = base.graph.macs();
    let base_gnn = &base.gnn;
    debug_assert_eq!(ext_samples.len(), ext_assignment.len());
    if let Some(empty) = ext_samples.iter().find(|s| s.is_empty()) {
        return Err(FisError::Model(format!(
            "extension scan {} heard no MAC",
            empty.id()
        )));
    }

    let mut combined: Vec<SignalSample> = base_samples.to_vec();
    combined.extend(ext_samples.iter().cloned());
    let graph = BipartiteGraph::from_samples(&combined)
        .map_err(|e| FisError::Model(format!("extension scans do not rebuild a graph: {e}")))?;
    // Base samples come first, so interning must reproduce the base
    // vocabulary as a prefix; anything else means the inputs are not the
    // model's own samples.
    if graph.n_macs() < base_macs.len() || &graph.macs()[..base_macs.len()] != base_macs {
        return Err(FisError::Model(
            "extension scans do not preserve the base MAC vocabulary prefix".into(),
        ));
    }
    let n_new_macs = graph.n_macs() - base_macs.len();

    let d = base_gnn.dim();
    let n_samples = combined.len();
    let n_base = base_samples.len();
    let base_feats = base_gnn.features();
    let mut data = vec![0.0; graph.n_nodes() * d];
    // Base rows keep their trained features; only the node *indices* move
    // (MAC nodes shift by the number of appended samples).
    for i in 0..n_base {
        data[i * d..(i + 1) * d].copy_from_slice(base_feats.row(i));
    }
    for j in 0..base_macs.len() {
        let dst = (n_samples + j) * d;
        data[dst..dst + d].copy_from_slice(base_feats.row(n_base + j));
    }
    // Synthesized rows for extension scans: f(RSS)-weighted mean of their
    // *base* MAC features (the frozen anchor that makes this well-defined),
    // l2-normalized like every inference embedding.
    for (k, scan) in ext_samples.iter().enumerate() {
        let mut acc = vec![0.0; d];
        let mut wsum = 0.0;
        for (mac, rssi) in scan.iter() {
            if let Some(&j) = base.mac_index.get(&mac) {
                let w = rssi.edge_weight();
                for (slot, x) in acc.iter_mut().zip(base_feats.row(n_base + j)) {
                    *slot += w * x;
                }
                wsum += w;
            }
        }
        if wsum <= 0.0 {
            return Err(FisError::Model(format!(
                "extension scan {} shares no MAC with the base vocabulary",
                scan.id()
            )));
        }
        for slot in acc.iter_mut() {
            *slot /= wsum;
        }
        l2_normalize(&mut acc);
        let dst = (n_base + k) * d;
        data[dst..dst + d].copy_from_slice(&acc);
    }
    // Synthesized rows for new MACs: weighted mean of the (extension)
    // scans attached to them — every interned MAC has at least one edge.
    for j in base_macs.len()..graph.n_macs() {
        let mut acc = vec![0.0; d];
        let mut wsum = 0.0;
        for &(sample_node, w) in graph.neighbors(graph.mac_node(j)) {
            let src = sample_node * d;
            for (slot, x) in acc.iter_mut().zip(&data[src..src + d]) {
                *slot += w * x;
            }
            wsum += w;
        }
        for slot in acc.iter_mut() {
            *slot /= wsum;
        }
        l2_normalize(&mut acc);
        let dst = (n_samples + j) * d;
        data[dst..dst + d].copy_from_slice(&acc);
    }

    let gnn = RfGnn::from_parts(
        base_gnn.config().clone(),
        Matrix::from_vec(graph.n_nodes(), d, data),
        base_gnn.weights().to_vec(),
    )
    .map_err(FisError::Model)?;
    Ok(ExtendedState {
        space: ReferenceSpace::new(gnn, graph, &combined, stored_references)?,
        samples: ext_samples,
        assignment: ext_assignment,
        n_new_macs,
    })
}

fn l2_normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_gnn::RfGnnConfig;
    use fis_synth::BuildingConfig;
    use fis_types::Building;

    use crate::pipeline::FisOneConfig;

    fn quick_pipeline(seed: u64) -> FisOne {
        let mut config = FisOneConfig::default().seed(seed);
        config.gnn = RfGnnConfig::new(16)
            .epochs(10)
            .walks_per_node(4)
            .neighbor_samples(vec![8, 4])
            .seed(seed);
        FisOne::new(config)
    }

    fn easy_building(floors: usize, seed: u64) -> Building {
        BuildingConfig::new("ext", floors)
            .samples_per_floor(40)
            .aps_per_floor(10)
            .atrium_aps(0)
            .seed(seed)
            .generate()
    }

    #[test]
    fn second_floor_anchor_resolves_four_floor_building() {
        let b = easy_building(4, 21);
        let anchor = b.anchor_on(FloorId::from_index(1)).unwrap();
        let outcome =
            identify_with_arbitrary_anchor(&quick_pipeline(1), b.samples(), b.floors(), anchor)
                .unwrap();
        let pred = outcome.prediction().expect("case 2 must resolve");
        let correct = pred
            .labels()
            .iter()
            .zip(b.ground_truth())
            .filter(|(p, t)| p == t)
            .count();
        let acc = correct as f64 / b.len() as f64;
        assert!(acc > 0.6, "accuracy {acc}");
        assert_eq!(pred.labels()[anchor.sample.index()], anchor.floor);
    }

    #[test]
    fn middle_floor_of_odd_building_is_ambiguous() {
        let b = easy_building(3, 22);
        let anchor = b.anchor_on(FloorId::from_index(1)).unwrap();
        let outcome =
            identify_with_arbitrary_anchor(&quick_pipeline(2), b.samples(), b.floors(), anchor)
                .unwrap();
        match outcome {
            ArbitraryAnchorOutcome::Ambiguous { order, assignment } => {
                assert_eq!(order.len(), 3);
                assert_eq!(assignment[anchor.sample.index()], usize::MAX);
            }
            ArbitraryAnchorOutcome::Resolved(_) => panic!("middle anchor must be ambiguous"),
        }
    }

    #[test]
    fn bottom_anchor_matches_core_pipeline_quality() {
        let b = easy_building(3, 23);
        let anchor = b.bottom_anchor().unwrap();
        let outcome =
            identify_with_arbitrary_anchor(&quick_pipeline(3), b.samples(), b.floors(), anchor)
                .unwrap();
        let pred = outcome.prediction().expect("bottom anchor resolves");
        let correct = pred
            .labels()
            .iter()
            .zip(b.ground_truth())
            .filter(|(p, t)| p == t)
            .count();
        assert!(correct as f64 / b.len() as f64 > 0.6);
    }

    #[test]
    fn bad_anchor_rejected() {
        let b = easy_building(3, 24);
        let bogus = LabeledAnchor {
            sample: fis_types::SampleId(u32::MAX),
            floor: FloorId::BOTTOM,
        };
        assert!(
            identify_with_arbitrary_anchor(&quick_pipeline(4), b.samples(), b.floors(), bogus)
                .is_err()
        );
    }
}
