//! Value-only forward passes: no tape, no gradient bookkeeping.
//!
//! The K-hop forward is split GraphSAGE-style into one neighborhood
//! sampler (`RfGnn::sample_hops`, the only RNG-consuming part) and two
//! evaluators of the sampled plan. Training records it on the autograd tape
//! (`RfGnn::forward`), which allocates a node (value + zeroed gradient) per
//! operation. Embedding only needs the values, so [`RfGnn::embed_nodes`]
//! and [`RfGnn::infer_scan`] evaluate the same plan with plain [`Matrix`]
//! ops in the same order; the two evaluators are bit-identical (enforced by
//! tests).
//!
//! [`RfGnn::infer_scan`] extends the forward pass to **virtual scan
//! nodes**: a new crowdsourced scan that was never part of the training
//! graph is embedded by attaching it to the MAC nodes it heard. Its hop-0
//! representation is the `f(RSS)`-weighted mean of its known MACs' learned
//! features; every deeper hop aggregates sampled neighborhoods of the
//! training graph, exactly as the paper's inductive argument for choosing a
//! GNN over static embeddings prescribes.

use fis_graph::BipartiteGraph;
use fis_linalg::{func, vec_ops, Matrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::model::{Hops, RfGnn};

impl RfGnn {
    /// Embeds every *sample* node of `graph`, one row per sample, in the
    /// dense sample-id order. Deterministic for a fixed model and config
    /// seed.
    pub fn embed_samples(&self, graph: &BipartiteGraph) -> Matrix {
        self.embed_nodes(graph, &(0..graph.n_samples()).collect::<Vec<_>>())
    }

    /// Embeds an arbitrary set of unified node indices (samples or MACs).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `graph`.
    pub fn embed_nodes(&self, graph: &BipartiteGraph, nodes: &[usize]) -> Matrix {
        for &n in nodes {
            assert!(n < graph.n_nodes(), "node {n} out of bounds");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x1AFE1D);
        let mut out = Matrix::zeros(nodes.len(), self.config.dim);
        // Average several stochastic neighborhood samples, then project
        // back onto the unit sphere; this shrinks the sampling variance of
        // the final representations.
        for _pass in 0..self.config.inference_passes {
            for (chunk_start, chunk) in nodes.chunks(512).enumerate().map(|(i, c)| (i * 512, c)) {
                let hops = self.sample_hops(graph, &mut rng, None, chunk);
                let values = self.forward_values(&hops, None);
                for i in 0..chunk.len() {
                    vec_ops::axpy(out.row_mut(chunk_start + i), 1.0, values.row(i));
                }
            }
        }
        out.scale(1.0 / self.config.inference_passes as f64)
            .l2_normalize_rows()
    }

    /// Embeds one scan that is *not* a node of `graph`.
    ///
    /// `neighbors` lists the unified indices of the MAC nodes the scan
    /// heard, with their positive `f(RSS)` weights. The scan's hop-0
    /// representation is the weight-normalized mean of those MACs' learned
    /// features; K-hop aggregation then proceeds through the training
    /// graph. Averages `inference_passes` stochastic passes seeded by
    /// `seed` alone, so for a fixed `(model, scan, seed)` the embedding is
    /// bit-identical regardless of batching or thread count.
    ///
    /// # Errors
    ///
    /// Returns a message if `neighbors` is empty (nothing known to attach
    /// to), lists an out-of-bounds node, or carries a non-positive weight.
    pub fn infer_scan(
        &self,
        graph: &BipartiteGraph,
        neighbors: &[(usize, f64)],
        seed: u64,
    ) -> Result<Vec<f64>, String> {
        if neighbors.is_empty() {
            return Err("scan has no neighbors in the training graph".to_owned());
        }
        for &(n, w) in neighbors {
            if n >= graph.n_nodes() {
                return Err(format!("neighbor node {n} out of bounds"));
            }
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("neighbor weight {w} must be positive and finite"));
            }
        }
        let feature = self.scan_feature(neighbors);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = vec![0.0; self.config.dim];
        for _pass in 0..self.config.inference_passes {
            let hops = self.sample_hops(graph, &mut rng, Some(neighbors), &[graph.n_nodes()]);
            let values = self.forward_values(&hops, Some(&feature));
            vec_ops::axpy(&mut out, 1.0, values.row(0));
        }
        vec_ops::scale(&mut out, 1.0 / self.config.inference_passes as f64);
        let norm = out.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            vec_ops::scale(&mut out, 1.0 / norm);
        }
        Ok(out)
    }

    /// The hop-0 row of a virtual scan node: the weight-normalized mean of
    /// its neighbors' learned features.
    fn scan_feature(&self, neighbors: &[(usize, f64)]) -> Vec<f64> {
        let total: f64 = neighbors.iter().map(|&(_, w)| w).sum();
        let mut feature = vec![0.0; self.config.dim];
        for &(n, w) in neighbors {
            vec_ops::axpy(&mut feature, w / total, self.features.row(n));
        }
        feature
    }

    /// Value-only mirror of the tape [`RfGnn::forward`] over the same
    /// sampled neighborhood. `scan_row` is the hop-0 row of the virtual scan
    /// node, which [`RfGnn::infer_scan`] draws for as the only node, so it
    /// is `hops.leaves[0]`.
    fn forward_values(&self, hops: &Hops, scan_row: Option<&[f64]>) -> Matrix {
        let mut reps = Matrix::zeros(hops.leaves.len(), self.config.dim);
        for (i, &n) in hops.leaves.iter().enumerate() {
            let row = match scan_row {
                Some(row) if i == 0 => row,
                _ => self.features.row(n),
            };
            reps.row_mut(i).copy_from_slice(row);
        }
        for (k, groups) in hops.groups.iter().enumerate().rev() {
            let self_reps = reps.gather_rows(&(0..groups.rows()).collect::<Vec<_>>());
            let lin = self_reps
                .hcat(&groups.aggregate(&reps))
                .matmul(&self.weights[k]);
            let act = if k == 0 { lin } else { lin.map(func::relu) };
            reps = act.l2_normalize_rows();
        }
        reps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RfGnnConfig;
    use crate::model::ModelVars;
    use fis_autograd::Tape;
    use fis_synth::BuildingConfig;

    fn graph(seed: u64) -> BipartiteGraph {
        let b = BuildingConfig::new("t", 3)
            .samples_per_floor(20)
            .aps_per_floor(6)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        BipartiteGraph::from_samples(b.samples()).unwrap()
    }

    fn trained(seed: u64) -> (BipartiteGraph, RfGnn) {
        let graph = graph(seed);
        let config = RfGnnConfig::new(8)
            .epochs(3)
            .walks_per_node(2)
            .neighbor_samples(vec![5, 3])
            .seed(seed);
        let model = RfGnn::train(&graph, &config).unwrap();
        (graph, model)
    }

    /// The tape forward and the value pass evaluate the same `sample_hops`
    /// plan to the same bits: both attention settings, 1-3 hops, sample
    /// nodes, MAC nodes and the virtual scan node.
    #[test]
    fn infer_nodes_bit_identical_to_tape_embedding() {
        let graph = graph(11);
        let samples: Vec<usize> = (0..graph.n_samples()).collect();
        let macs: Vec<usize> = (0..graph.n_macs()).map(|j| graph.mac_node(j)).collect();
        let scan: Vec<(usize, f64)> = (0..3)
            .map(|j| (graph.mac_node(j), 40.0 + j as f64))
            .collect();
        let virt = graph.n_nodes();
        for attention in [true, false] {
            for sizes in [vec![5], vec![5, 3], vec![5, 3, 2]] {
                let mut config = RfGnnConfig::new(8).neighbor_samples(sizes).seed(11);
                if !attention {
                    config = config.without_attention();
                }
                let model = RfGnn::init(&graph, &config);
                let plan = |nodes: &[usize], scan: Option<&[(usize, f64)]>| {
                    model.sample_hops(&graph, &mut ChaCha8Rng::seed_from_u64(7), scan, nodes)
                };
                let row = model.scan_feature(&scan);
                let cases = [
                    (&samples[..], None, model.features().clone()),
                    (&macs[..], None, model.features().clone()),
                    (
                        &[virt][..],
                        Some(&scan[..]),
                        model.features().vcat(&Matrix::from_vec(1, 8, row.clone())),
                    ),
                ];
                for (nodes, scan, features) in cases {
                    let mut tape = Tape::new();
                    let vars = ModelVars {
                        features: tape.leaf(features),
                        weights: model
                            .weights()
                            .iter()
                            .map(|w| tape.leaf(w.clone()))
                            .collect(),
                    };
                    let reps = model.forward(&mut tape, &vars, plan(nodes, scan));
                    let values = model.forward_values(&plan(nodes, scan), scan.map(|_| &row[..]));
                    assert_eq!(
                        tape.value(reps).as_slice(),
                        values.as_slice(),
                        "forward paths diverged: attention {attention}, {} hops, {} nodes",
                        config.hops,
                        nodes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn infer_scan_is_deterministic_and_unit_norm() {
        let (graph, model) = trained(12);
        let nbrs: Vec<(usize, f64)> = (0..3)
            .map(|j| (graph.mac_node(j), 40.0 + j as f64))
            .collect();
        let a = model.infer_scan(&graph, &nbrs, 99).unwrap();
        let b = model.infer_scan(&graph, &nbrs, 99).unwrap();
        assert_eq!(a, b);
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        // A different seed draws different neighborhoods.
        let c = model.infer_scan(&graph, &nbrs, 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn infer_scan_rejects_degenerate_inputs() {
        let (graph, model) = trained(13);
        assert!(model.infer_scan(&graph, &[], 1).is_err());
        assert!(model
            .infer_scan(&graph, &[(graph.n_nodes() + 5, 10.0)], 1)
            .is_err());
        assert!(model.infer_scan(&graph, &[(0, -3.0)], 1).is_err());
        assert!(model.infer_scan(&graph, &[(0, f64::NAN)], 1).is_err());
    }

    #[test]
    fn from_parts_validates_shapes() {
        let (_, model) = trained(14);
        let config = model.config().clone();
        let ok = RfGnn::from_parts(
            config.clone(),
            model.features().clone(),
            model.weights().to_vec(),
        );
        assert!(ok.is_ok());
        let bad = RfGnn::from_parts(
            config.clone(),
            Matrix::zeros(4, 3),
            model.weights().to_vec(),
        );
        assert!(bad.is_err());
        let bad2 = RfGnn::from_parts(config, model.features().clone(), vec![]);
        assert!(bad2.is_err());
    }
}
