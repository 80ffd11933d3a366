//! The RF-GNN encoder: K-hop sampled, RSS-attention-weighted aggregation.

use std::sync::Arc;

use fis_autograd::tape::RowGroups;
use fis_autograd::{Tape, Var};
use fis_graph::BipartiteGraph;
use fis_linalg::{init, Matrix};
use rand::Rng;

use crate::config::RfGnnConfig;

/// A trained RF-GNN encoder.
///
/// Holds the learned initial node features `r^0` and the per-hop weight
/// matrices `W_k`. Because the encoder is *inductive* (it aggregates
/// sampled neighborhoods at inference time), it can embed nodes of a graph
/// that grew after training — the paper's motivation for choosing a GNN
/// over static embedding methods.
#[derive(Debug, Clone)]
pub struct RfGnn {
    pub(crate) config: RfGnnConfig,
    pub(crate) features: Matrix,
    pub(crate) weights: Vec<Matrix>,
}

/// One sampled K-hop neighborhood, the plan both forward passes evaluate.
///
/// `groups[k]` aggregates the rows of hop `k + 1`'s node list into hop
/// `k`'s (outermost hop first); every node list starts with the previous
/// hop's nodes, so the first `groups[k].rows()` rows of hop `k + 1` are
/// the self-representations, and node `i` of the drawn-for list is row `i`
/// of every hop, `leaves` included.
pub(crate) struct Hops {
    pub groups: Vec<RowGroups>,
    /// The innermost node list: the rows of `r^0` the plan reads.
    pub leaves: Vec<usize>,
}

/// Leaf variables for one forward/backward pass.
pub(crate) struct ModelVars {
    pub features: Var,
    pub weights: Vec<Var>,
}

impl RfGnn {
    /// Initializes an untrained model for `graph` (used by the trainer).
    pub(crate) fn init(graph: &BipartiteGraph, config: &RfGnnConfig) -> Self {
        let d = config.dim;
        let features = init::uniform_matrix(graph.n_nodes(), d, -0.5, 0.5, config.seed ^ 0xFEED);
        let weights = (0..config.hops)
            .map(|k| init::xavier_uniform(2 * d, d, config.seed ^ (0xBEEF + k as u64)))
            .collect();
        Self {
            config: config.clone(),
            features,
            weights,
        }
    }

    /// Reassembles a model from its persisted parts, validating shapes.
    ///
    /// This is the load-side counterpart of serializing the learned
    /// `features` / `weights`; see `fis_gnn::persist`.
    ///
    /// # Errors
    ///
    /// Returns a message if the config is inconsistent or any matrix shape
    /// disagrees with it.
    pub fn from_parts(
        config: RfGnnConfig,
        features: Matrix,
        weights: Vec<Matrix>,
    ) -> Result<Self, String> {
        config.validate()?;
        let d = config.dim;
        if features.cols() != d {
            return Err(format!(
                "feature matrix is {}x{}, expected {d} columns",
                features.rows(),
                features.cols()
            ));
        }
        if weights.len() != config.hops {
            return Err(format!(
                "{} weight matrices for {} hops",
                weights.len(),
                config.hops
            ));
        }
        for (k, w) in weights.iter().enumerate() {
            if w.shape() != (2 * d, d) {
                return Err(format!(
                    "weight matrix W{k} is {}x{}, expected {}x{d}",
                    w.rows(),
                    w.cols(),
                    2 * d
                ));
            }
        }
        Ok(Self {
            config,
            features,
            weights,
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &RfGnnConfig {
        &self.config
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The learned initial node features `r^0` (one row per graph node).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The learned per-hop weight matrices `W_k`, outermost hop first.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Registers the model parameters as tape leaves.
    pub(crate) fn leaves(&self, tape: &mut Tape) -> ModelVars {
        ModelVars {
            features: tape.leaf(self.features.clone()),
            weights: self.weights.iter().map(|w| tape.leaf(w.clone())).collect(),
        }
    }

    /// Draws the K-hop neighborhood of `nodes`, outermost hop first: the
    /// only RNG-consuming part of the forward pass, shared by the training
    /// tape ([`RfGnn::forward`]) and the value-only pass
    /// (`RfGnn::forward_values`).
    ///
    /// Node index `graph.n_nodes()` denotes a virtual scan node whose
    /// neighbors are `scan`. Each hop's node list starts with the previous
    /// hop's nodes (for the CONCAT self-representation) and extends with
    /// the sampled neighbors, deduplicated through one dense stamp vector
    /// so the lists stay bounded by the graph size.
    pub(crate) fn sample_hops<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        rng: &mut R,
        scan: Option<&[(usize, f64)]>,
        nodes: &[usize],
    ) -> Hops {
        let virt = graph.n_nodes();
        let mut slot: Vec<u32> = vec![u32::MAX; virt + 1];
        let mut list: Vec<usize> = nodes.to_vec();
        let mut sampled: Vec<(usize, f64)> = Vec::new();
        let mut groups = Vec::with_capacity(self.config.hops);
        for &k in &self.config.neighbor_samples {
            let n = list.len();
            for (i, &node) in list.iter().enumerate() {
                slot[node] = i as u32;
            }
            let mut hop = RowGroups::with_capacity(n, n * k.max(1));
            for i in 0..n {
                let node = list[i];
                let nbrs = match scan {
                    Some(nbrs) if node == virt => nbrs,
                    _ => graph.neighbors(node),
                };
                sampled.clear();
                self.sample_from_into(nbrs, rng, node, k, &mut sampled);
                let total: f64 = sampled.iter().map(|&(_, w)| w).sum();
                for &(nbr, w) in &sampled {
                    if slot[nbr] == u32::MAX {
                        slot[nbr] = list.len() as u32;
                        list.push(nbr);
                    }
                    hop.push_entry(slot[nbr] as usize, w / total);
                }
                hop.finish_row();
            }
            for &node in &list {
                slot[node] = u32::MAX;
            }
            groups.push(hop);
        }
        Hops {
            groups,
            leaves: list,
        }
    }

    /// Tape forward pass over a sampled neighborhood, returning the
    /// `(|nodes| x dim)` representation variable of the nodes `hops` was
    /// drawn for.
    pub(crate) fn forward(&self, tape: &mut Tape, vars: &ModelVars, hops: Hops) -> Var {
        let mut reps = tape.gather_rows(vars.features, Arc::new(hops.leaves));
        for (k, groups) in hops.groups.into_iter().enumerate().rev() {
            let self_reps = tape.gather_rows(reps, Arc::new((0..groups.rows()).collect()));
            let agg = tape.aggregate(reps, Arc::new(groups));
            let cat = tape.hcat(self_reps, agg);
            let lin = tape.matmul(cat, vars.weights[k]);
            // σ(·) on the inner hops only. The outermost hop (k = 0) stays
            // linear before normalization: with a ReLU there, embeddings
            // would be confined to the non-negative orthant, negative-pair
            // dot products could never go below zero, and the τ = 4
            // negative terms would pull every embedding toward mutual
            // orthogonality — a degenerate optimum with no floor structure
            // (standard GraphSAGE practice).
            let act = if k == 0 { lin } else { tape.relu(lin) };
            reps = tape.l2_normalize_rows(act);
        }
        reps
    }

    /// Draws `k` neighbors of `node` with replacement from `nbrs`, appending
    /// them with their normalization weights to `out`. With attention on,
    /// both the draw probability and the aggregation weight are
    /// proportional to `f(RSS)`; the ablation draws uniformly and
    /// aggregates with equal weights (mean aggregator).
    ///
    /// Isolated nodes draw a single self-loop of weight 1, so their
    /// aggregate is their own representation rather than a panic.
    fn sample_from_into<R: Rng + ?Sized>(
        &self,
        nbrs: &[(usize, f64)],
        rng: &mut R,
        node: usize,
        k: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        if nbrs.is_empty() {
            out.push((node, 1.0));
            return;
        }
        out.reserve(k);
        if self.config.attention {
            let total: f64 = nbrs.iter().map(|&(_, w)| w).sum();
            for _ in 0..k {
                let mut x = rng.gen_range(0.0..total);
                let mut pick = *nbrs.last().expect("non-empty");
                for &(n, w) in nbrs {
                    if x < w {
                        pick = (n, w);
                        break;
                    }
                    x -= w;
                }
                out.push(pick);
            }
        } else {
            for _ in 0..k {
                let (n, _) = nbrs[rng.gen_range(0..nbrs.len())];
                out.push((n, 1.0));
            }
        }
    }
}
