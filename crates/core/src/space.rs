//! The reference space a fitted model answers 1-NN queries in.
//!
//! A [`ReferenceSpace`] bundles everything one `assign` decision reads:
//! the encoder, the bipartite graph it runs over, the MAC → index lookup,
//! the reference embeddings of the graph's scans, which of those scans
//! heard nothing, and the [`VpTree`] over the rest. A base model holds
//! one space; an extended model holds a second one over base + extension
//! scans (see [`crate::extension`]). [`ReferenceSpace::new`] is the only
//! place reference embeddings are computed and the VP-tree is built.

use std::collections::HashMap;

use fis_gnn::RfGnn;
use fis_graph::BipartiteGraph;
use fis_obs::{self as obs, Level};
use fis_types::{MacAddr, SignalSample};

use crate::error::FisError;
use crate::nn::VpTree;

/// Encoder, graph, references and 1-NN index of one embedding space;
/// see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct ReferenceSpace {
    pub(crate) gnn: RfGnn,
    pub(crate) graph: BipartiteGraph,
    /// O(1) MAC → interned index lookup over `graph.macs()`.
    pub(crate) mac_index: HashMap<MacAddr, usize>,
    /// Inference embedding of every graph scan, in sample order
    /// (all-zero rows for scans that heard nothing).
    pub(crate) references: Vec<Vec<f64>>,
    /// `true` for scans that heard nothing: their placeholder rows are
    /// never neighbours.
    pub(crate) empty: Vec<bool>,
    /// Exact 1-NN index over the non-empty `references`, bit-identical to
    /// the linear scan by the [`crate::nn`] exactness contract.
    pub(crate) nn: VpTree,
}

impl ReferenceSpace {
    /// Builds the space over `scans`, the samples `graph` was built from.
    /// `stored` reference rows (from an artifact) are checked for count
    /// and dimension; without them every scan is re-embedded through the
    /// content-seeded inference pass a streaming scan takes, one scan per
    /// work item, so the rows are bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`FisError::Model`] for stored rows of the wrong shape,
    /// [`FisError::Inference`] if re-embedding a scan fails.
    pub(crate) fn new(
        gnn: RfGnn,
        graph: BipartiteGraph,
        scans: &[SignalSample],
        stored: Option<Vec<Vec<f64>>>,
    ) -> Result<Self, FisError> {
        let mac_index: HashMap<MacAddr, usize> = graph
            .macs()
            .iter()
            .enumerate()
            .map(|(j, &m)| (m, j))
            .collect();
        let dim = gnn.dim();
        let references = match stored {
            Some(rows) => {
                if rows.len() != scans.len() {
                    return Err(FisError::Model(format!(
                        "{} reference embeddings for {} reference scans",
                        rows.len(),
                        scans.len()
                    )));
                }
                if rows.iter().any(|r| r.len() != dim) {
                    return Err(FisError::Model(format!(
                        "reference dimension disagrees with embedding dim {dim}"
                    )));
                }
                rows
            }
            None => {
                let _span = obs::span(Level::Debug, "pipeline", "reference_embed");
                fis_parallel::par_map(scans, 1, |_, scan| {
                    embed(&gnn, &graph, &mac_index, scan).unwrap_or_else(|| Ok(vec![0.0; dim]))
                })
                .into_iter()
                .collect::<Result<Vec<_>, String>>()
                .map_err(FisError::Inference)?
            }
        };
        let empty: Vec<bool> = scans.iter().map(SignalSample::is_empty).collect();
        let nn = {
            let _span = obs::span(Level::Debug, "pipeline", "vptree_build");
            VpTree::build(&references, |i| !empty[i])
        };
        Ok(Self {
            gnn,
            graph,
            mac_index,
            references,
            empty,
            nn,
        })
    }

    /// Embeds `scan` in this space; `None` when it hears no MAC of this
    /// space's vocabulary.
    pub(crate) fn embed(&self, scan: &SignalSample) -> Option<Result<Vec<f64>, String>> {
        embed(&self.gnn, &self.graph, &self.mac_index, scan)
    }
}

/// The content-seeded inference pass over the scan's known MACs, with
/// `f(RSS)` edge weights; `None` when no MAC is known.
fn embed(
    gnn: &RfGnn,
    graph: &BipartiteGraph,
    mac_index: &HashMap<MacAddr, usize>,
    scan: &SignalSample,
) -> Option<Result<Vec<f64>, String>> {
    let nbrs: Vec<(usize, f64)> = scan
        .iter()
        .filter_map(|(mac, rssi)| {
            mac_index
                .get(&mac)
                .map(|&j| (graph.mac_node(j), rssi.edge_weight()))
        })
        .collect();
    (!nbrs.is_empty()).then(|| gnn.infer_scan(graph, &nbrs, scan_seed(gnn.config().seed, scan)))
}

/// Derives the per-scan inference seed from the model seed and the scan's
/// readings (FNV-1a over MAC/RSSI bits). Content-only on purpose: the
/// same scan gets the same embedding no matter when, where, or next to
/// which other scans it is served.
fn scan_seed(model_seed: u64, scan: &SignalSample) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: [u8; 8]| {
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    eat(model_seed.to_le_bytes());
    for (mac, rssi) in scan.iter() {
        eat(mac.to_u64().to_le_bytes());
        eat(rssi.dbm().to_bits().to_le_bytes());
    }
    h
}
