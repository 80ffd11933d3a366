//! Clustering algorithms over embedding vectors.
//!
//! FIS-ONE groups RF-GNN signal-sample embeddings into as many clusters as
//! the building has floors (§IV-A) using proximity-based agglomerative
//! clustering with the *average* inter-cluster distance
//! `d(C_i, C_j) = (1/|C_i||C_j|) Σ Σ ‖r − r'‖₂` — i.e. average linkage.
//! The K-means ablation of Figure 8(c,d) is provided alongside.
//!
//! # Example
//!
//! ```
//! use fis_cluster::hierarchical::average_linkage;
//!
//! // Two obvious groups on the line.
//! let points = vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]];
//! let labels = average_linkage(&points, 2)?;
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[2], labels[3]);
//! assert_ne!(labels[0], labels[2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod hierarchical;
pub mod kmeans;
pub mod partition;

pub use hierarchical::average_linkage;
pub use kmeans::{kmeans, KMeansConfig};
pub use partition::{cluster_members, cluster_sizes, relabel_compact};
