//! Agglomerative hierarchical clustering with average linkage.
//!
//! [`average_linkage`] uses the **nearest-neighbor-chain** algorithm:
//! follow nearest-neighbor links until a reciprocal pair is found, merge
//! it, and continue from the remaining chain. Average linkage (UPGMA) is
//! *reducible*, so merging a reciprocal pair never invalidates the chain
//! below it and the full dendrogram is built in O(n²) time on top of an
//! O(n²) distance matrix (computed in parallel) — versus the O(n³)
//! closest-pair rescan kept in this module's tests as the reference oracle.
//!
//! Both produce identical partitions whenever pairwise dissimilarities are
//! distinct (ties can be merged in a different order, which may change the
//! cut only when equal distances exist).

use fis_parallel::par_row_chunks_mut;

/// Average-linkage agglomerative clustering down to `k` clusters.
///
/// `points` are dense vectors of equal dimension. Returns one cluster label
/// per point, compacted to `0..k`.
///
/// # Errors
///
/// Returns an error if `points` is empty, dimensions are inconsistent,
/// `k == 0`, or `k > points.len()`.
pub fn average_linkage(points: &[Vec<f64>], k: usize) -> Result<Vec<usize>, String> {
    validate(points, k)?;
    let n = points.len();
    if k == n {
        return Ok((0..n).collect());
    }

    let mut dist = pairwise_distances(points);
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<usize> = vec![1; n];
    let mut assignment: Vec<usize> = (0..n).collect();

    // Build the FULL dendrogram with the nearest-neighbor chain. The
    // chain discovers reciprocal pairs out of height order, so the
    // partition at k clusters is recovered afterwards by replaying the
    // n - k lowest merges — exactly the greedy closest-pair cut.
    let mut merges: Vec<(f64, usize, usize)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    while merges.len() < n - 1 {
        if chain.is_empty() {
            let seed = active
                .iter()
                .position(|&a| a)
                .expect("at least one cluster remains");
            chain.push(seed);
        }
        loop {
            let c = *chain.last().expect("chain is non-empty");
            let prev = chain.len().checked_sub(2).map(|i| chain[i]);
            let nn = nearest_active(&dist, &active, n, c, prev);
            if prev == Some(nn) {
                // Reciprocal nearest neighbors: merge and resume from the
                // shortened chain.
                chain.pop();
                chain.pop();
                merges.push((dist[c * n + nn], c.min(nn), c.max(nn)));
                merge(c, nn, &mut dist, &mut active, &mut size, &mut assignment, n);
                break;
            }
            chain.push(nn);
        }
    }

    // Cut the dendrogram: apply the n - k smallest merges. For reducible
    // linkages the chain finds the same merge set as the greedy
    // algorithm, so this reproduces the greedy partition whenever merge
    // heights are distinct (stable sort fixes the order on exact ties).
    merges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite linkage heights"));
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(_, a, b) in merges.iter().take(n - k) {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        // Root at the smaller index so labels mirror fold-into-min.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi] = lo;
    }
    let labels: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    Ok(crate::partition::relabel_compact(&labels))
}

/// Full symmetric pairwise Euclidean distance matrix, rows computed in
/// parallel across the thread budget.
fn pairwise_distances(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    let mut dist = vec![0.0f64; n * n];
    // Each worker owns whole rows, recomputing the symmetric entry
    // rather than sharing writes; every element is produced by exactly
    // one worker with serial arithmetic order, so the matrix is
    // bit-identical for any thread count.
    par_row_chunks_mut(&mut dist, n, 4096 / n.max(1), |first_row, chunk| {
        for (k, row) in chunk.chunks_mut(n).enumerate() {
            let i = first_row + k;
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = euclidean(&points[i], &points[j]);
            }
        }
    });
    dist
}

/// Nearest active cluster to `c` (excluding itself), scanning in index
/// order with ties broken toward `prefer` first and then the smallest
/// index — deterministic regardless of thread budget.
fn nearest_active(
    dist: &[f64],
    active: &[bool],
    n: usize,
    c: usize,
    prefer: Option<usize>,
) -> usize {
    let row = &dist[c * n..(c + 1) * n];
    let mut nn = usize::MAX;
    let mut best = f64::INFINITY;
    if let Some(p) = prefer {
        if active[p] {
            nn = p;
            best = row[p];
        }
    }
    for (j, (&d, &a)) in row.iter().zip(active.iter()).enumerate() {
        if !a || j == c {
            continue;
        }
        if d < best || (d == best && j < nn && Some(nn) != prefer) {
            best = d;
            nn = j;
        }
    }
    debug_assert!(nn != usize::MAX, "no active neighbor found");
    nn
}

/// Merges clusters `a` and `b` into `min(a, b)` with the Lance–Williams
/// average-linkage (UPGMA) distance update:
/// `d(a∪b, l) = (|a| d(a,l) + |b| d(b,l)) / (|a| + |b|)`.
fn merge(
    a: usize,
    b: usize,
    dist: &mut [f64],
    active: &mut [bool],
    size: &mut [usize],
    assignment: &mut [usize],
    n: usize,
) {
    let (target, other) = if a < b { (a, b) } else { (b, a) };
    let (st, so) = (size[target] as f64, size[other] as f64);
    for l in 0..n {
        if !active[l] || l == target || l == other {
            continue;
        }
        let d_new = (st * dist[target * n + l] + so * dist[other * n + l]) / (st + so);
        dist[target * n + l] = d_new;
        dist[l * n + target] = d_new;
    }
    active[other] = false;
    size[target] += size[other];
    for slot in assignment.iter_mut() {
        if *slot == other {
            *slot = target;
        }
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn validate(points: &[Vec<f64>], k: usize) -> Result<(), String> {
    if points.is_empty() {
        return Err("cannot cluster zero points".to_owned());
    }
    if k == 0 {
        return Err("k must be at least 1".to_owned());
    }
    if k > points.len() {
        return Err(format!("k = {k} exceeds number of points {}", points.len()));
    }
    let d = points[0].len();
    if d == 0 {
        return Err("points must have at least one dimension".to_owned());
    }
    if let Some(bad) = points.iter().position(|p| p.len() != d) {
        return Err(format!(
            "point {bad} has dimension {} != {d}",
            points[bad].len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The O(n³) oracle: rescan all active pairs for the global closest pair
    /// before every merge. The nearest-neighbor chain must agree with it
    /// whenever pairwise distances are distinct.
    fn average_linkage_naive(points: &[Vec<f64>], k: usize) -> Result<Vec<usize>, String> {
        validate(points, k)?;
        let n = points.len();
        if k == n {
            return Ok((0..n).collect());
        }

        let mut dist = pairwise_distances(points);
        let mut active: Vec<bool> = vec![true; n];
        let mut size: Vec<usize> = vec![1; n];
        let mut assignment: Vec<usize> = (0..n).collect();

        let mut clusters_left = n;
        while clusters_left > k {
            // Find the closest active pair.
            let (mut bi, mut bj, mut best) = (usize::MAX, usize::MAX, f64::INFINITY);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !active[j] {
                        continue;
                    }
                    let d = dist[i * n + j];
                    if d < best {
                        best = d;
                        bi = i;
                        bj = j;
                    }
                }
            }
            debug_assert!(bi != usize::MAX, "no active pair found");
            merge(
                bi,
                bj,
                &mut dist,
                &mut active,
                &mut size,
                &mut assignment,
                n,
            );
            clusters_left -= 1;
        }

        Ok(crate::partition::relabel_compact(&assignment))
    }

    #[test]
    fn two_obvious_blobs() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![9.0, 9.0],
            vec![9.1, 8.9],
        ];
        let labels = average_linkage(&pts, 2).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn k_equals_n_is_identity() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert_eq!(average_linkage(&pts, 3).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn k_one_merges_everything() {
        let pts = vec![vec![0.0], vec![1.0], vec![100.0]];
        let labels = average_linkage(&pts, 1).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn exact_cluster_count() {
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i / 10) as f64 * 10.0 + (i % 10) as f64 * 0.01])
            .collect();
        for k in 1..=5 {
            let labels = average_linkage(&pts, k).unwrap();
            let mut distinct: Vec<usize> = labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), k);
            assert_eq!(distinct, (0..k).collect::<Vec<_>>(), "labels compact");
        }
    }

    #[test]
    fn average_linkage_resists_chaining() {
        // A chain of close points plus a separate tight pair: single
        // linkage would swallow the chain one way; average linkage splits
        // the chain from the pair cleanly.
        let pts = vec![
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![10.0],
            vec![10.1],
        ];
        let labels = average_linkage(&pts, 2).unwrap();
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn duplicate_points_cluster_together() {
        let pts = vec![vec![1.0, 1.0]; 4];
        let labels = average_linkage(&pts, 1).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn rejects_invalid_input() {
        for f in [average_linkage, average_linkage_naive] {
            assert!(f(&[], 1).is_err());
            assert!(f(&[vec![1.0]], 0).is_err());
            assert!(f(&[vec![1.0]], 2).is_err());
            assert!(f(&[vec![1.0], vec![1.0, 2.0]], 1).is_err());
            assert!(f(&[vec![]], 1).is_err());
        }
    }

    /// Deterministic pseudo-random points with effectively distinct
    /// pairwise distances (so the chain and naive dendrograms coincide).
    fn scattered_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..d).map(|_| next() * 10.0 - 5.0).collect())
            .collect()
    }

    #[test]
    fn chain_matches_naive_reference() {
        for (n, d, seed) in [(24usize, 2usize, 1u64), (40, 3, 2), (65, 4, 3)] {
            let pts = scattered_points(n, d, seed);
            for k in [1usize, 2, 3, 5, 8] {
                let fast = average_linkage(&pts, k).unwrap();
                let slow = average_linkage_naive(&pts, k).unwrap();
                assert_eq!(fast, slow, "n={n} d={d} seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn chain_deterministic_across_thread_budgets() {
        let pts = scattered_points(80, 3, 7);
        fis_parallel::set_thread_budget(1);
        let serial = average_linkage(&pts, 4).unwrap();
        fis_parallel::set_thread_budget(4);
        let parallel = average_linkage(&pts, 4).unwrap();
        fis_parallel::set_thread_budget(0);
        assert_eq!(serial, parallel);
    }
}
