//! # dd-part
//!
//! Mesh partitioning — the workspace's stand-in for METIS/SCOTCH, used to
//! split a mesh into `N` balanced, connected subdomains with small
//! interfaces (§2 of the paper: "partitioned into N non-overlapping meshes
//! using graph partitioners such as METIS or SCOTCH").
//!
//! One algorithm is provided: [`partition_rcb`], recursive coordinate
//! bisection on element centroids ([`partition_mesh_rcb`] for a mesh). The
//! meshes here are structured boxes, on which median splits along the
//! longest axis give balanced, connected parts with straight interfaces.
//! It returns an element → part map. [`quality`] computes edge cut,
//! imbalance, and per-part connectivity for tests and benches.

use std::collections::VecDeque;

/// Edge cut, balance and connectivity statistics of a partition.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionQuality {
    /// Number of dual-graph edges crossing between parts.
    pub edge_cut: usize,
    /// max part size / average part size.
    pub imbalance: f64,
    /// Number of parts that induce a connected subgraph.
    pub connected_parts: usize,
    /// Number of parts.
    pub nparts: usize,
}

/// Compute quality statistics for a partition of the graph `adj`.
pub fn quality(adj: &[Vec<u32>], part: &[u32], nparts: usize) -> PartitionQuality {
    let n = adj.len();
    assert_eq!(part.len(), n);
    let mut sizes = vec![0usize; nparts];
    for &p in part {
        sizes[p as usize] += 1;
    }
    let mut cut = 0usize;
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            if part[u] != part[v as usize] && u < v as usize {
                cut += 1;
            }
        }
    }
    let avg = n as f64 / nparts as f64;
    let imbalance = sizes.iter().copied().max().unwrap_or(0) as f64 / avg;
    // Connectivity per part via BFS.
    let mut connected = 0;
    let mut visited = vec![false; n];
    for p in 0..nparts as u32 {
        let members: Vec<usize> = (0..n).filter(|&u| part[u] == p).collect();
        if members.is_empty() {
            continue;
        }
        for &m in &members {
            visited[m] = false;
        }
        let mut queue = VecDeque::new();
        visited[members[0]] = true;
        queue.push_back(members[0]);
        let mut reached = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                let v = v as usize;
                if part[v] == p && !visited[v] {
                    visited[v] = true;
                    reached += 1;
                    queue.push_back(v);
                }
            }
        }
        if reached == members.len() {
            connected += 1;
        }
    }
    PartitionQuality {
        edge_cut: cut,
        imbalance,
        connected_parts: connected,
        nparts,
    }
}

/// Recursive coordinate bisection on points (`dim`-interleaved coordinates,
/// e.g. element centroids). Splits along the longest axis at the median.
pub fn partition_rcb(points: &[f64], dim: usize, nparts: usize) -> Vec<u32> {
    let n = points.len() / dim;
    assert_eq!(points.len(), n * dim);
    let mut part = vec![0u32; n];
    fn recurse(
        points: &[f64],
        dim: usize,
        part: &mut [u32],
        mut members: Vec<usize>,
        first_part: u32,
        count: usize,
    ) {
        if count <= 1 || members.len() <= 1 {
            for &m in &members {
                part[m] = first_part;
            }
            return;
        }
        // Longest axis of the bounding box.
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for &m in &members {
            for d in 0..dim {
                let x = points[m * dim + d];
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let axis = (0..dim)
            .max_by(|&a, &b| (hi[a] - lo[a]).partial_cmp(&(hi[b] - lo[b])).unwrap())
            .unwrap();
        let left_count = count / 2;
        let split = members.len() * left_count / count;
        members.sort_by(|&a, &b| {
            points[a * dim + axis]
                .partial_cmp(&points[b * dim + axis])
                .unwrap()
        });
        let right = members.split_off(split);
        recurse(points, dim, part, members, first_part, left_count);
        recurse(
            points,
            dim,
            part,
            right,
            first_part + left_count as u32,
            count - left_count,
        );
    }
    recurse(points, dim, &mut part, (0..n).collect(), 0, nparts);
    part
}

/// Geometric partition of a mesh via element centroids.
pub fn partition_mesh_rcb(mesh: &dd_mesh::Mesh, nparts: usize) -> Vec<u32> {
    let dim = mesh.dim();
    let mut pts = Vec::with_capacity(mesh.n_elements() * dim);
    for e in 0..mesh.n_elements() {
        pts.extend(mesh.element_centroid(e));
    }
    partition_rcb(&pts, dim, nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_mesh::Mesh;

    #[test]
    fn rcb_balanced_and_connected_on_mesh() {
        let m = Mesh::unit_square(12, 12);
        let p = partition_mesh_rcb(&m, 8);
        let q = quality(&m.dual_graph(), &p, 8);
        assert!(q.imbalance <= 1.1, "imbalance {}", q.imbalance);
        assert_eq!(q.connected_parts, 8);
    }

    #[test]
    fn rcb_3d() {
        let m = Mesh::unit_cube(6, 6, 6);
        let p = partition_mesh_rcb(&m, 8);
        let q = quality(&m.dual_graph(), &p, 8);
        assert!(q.imbalance <= 1.05, "{q:?}");
        assert_eq!(q.connected_parts, 8);
    }

    #[test]
    fn single_part_trivial() {
        let m = Mesh::unit_square(4, 4);
        let p = partition_mesh_rcb(&m, 1);
        assert_eq!(p.len(), m.n_elements());
        assert!(p.iter().all(|&x| x == 0));
    }

    #[test]
    fn quality_counts_cut_edges_once() {
        // two vertices, one edge, split apart → cut = 1
        let adj = vec![vec![1u32], vec![0u32]];
        let q = quality(&adj, &[0, 1], 2);
        assert_eq!(q.edge_cut, 1);
        assert_eq!(q.connected_parts, 2);
    }
}
