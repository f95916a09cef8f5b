//! # dd-part
//!
//! Graph partitioning — the workspace's replacement for METIS/SCOTCH, used
//! to split the dual graph of a mesh into `N` balanced, connected
//! subdomains with small interfaces (§2 of the paper: "partitioned into N
//! non-overlapping meshes using graph partitioners such as METIS or
//! SCOTCH").
//!
//! Two algorithms are provided:
//!
//! * [`partition_ggp`] — recursive bisection by greedy graph growing from a
//!   pseudo-peripheral seed, followed by a Kernighan–Lin style boundary
//!   refinement pass on every bisection;
//! * [`partition_rcb`] — recursive coordinate bisection on element
//!   centroids (geometric; very fast, good on structured meshes).
//!
//! Both return an element → part map. [`quality`] computes edge cut,
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

/// Find a vertex far away from `seed` within the sub-graph `mask` (BFS
/// eccentricity heuristic).
fn far_vertex(adj: &[Vec<u32>], mask: &[bool], seed: usize) -> usize {
    let mut level = vec![usize::MAX; adj.len()];
    let mut queue = VecDeque::new();
    level[seed] = 0;
    queue.push_back(seed);
    let mut far = seed;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            let v = v as usize;
            if mask[v] && level[v] == usize::MAX {
                level[v] = level[u] + 1;
                if level[v] > level[far] {
                    far = v;
                }
                queue.push_back(v);
            }
        }
    }
    far
}

/// Bisect the vertices flagged in `mask` into two sides of sizes
/// `target` and `len − target` by greedy graph growing, returning a side
/// flag for each vertex (true = side 0 / grown region).
fn grow_bisection(adj: &[Vec<u32>], mask: &[bool], members: &[usize], target: usize) -> Vec<bool> {
    let n = adj.len();
    let mut side = vec![false; n];
    if members.is_empty() || target == 0 {
        return side;
    }
    // Seed at a pseudo-peripheral vertex: far from a far vertex.
    let s0 = far_vertex(adj, mask, members[0]);
    let seed = far_vertex(adj, mask, s0);
    let mut in_region = vec![false; n];
    let mut queue = VecDeque::new();
    in_region[seed] = true;
    side[seed] = true;
    queue.push_back(seed);
    let mut grown = 1usize;
    while grown < target {
        let u = match queue.pop_front() {
            Some(u) => u,
            None => {
                // Disconnected remainder: jump to any unclaimed vertex.
                match members.iter().find(|&&m| !in_region[m]) {
                    Some(&m) => {
                        in_region[m] = true;
                        side[m] = true;
                        grown += 1;
                        queue.push_back(m);
                        continue;
                    }
                    None => break,
                }
            }
        };
        for &v in &adj[u] {
            let v = v as usize;
            if mask[v] && !in_region[v] && grown < target {
                in_region[v] = true;
                side[v] = true;
                grown += 1;
                queue.push_back(v);
            }
        }
    }
    side
}

/// Boundary Kernighan–Lin refinement on a bisection: move boundary vertices
/// with positive gain while keeping balance within a small slack of the
/// target size.
fn kl_refine(
    adj: &[Vec<u32>],
    mask: &[bool],
    members: &[usize],
    side: &mut [bool],
    target: usize,
    passes: usize,
) {
    let slack = (target / 20).max(1);
    for _ in 0..passes {
        let mut size0 = members.iter().filter(|&&m| side[m]).count();
        let mut moved_any = false;
        for &u in members {
            // gain = (external − internal) edges if u switched sides.
            let mut same = 0i64;
            let mut other = 0i64;
            for &v in &adj[u] {
                let v = v as usize;
                if !mask[v] {
                    continue;
                }
                if side[v] == side[u] {
                    same += 1;
                } else {
                    other += 1;
                }
            }
            let gain = other - same;
            if gain > 0 {
                let new_size0 = if side[u] { size0 - 1 } else { size0 + 1 };
                if new_size0 + slack >= target && new_size0 <= target + slack {
                    side[u] = !side[u];
                    size0 = new_size0;
                    moved_any = true;
                }
            }
        }
        if !moved_any {
            break;
        }
    }
}

/// Recursive-bisection greedy graph-growing partitioner with KL refinement.
///
/// `adj` is a symmetric adjacency list; returns `part[u] ∈ 0..nparts`.
pub fn partition_ggp(adj: &[Vec<u32>], nparts: usize) -> Vec<u32> {
    let n = adj.len();
    assert!(nparts >= 1);
    let mut part = vec![0u32; n];
    // Recursive splitting with proportional targets so that non-power-of-two
    // part counts stay balanced.
    fn recurse(
        adj: &[Vec<u32>],
        part: &mut [u32],
        members: Vec<usize>,
        first_part: u32,
        count: usize,
    ) {
        if count <= 1 {
            for &m in &members {
                part[m] = first_part;
            }
            return;
        }
        let left_count = count / 2;
        let target = members.len() * left_count / count;
        let mut mask = vec![false; adj.len()];
        for &m in &members {
            mask[m] = true;
        }
        let mut side = grow_bisection(adj, &mask, &members, target);
        kl_refine(adj, &mask, &members, &mut side, target, 4);
        let (left, right): (Vec<usize>, Vec<usize>) = members.into_iter().partition(|&m| side[m]);
        recurse(adj, part, left, first_part, left_count);
        recurse(
            adj,
            part,
            right,
            first_part + left_count as u32,
            count - left_count,
        );
    }
    recurse(adj, &mut part, (0..n).collect(), 0, nparts);
    part
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

    fn grid_graph(nx: usize, ny: usize) -> Vec<Vec<u32>> {
        let id = |i: usize, j: usize| (i + j * nx) as u32;
        let mut adj = vec![Vec::new(); nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let u = id(i, j) as usize;
                if i + 1 < nx {
                    adj[u].push(id(i + 1, j));
                    adj[id(i + 1, j) as usize].push(u as u32);
                }
                if j + 1 < ny {
                    adj[u].push(id(i, j + 1));
                    adj[id(i, j + 1) as usize].push(u as u32);
                }
            }
        }
        adj
    }

    #[test]
    fn ggp_balanced_on_grid() {
        let adj = grid_graph(16, 16);
        for nparts in [2usize, 4, 7, 8] {
            let p = partition_ggp(&adj, nparts);
            let q = quality(&adj, &p, nparts);
            assert!(
                q.imbalance <= 1.15,
                "nparts={nparts}: imbalance {}",
                q.imbalance
            );
            let mut sizes = vec![0usize; nparts];
            for &pi in &p {
                sizes[pi as usize] += 1;
            }
            assert!(
                sizes.iter().all(|&s| s > 0),
                "empty part for nparts={nparts}"
            );
        }
    }

    #[test]
    fn ggp_cut_reasonable() {
        // A 2-way split of a 16×16 grid has a minimum cut of 16; greedy +
        // KL should stay within 2× of optimal.
        let adj = grid_graph(16, 16);
        let p = partition_ggp(&adj, 2);
        let q = quality(&adj, &p, 2);
        assert!(q.edge_cut <= 32, "cut {}", q.edge_cut);
    }

    #[test]
    fn rcb_balanced_and_connected_on_mesh() {
        let m = Mesh::unit_square(12, 12);
        let p = partition_mesh_rcb(&m, 8);
        let q = quality(&m.dual_graph(), &p, 8);
        assert!(q.imbalance <= 1.1, "imbalance {}", q.imbalance);
        assert_eq!(q.connected_parts, 8);
    }

    #[test]
    fn ggp_on_mesh_parts_mostly_connected() {
        let m = Mesh::unit_square(16, 16);
        let p = partition_ggp(&m.dual_graph(), 16);
        let q = quality(&m.dual_graph(), &p, 16);
        assert!(q.connected_parts >= 14, "{q:?}");
        assert!(q.imbalance <= 1.2, "{q:?}");
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
        let adj = grid_graph(4, 4);
        let p = partition_ggp(&adj, 1);
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
