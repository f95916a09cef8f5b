//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Two orderings are provided, standing in for the METIS/AMD orderings used
//! by the direct solvers in the paper (MUMPS, PARDISO, …):
//!
//! * [`reverse_cuthill_mckee`] — profile/bandwidth reduction, excellent on
//!   the banded matrices arising from structured FEM meshes;
//! * [`min_degree`] / [`min_degree_nodes`] — a quotient-graph minimum-degree
//!   ordering with AMD-style approximate external degrees, generally lower
//!   fill. The `_nodes` form orders the graph of `c`-dof nodes and expands,
//!   which on vector-valued problems is both several times cheaper and
//!   slightly better than ordering the dofs one by one.
//!
//! All operate on the symmetrized sparsity pattern of a square matrix and
//! return a permutation `perm` such that factorizing `A(perm, perm)`
//! produces less fill than factorizing `A` directly. [`fill_reducing`] is
//! the one place an [`Ordering`] choice is turned into a permutation; the
//! factorizations' `factor_ordered` entry points take its result, so a
//! caller factoring two matrices of one pattern analyses once.

use crate::ldlt::Ordering;
use dd_linalg::{BsrMatrix, CsrMatrix};
use std::cell::Cell;

/// Adjacency structure (pattern only, no self loops, rows ascending) of the
/// graph whose vertex `v` stands for the `c` consecutive dofs
/// `v·c .. (v+1)·c` of `A + Aᵀ`; `c = 1` is the dof graph itself.
fn adjacency(a: &CsrMatrix, c: usize) -> (Vec<usize>, Vec<u32>) {
    assert_eq!(a.rows(), a.cols());
    assert!(
        c >= 1 && a.rows() % c == 0,
        "ordering: order not a multiple of c"
    );
    let nv = a.rows() / c;
    // Patterns of FEM matrices are already structurally symmetric; we
    // symmetrize defensively by entering every edge in both directions and
    // dropping the duplicates afterwards.
    let mut ptr = vec![0usize; nv + 1];
    for i in 0..a.rows() {
        for (j, _) in a.row(i) {
            if i / c != j / c {
                ptr[i / c + 1] += 1;
                ptr[j / c + 1] += 1;
            }
        }
    }
    for v in 0..nv {
        ptr[v + 1] += ptr[v];
    }
    let mut next = ptr.clone();
    let mut adj = vec![0u32; ptr[nv]];
    for i in 0..a.rows() {
        for (j, _) in a.row(i) {
            let (vi, vj) = (i / c, j / c);
            if vi != vj {
                adj[next[vi]] = vj as u32;
                next[vi] += 1;
                adj[next[vj]] = vi as u32;
                next[vj] += 1;
            }
        }
    }
    // Sort and deduplicate each row, compacting in place.
    let mut out = 0usize;
    let mut row_start = 0usize;
    for v in 0..nv {
        let row_end = ptr[v + 1];
        adj[row_start..row_end].sort_unstable();
        ptr[v] = out;
        for q in row_start..row_end {
            if q == row_start || adj[q] != adj[q - 1] {
                adj[out] = adj[q];
                out += 1;
            }
        }
        row_start = row_end;
    }
    ptr[nv] = out;
    adj.truncate(out);
    (ptr, adj)
}

/// Find a pseudo-peripheral vertex of the component containing `start`
/// (George–Liu heuristic: repeated BFS to the farthest minimal-degree node).
fn pseudo_peripheral(ptr: &[usize], adj: &[u32], start: usize, visited: &[bool]) -> usize {
    let n = ptr.len() - 1;
    let mut root = start;
    let mut last_ecc = 0usize;
    let mut level = vec![usize::MAX; n];
    loop {
        // BFS from root.
        level.iter_mut().for_each(|l| *l = usize::MAX);
        let mut queue = std::collections::VecDeque::new();
        level[root] = 0;
        queue.push_back(root);
        let mut far = root;
        let mut ecc = 0;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[ptr[u]..ptr[u + 1]] {
                let v = v as usize;
                if !visited[v] && level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    if level[v] > ecc {
                        ecc = level[v];
                        far = v;
                    }
                    queue.push_back(v);
                }
            }
        }
        if ecc <= last_ecc {
            return root;
        }
        last_ecc = ecc;
        root = far;
    }
}

/// Reverse Cuthill–McKee ordering. Returns `perm` with
/// `A_reordered(i, j) = A(perm[i], perm[j])`.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let (ptr, adj) = adjacency(a, 1);
    let degree = |u: usize| ptr[u + 1] - ptr[u];
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let root = pseudo_peripheral(&ptr, &adj, seed, &visited);
        // BFS, visiting neighbors by increasing degree.
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut nbrs: Vec<usize> = adj[ptr[u]..ptr[u + 1]]
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| !visited[v])
                .collect();
            nbrs.sort_unstable_by_key(|&v| degree(v));
            for v in nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

thread_local! {
    /// Minimum-degree eliminations run on this thread.
    static MIN_DEGREE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// How many minimum-degree orderings the calling thread has computed so far.
/// The ordering is the dearest part of a default factorization, so tests
/// read this to assert that a set-up analyses each subdomain exactly once.
pub fn min_degree_calls() -> u64 {
    MIN_DEGREE_CALLS.get()
}

/// Quotient-graph minimum-degree elimination order of the graph `(ptr, adj)`
/// with approximate (AMD-style upper bound) external degrees; ties go to the
/// lowest index.
///
/// Nothing is edited or reallocated per pivot. The graph stays as given: a
/// variable's live variable-neighbours and the sizes of its live elements
/// are running counts, eliminated neighbours and absorbed elements are
/// skipped on traversal. Elements (eliminated cliques) and the per-variable
/// element lists live in two append-only arenas. The priority queue is a
/// binary heap with lazy deletion that is only pushed to when a key
/// *drops*; a key that rose is corrected when its stale entry surfaces.
fn eliminate(ptr: &[usize], adj: &[u32]) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const NIL: u32 = u32::MAX;
    MIN_DEGREE_CALLS.set(MIN_DEGREE_CALLS.get() + 1);
    let n = ptr.len() - 1;
    // Element `e` is `members[elt_start[e]..elt_start[e + 1]]`; an absorbed
    // one is marked dead. The element created by pivot number `k` is `k`.
    let mut members: Vec<u32> = Vec::with_capacity(4 * adj.len());
    let mut elt_start: Vec<usize> = Vec::with_capacity(n + 1);
    elt_start.push(0);
    let mut dead = vec![false; n];
    // Elements adjacent to variable `u`: a linked list through `link`,
    // newest first, from `head[u]`.
    let mut head = vec![NIL; n];
    let mut link: Vec<(u32, u32)> = Vec::with_capacity(4 * adj.len()); // (element, next)

    let mut eliminated = vec![false; n];
    // Live variable neighbours, and Σ (|e| − 1) over live adjacent elements.
    let mut n_var: Vec<usize> = (0..n).map(|i| ptr[i + 1] - ptr[i]).collect();
    let mut elt_sum = vec![0usize; n];
    let mut degree = n_var.clone();

    // Heap keys are (degree, index) packed into one word. `queued[u]` is
    // the smallest key of `u` in the heap, never above its true one.
    let key = |d: usize, i: usize| (d as u64) << 32 | i as u64;
    let mut queued: Vec<u64> = (0..n).map(|i| key(degree[i], i)).collect();
    let mut heap: BinaryHeap<Reverse<u64>> = queued.iter().map(|&k| Reverse(k)).collect();

    let mut perm = Vec::with_capacity(n);
    let mut marker = vec![usize::MAX; n];

    while let Some(Reverse(k)) = heap.pop() {
        let v = (k & 0xffff_ffff) as usize;
        if eliminated[v] || k != queued[v] {
            continue; // superseded entry
        }
        if k != key(degree[v], v) {
            // The key rose since this entry was pushed: requeue at its value.
            queued[v] = key(degree[v], v);
            heap.push(Reverse(queued[v]));
            continue;
        }
        eliminated[v] = true;
        perm.push(v);
        // Gather the new element: union of v's variable neighbors and all
        // variables of elements adjacent to v (minus eliminated ones).
        let first = members.len();
        for &u in &adj[ptr[v]..ptr[v + 1]] {
            let u = u as usize;
            if !eliminated[u] {
                n_var[u] -= 1;
                marker[u] = v;
                members.push(u as u32);
            }
        }
        let mut at = head[v];
        while at != NIL {
            let (e, next) = link[at as usize];
            at = next;
            let e = e as usize;
            if dead[e] {
                continue;
            }
            // Absorb the old element (it is now a subset of the new one).
            dead[e] = true;
            let size = elt_start[e + 1] - elt_start[e];
            for q in elt_start[e]..elt_start[e + 1] {
                let u = members[q] as usize;
                if !eliminated[u] {
                    elt_sum[u] -= size - 1;
                    if marker[u] != v {
                        marker[u] = v;
                        members.push(u as u32);
                    }
                }
            }
        }
        let eid = elt_start.len() - 1;
        elt_start.push(members.len());
        let size = members.len() - first;
        let remaining = n - perm.len();
        // Update the adjacent variables with the AMD-style approximate
        // degree: |var neighbors| + Σ |elements| − overlaps ignored.
        for q in first..members.len() {
            let u = members[q] as usize;
            link.push((eid as u32, head[u]));
            head[u] = (link.len() - 1) as u32;
            elt_sum[u] += size - 1;
            degree[u] = (n_var[u] + elt_sum[u]).min(remaining);
            let k = key(degree[u], u);
            if k < queued[u] {
                queued[u] = k;
                heap.push(Reverse(k));
            }
        }
    }
    perm
}

/// Quotient-graph minimum-degree ordering of the dof graph of `a`, with
/// AMD-style approximate degrees and ties to the lowest index. No
/// supervariable detection; for matrices with `c`-dof nodes
/// [`min_degree_nodes`] gets the same effect from the known block structure.
pub fn min_degree(a: &CsrMatrix) -> Vec<usize> {
    min_degree_nodes(a, 1)
}

/// Minimum-degree ordering of the *node* graph — vertex `v` stands for dofs
/// `v·c .. (v+1)·c`, the interleaved layout `dd-fem` assembles — expanded
/// back to dofs, which stay adjacent in the order. Exact
/// indistinguishable-variable detection finds almost nothing on assembled
/// elasticity operators (cancelled couplings punch holes in the node
/// blocks), so the coarsening uses the layout instead.
pub fn min_degree_nodes(a: &CsrMatrix, c: usize) -> Vec<usize> {
    let (ptr, adj) = adjacency(a, c);
    eliminate(&ptr, &adj)
        .into_iter()
        .flat_map(|v| v * c..(v + 1) * c)
        .collect()
}

/// Turn an [`Ordering`] choice into a permutation of `a`'s dofs. Minimum
/// degree coarsens by the node size the pattern shows
/// ([`BsrMatrix::padded_block_size`]), so vector-valued operators get the
/// node-graph ordering without the caller saying so.
pub fn fill_reducing(a: &CsrMatrix, ord: Ordering) -> Vec<usize> {
    match ord {
        Ordering::Natural => (0..a.rows()).collect(),
        Ordering::Rcm => reverse_cuthill_mckee(a),
        Ordering::MinDegree => min_degree_nodes(a, BsrMatrix::padded_block_size(a).unwrap_or(1)),
    }
}

/// Fill (number of nonzeros of the LDLᵀ factor, strictly lower part) that a
/// given ordering induces — evaluated via a symbolic elimination, used to
/// compare orderings in the tests.
#[cfg(test)]
fn symbolic_fill(a: &CsrMatrix, perm: &[usize]) -> usize {
    let (_, lnz) = crate::ldlt::etree_and_counts_ordered(a, perm);
    lnz.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::CooBuilder;

    /// 1D Laplacian pattern of size n — already banded, RCM should keep it.
    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    /// 2D 5-point Laplacian on an nx × ny grid.
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut b = CooBuilder::new(n, n);
        let id = |i: usize, j: usize| i + j * nx;
        for j in 0..ny {
            for i in 0..nx {
                let u = id(i, j);
                b.push(u, u, 4.0);
                if i + 1 < nx {
                    b.push(u, id(i + 1, j), -1.0);
                    b.push(id(i + 1, j), u, -1.0);
                }
                if j + 1 < ny {
                    b.push(u, id(i, j + 1), -1.0);
                    b.push(id(i, j + 1), u, -1.0);
                }
            }
        }
        b.to_csr()
    }

    fn is_permutation(p: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.iter().all(|&i| {
            if i < n && !seen[i] {
                seen[i] = true;
                true
            } else {
                false
            }
        }) && p.len() == n
    }

    #[test]
    fn rcm_is_permutation() {
        let a = laplacian_2d(7, 5);
        let p = reverse_cuthill_mckee(&a);
        assert!(is_permutation(&p, 35));
    }

    #[test]
    fn md_is_permutation() {
        let a = laplacian_2d(7, 5);
        let p = min_degree(&a);
        assert!(is_permutation(&p, 35));
    }

    /// The quotient-graph elimination as it was written before the running
    /// counts: every pivot prunes and rescans its neighbours' lists. Kept as
    /// the oracle for [`eliminate`], which must reproduce its order exactly.
    fn min_degree_reference(a: &CsrMatrix) -> Vec<usize> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = a.rows();
        let (ptr, adj) = adjacency(a, 1);
        let mut var_adj: Vec<Vec<u32>> = (0..n).map(|i| adj[ptr[i]..ptr[i + 1]].to_vec()).collect();
        let mut elt_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut elements: Vec<Vec<u32>> = Vec::new();
        let mut eliminated = vec![false; n];
        let mut degree: Vec<usize> = (0..n).map(|i| var_adj[i].len()).collect();
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
            (0..n).map(|i| Reverse((degree[i], i))).collect();
        let mut perm = Vec::with_capacity(n);
        let mut marker = vec![usize::MAX; n];
        while let Some(Reverse((d, v))) = heap.pop() {
            if eliminated[v] || d != degree[v] {
                continue;
            }
            eliminated[v] = true;
            perm.push(v);
            let mut clique: Vec<u32> = Vec::new();
            let members = var_adj[v]
                .iter()
                .chain(elt_adj[v].iter().flat_map(|&e| &elements[e as usize]));
            for &u in members {
                if !eliminated[u as usize] && marker[u as usize] != v {
                    marker[u as usize] = v;
                    clique.push(u);
                }
            }
            for &e in &elt_adj[v] {
                elements[e as usize].clear();
            }
            let eid = elements.len() as u32;
            elements.push(clique.clone());
            for &u in &clique {
                let u = u as usize;
                var_adj[u].retain(|&w| !eliminated[w as usize]);
                elt_adj[u].retain(|&e| !elements[e as usize].is_empty());
                elt_adj[u].push(eid);
                let in_elements: usize = elt_adj[u]
                    .iter()
                    .map(|&e| elements[e as usize].len() - 1)
                    .sum();
                degree[u] = (var_adj[u].len() + in_elements).min(n - perm.len());
                heap.push(Reverse((degree[u], u)));
            }
        }
        perm
    }

    /// Random structurally symmetric pattern on `nv` nodes of `c` dofs, with
    /// some couplings inside the node blocks knocked out the way assembly
    /// drops exact zeros.
    fn random_block_pattern(nv: usize, c: usize, seed: u64) -> CsrMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = nv * c;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
        }
        for _ in 0..3 * nv {
            let (u, v) = ((next() % nv as u64) as usize, (next() % nv as u64) as usize);
            for k in 0..c {
                for l in 0..c {
                    if u != v && next() % 8 != 0 {
                        b.push(u * c + k, v * c + l, -1.0);
                        b.push(v * c + l, u * c + k, -1.0);
                    }
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn node_orderings_are_permutations_for_random_patterns() {
        for seed in 0..20u64 {
            for c in 1..=3usize {
                let nv = 5 + (seed as usize * 7) % 40;
                let a = random_block_pattern(nv, c, seed * 3 + c as u64);
                for cc in (1..=c).filter(|cc| c % cc == 0) {
                    let p = min_degree_nodes(&a, cc);
                    assert!(is_permutation(&p, nv * c), "seed {seed} c {c} by {cc}");
                    // The dofs of a node stay together, in order.
                    for chunk in p.chunks(cc) {
                        assert!(chunk[0] % cc == 0 && chunk.windows(2).all(|w| w[1] == w[0] + 1));
                    }
                }
                for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                    assert!(is_permutation(&fill_reducing(&a, ord), nv * c));
                }
            }
        }
    }

    #[test]
    fn scalar_ordering_reproduces_the_reference_elimination() {
        let mut cases = vec![laplacian_2d(12, 9), laplacian_1d(30)];
        cases.extend((0..6).map(|seed| random_block_pattern(40, 1 + seed as usize % 3, seed)));
        for a in &cases {
            assert_eq!(min_degree_nodes(a, 1), min_degree_reference(a));
        }
    }

    #[test]
    fn blocky_patterns_are_ordered_by_node_and_counted_once() {
        let a = random_block_pattern(60, 3, 11);
        assert_eq!(BsrMatrix::padded_block_size(&a), Some(3));
        let before = min_degree_calls();
        let by_node = fill_reducing(&a, Ordering::MinDegree);
        assert_eq!(min_degree_calls(), before + 1);
        assert_eq!(by_node, min_degree_nodes(&a, 3));
        // No worse than the dof graph, within the 2 % the set-up is held to.
        let (f_node, f_dof) = (
            symbolic_fill(&a, &by_node),
            symbolic_fill(&a, &min_degree(&a)),
        );
        assert!(f_node as f64 <= 1.02 * f_dof as f64, "{f_node} vs {f_dof}");
        // A scalar pattern is left to the dof graph.
        let s = laplacian_2d(9, 9);
        assert_eq!(fill_reducing(&s, Ordering::MinDegree), min_degree(&s));
    }

    #[test]
    fn orderings_reduce_fill_vs_natural_on_grid() {
        // On a 2D grid with a bad input ordering, both orderings should beat
        // a random permutation.
        let a = laplacian_2d(12, 12);
        let n = a.rows();
        // Deterministic "bad" scrambling.
        let mut bad: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = (i * 7919 + 13) % n;
            bad.swap(i, j);
        }
        let fill_bad = symbolic_fill(&a, &bad);
        let fill_rcm = symbolic_fill(&a, &reverse_cuthill_mckee(&a));
        let fill_md = symbolic_fill(&a, &min_degree(&a));
        assert!(fill_rcm < fill_bad, "RCM {fill_rcm} !< bad {fill_bad}");
        assert!(fill_md < fill_bad, "MD {fill_md} !< bad {fill_bad}");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Two disjoint chains.
        let mut b = CooBuilder::new(6, 6);
        for i in [0usize, 1] {
            b.push(i, i + 1, -1.0);
            b.push(i + 1, i, -1.0);
        }
        for i in [3usize, 4] {
            b.push(i, i + 1, -1.0);
            b.push(i + 1, i, -1.0);
        }
        for i in 0..6 {
            b.push(i, i, 2.0);
        }
        let a = b.to_csr();
        let p = reverse_cuthill_mckee(&a);
        assert!(is_permutation(&p, 6));
        let p2 = min_degree(&a);
        assert!(is_permutation(&p2, 6));
    }

    #[test]
    fn ordering_on_tridiagonal_keeps_low_fill() {
        let a = laplacian_1d(50);
        let natural: Vec<usize> = (0..50).collect();
        let f_nat = symbolic_fill(&a, &natural);
        let f_rcm = symbolic_fill(&a, &reverse_cuthill_mckee(&a));
        // Tridiagonal: natural ordering has zero fill, L has 49 offdiag nnz.
        assert_eq!(f_nat, 49);
        assert!(f_rcm <= 49 + 5);
    }
}
