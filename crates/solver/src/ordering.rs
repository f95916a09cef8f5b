//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Two orderings are provided, standing in for the METIS/AMD orderings used
//! by the direct solvers in the paper (MUMPS, PARDISO, …):
//!
//! * [`reverse_cuthill_mckee`] — profile/bandwidth reduction, excellent on
//!   the banded matrices arising from structured FEM meshes;
//! * [`min_degree`] / [`min_degree_nodes`] — approximate minimum degree
//!   (AMD: quotient graph, approximate external degrees, element and
//!   aggressive absorption, mass elimination, supervariables), generally
//!   lower fill. The `_nodes` form orders the graph of `c`-dof nodes and
//!   expands, which on vector-valued problems is both several times cheaper
//!   and slightly better than ordering the dofs one by one.
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
    // The node pattern of `a` alone, each coupling once: a `c`-dof node
    // repeats every neighbour up to `c²` times.
    let mut seen = vec![usize::MAX; nv];
    let mut row_ptr = Vec::with_capacity(nv + 1);
    row_ptr.push(0);
    let mut cols: Vec<u32> = Vec::with_capacity(a.nnz() / c);
    for v in 0..nv {
        seen[v] = v;
        for i in v * c..(v + 1) * c {
            for (j, _) in a.row(i) {
                if seen[j / c] != v {
                    seen[j / c] = v;
                    cols.push((j / c) as u32);
                }
            }
        }
        row_ptr.push(cols.len());
    }
    // Patterns of FEM matrices are already structurally symmetric; we
    // symmetrize defensively by entering every edge in both directions and
    // dropping the duplicates afterwards.
    let mut ptr = vec![0usize; nv + 1];
    for v in 0..nv {
        for &u in &cols[row_ptr[v]..row_ptr[v + 1]] {
            ptr[v + 1] += 1;
            ptr[u as usize + 1] += 1;
        }
    }
    for v in 0..nv {
        ptr[v + 1] += ptr[v];
    }
    let mut next = ptr.clone();
    let mut adj = vec![0u32; ptr[nv]];
    for v in 0..nv {
        for &u in &cols[row_ptr[v]..row_ptr[v + 1]] {
            adj[next[v]] = u;
            next[v] += 1;
            adj[next[u as usize]] = v as u32;
            next[u as usize] += 1;
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

/// What an index of the quotient graph currently stands for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Node {
    /// A principal variable: the representative of a supervariable.
    Variable,
    /// A principal variable of the element being formed.
    InPivot,
    /// A variable merged into another supervariable, or mass-eliminated
    /// with a pivot; its list is gone.
    Merged,
    /// An element: an eliminated pivot whose list is its variables.
    Element,
    /// An element absorbed into a later one, or one with no variables left.
    Absorbed,
}

/// `(degree, index)` of every variable not yet eliminated, packed into one
/// word, in a tournament tree: a change costs a walk to the root and the
/// minimum is the root, so the pivot is always the smallest exact key.
struct DegreeQueue {
    leaves: usize,
    key: Vec<u64>,
}

impl DegreeQueue {
    const ABSENT: u64 = u64::MAX;

    fn new(degree: &[usize]) -> Self {
        let leaves = degree.len().next_power_of_two();
        let mut key = vec![Self::ABSENT; 2 * leaves];
        for (i, &d) in degree.iter().enumerate() {
            key[leaves + i] = (d as u64) << 32 | i as u64;
        }
        for p in (1..leaves).rev() {
            key[p] = key[2 * p].min(key[2 * p + 1]);
        }
        DegreeQueue { leaves, key }
    }

    fn set(&mut self, i: usize, k: u64) {
        let mut p = self.leaves + i;
        self.key[p] = k;
        while p > 1 {
            p /= 2;
            let m = self.key[2 * p].min(self.key[2 * p + 1]);
            if self.key[p] == m {
                break;
            }
            self.key[p] = m;
        }
    }

    fn insert(&mut self, i: usize, degree: usize) {
        self.set(i, (degree as u64) << 32 | i as u64);
    }

    fn remove(&mut self, i: usize) {
        self.set(i, Self::ABSENT);
    }

    /// The variable of least degree, lowest index first, taken out.
    fn pop(&mut self) -> Option<usize> {
        let k = self.key[1];
        (k != Self::ABSENT).then(|| {
            let i = (k & 0xffff_ffff) as usize;
            self.remove(i);
            i
        })
    }
}

/// Approximate minimum degree elimination order of the graph `(ptr, adj)`
/// (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996); ties go
/// to the lowest index.
///
/// The quotient graph lives in one flat workspace `iw`: a variable's list is
/// its adjacent elements, then its remaining variable neighbours; an
/// element's list is its variables. Each pivot `p` absorbs the elements it
/// touches into its new element `L_p`, and every variable `i` of `L_p` gets
/// the degree bound
/// `d(i) = min(n − k, d_old(i) + |L_p \ i|, |A_i \ L_p| + |L_p \ i| + Σ_{e∈E_i} |L_e \ L_p|)`,
/// with every `|L_e \ L_p|` from one pass over `L_p` (the `w(e)` counts).
/// An element found inside `L_p` on the way is absorbed too (aggressive
/// absorption); a variable left adjacent to `L_p` alone is eliminated with
/// `p` (mass elimination); variables of `L_p` with identical lists merge
/// into one supervariable, ordered together, the lowest index its
/// representative. Degrees are exact keys of a [`DegreeQueue`].
fn eliminate(ptr: &[usize], adj: &[u32]) -> Vec<usize> {
    const NIL: u32 = u32::MAX;
    MIN_DEGREE_CALLS.set(MIN_DEGREE_CALLS.get() + 1);
    let n = ptr.len() - 1;
    assert!(n < NIL as usize, "ordering: graph too large");
    let mut iw: Vec<u32> = Vec::with_capacity(adj.len() + adj.len() / 2 + n);
    iw.extend_from_slice(adj);
    let mut pe: Vec<usize> = ptr[..n].to_vec();
    let mut len: Vec<usize> = (0..n).map(|i| ptr[i + 1] - ptr[i]).collect();
    let mut elen = vec![0usize; n];
    let mut state = vec![Node::Variable; n];
    // Supervariable sizes, and each supervariable's members as a chain.
    let mut nv = vec![1usize; n];
    let mut member_next = vec![NIL; n];
    let mut member_last: Vec<u32> = (0..n as u32).collect();
    // A variable's degree bound; an element's size Σ nv over its variables.
    let mut degree = len.clone();
    let mut queue = DegreeQueue::new(&degree);
    // `w[e] − wflg` is `|L_e \ L_p|` while pivot `p` is processed; every
    // stale mark is below `wflg`.
    let mut w = vec![1usize; n];
    let mut wflg = 2usize;

    let mut perm = Vec::with_capacity(n);
    let mut lme: Vec<u32> = Vec::new();
    let mut pivots: Vec<usize> = Vec::new();
    let mut hashed: Vec<(u64, u32)> = Vec::new();
    let mut eliminated = 0usize;
    while let Some(me) = queue.pop() {
        state[me] = Node::Element;
        pivots.clear();
        pivots.push(me);
        eliminated += nv[me];

        // The new element: the live variables of `me`'s elements, which it
        // absorbs, and of its own variable list.
        lme.clear();
        let mut degme = 0;
        let (p1, elen_me) = (pe[me], elen[me]);
        for k in p1..p1 + len[me] {
            let x = iw[k] as usize;
            let members = if k < p1 + elen_me {
                if state[x] != Node::Element {
                    continue;
                }
                state[x] = Node::Absorbed;
                pe[x]..pe[x] + len[x]
            } else {
                k..k + 1
            };
            for q in members {
                let i = iw[q] as usize;
                if state[i] == Node::Variable {
                    state[i] = Node::InPivot;
                    degme += nv[i];
                    lme.push(i as u32);
                }
            }
        }
        // Store it over `me`'s old list when it fits, else at the end of the
        // workspace, compacting the live lists first when that is full.
        if lme.len() > len[me] {
            len[me] = 0;
            if iw.len() + lme.len() > iw.capacity() {
                compact(&mut iw, &mut pe, &len, |x| {
                    matches!(state[x], Node::Variable | Node::InPivot | Node::Element)
                });
            }
            pe[me] = iw.len();
            iw.extend_from_slice(&lme);
        } else {
            iw[pe[me]..pe[me] + lme.len()].copy_from_slice(&lme);
        }
        len[me] = lme.len();
        elen[me] = 0;

        // |L_e \ L_me| for every element adjacent to L_me.
        for &i in &lme {
            let i = i as usize;
            for &e in &iw[pe[i]..pe[i] + elen[i]] {
                let e = e as usize;
                if state[e] == Node::Element {
                    let we = if w[e] >= wflg { w[e] } else { degree[e] + wflg };
                    w[e] = we - nv[i];
                }
            }
        }

        // Degree bounds. Each list of L_me is pruned of absorbed elements,
        // of elements inside L_me (absorbed here) and of variables no longer
        // principal or now in L_me, and gets `me`. A variable left adjacent
        // to `me` alone is eliminated with it.
        hashed.clear();
        for &i in &lme {
            let i = i as usize;
            let p1 = pe[i];
            let (mut pn, mut deg, mut hash) = (p1, 0usize, 0u64);
            for k in p1..p1 + elen[i] {
                let e = iw[k] as usize;
                if state[e] != Node::Element {
                    continue;
                }
                let dext = w[e] - wflg;
                if dext > 0 {
                    deg += dext;
                    iw[pn] = e as u32;
                    pn += 1;
                    hash = hash.wrapping_add(e as u64);
                } else {
                    state[e] = Node::Absorbed;
                }
            }
            let p3 = pn;
            for k in p1 + elen[i]..p1 + len[i] {
                let j = iw[k] as usize;
                if state[j] == Node::Variable {
                    deg += nv[j];
                    iw[pn] = j as u32;
                    pn += 1;
                    hash = hash.wrapping_add(j as u64);
                }
            }
            if pn == p1 {
                state[i] = Node::Merged;
                queue.remove(i);
                degme -= nv[i];
                eliminated += nv[i];
                pivots.push(i);
                continue;
            }
            // The entry that linked `i` to `me` (`me` itself, or one of
            // its absorbed elements) was pruned, so there is room for `me`.
            debug_assert!(pn < p1 + len[i]);
            iw[pn] = iw[p3];
            iw[p3] = me as u32;
            elen[i] = p3 - p1 + 1;
            len[i] = pn - p1 + 1;
            degree[i] = degree[i].min(deg);
            hashed.push((hash, i as u32));
        }
        // Past every `|L_e \ L_me|` count.
        wflg += n + 1;

        // Supervariables: variables of L_me with equal lists merge into the
        // lowest-indexed one. Equal lists have equal hashes.
        hashed.sort_unstable();
        for run in hashed
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|run| run.len() > 1)
        {
            for (a, &(_, i)) in run.iter().enumerate() {
                let i = i as usize;
                if state[i] != Node::InPivot {
                    continue;
                }
                for &x in &iw[pe[i]..pe[i] + len[i]] {
                    w[x as usize] = wflg;
                }
                for &(_, j) in &run[a + 1..] {
                    let j = j as usize;
                    if state[j] == Node::InPivot
                        && len[j] == len[i]
                        && elen[j] == elen[i]
                        && iw[pe[j]..pe[j] + len[j]]
                            .iter()
                            .all(|&x| w[x as usize] == wflg)
                    {
                        state[j] = Node::Merged;
                        queue.remove(j);
                        nv[i] += nv[j];
                        member_next[member_last[i] as usize] = j as u32;
                        member_last[i] = member_last[j];
                    }
                }
                wflg += 1;
            }
        }

        // The final bounds; L_me keeps its principal variables only.
        let remaining = n - eliminated;
        let mut kept = pe[me];
        for q in pe[me]..pe[me] + len[me] {
            let i = iw[q] as usize;
            if state[i] == Node::InPivot {
                state[i] = Node::Variable;
                degree[i] = (degree[i] + degme - nv[i]).min(remaining - nv[i]);
                queue.insert(i, degree[i]);
                iw[kept] = i as u32;
                kept += 1;
            }
        }
        len[me] = kept - pe[me];
        degree[me] = degme;
        if len[me] == 0 {
            state[me] = Node::Absorbed;
        }

        for &p in &pivots {
            let mut at = p as u32;
            while at != NIL {
                perm.push(at as usize);
                at = member_next[at as usize];
            }
        }
    }
    debug_assert_eq!(perm.len(), n);
    perm
}

/// Move the lists of the indices `live` accepts to the front of `iw`, in
/// their order there, and drop the rest.
fn compact(iw: &mut Vec<u32>, pe: &mut [usize], len: &[usize], live: impl Fn(usize) -> bool) {
    let mut ids: Vec<usize> = (0..pe.len()).filter(|&x| live(x) && len[x] > 0).collect();
    ids.sort_unstable_by_key(|&x| pe[x]);
    let mut at = 0;
    for x in ids {
        iw.copy_within(pe[x]..pe[x] + len[x], at);
        pe[x] = at;
        at += len[x];
    }
    iw.truncate(at);
}

/// Approximate minimum-degree ordering of the dof graph of `a`, ties to the
/// lowest index. For matrices with `c`-dof nodes [`min_degree_nodes`]
/// starts from the known block structure instead.
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
#[path = "../tests/support/exact_min_degree.rs"]
mod exact_min_degree;

#[cfg(test)]
mod tests {
    use super::exact_min_degree::exact_min_degree;
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
    fn fill_is_within_two_percent_of_exact_minimum_degree() {
        let mut cases: Vec<(CsrMatrix, usize)> = vec![
            (laplacian_2d(12, 9), 1),
            (laplacian_2d(30, 30), 1),
            (laplacian_1d(30), 1),
        ];
        for seed in 0..6u64 {
            let c = 1 + seed as usize % 3;
            cases.push((random_block_pattern(40, c, seed), c));
        }
        for (a, c) in &cases {
            let (amd, exact) = (
                symbolic_fill(a, &min_degree_nodes(a, *c)),
                symbolic_fill(a, &exact_min_degree(a)),
            );
            assert!(
                amd as f64 <= 1.02 * exact as f64,
                "n {} c {c}: nnz(L) {amd} vs exact minimum degree {exact}",
                a.rows()
            );
        }
    }

    /// A pattern with the diagonal and the given couplings, both ways.
    fn pattern(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
        }
        for &(i, j) in edges {
            b.push(i, j, -1.0);
            b.push(j, i, -1.0);
        }
        b.to_csr()
    }

    /// Every node's `c` dofs, given as an edge list between nodes, coupled
    /// to each other's; `holes` of the couplings inside a node knocked out.
    fn node_pattern(nv: usize, c: usize, edges: &[(usize, usize)], holes: usize) -> CsrMatrix {
        let mut dof_edges = Vec::new();
        for v in 0..nv {
            for k in 0..c {
                for l in k + 1..c {
                    if (v + k + l) % 3 >= holes {
                        dof_edges.push((v * c + k, v * c + l));
                    }
                }
            }
        }
        for &(u, v) in edges {
            for k in 0..c {
                for l in 0..c {
                    dof_edges.push((u * c + k, v * c + l));
                }
            }
        }
        pattern(nv * c, &dof_edges)
    }

    #[test]
    fn degenerate_graphs_give_node_contiguous_permutations() {
        let arrow: Vec<(usize, usize)> = (1..9).map(|i| (0, i)).collect();
        let complete: Vec<(usize, usize)> = (0..7)
            .flat_map(|i| (i + 1..7).map(move |j| (i, j)))
            .collect();
        let two_components = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)];
        let cases = [
            ("empty", 0, vec![]),
            ("one vertex", 1, vec![]),
            ("isolated vertices", 5, vec![]),
            ("isolated and coupled", 6, vec![(1, 4), (4, 2)]),
            ("two components", 7, two_components),
            ("arrow", 9, arrow.clone()),
            ("complete", 7, complete),
        ];
        for (name, nv, edges) in cases {
            for (c, holes) in [(1, 0), (3, 0), (3, 1), (3, 2)] {
                let a = node_pattern(nv, c, &edges, holes);
                // `fill_reducing` coarsens by the node size the pattern shows.
                let seen = BsrMatrix::padded_block_size(&a).unwrap_or(1);
                for (p, by) in [
                    (min_degree_nodes(&a, c), c),
                    (fill_reducing(&a, Ordering::MinDegree), seen),
                ] {
                    assert!(is_permutation(&p, nv * c), "{name} c {c} holes {holes}");
                    for chunk in p.chunks(by) {
                        assert!(
                            chunk[0] % by == 0 && chunk.windows(2).all(|w| w[1] == w[0] + 1),
                            "{name} c {c} holes {holes}: a node's dofs split"
                        );
                    }
                }
                assert!(is_permutation(&min_degree(&a), nv * c), "{name} by dof");
            }
        }
        // An isolated vertex goes first; the hub of an arrow waits until
        // one leaf is left, so L has the arrow's edges and nothing else.
        assert_eq!(min_degree(&pattern(3, &[(0, 2)]))[0], 1);
        let a = pattern(9, &arrow);
        assert_eq!(symbolic_fill(&a, &min_degree(&a)), 8);
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
