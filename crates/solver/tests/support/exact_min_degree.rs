//! Test oracle for the fill-reducing ordering: exact minimum degree on an
//! explicit elimination graph. Shared by `ordering`'s unit tests and the
//! workspace's `tests/setup_analysis.rs`.

use dd_linalg::CsrMatrix;

/// Exact minimum-degree order of the pattern of `a + aᵀ`: the elimination
/// graph is kept as one bit row per vertex, and the live vertex with the
/// fewest live neighbours is eliminated next (ties to the lowest index),
/// its neighbours joined into a clique.
pub fn exact_min_degree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let words = n.div_ceil(64);
    let mut g = vec![0u64; n * words];
    let link = |g: &mut [u64], i: usize, j: usize| {
        g[i * words + j / 64] |= 1 << (j % 64);
        g[j * words + i / 64] |= 1 << (i % 64);
    };
    for i in 0..n {
        for (j, _) in a.row(i) {
            if i != j {
                link(&mut g, i, j);
            }
        }
    }
    let count = |g: &[u64], v: usize| -> usize {
        g[v * words..(v + 1) * words]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum()
    };
    let mut degree: Vec<usize> = (0..n).map(|v| count(&g, v)).collect();
    let mut live = vec![true; n];
    let mut perm = Vec::with_capacity(n);
    while let Some(v) = (0..n).filter(|&v| live[v]).min_by_key(|&v| (degree[v], v)) {
        live[v] = false;
        perm.push(v);
        let row: Vec<u64> = g[v * words..(v + 1) * words].to_vec();
        let neighbours = (0..n).filter(|&u| row[u / 64] >> (u % 64) & 1 == 1);
        for u in neighbours {
            for (x, r) in g[u * words..(u + 1) * words].iter_mut().zip(&row) {
                *x |= r;
            }
            g[u * words + u / 64] &= !(1 << (u % 64));
            g[u * words + v / 64] &= !(1 << (v % 64));
            degree[u] = count(&g, u);
        }
    }
    perm
}
