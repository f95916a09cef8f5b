//! # dd-mesh
//!
//! Simplicial meshes (triangles in 2D, tetrahedra in 3D) — the workspace's
//! replacement for the Gmsh-generated meshes of the paper. Meshes are
//! generated structurally on boxes, then refined uniformly; the paper uses
//! the same strategy ("each local mesh is refined concurrently by splitting
//! each triangle or tetrahedron into multiple smaller elements").
//!
//! * [`Mesh`] — vertices + elements with adjacency queries;
//! * [`Mesh::unit_square`] / [`Mesh::rectangle`] — 2D triangulations;
//! * [`Mesh::unit_cube`] / [`Mesh::box3d`] — 3D Kuhn tetrahedralizations;
//! * [`refine`] — red uniform refinement (tri → 4, tet → 8);
//! * [`Mesh::dual_graph`] — facet-adjacency graph for partitioning.

// Triangular solves, factorizations and stencil loops read most
// naturally with explicit indices; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod refine;
pub mod vtk;

use std::collections::HashMap;

/// A conforming simplicial mesh in dimension 2 or 3.
///
/// Coordinates are stored interleaved (`dim` doubles per vertex), elements
/// as `dim + 1` vertex indices each.
#[derive(Clone, Debug)]
pub struct Mesh {
    dim: usize,
    coords: Vec<f64>,
    elems: Vec<u32>,
}

impl Mesh {
    /// Build from raw parts.
    ///
    /// # Panics
    /// Panics if the array lengths are inconsistent with `dim`.
    pub fn from_parts(dim: usize, coords: Vec<f64>, elems: Vec<u32>) -> Self {
        assert!(dim == 2 || dim == 3, "only 2D and 3D supported");
        assert_eq!(coords.len() % dim, 0);
        assert_eq!(elems.len() % (dim + 1), 0);
        let n = (coords.len() / dim) as u32;
        assert!(elems.iter().all(|&v| v < n), "element vertex out of range");
        Mesh { dim, coords, elems }
    }

    /// Spatial dimension (2 or 3).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vertices per element (3 for triangles, 4 for tetrahedra).
    pub fn verts_per_elem(&self) -> usize {
        self.dim + 1
    }

    pub fn n_vertices(&self) -> usize {
        self.coords.len() / self.dim
    }

    pub fn n_elements(&self) -> usize {
        self.elems.len() / self.verts_per_elem()
    }

    /// Coordinates of vertex `v` (`dim` entries).
    #[inline]
    pub fn vertex(&self, v: usize) -> &[f64] {
        &self.coords[v * self.dim..(v + 1) * self.dim]
    }

    /// Vertex indices of element `e`.
    #[inline]
    pub fn element(&self, e: usize) -> &[u32] {
        let k = self.verts_per_elem();
        &self.elems[e * k..(e + 1) * k]
    }

    /// All element connectivity, flattened.
    pub fn elements_flat(&self) -> &[u32] {
        &self.elems
    }

    /// All coordinates, flattened.
    pub fn coords_flat(&self) -> &[f64] {
        &self.coords
    }

    /// Structured triangulation of `[0, lx] × [0, ly]` with `nx × ny` cells,
    /// each split into two triangles. Produces `2·nx·ny` elements and
    /// `(nx+1)(ny+1)` vertices.
    pub fn rectangle(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        assert!(nx > 0 && ny > 0);
        let nvx = nx + 1;
        let mut coords = Vec::with_capacity((nx + 1) * (ny + 1) * 2);
        for j in 0..=ny {
            for i in 0..=nx {
                coords.push(lx * i as f64 / nx as f64);
                coords.push(ly * j as f64 / ny as f64);
            }
        }
        let id = |i: usize, j: usize| (i + j * nvx) as u32;
        let mut elems = Vec::with_capacity(nx * ny * 6);
        for j in 0..ny {
            for i in 0..nx {
                // Alternate diagonals for isotropy (union-jack style).
                if (i + j) % 2 == 0 {
                    elems.extend_from_slice(&[id(i, j), id(i + 1, j), id(i + 1, j + 1)]);
                    elems.extend_from_slice(&[id(i, j), id(i + 1, j + 1), id(i, j + 1)]);
                } else {
                    elems.extend_from_slice(&[id(i, j), id(i + 1, j), id(i, j + 1)]);
                    elems.extend_from_slice(&[id(i + 1, j), id(i + 1, j + 1), id(i, j + 1)]);
                }
            }
        }
        Mesh::from_parts(2, coords, elems)
    }

    /// Unit square `[0,1]²` triangulation.
    pub fn unit_square(nx: usize, ny: usize) -> Self {
        Self::rectangle(nx, ny, 1.0, 1.0)
    }

    /// Kuhn tetrahedralization of `[0,lx] × [0,ly] × [0,lz]` with
    /// `nx × ny × nz` cubes, each split into 6 tetrahedra.
    pub fn box3d(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        let (nvx, nvy) = (nx + 1, ny + 1);
        let mut coords = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1) * 3);
        for k in 0..=nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    coords.push(lx * i as f64 / nx as f64);
                    coords.push(ly * j as f64 / ny as f64);
                    coords.push(lz * k as f64 / nz as f64);
                }
            }
        }
        let id = |i: usize, j: usize, k: usize| (i + j * nvx + k * nvx * nvy) as u32;
        // The 6 tetrahedra of the Kuhn subdivision of the unit cube, as
        // monotone corner paths 000 → 111. All pairs of neighboring cubes
        // make conforming faces because the subdivision is translation
        // invariant.
        const KUHN: [[usize; 4]; 6] = [
            [0b000, 0b001, 0b011, 0b111],
            [0b000, 0b001, 0b101, 0b111],
            [0b000, 0b010, 0b011, 0b111],
            [0b000, 0b010, 0b110, 0b111],
            [0b000, 0b100, 0b101, 0b111],
            [0b000, 0b100, 0b110, 0b111],
        ];
        let mut elems = Vec::with_capacity(nx * ny * nz * 24);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    for tet in &KUHN {
                        for &corner in tet {
                            let di = corner & 1;
                            let dj = (corner >> 1) & 1;
                            let dk = (corner >> 2) & 1;
                            elems.push(id(i + di, j + dj, k + dk));
                        }
                    }
                }
            }
        }
        Mesh::from_parts(3, coords, elems)
    }

    /// Unit cube `[0,1]³` tetrahedralization.
    pub fn unit_cube(nx: usize, ny: usize, nz: usize) -> Self {
        Self::box3d(nx, ny, nz, 1.0, 1.0, 1.0)
    }

    /// Signed volume (area in 2D) of element `e`.
    pub fn element_volume(&self, e: usize) -> f64 {
        let el = self.element(e);
        match self.dim {
            2 => {
                let a = self.vertex(el[0] as usize);
                let b = self.vertex(el[1] as usize);
                let c = self.vertex(el[2] as usize);
                0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))
            }
            3 => {
                let a = self.vertex(el[0] as usize);
                let b = self.vertex(el[1] as usize);
                let c = self.vertex(el[2] as usize);
                let d = self.vertex(el[3] as usize);
                let u = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
                let v = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
                let w = [d[0] - a[0], d[1] - a[1], d[2] - a[2]];
                (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                    + u[2] * (v[0] * w[1] - v[1] * w[0]))
                    / 6.0
            }
            _ => unreachable!(),
        }
    }

    /// Barycenter of element `e`.
    pub fn element_centroid(&self, e: usize) -> Vec<f64> {
        let el = self.element(e);
        let mut c = vec![0.0; self.dim];
        for &v in el {
            for (ci, xi) in c.iter_mut().zip(self.vertex(v as usize)) {
                *ci += xi;
            }
        }
        for ci in &mut c {
            *ci /= el.len() as f64;
        }
        c
    }

    /// Total mesh volume.
    pub fn total_volume(&self) -> f64 {
        (0..self.n_elements())
            .map(|e| self.element_volume(e).abs())
            .sum()
    }

    /// The facets (edges in 2D, triangular faces in 3D) of element `e`,
    /// each returned as a sorted vertex tuple.
    fn element_facets(&self, e: usize) -> Vec<Vec<u32>> {
        let el = self.element(e);
        let k = self.verts_per_elem();
        (0..k)
            .map(|skip| {
                let mut f: Vec<u32> = el
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &v)| v)
                    .collect();
                f.sort_unstable();
                f
            })
            .collect()
    }

    /// Dual graph: for each element, the elements sharing a facet with it.
    /// This is the graph handed to the partitioner (the paper's METIS input).
    pub fn dual_graph(&self) -> Vec<Vec<u32>> {
        let ne = self.n_elements();
        let mut facet_map: HashMap<Vec<u32>, (u32, u32)> = HashMap::new();
        const NONE: u32 = u32::MAX;
        for e in 0..ne {
            for f in self.element_facets(e) {
                facet_map
                    .entry(f)
                    .and_modify(|p| p.1 = e as u32)
                    .or_insert((e as u32, NONE));
            }
        }
        let mut adj = vec![Vec::new(); ne];
        for (_, (a, b)) in facet_map {
            if b != NONE {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }

    /// Element adjacency through shared vertices (used for overlap growth:
    /// "T_i^δ is obtained by including all elements of T_i^{δ−1} plus all
    /// adjacent elements" — adjacency through any shared vertex gives the
    /// standard algebraic overlap).
    pub fn vertex_adjacency(&self) -> Vec<Vec<u32>> {
        let nv = self.n_vertices();
        let ne = self.n_elements();
        let mut v2e: Vec<Vec<u32>> = vec![Vec::new(); nv];
        for e in 0..ne {
            for &v in self.element(e) {
                v2e[v as usize].push(e as u32);
            }
        }
        let mut adj = vec![Vec::new(); ne];
        for e in 0..ne {
            for &v in self.element(e) {
                adj[e].extend_from_slice(&v2e[v as usize]);
            }
            adj[e].sort_unstable();
            adj[e].dedup();
            adj[e].retain(|&o| o != e as u32);
        }
        adj
    }

    /// Vertices lying on the boundary (vertices of facets that belong to
    /// exactly one element): the tests' oracle for merged interfaces.
    #[cfg(test)]
    fn boundary_vertices(&self) -> Vec<bool> {
        let mut facet_count: HashMap<Vec<u32>, u32> = HashMap::new();
        for e in 0..self.n_elements() {
            for f in self.element_facets(e) {
                *facet_count.entry(f).or_insert(0) += 1;
            }
        }
        let mut on_boundary = vec![false; self.n_vertices()];
        for (f, c) in facet_count {
            if c == 1 {
                for v in f {
                    on_boundary[v as usize] = true;
                }
            }
        }
        on_boundary
    }

    /// Merge two meshes into one conforming mesh, identifying vertices that
    /// coincide geometrically (within `tol`). Used to compose geometries
    /// from box primitives — e.g. the paper's tripod (Figure 6) built from
    /// a plate and three legs whose interfaces share identical grids.
    ///
    /// # Panics
    /// Panics if the meshes have different dimensions.
    pub fn merge(a: &Mesh, b: &Mesh, tol: f64) -> Mesh {
        assert_eq!(a.dim(), b.dim(), "merge: dimension mismatch");
        let dim = a.dim();
        let key = |p: &[f64]| -> Vec<i64> { p.iter().map(|&x| (x / tol).round() as i64).collect() };
        let mut coords = a.coords_flat().to_vec();
        let mut lookup: HashMap<Vec<i64>, u32> = (0..a.n_vertices())
            .map(|v| (key(a.vertex(v)), v as u32))
            .collect();
        // map b's vertices into the merged numbering
        let bmap: Vec<u32> = (0..b.n_vertices())
            .map(|v| {
                let k = key(b.vertex(v));
                if let Some(&id) = lookup.get(&k) {
                    id
                } else {
                    let id = (coords.len() / dim) as u32;
                    coords.extend_from_slice(b.vertex(v));
                    lookup.insert(k, id);
                    id
                }
            })
            .collect();
        let mut elems = a.elements_flat().to_vec();
        elems.extend(b.elements_flat().iter().map(|&v| bmap[v as usize]));
        Mesh::from_parts(dim, coords, elems)
    }

    /// Translate all vertices by the given offset (returns a new mesh).
    pub fn translated(&self, offset: &[f64]) -> Mesh {
        assert_eq!(offset.len(), self.dim);
        let mut coords = self.coords.clone();
        for v in 0..self.n_vertices() {
            for d in 0..self.dim {
                coords[v * self.dim + d] += offset[d];
            }
        }
        Mesh::from_parts(self.dim, coords, self.elems.clone())
    }

    /// The paper's 3D strong-scaling geometry in miniature: a tripod — a
    /// horizontal plate standing on three legs (Figure 6). `res` controls
    /// the cells per unit length.
    pub fn tripod(res: usize) -> Mesh {
        let r = res.max(1);
        // Plate: 3 × 3 × 0.5 at height z ∈ [1, 1.5].
        let plate =
            Mesh::box3d(3 * r, 3 * r, r.div_ceil(2), 3.0, 3.0, 0.5).translated(&[0.0, 0.0, 1.0]);
        // Three legs 0.5 × 0.5 × 1 under the plate. Leg grids align with
        // the plate grid (cells per unit length match), so merge() glues
        // them conformingly.
        let leg = |x0: f64, y0: f64| {
            Mesh::box3d(r.div_ceil(2), r.div_ceil(2), r, 0.5, 0.5, 1.0).translated(&[x0, y0, 0.0])
        };
        let mut m = Mesh::merge(&plate, &leg(0.0, 0.0), 1e-9);
        m = Mesh::merge(&m, &leg(2.5, 0.0), 1e-9);
        m = Mesh::merge(&m, &leg(1.0, 2.5), 1e-9);
        m
    }

    /// Boundary facets (each a sorted vertex tuple).
    pub fn boundary_facets(&self) -> Vec<Vec<u32>> {
        let mut facet_count: HashMap<Vec<u32>, u32> = HashMap::new();
        for e in 0..self.n_elements() {
            for f in self.element_facets(e) {
                *facet_count.entry(f).or_insert(0) += 1;
            }
        }
        let mut out: Vec<Vec<u32>> = facet_count
            .into_iter()
            .filter(|&(_, c)| c == 1)
            .map(|(f, _)| f)
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square_counts_and_volume() {
        let m = Mesh::unit_square(4, 3);
        assert_eq!(m.n_vertices(), 5 * 4);
        assert_eq!(m.n_elements(), 2 * 4 * 3);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_cube_counts_and_volume() {
        let m = Mesh::unit_cube(2, 2, 2);
        assert_eq!(m.n_vertices(), 27);
        assert_eq!(m.n_elements(), 6 * 8);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elements_positively_oriented_2d() {
        let m = Mesh::unit_square(3, 3);
        for e in 0..m.n_elements() {
            assert!(m.element_volume(e) > 0.0, "element {e} inverted");
        }
    }

    #[test]
    fn tet_volumes_nonzero() {
        let m = Mesh::unit_cube(1, 1, 1);
        for e in 0..m.n_elements() {
            assert!(
                (m.element_volume(e).abs() - 1.0 / 6.0).abs() < 1e-12,
                "Kuhn tets each fill 1/6 of the cube"
            );
        }
    }

    #[test]
    fn dual_graph_2d_interior_counts() {
        let m = Mesh::unit_square(2, 2);
        let g = m.dual_graph();
        // every triangle has between 1 and 3 facet neighbors
        for (e, nbrs) in g.iter().enumerate() {
            assert!(!nbrs.is_empty() && nbrs.len() <= 3, "element {e}: {nbrs:?}");
            // symmetry
            for &o in nbrs {
                assert!(g[o as usize].contains(&(e as u32)));
            }
        }
    }

    #[test]
    fn dual_graph_3d_symmetric() {
        let m = Mesh::unit_cube(2, 2, 2);
        let g = m.dual_graph();
        for (e, nbrs) in g.iter().enumerate() {
            assert!(nbrs.len() <= 4);
            for &o in nbrs {
                assert!(g[o as usize].contains(&(e as u32)));
            }
        }
    }

    #[test]
    fn boundary_vertices_square() {
        let m = Mesh::unit_square(3, 3);
        let b = m.boundary_vertices();
        let mut count = 0;
        for v in 0..m.n_vertices() {
            let p = m.vertex(v);
            let on_edge = p[0] < 1e-12 || p[0] > 1.0 - 1e-12 || p[1] < 1e-12 || p[1] > 1.0 - 1e-12;
            assert_eq!(b[v], on_edge, "vertex {v} at {p:?}");
            count += b[v] as usize;
        }
        assert_eq!(count, 12); // 4×4 grid: all but the 2×2 interior
    }

    #[test]
    fn boundary_vertices_cube() {
        let m = Mesh::unit_cube(3, 3, 3);
        let b = m.boundary_vertices();
        let interior = b.iter().filter(|&&x| !x).count();
        assert_eq!(interior, 8); // 4×4×4 grid: 2×2×2 interior
    }

    #[test]
    fn vertex_adjacency_superset_of_dual() {
        let m = Mesh::unit_square(3, 2);
        let dual = m.dual_graph();
        let vadj = m.vertex_adjacency();
        for e in 0..m.n_elements() {
            for n in &dual[e] {
                assert!(vadj[e].contains(n));
            }
        }
    }

    #[test]
    fn merge_dedupes_shared_interface() {
        // Two unit squares sharing the x = 1 edge.
        let a = Mesh::unit_square(2, 2);
        let b = Mesh::unit_square(2, 2).translated(&[1.0, 0.0]);
        let m = Mesh::merge(&a, &b, 1e-9);
        // 9 + 9 − 3 shared vertices
        assert_eq!(m.n_vertices(), 15);
        assert_eq!(m.n_elements(), 16);
        assert!((m.total_volume() - 2.0).abs() < 1e-12);
        // The interface is interior now: its edge midpoint vertex is not
        // on the boundary.
        let b_flags = m.boundary_vertices();
        let interior_interface = (0..m.n_vertices()).any(|v| {
            let p = m.vertex(v);
            (p[0] - 1.0).abs() < 1e-12 && (p[1] - 0.5).abs() < 1e-12 && !b_flags[v]
        });
        assert!(interior_interface, "interface was not merged conformingly");
    }

    #[test]
    fn tripod_is_connected_and_sane() {
        let m = Mesh::tripod(2);
        assert_eq!(m.dim(), 3);
        // volume = plate 4.5 + 3 legs × 0.25
        assert!(
            (m.total_volume() - (4.5 + 0.75)).abs() < 1e-9,
            "volume {}",
            m.total_volume()
        );
        // connected dual graph
        let adj = m.dual_graph();
        let mut seen = vec![false; m.n_elements()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(e) = stack.pop() {
            for &o in &adj[e] {
                if !seen[o as usize] {
                    seen[o as usize] = true;
                    count += 1;
                    stack.push(o as usize);
                }
            }
        }
        assert_eq!(count, m.n_elements(), "tripod mesh is disconnected");
    }

    #[test]
    fn translated_shifts_coordinates() {
        let m = Mesh::unit_square(1, 1).translated(&[2.0, -1.0]);
        assert!((m.vertex(0)[0] - 2.0).abs() < 1e-15);
        assert!((m.vertex(0)[1] + 1.0).abs() < 1e-15);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rectangle_anisotropic() {
        let m = Mesh::rectangle(10, 2, 5.0, 1.0);
        assert!((m.total_volume() - 5.0).abs() < 1e-12);
        let max_x = (0..m.n_vertices())
            .map(|v| m.vertex(v)[0])
            .fold(0.0, f64::max);
        assert!((max_x - 5.0).abs() < 1e-12);
    }
}
