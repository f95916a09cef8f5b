//! The set-up does each job once, and the result did not move.
//!
//! On the three configurations the repo benchmark runs (`benchmark/`,
//! `workloads.rs`): the shared node-graph order costs no fill against the
//! dof-graph minimum degree each factorization used to compute for itself;
//! `try_setup_partitioned` runs one minimum-degree ordering per owned
//! subdomain; and GMRES through that set-up takes the iteration counts it
//! took before the order was shared and the eigensolver stopped early, to
//! the same true residual.

use dd_geneo::comm::{CostModel, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_setup_partitioned, CoarseCache, Decomposition, GeneoOpts,
    SpmdOpts,
};
use dd_geneo::krylov::{GmresOpts, Side};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::ldlt::etree_and_counts;
use dd_geneo::solver::{ordering, Ordering};
use std::sync::Arc;

struct Config {
    name: &'static str,
    decomp: Arc<Decomposition>,
    nev: usize,
    /// GMRES iterations at the parent of the change that shared the order
    /// (same right-hand side, same options).
    iterations: usize,
}

fn configs() -> Vec<Config> {
    let build = |mesh: Mesh, problem, nparts: usize| {
        let part = partition_mesh_rcb(&mesh, nparts);
        Arc::new(decompose(&mesh, &problem, &part, nparts, 1))
    };
    vec![
        Config {
            name: "elasticity3d",
            decomp: build(
                Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0),
                presets::heterogeneous_elasticity(2, 3),
                4,
            ),
            nev: 8,
            iterations: 11,
        },
        Config {
            name: "diffusion2d_many",
            decomp: build(
                Mesh::unit_square(48, 48),
                presets::heterogeneous_diffusion(2),
                32,
            ),
            nev: 2,
            iterations: 70,
        },
        Config {
            name: "serve_stream",
            decomp: build(Mesh::unit_square(32, 32), presets::uniform_diffusion(2), 16),
            nev: 3,
            iterations: 9,
        },
    ]
}

/// nnz(L), diagonal included, of `a` under `perm`.
fn fill(a: &dd_geneo::linalg::CsrMatrix, perm: &[usize]) -> usize {
    let (_, counts) = etree_and_counts(&a.permute_sym(perm));
    counts.iter().sum::<usize>() + a.rows()
}

#[test]
fn shared_node_graph_order_costs_no_fill() {
    for c in configs() {
        let (mut own_dirichlet, mut own_pencil, mut shared_dirichlet, mut shared_pencil) =
            (0, 0, 0, 0);
        for s in &c.decomp.subdomains {
            // What each factorization computed for itself before: the
            // dof-graph minimum degree of its own matrix.
            own_dirichlet += fill(&s.a_dirichlet, &ordering::min_degree(&s.a_dirichlet));
            own_pencil += fill(&s.a_neumann, &ordering::min_degree(&s.a_neumann));
            let shared = ordering::fill_reducing(&s.a_dirichlet, Ordering::MinDegree);
            shared_dirichlet += fill(&s.a_dirichlet, &shared);
            shared_pencil += fill(&s.a_neumann, &shared);
        }
        for (what, own, shared) in [
            ("A_dirichlet", own_dirichlet, shared_dirichlet),
            ("A_neumann - sigma B", own_pencil, shared_pencil),
        ] {
            assert!(
                shared as f64 <= 1.02 * own as f64,
                "{}: nnz(L) of {what} {own} -> {shared} under the shared order",
                c.name
            );
        }
        if c.decomp.components > 1 {
            assert!(
                shared_dirichlet < own_dirichlet,
                "{}: the node graph should order a vector-valued operator better",
                c.name
            );
        }
    }
}

#[test]
fn one_ordering_per_owned_subdomain_and_iterations_unchanged() {
    for c in configs() {
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: c.nev,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 500,
                side: Side::Right,
                ..Default::default()
            },
            ..Default::default()
        };
        let n = c.decomp.n_global;
        let rhs: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (0.37 * i as f64).sin() + 0.5).collect());
        let (decomp, b) = (Arc::clone(&c.decomp), Arc::clone(&rhs));
        // Fresh, as for every block of the benchmark: without one, subdomains
        // other than a rank's own get the Nicolaides substitute.
        let cache = CoarseCache::new();
        let per_rank = World::run(2, CostModel::default(), move |comm| {
            let plan = repartition_plan(&decomp, comm, None);
            let owned = plan
                .owner_world
                .iter()
                .filter(|&&o| o == comm.world_rank())
                .count();
            let before = ordering::min_degree_calls();
            let prepared = try_setup_partitioned(&decomp, comm, &opts, Some(&cache), &plan, true)
                .expect("set-up failed");
            let orderings = ordering::min_degree_calls() - before;
            let out = prepared.try_apply(&b, "solve", None).expect("solve failed");
            let nominal = prepared.report(&out).run.fully_nominal();
            (
                owned as u64,
                orderings,
                out.result.iterations,
                out.locals,
                nominal,
            )
        });
        let mut locals: Vec<(usize, Vec<f64>)> = Vec::new();
        for (owned, orderings, iterations, mine, nominal) in per_rank {
            assert_eq!(
                orderings, owned,
                "{}: minimum-degree orderings per set-up on a rank owning {owned}",
                c.name
            );
            assert!(nominal, "{}: a phase was degraded", c.name);
            assert_eq!(iterations, c.iterations, "{}: GMRES iterations", c.name);
            locals.extend(mine);
        }
        locals.sort_by_key(|(s, _)| *s);
        let locals: Vec<Vec<f64>> = locals.into_iter().map(|(_, x)| x).collect();
        let x = c.decomp.from_locals(&locals);
        let mut ax = vec![0.0; n];
        c.decomp.a_global.spmv(&x, &mut ax);
        let num: f64 = ax
            .iter()
            .zip(rhs.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f64 = rhs.iter().map(|b| b * b).sum();
        let residual = (num / den).sqrt();
        // The tolerance is on GMRES's own residual; under the κ contrast of
        // `diffusion2d_many` the true one ends at 3.6e-8, before as after.
        assert!(residual <= 1e-7, "{}: true residual {residual:e}", c.name);
    }
}
