//! The three workloads and the inputs a seed turns into.
//!
//! Mesh, coefficients, partition and the *shape* of the request stream are
//! fixed per workload, so every seed costs the same work; the seed draws
//! the right-hand sides (the pool the one-shot solves cycle through and
//! every right-hand side of the stream).

use crate::spans::Spans;
use dd_core::problem::presets;
use dd_core::{decompose, Decomposition, GeneoOpts, Problem, SpmdOpts};
use dd_fem::{assembly, DofMap};
use dd_krylov::{GmresOpts, Side};
use dd_linalg::CsrMatrix;
use dd_mesh::Mesh;
use dd_part::partition_mesh_rcb;
use dd_serve::{Payload, ServeOpts, StreamCfg, Workload as Stream};
use std::sync::Arc;
use std::time::Instant;

/// Relative residual every solve is asked for.
pub const TOL: f64 = 1e-8;
/// Right-hand sides the one-shot solves cycle through.
pub const POOL: usize = 16;
/// Seed of the stream's shape (request kinds, batch sizes, perturbations).
const STREAM_SHAPE_SEED: u64 = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Block = one set-up + `solves_per_block` one-shot solves.
    OneShot,
    /// Block = one set-up + one resident stream of `stream_rhs` answers.
    Stream,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Timed blocks per run at `spec::RUN_SECONDS` (one more is discarded
    /// as warm-up).
    pub blocks: usize,
    pub solves_per_block: usize,
    /// Right-hand sides in the request stream. The stream is the gated
    /// work of `serve_stream`; the other workloads answer a short one in
    /// the traced pass only, so the `serve.*` layer numbers exist for
    /// their operators too.
    pub stream_rhs: usize,
    /// Largest perturbation `θ` of a stream request (`A(θ) = A + θ·diag A`,
    /// answered under the preconditioner built at `θ = 0`); 0 = the stream
    /// carries no perturbed request. Far inside the server's admissibility
    /// ball of 0.05, because the ball is not what limits it: `θ·diag A` is
    /// measured against the *smallest* eigenvalues of `A`. Under the 3·10⁶
    /// coefficient contrast of `diffusion2d_many`, `θ = 0.007` costs 160
    /// iterations and leaves a true residual of 1e-5, and even `θ = 1e-5`
    /// reaches 9.8e-7 on one seed in twelve — so that operator gets none.
    pub theta_max: f64,
    /// Rounds of the traced pass's block variants at `spec::RUN_SECONDS`.
    pub traced_rounds: usize,
    pub subdomains: usize,
    /// GenEO eigenvectors per subdomain.
    pub nev: usize,
    mesh: fn() -> Mesh,
    problem: fn() -> Problem,
}

pub const ALL: [Workload; 3] = [
    Workload {
        name: "elasticity3d",
        why: "set-up-bound: supernodal fronts, 3x3 BSR and the GenEO eigensolve are most of time-to-solution; few, arithmetic-heavy iterations",
        kind: Kind::OneShot,
        blocks: 32,
        solves_per_block: 3,
        stream_rhs: 8,
        theta_max: 0.01,
        traced_rounds: 5,
        subdomains: 4,
        nev: 8,
        mesh: || Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0),
        problem: || presets::heterogeneous_elasticity(2, 3),
    },
    Workload {
        name: "diffusion2d_many",
        why: "iteration-bound: 69 cheap iterations over 32 subdomains on 2 ranks, so solve time is the runtime, Multi* glue, coarse solve and orthogonalisation; set-up is a seventh of a block",
        kind: Kind::OneShot,
        blocks: 12,
        solves_per_block: 7,
        stream_rhs: 8,
        theta_max: 0.0,
        traced_rounds: 3,
        subdomains: 32,
        nev: 2,
        mesh: || Mesh::unit_square(48, 48),
        problem: || presets::heterogeneous_diffusion(2),
    },
    Workload {
        name: "serve_stream",
        why: "one resident set-up answering a 32-RHS stream: batches, operator reuse under perturbation, recycling and response checksums run only here",
        kind: Kind::Stream,
        blocks: 28,
        solves_per_block: 0,
        stream_rhs: 32,
        theta_max: 0.01,
        traced_rounds: 16,
        subdomains: 16,
        nev: 3,
        mesh: || Mesh::unit_square(32, 32),
        problem: || presets::uniform_diffusion(2),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Wall seconds of the pre-set-up pipeline, one entry per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pipeline {
    pub mesh_s: f64,
    pub part_s: f64,
    pub decompose_s: f64,
}

/// Everything a run of one workload needs, built once per process.
pub struct Instance {
    pub workload: &'static Workload,
    pub mesh: Mesh,
    pub part: Vec<u32>,
    pub decomp: Arc<Decomposition>,
    pub opts: ServeOpts,
    pub pool: Arc<Vec<Vec<f64>>>,
    pub stream: Arc<Stream>,
    /// `A(θ)` for every distinct perturbation of the stream, to check the
    /// perturbed answers against the operator they were asked for.
    pub perturbed: Vec<(f64, CsrMatrix)>,
    pub pipeline: Pipeline,
}

impl Workload {
    pub fn problem(&self) -> Problem {
        (self.problem)()
    }

    /// Solver options shared by every pass. Right preconditioning, so the
    /// tolerance is on the true residual `‖b − A x‖ / ‖b‖` — with left
    /// preconditioning and a 3·10⁶ coefficient contrast the preconditioned
    /// residual meets 1e-8 while the true one is still 1e-3.
    pub fn opts(&self) -> ServeOpts {
        ServeOpts {
            spmd: SpmdOpts {
                geneo: GeneoOpts {
                    nev: self.nev,
                    ..Default::default()
                },
                gmres: GmresOpts {
                    tol: TOL,
                    max_iters: 500,
                    side: Side::Right,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    pub fn instance(&'static self, seed: u64, spans: &mut Spans) -> Instance {
        let walk = spans.enter("pipeline");
        let (mesh, mesh_s) = spans.time("mesh.build", self.mesh);
        let (part, part_s) = spans.time("part.rcb", || partition_mesh_rcb(&mesh, self.subdomains));
        let (decomp, decompose_s) = spans.time("core.decompose", || {
            decompose(&mesh, &self.problem(), &part, self.subdomains, 1)
        });
        let decomp = Arc::new(decomp);
        let n = decomp.n_global;
        let mut state = splitmix64(&mut seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pool = (0..POOL).map(|_| rhs_vec(&mut state, n)).collect();
        let stream = self.stream(n, &mut state);
        let perturbed = stream
            .thetas()
            .into_iter()
            .map(|t| (t, decomp.perturb_diag(t).a_global))
            .collect();
        spans.exit(walk);
        Instance {
            workload: self,
            mesh,
            part,
            decomp,
            opts: self.opts(),
            pool: Arc::new(pool),
            stream: Arc::new(stream),
            perturbed,
            pipeline: Pipeline {
                mesh_s,
                part_s,
                decompose_s,
            },
        }
    }

    /// The request stream: singles, batches of at most three, and 30 %
    /// perturbed requests at `θ = theta_max / 2` and `theta_max` (positive,
    /// so `A(θ)` stays definite; admissible, so none forces a re-set-up),
    /// trimmed to exactly `stream_rhs` right-hand sides. The shape comes from a fixed seed;
    /// `state` redraws every right-hand side.
    fn stream(&self, n_global: usize, state: &mut u64) -> Stream {
        let cfg = StreamCfg {
            n_requests: 2 * self.stream_rhs,
            mean_interarrival: 1e-3,
            batch_fraction: 0.3,
            max_rhs_per_request: 3,
            perturb_fraction: 0.3,
            theta_max: self.theta_max,
        };
        // Shape only: one entry per right-hand side keeps this cheap.
        let shape = Stream::generate(STREAM_SHAPE_SEED, 1, &cfg);
        let mut requests = Vec::new();
        let (mut total, mut perturbed) = (0usize, 0usize);
        for mut r in shape.requests {
            if total == self.stream_rhs {
                break;
            }
            let fresh = |state: &mut u64| rhs_vec(state, n_global);
            r.payload = match r.payload {
                Payload::Rhs(_) => Payload::Rhs(fresh(state)),
                Payload::Perturbed { .. } if self.theta_max == 0.0 => Payload::Rhs(fresh(state)),
                Payload::Perturbed { .. } => {
                    // Two distinct operators, met alternately: the server
                    // keeps a perturbed copy of the decomposition and a
                    // recycle space per distinct θ.
                    perturbed += 1;
                    let theta = self.theta_max * if perturbed % 2 == 1 { 0.5 } else { 1.0 };
                    Payload::Perturbed {
                        theta,
                        rhs: fresh(state),
                    }
                }
                Payload::Batch(b) => {
                    let k = b.len().min(self.stream_rhs - total);
                    if k == 1 {
                        Payload::Rhs(fresh(state))
                    } else {
                        Payload::Batch((0..k).map(|_| fresh(state)).collect())
                    }
                }
            };
            total += r.n_rhs();
            r.id = requests.len();
            requests.push(r);
        }
        assert_eq!(total, self.stream_rhs, "stream trim must land exactly");
        Stream::from_requests(requests)
    }
}

impl Instance {
    /// The operator a request at `theta` was asked against.
    pub fn operator(&self, theta: f64) -> &CsrMatrix {
        self.perturbed
            .iter()
            .find(|(t, _)| t.to_bits() == theta.to_bits())
            .map_or(&self.decomp.a_global, |(_, a)| a)
    }

    /// `‖b − A x‖ / ‖b‖`.
    pub fn true_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let r2: f64 = ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
        let b2: f64 = b.iter().map(|q| q * q).sum();
        (r2 / b2).sqrt()
    }

    /// Wall seconds of assembling the global operator alone (`decompose`
    /// repeats this work inside itself; timed separately for `fem.*`).
    pub fn assemble_global(&self) -> (f64, usize) {
        let t = Instant::now();
        let problem = self.workload.problem();
        let dm = DofMap::new(&self.mesh, problem.order);
        let (a_raw, mut rhs) = problem.assemble(&self.mesh, &dm);
        let flags = problem.dirichlet_flags(&self.mesh, &dm);
        let a = assembly::apply_dirichlet(&a_raw, &mut rhs, &flags, None);
        (t.elapsed().as_secs_f64(), a.nnz())
    }
}

/// The workspace's seeded mixer (same recurrence as `dd_serve::stream`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Entries uniform in `[-1, 1)`.
fn rhs_vec(state: &mut u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| 2.0 * ((splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64) - 1.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_values_but_not_stream_shape() {
        let w = by_name("serve_stream").unwrap();
        let shape = |s: &Stream| -> Vec<(usize, u64)> {
            s.requests
                .iter()
                .map(|r| (r.n_rhs(), r.theta().to_bits()))
                .collect()
        };
        let (mut a, mut b) = (1u64, 2u64);
        let (sa, sb) = (w.stream(5, &mut a), w.stream(5, &mut b));
        assert_eq!(sa.n_rhs_total(), 32);
        assert_eq!(shape(&sa), shape(&sb));
        assert_ne!(sa.requests[0].rhs(0), sb.requests[0].rhs(0));
        let mut a2 = 1u64;
        assert_eq!(
            w.stream(5, &mut a2).requests[3].rhs(0),
            sa.requests[3].rhs(0)
        );
        assert!(sa.requests.iter().any(|r| r.theta() != 0.0));
        assert!(sa.requests.iter().any(|r| r.n_rhs() > 1));
        assert_eq!(sa.thetas(), [0.005, 0.01]);
    }
}
