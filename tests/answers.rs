//! Answer fingerprints: the `to_bits` FNV-1a of every answer a fixed set of
//! solves produces, with the solve's message counters, pinned in
//! `tests/golden/answers.json`.
//!
//! A change that keeps the arithmetic leaves the file byte-identical; a
//! change that moves rounding or traffic shows, row by row, which solves
//! moved and in what (solution, history, iterations, counters). Rows:
//!
//! * `{fig12, diffusion2d, elasticity3d} / {identity, owner2} /
//!   {classical-right, classical-left, fused} /
//!   {distributed, redundant}` — the SPMD solve on one rank per subdomain
//!   (`try_run_spmd`) and on a 2-rank owner map (`try_setup_partitioned` +
//!   `try_apply`), with the traced set-up and solve message counters
//!   summed over ranks;
//! * `diffusion2d/{identity, owner2}/one-level/{classical-right,
//!   classical-left, fused}` — the same on one-level RAS (where the fused
//!   solver runs the classical loop);
//! * `serve/{classical-right, fused}/{recycle, cold}` — a
//!   2-rank `try_serve` stream on the 2D decomposition (one right-hand side
//!   twice, then an admissibly perturbed one), with and without a recycle
//!   space: every response's `x` and history, its iterations and the traced
//!   `serve-apply` counters;
//! * `sequential/…` — the sequential inputs of `kernel_differential.rs`
//!   (GMRES under the CGS2 and MGS references on both sides) and the
//!   sequential two-level preconditioner on the 2D decomposition.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test answers`.

mod common;

use common::{random_spd, Rng};
use dd_geneo::comm::{fnv1a_bytes, CostModel, PhaseCounters, World, WorldTrace};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_run_spmd, try_setup_partitioned, two_level, CoarseCache,
    CoarseSolve, Decomposition, GeneoOpts, MultiApplyOutcome, Problem, SolverKind, SpmdOpts,
    TwoLevelOpts,
};
use dd_geneo::krylov::{try_gmres, GmresOpts, IdentityPrecond, Ortho, SeqDot, Side, SolveResult};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::serve::{try_serve, Payload, Request, ResponseStore, ServeOpts, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn fnv(x: &[f64]) -> String {
    format!(
        "{:016x}",
        fnv1a_bytes(0, x.iter().flat_map(|v| v.to_bits().to_le_bytes()))
    )
}

/// One solve's fingerprint, one JSON object on one line.
struct Row {
    x: Vec<f64>,
    history: Vec<f64>,
    iterations: usize,
    status: String,
    final_residual: f64,
    /// `(name, value)` of the message counters, if any.
    counters: Vec<(String, u64)>,
}

impl Row {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"x\": \"{}\", \"history\": \"{}\", \"iterations\": {}, \"status\": \"{}\", \
             \"final_residual\": \"{:016x}\"",
            fnv(&self.x),
            fnv(&self.history),
            self.iterations,
            self.status,
            self.final_residual.to_bits()
        );
        for (name, v) in &self.counters {
            s.push_str(&format!(", \"{name}\": {v}"));
        }
        s.push('}');
        s
    }
}

fn sequential_row(res: &SolveResult) -> Row {
    Row {
        x: res.x.clone(),
        history: res.history.clone(),
        iterations: res.iterations,
        status: res.status.to_string(),
        final_residual: res.final_residual,
        counters: Vec::new(),
    }
}

/// Phases of the solve: the Krylov loop and the cooperative coarse solve
/// nested in it (both spellings of its name).
const SOLVE_PHASES: [&str; 3] = ["solve", "e-solve-dist", "recovery-e-solve-dist"];

/// Message counters of a traced run, split into the solve and the rest
/// (set-up).
fn counters(trace: &WorldTrace) -> Vec<(String, u64)> {
    let (mut solve, mut setup) = (PhaseCounters::default(), PhaseCounters::default());
    for phase in trace.phase_names() {
        let part = if SOLVE_PHASES.contains(&phase.as_str()) {
            &mut solve
        } else {
            &mut setup
        };
        part.absorb(&trace.phase_totals(&phase));
    }
    [("setup", setup), ("solve", solve)]
        .into_iter()
        .flat_map(|(part, c)| {
            [
                ("sends", c.sends),
                ("send_bytes", c.send_bytes),
                ("collectives", c.collectives_eq + c.collectives_v),
                ("collective_bytes", c.collective_bytes),
            ]
            .map(|(name, v)| (format!("{part}_{name}"), v))
        })
        .collect()
}

/// One SPMD solve: rank 0's result, every rank's locals and the run's trace.
fn spmd_row(results: Vec<MultiApplyOutcome>, trace: &WorldTrace) -> Row {
    let iterations = results[0].result.iterations;
    assert!(
        results.iter().all(|o| o.result.iterations == iterations),
        "ranks disagree on iterations"
    );
    let mut locals: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut first = None;
    for o in results {
        first.get_or_insert(o.result);
        locals.extend(o.locals);
    }
    locals.sort_by_key(|(s, _)| *s);
    let res = first.expect("at least one rank");
    Row {
        x: locals.into_iter().flat_map(|(_, x)| x).collect(),
        counters: counters(trace),
        ..sequential_row(&res)
    }
}

fn identity_map(decomp: &Arc<Decomposition>, opts: &SpmdOpts) -> Row {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let (sols, trace) =
        World::run_traced(decomp.n_subdomains(), CostModel::default(), move |comm| {
            try_run_spmd(&d, comm, &o)
                .expect("identity-map solve failed")
                .solve
        });
    spmd_row(sols, &trace)
}

fn owner_map(decomp: &Arc<Decomposition>, opts: &SpmdOpts) -> Row {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let (per_rank, trace) = World::run_traced(2, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let prepared =
            try_setup_partitioned(&d, comm, &o, None, &plan, true).expect("owner-map set-up");
        prepared
            .try_apply(&d.rhs_global, "solve", None)
            .expect("owner-map solve")
    });
    spmd_row(per_rank, &trace)
}

fn build(mesh: Mesh, problem: Problem, nparts: usize) -> Arc<Decomposition> {
    let part = partition_mesh_rcb(&mesh, nparts);
    Arc::new(decompose(&mesh, &problem, &part, nparts, 1))
}

/// `(name, decomposition, nev)` of the SPMD rows.
fn decompositions() -> Vec<(&'static str, Arc<Decomposition>, usize)> {
    vec![
        (
            "fig12",
            build(
                Mesh::unit_square(28, 28),
                presets::heterogeneous_diffusion(2),
                8,
            ),
            6,
        ),
        (
            "diffusion2d",
            build(
                Mesh::unit_square(16, 16),
                presets::heterogeneous_diffusion(1),
                6,
            ),
            3,
        ),
        (
            "elasticity3d",
            build(
                Mesh::box3d(4, 2, 2, 2.0, 1.0, 1.0),
                presets::heterogeneous_elasticity(2, 3),
                4,
            ),
            8,
        ),
    ]
}

/// The Krylov loops of the SPMD rows: `(name, solver, side)`.
const LOOPS: [(&str, SolverKind, Side); 3] = [
    ("classical-right", SolverKind::Classical, Side::Right),
    ("classical-left", SolverKind::Classical, Side::Left),
    ("fused", SolverKind::Fused, Side::Left),
];

/// Options of an SPMD row.
fn spmd_opts(nev: usize, solver: SolverKind, side: Side, coarse_solve: CoarseSolve) -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev,
            ..Default::default()
        },
        n_masters: 2,
        gmres: GmresOpts {
            tol: 1e-6,
            max_iters: 200,
            side,
            ..Default::default()
        },
        solver,
        coarse_solve,
        ..Default::default()
    }
}

fn spmd_rows(rows: &mut BTreeMap<String, String>) {
    for (name, decomp, nev) in decompositions() {
        for (loop_name, solver, side) in LOOPS {
            for (coarse_name, coarse_solve) in [
                ("distributed", CoarseSolve::Distributed),
                ("redundant", CoarseSolve::Redundant),
            ] {
                let opts = spmd_opts(nev, solver, side, coarse_solve);
                for (map, row) in [
                    ("identity", identity_map(&decomp, &opts)),
                    ("owner2", owner_map(&decomp, &opts)),
                ] {
                    rows.insert(
                        format!("{name}/{map}/{loop_name}/{coarse_name}"),
                        row.json(),
                    );
                }
            }
        }
    }
}

/// One-level RAS (ν = 0) on the 2D decomposition under every loop.
fn one_level_rows(rows: &mut BTreeMap<String, String>) {
    let (name, decomp, _) = decompositions().swap_remove(1);
    for (loop_name, solver, side) in LOOPS {
        let opts = spmd_opts(0, solver, side, CoarseSolve::Distributed);
        for (map, row) in [
            ("identity", identity_map(&decomp, &opts)),
            ("owner2", owner_map(&decomp, &opts)),
        ] {
            rows.insert(format!("{name}/{map}/one-level/{loop_name}"), row.json());
        }
    }
}

/// Phases of a served apply: the Krylov loop and the cooperative coarse
/// solve nested in it.
const SERVE_PHASES: [&str; 2] = ["serve-apply", "recovery-e-solve-dist"];

fn serve_rows(rows: &mut BTreeMap<String, String>) {
    let (_, decomp, nev) = decompositions().swap_remove(1);
    let n = decomp.n_global;
    let wave = |f: f64| -> Vec<f64> { (0..n).map(|i| ((i as f64 + 1.3) * f).sin()).collect() };
    let request = |id: usize, payload| Request {
        id,
        arrival: 0.1 * id as f64,
        payload,
    };
    let workload = Workload::from_requests(vec![
        request(0, Payload::Rhs(wave(0.7))),
        request(1, Payload::Rhs(wave(0.7))),
        request(
            2,
            Payload::Perturbed {
                theta: 0.03,
                rhs: wave(1.9),
            },
        ),
    ]);
    let loops = [
        ("classical-right", SolverKind::Classical, Side::Right),
        ("fused", SolverKind::Fused, Side::Left),
    ];
    for (loop_name, solver, side) in loops {
        for (mode, recycle_dim) in [("recycle", 8), ("cold", 0)] {
            let opts = ServeOpts {
                spmd: SpmdOpts {
                    geneo: GeneoOpts {
                        nev,
                        ..Default::default()
                    },
                    n_masters: 2,
                    gmres: GmresOpts {
                        tol: 1e-9,
                        max_iters: 200,
                        side,
                        ..Default::default()
                    },
                    solver,
                    ..Default::default()
                },
                recycle_dim,
                ..Default::default()
            };
            let (d, w) = (Arc::clone(&decomp), workload.clone());
            let (cache, store) = (Arc::new(CoarseCache::new()), Arc::new(ResponseStore::new()));
            let (reports, trace) = World::run_traced(2, CostModel::default(), move |comm| {
                try_serve(&d, comm, &opts, &w, &cache, &store).expect("served stream")
            });
            let responses = &reports[0].responses;
            let list = |f: &dyn Fn(&dd_geneo::serve::Response) -> String| -> String {
                let items: Vec<String> = responses.iter().map(f).collect();
                format!("[{}]", items.join(", "))
            };
            let mut apply = PhaseCounters::default();
            for phase in SERVE_PHASES {
                apply.absorb(&trace.phase_totals(phase));
            }
            rows.insert(
                format!("serve/{loop_name}/{mode}"),
                format!(
                    "{{\"x\": {}, \"history\": {}, \"iterations\": {}, \
                     \"serve_apply_sends\": {}, \"serve_apply_send_bytes\": {}, \
                     \"serve_apply_collectives\": {}, \"serve_apply_collective_bytes\": {}}}",
                    list(&|r| format!("\"{}\"", fnv(&r.x))),
                    list(&|r| format!("\"{}\"", fnv(&r.history))),
                    list(&|r| r.iterations.to_string()),
                    apply.sends,
                    apply.send_bytes,
                    apply.collectives_eq + apply.collectives_v,
                    apply.collective_bytes
                ),
            );
        }
    }
}

fn sequential_rows(rows: &mut BTreeMap<String, String>) {
    let mut rng = Rng::new(2024);
    let a = random_spd(&mut rng, 120, 4);
    let x0 = vec![0.0; 120];
    for (name, ortho, side) in [
        ("cgs2-right", Ortho::Cgs2, Side::Right),
        ("mgs-right", Ortho::Mgs, Side::Right),
        ("cgs2-left", Ortho::Cgs2, Side::Left),
        ("mgs-left", Ortho::Mgs, Side::Left),
    ] {
        let b = rng.vec_f64(120, -1.0, 1.0);
        let opts = GmresOpts {
            restart: 25,
            tol: 1e-10,
            max_iters: 120,
            ortho,
            side,
            ..Default::default()
        };
        let res = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts, None).unwrap();
        rows.insert(
            format!("sequential/random_spd/{name}"),
            sequential_row(&res).json(),
        );
    }
    let (_, decomp, nev) = decompositions().swap_remove(1);
    let m = two_level(
        &decomp,
        &TwoLevelOpts {
            geneo: GeneoOpts {
                nev,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let opts = GmresOpts {
        tol: 1e-8,
        max_iters: 200,
        side: Side::Right,
        ..Default::default()
    };
    let x0 = vec![0.0; decomp.n_global];
    let res = try_gmres(
        &decomp.a_global,
        &m,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        &opts,
        None,
    )
    .unwrap();
    rows.insert(
        "sequential/diffusion2d/two-level-right".to_string(),
        sequential_row(&res).json(),
    );
}

#[test]
fn answers_match_the_golden_fingerprints() {
    let mut rows = BTreeMap::new();
    spmd_rows(&mut rows);
    one_level_rows(&mut rows);
    serve_rows(&mut rows);
    sequential_rows(&mut rows);
    let body: Vec<String> = rows
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/answers.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let moved: Vec<&str> = golden
        .lines()
        .zip(json.lines())
        .filter(|(a, b)| a != b)
        .map(|(_, b)| b)
        .collect();
    assert!(
        golden == json,
        "answers moved from {} ({} row(s), first: {:?}); if intended, regenerate with \
         UPDATE_GOLDEN=1",
        path.display(),
        moved.len(),
        moved.first()
    );
}
