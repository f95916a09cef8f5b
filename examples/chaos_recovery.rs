//! Chaos-testing the SPMD solver: seeded fault plans, the degradation
//! lattice GenEO → Nicolaides → one-level RAS, and shrink-and-continue
//! recovery from rank death (world shrink, subdomain adoption,
//! checkpointed Krylov restart).
//!
//! Runs the same heterogeneous-diffusion problem under a series of fault
//! plans and prints, per rank, which recovery path the run took (from the
//! `RunReport` each `SpmdReport` carries).
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use dd_geneo::comm::{CostModel, FaultPlan, RetryPolicy, TagClass, World};
use dd_geneo::core::geneo::GeneoOpts;
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, try_run_spmd, try_run_spmd_recoverable, CheckpointStore, Decomposition, SpmdError,
    SpmdMultiSolution, SpmdOpts,
};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

// The outside referees (reassembly, true residual) are the test suites'.
#[path = "../tests/common/mod.rs"]
mod common;

type RecResult = Result<SpmdMultiSolution, SpmdError>;

/// Right-preconditioned GMRES (the convergence test monitors the true
/// residual, so the global residual printed below is meaningful).
fn opts() -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev: 5,
            ..Default::default()
        },
        gmres: GmresOpts {
            tol: 1e-6,
            max_iters: 500,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run(decomp: &Arc<Decomposition>, plan: FaultPlan) -> Vec<Result<SpmdMultiSolution, SpmdError>> {
    run_with_policy(decomp, plan, None)
}

fn run_with_policy(
    decomp: &Arc<Decomposition>,
    plan: FaultPlan,
    policy: Option<RetryPolicy>,
) -> Vec<Result<SpmdMultiSolution, SpmdError>> {
    let d = Arc::clone(decomp);
    let o = opts();
    World::run_with_faults(
        decomp.n_subdomains(),
        CostModel::default(),
        plan,
        move |comm| {
            if let Some(p) = policy {
                comm.set_retry_policy(p);
            }
            try_run_spmd(&d, comm, &o)
        },
    )
}

/// Run with shrink-and-continue recovery armed; every rank shares one
/// `CheckpointStore` (modeling the parallel file system).
fn run_recoverable(decomp: &Arc<Decomposition>, plan: FaultPlan, opts: SpmdOpts) -> Vec<RecResult> {
    let d = Arc::clone(decomp);
    let store = Arc::new(CheckpointStore::new());
    World::run_with_faults(
        decomp.n_subdomains(),
        CostModel::default(),
        plan,
        move |comm| try_run_spmd_recoverable(&d, comm, &opts, &store),
    )
}

/// `‖b − Ax‖ / ‖b‖` of the global iterate reassembled from the survivors'
/// per-subdomain locals.
fn global_residual<'a>(
    decomp: &Decomposition,
    results: impl Iterator<Item = &'a RecResult>,
) -> f64 {
    let x = common::reassemble(decomp, results.flatten().map(|r| &r.solve.locals));
    common::global_residual(decomp, &x)
}

fn describe(label: &str, results: &[Result<SpmdMultiSolution, SpmdError>]) {
    println!("\n=== {label} ===");
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(SpmdMultiSolution { report: r, solve }) => {
                let f = &r.run.faults;
                println!(
                    "rank {rank}: {} in {} it. | deflation: {:?} | coarse: {:?} | \
                     faults: {} delayed, {} dropped, {} retries, \
                     {} corrupted ({} detected, {} retransmits)",
                    if solve.result.converged {
                        "converged"
                    } else {
                        "NOT converged"
                    },
                    solve.result.iterations,
                    r.run.deflation,
                    r.run.coarse,
                    f.delays_injected,
                    f.drops_injected,
                    f.retries,
                    f.corruptions_injected,
                    f.corruptions_detected,
                    f.retransmits,
                );
                for (phase, outcome) in &r.run.phases {
                    if let dd_geneo::core::PhaseOutcome::Degraded { reason } = outcome {
                        println!("         degraded phase \"{phase}\": {reason}");
                    }
                }
            }
            Err(e) => println!("rank {rank}: error: {e}"),
        }
    }
}

fn describe_recovery(label: &str, decomp: &Decomposition, results: &[RecResult]) {
    println!("\n=== {label} ===");
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(SpmdMultiSolution { report: r, solve }) => {
                let subs: Vec<usize> = solve.locals.iter().map(|(s, _)| *s).collect();
                println!(
                    "rank {rank}: {} in {} it. | owns subdomains {:?} | deflation: {:?}",
                    if solve.result.converged {
                        "converged"
                    } else {
                        "NOT converged"
                    },
                    solve.result.iterations,
                    subs,
                    r.run.deflation,
                );
                for rec in &r.run.recoveries {
                    println!(
                        "         recovery: epoch {} | dead {:?} | adopted {:?} | resumed {}",
                        rec.epoch,
                        rec.dead,
                        rec.adopted,
                        rec.resume_iteration
                            .map_or("from scratch".to_string(), |i| format!("at iteration {i}")),
                    );
                }
            }
            Err(e) => println!("rank {rank}: error: {e}"),
        }
    }
    println!(
        "global residual over survivors: {:.3e}",
        global_residual(decomp, results.iter())
    );
}

fn main() {
    let n = 4;
    let mesh = Mesh::unit_square(16, 16);
    let part = partition_mesh_rcb(&mesh, n);
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, n, 1));

    describe("fault-free baseline", &run(&decomp, FaultPlan::default()));
    describe(
        "40% of messages delayed",
        &run(&decomp, FaultPlan::new(11).with_delays(0.4, 5e-4)),
    );
    describe(
        "30% of messages dropped twice (recovered by retries)",
        &run(&decomp, FaultPlan::new(13).with_drops(0.3, 2)),
    );
    describe(
        "one wire bit-flip per 'solve'-phase message (checksummed envelopes \
         detect; one retransmit heals each)",
        &run(
            &decomp,
            FaultPlan::new(9).with_corrupt("solve", None, TagClass::Any, 9),
        ),
    );
    describe(
        "eigensolve fails on rank 2 (Nicolaides fallback)",
        &run(
            &decomp,
            FaultPlan::new(3).with_failure(Some(2), "eigensolve"),
        ),
    );
    describe(
        "coarse factorization fails (one-level RAS fallback)",
        &run(
            &decomp,
            FaultPlan::new(5).with_failure(None, "coarse-factor"),
        ),
    );
    describe(
        "rank 1 killed after coarse assembly (no recovery: typed errors)",
        &run(&decomp, FaultPlan::new(1).with_kill(1, "post-assembly")),
    );
    describe(
        "every message dropped 20x (explicit unbounded retries recover; \
         the default ambient policy is bounded at 8)",
        &run_with_policy(
            &decomp,
            FaultPlan::new(7).with_drops(1.0, 20),
            Some(RetryPolicy::unbounded()),
        ),
    );

    // --- shrink-and-continue: the same deaths, but the run survives ----
    let recover = |interval, one_level| {
        let mut o = opts();
        o.recovery.enabled = true;
        o.recovery.checkpoint_interval = interval;
        if one_level {
            o.geneo.nev = 0;
        }
        o
    };
    describe_recovery(
        "rank 1 killed applying RAS — survivors shrink, adopt, re-solve",
        &decomp,
        &run_recoverable(
            &decomp,
            FaultPlan::new(1).with_kill(1, "ras"),
            recover(5, false),
        ),
    );
    describe_recovery(
        "rank 2 killed at solve iteration 4 (one-level run) — resume from \
         the iteration-2 checkpoint",
        &decomp,
        &run_recoverable(
            &decomp,
            FaultPlan::new(1).with_kill(2, "solve-iteration-4"),
            recover(2, true),
        ),
    );
}
