//! The solve server as a long-lived service: one resident setup (local
//! LDLᵀ factorizations, GenEO deflation basis, distributed coarse factor)
//! answering a stream of 32 right-hand sides — singles, multi-RHS batches,
//! and admissibly perturbed operators reusing the resident preconditioner.
//!
//! ```sh
//! cargo run --release --example solve_server
//! ```

use dd_geneo::comm::{CostModel, FaultPlan, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{decompose, CoarseCache, Decomposition, GeneoOpts, SpmdError, SpmdOpts};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::serve::{try_serve, ResponseStore, ServeOpts, ServeReport, Workload};
use std::sync::Arc;

// The 32-right-hand-side stream is the one the serve tests replay.
#[path = "../tests/common/mod.rs"]
mod common;

/// Right-hand sides in the stream.
const N_RHS: usize = 32;

fn opts() -> ServeOpts {
    let mut o = ServeOpts {
        spmd: SpmdOpts {
            geneo: GeneoOpts {
                nev: 5,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 500,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    o.spmd.recovery.enabled = true;
    o.spmd.recovery.checkpoint_interval = 1;
    o
}

type ServeResult = Result<ServeReport, SpmdError>;

fn run(
    decomp: &Arc<Decomposition>,
    nranks: usize,
    plan: FaultPlan,
    w: &Workload,
) -> Vec<ServeResult> {
    let d = Arc::clone(decomp);
    let o = opts();
    let w = w.clone();
    let cache = Arc::new(CoarseCache::new());
    let store = Arc::new(ResponseStore::new());
    World::run_with_faults(nranks, CostModel::default(), plan, move |comm| {
        try_serve(&d, comm, &o, &w, &cache, &store)
    })
}

fn print_report(report: &ServeReport) {
    println!(
        "{:>4} {:>4} {:>9} {:>10} {:>10} {:>6} {:>7}",
        "req", "rhs", "theta", "arrival", "latency", "#it.", "reused"
    );
    for r in &report.responses {
        println!(
            "{:>4} {:>4} {:>9.4} {:>10.4} {:>10.4} {:>6} {:>7}",
            r.req, r.rhs, r.theta, r.arrival, r.latency, r.iterations, r.reused
        );
    }
    println!(
        "\n{} responses | {} solves | {} reused applies | {} re-setups | \
         {} recoveries | setup {:.4}s | p50 {:.4}s | p99 {:.4}s",
        report.responses.len(),
        report.solves,
        report.reused_applies,
        report.resetups,
        report.recoveries,
        report.t_setup,
        report.latency_percentile(50.0),
        report.latency_percentile(99.0),
    );
}

fn main() {
    let nsubs = 6;
    let mesh = Mesh::unit_square(16, 16);
    let part = partition_mesh_rcb(&mesh, nsubs);
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, nsubs, 1));

    println!("=== fault-free: 4 ranks serving 6 subdomains, {N_RHS} RHS ===\n");
    let w = common::trimmed_stream(9, decomp.n_global, N_RHS);
    let results = run(&decomp, 4, FaultPlan::default(), &w);
    let report = results[0].as_ref().expect("fault-free serve must succeed");
    print_report(report);

    let victim = 1;
    println!("\n=== rank {victim} killed at solve-iteration-1, stream continues ===\n");
    let plan = FaultPlan::new(9).with_kill(victim, "solve-iteration-1");
    let results = run(&decomp, 4, plan, &w);
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(r) => println!(
                "rank {rank}: {} responses, {} recoveries",
                r.responses.len(),
                r.recoveries
            ),
            Err(e) => println!("rank {rank}: {e}"),
        }
    }
    let survivor = results
        .iter()
        .enumerate()
        .filter(|(rank, _)| *rank != victim)
        .find_map(|(_, r)| r.as_ref().ok())
        .expect("a survivor must finish the stream");
    print_report(survivor);
}
