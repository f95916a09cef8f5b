//! The repo benchmark (`benchmark/`, its own workspace) is built by nothing
//! in tier-1 or the main CI job, so a library change that breaks it is
//! found only when a benchmark run produces no numbers. These two tests
//! notice: the crate still type-checks against the library, and the trace
//! phase it reads the coarse solve's messages from still exists.

use dd_geneo::comm::{CostModel, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_setup_partitioned, CoarseCache, CoarseSolve, SpmdOpts,
};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

#[test]
fn benchmark_crate_checks_against_the_library() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/Cargo.toml");
    let out = Command::new(cargo)
        .args(["check", "--offline", "--manifest-path"])
        .arg(&manifest)
        .output()
        .expect("cargo did not start");
    assert!(
        out.status.success(),
        "`cargo check` of benchmark/ failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn benchmark_coarse_solve_phase_is_traced() {
    let blocks = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/src/blocks.rs");
    let source = std::fs::read_to_string(blocks).expect("benchmark/src/blocks.rs");
    let phase = source
        .lines()
        .find_map(|l| l.strip_prefix("pub const COARSE_SOLVE_PHASE: &str = \""))
        .and_then(|rest| rest.strip_suffix("\";"))
        .expect("COARSE_SOLVE_PHASE not found in benchmark/src/blocks.rs")
        .to_string();

    let mesh = Mesh::unit_square(12, 12);
    let part = partition_mesh_rcb(&mesh, 4);
    let decomp = Arc::new(decompose(
        &mesh,
        &presets::heterogeneous_diffusion(1),
        &part,
        4,
        1,
    ));
    let opts = SpmdOpts {
        coarse_solve: CoarseSolve::Distributed,
        ..Default::default()
    };
    let cache = CoarseCache::new();
    let (iterations, trace) = World::run_traced(2, CostModel::default(), move |comm| {
        let plan = repartition_plan(&decomp, comm, None);
        let prepared = try_setup_partitioned(&decomp, comm, &opts, Some(&cache), &plan, true)
            .expect("set-up failed");
        let out = prepared
            .try_apply(&decomp.rhs_global, "bench-solve", None)
            .expect("solve failed");
        out.result.iterations
    });
    assert!(iterations[0] > 0);
    let sends = trace.phase_totals(&phase).sends;
    assert!(
        sends > 0,
        "no message was sent in phase {phase:?}, which benchmark/ reads the coarse solve from"
    );
}
