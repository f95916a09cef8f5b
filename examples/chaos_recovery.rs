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
//!
//! ## CI artifact mode
//!
//! With `DD_KILL_PHASE` set, the example runs a single recovery scenario
//! and emits a machine-readable JSON artifact instead of the demo tour:
//!
//! ```sh
//! DD_KILL_PHASE=ras DD_SEED=7 DD_OUT=report.json \
//!     cargo run --release --example chaos_recovery
//! ```
//!
//! * `DD_KILL_PHASE` — failpoint label to kill at (`ras`, `deflation`,
//!   `e-solve-dist`, `solve-iteration-3`, …);
//! * `DD_SEED` — fault-plan seed, also arming 20% message delays so
//!   different seeds exercise different timing (default 1);
//! * `DD_KILL_RANK` — the victim (default 1);
//! * `DD_OUT` — artifact path (default: stdout).
//!
//! `DD_CORRUPT_PHASE` instead arms seeded wire bit-flips in that trace
//! phase (`solve`, `e-solve-dist`, …) with recovery and the residual-drift
//! guard on: the gate asserts every injected corruption was *detected*
//! (checksummed envelopes), the run still converges (retransmit/replay),
//! and the recovered residual passes — a silently wrong answer fails CI.
//!
//! The elastic-membership scenarios have mirror knobs (either one
//! switches to the elastic driver: 4 founders over 6 subdomains, 2
//! reserve ranks in the lobby):
//!
//! * `DD_JOIN_AT_PHASE` — failpoint label at which both reserve ranks
//!   announce; members `try_grow`, repartition, and resume;
//! * `DD_STRAGGLE_RANK` — rank whose heartbeats freeze at
//!   `DD_STRAGGLE_PHASE` (default `solve-iteration-2`); an armed
//!   suspicion policy must *evict* it — the gate asserts the victim
//!   exits `Evicted` (not dead) and everyone else converges.
//!
//! The process exits non-zero if the survivors fail to converge or the
//! recovered global residual exceeds 1e-5, so the artifact doubles as a
//! CI gate.

use dd_geneo::comm::{CostModel, FaultPlan, RetryPolicy, SuspicionPolicy, TagClass, World};
use dd_geneo::core::geneo::GeneoOpts;
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, try_run_spmd, try_run_spmd_elastic, try_run_spmd_recoverable, CheckpointStore,
    CoarseCache, Decomposition, SpmdError, SpmdOpts, SpmdReport,
};
use dd_geneo::krylov::GmresOpts;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

// The outside referees (reassembly, true residual) are the test suites'.
#[path = "../tests/common/mod.rs"]
mod common;

type RecResult = Result<(SpmdReport, Vec<(usize, Vec<f64>)>), SpmdError>;

/// Right-preconditioned GMRES (the convergence test monitors the true
/// residual, so the residual gate below is meaningful).
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

fn run(decomp: &Arc<Decomposition>, plan: FaultPlan) -> Vec<Result<SpmdReport, SpmdError>> {
    run_with_policy(decomp, plan, None)
}

fn run_with_policy(
    decomp: &Arc<Decomposition>,
    plan: FaultPlan,
    policy: Option<RetryPolicy>,
) -> Vec<Result<SpmdReport, SpmdError>> {
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
            try_run_spmd(&d, comm, &o).map(|s| s.report)
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
        move |comm| try_run_spmd_recoverable(&d, comm, &opts, &store).map(|s| (s.report, s.locals)),
    )
}

/// `‖b − Ax‖ / ‖b‖` of the global iterate reassembled from the survivors'
/// per-subdomain locals.
fn global_residual<'a>(
    decomp: &Decomposition,
    results: impl Iterator<Item = &'a RecResult>,
) -> f64 {
    let x = common::reassemble(decomp, results.flatten().map(|r| &r.1));
    common::global_residual(decomp, &x)
}

fn describe(label: &str, results: &[Result<SpmdReport, SpmdError>]) {
    println!("\n=== {label} ===");
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(r) => {
                let f = &r.run.faults;
                println!(
                    "rank {rank}: {} in {} it. | deflation: {:?} | coarse: {:?} | \
                     faults: {} delayed, {} dropped, {} retries, \
                     {} corrupted ({} detected, {} retransmits)",
                    if r.converged {
                        "converged"
                    } else {
                        "NOT converged"
                    },
                    r.iterations,
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
            Ok((r, locals)) => {
                let subs: Vec<usize> = locals.iter().map(|(s, _)| *s).collect();
                println!(
                    "rank {rank}: {} in {} it. | owns subdomains {:?} | deflation: {:?}",
                    if r.converged {
                        "converged"
                    } else {
                        "NOT converged"
                    },
                    r.iterations,
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

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One rank's JSON body — shared by the kill and elastic artifacts. Every
/// `RecoveryRecord` field is emitted, including the eviction/join sets,
/// the moved-vs-reused repartition split, and the virtual-time cost of
/// each recovery phase.
fn rank_json(rank: usize, res: &RecResult) -> String {
    match res {
        Ok((r, locals)) => {
            let subs: Vec<String> = locals.iter().map(|(s, _)| s.to_string()).collect();
            let recs: Vec<String> = r
                .run
                .recoveries
                .iter()
                .map(|rec| {
                    let adopted: Vec<String> = rec
                        .adopted
                        .iter()
                        .map(|(s, a)| format!("[{s},{a}]"))
                        .collect();
                    format!(
                        "{{\"epoch\":{},\"dead\":{:?},\"evicted\":{:?},\"joined\":{:?},\
                         \"adopted\":[{}],\"moved\":{:?},\"reused\":{:?},\
                         \"resume_iteration\":{},\"t_agreement\":{:e},\
                         \"t_reassembly\":{:e},\"t_refactorization\":{:e},\
                         \"corruptions_detected\":{},\"replays\":{},\"t_replay\":{:e}}}",
                        rec.epoch,
                        rec.dead,
                        rec.evicted,
                        rec.joined,
                        adopted.join(","),
                        rec.moved,
                        rec.reused,
                        rec.resume_iteration
                            .map_or("null".to_string(), |i| i.to_string()),
                        rec.t_agreement,
                        rec.t_reassembly,
                        rec.t_refactorization,
                        rec.corruptions_detected,
                        rec.replays,
                        rec.t_replay,
                    )
                })
                .collect();
            let f = &r.run.faults;
            format!(
                "{{\"rank\":{rank},\"status\":\"{}\",\"iterations\":{},\
                 \"deflation\":\"{:?}\",\"coarse\":\"{:?}\",\"subdomains\":[{}],\
                 \"faults\":{{\"corruptions_injected\":{},\"corruptions_detected\":{},\
                 \"retransmits\":{}}},\"recoveries\":[{}]}}",
                if r.converged { "converged" } else { "stalled" },
                r.iterations,
                r.run.deflation,
                r.run.coarse,
                subs.join(","),
                f.corruptions_injected,
                f.corruptions_detected,
                f.retransmits,
                recs.join(","),
            )
        }
        Err(e) => format!(
            "{{\"rank\":{rank},\"status\":\"error\",\"error\":\"{}\"}}",
            json_escape(&e.to_string())
        ),
    }
}

/// Hand-rolled JSON for the CI artifact (the workspace has no serde; the
/// schema is small and stable).
fn artifact_json(
    phase: &str,
    seed: u64,
    victim: usize,
    residual: f64,
    results: &[RecResult],
) -> String {
    let ranks: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(rank, res)| rank_json(rank, res))
        .collect();
    format!(
        "{{\"kill_phase\":\"{}\",\"seed\":{seed},\"victim\":{victim},\
         \"global_residual\":{residual:e},\"ranks\":[{}]}}\n",
        json_escape(phase),
        ranks.join(",")
    )
}

/// CI artifact mode: one recovery scenario, JSON out, non-zero exit when
/// the survivors fail the convergence gate.
fn artifact_mode(decomp: &Arc<Decomposition>, phase: &str) -> ! {
    let env_num = |k: &str, d: u64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(d)
    };
    let seed = env_num("DD_SEED", 1);
    let victim = env_num("DD_KILL_RANK", 1) as usize;
    let plan = FaultPlan::new(seed)
        .with_kill(victim, phase)
        .with_delays(0.2, 2e-4);
    let mut o = opts();
    o.recovery.enabled = true;
    o.recovery.checkpoint_interval = 2;
    let results = run_recoverable(decomp, plan, o);
    let residual = global_residual(decomp, results.iter());
    let json = artifact_json(phase, seed, victim, residual, &results);
    match std::env::var("DD_OUT") {
        Ok(path) => std::fs::write(&path, &json).expect("write DD_OUT artifact"),
        Err(_) => print!("{json}"),
    }
    let survivors_ok = results
        .iter()
        .enumerate()
        .filter(|(r, _)| *r != victim)
        .all(|(_, res)| res.as_ref().is_ok_and(|(rep, _)| rep.converged));
    if survivors_ok && residual <= 1e-5 {
        eprintln!("recovery gate passed: residual {residual:.3e}");
        std::process::exit(0);
    }
    eprintln!("recovery gate FAILED: residual {residual:.3e}, survivors_ok {survivors_ok}");
    std::process::exit(1);
}

/// Corruption CI artifact mode: seeded wire bit-flips in one trace phase,
/// with recovery, checkpointing, and the SDC guard armed. The gate asserts
/// detection (nothing corrupted slips through unnoticed), convergence on
/// every rank, and the recovered residual — the acceptance criterion is
/// "detected and healed, or typed failure", never a silent wrong answer.
fn corrupt_artifact_mode(decomp: &Arc<Decomposition>, phase: &str) -> ! {
    let seed = std::env::var("DD_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let plan = FaultPlan::new(seed)
        .with_corrupt(phase, None, TagClass::Any, seed)
        .with_delays(0.2, 2e-4);
    let mut o = opts();
    o.recovery.enabled = true;
    o.recovery.checkpoint_interval = 2;
    o.gmres.guard = Some(dd_geneo::krylov::SdcGuard::default());
    let results = run_recoverable(decomp, plan, o);
    let residual = global_residual(decomp, results.iter());
    let (mut injected, mut detected, mut retransmits) = (0u64, 0u64, 0u64);
    for (rep, _) in results.iter().flatten() {
        injected += rep.run.faults.corruptions_injected;
        detected += rep.run.faults.corruptions_detected;
        retransmits += rep.run.faults.retransmits;
    }
    let ranks: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(rank, res)| rank_json(rank, res))
        .collect();
    let json = format!(
        "{{\"corrupt_phase\":\"{}\",\"seed\":{seed},\
         \"corruptions_injected\":{injected},\"corruptions_detected\":{detected},\
         \"retransmits\":{retransmits},\"global_residual\":{residual:e},\
         \"ranks\":[{}]}}\n",
        json_escape(phase),
        ranks.join(",")
    );
    match std::env::var("DD_OUT") {
        Ok(path) => std::fs::write(&path, &json).expect("write DD_OUT artifact"),
        Err(_) => print!("{json}"),
    }
    let all_ok = results
        .iter()
        .all(|res| res.as_ref().is_ok_and(|(rep, _)| rep.converged));
    if all_ok && residual <= 1e-5 && injected > 0 && detected > 0 {
        eprintln!(
            "corruption gate passed: {injected} injected, {detected} detected, \
             {retransmits} retransmits, residual {residual:.3e}"
        );
        std::process::exit(0);
    }
    eprintln!(
        "corruption gate FAILED: {injected} injected, {detected} detected, \
         residual {residual:.3e}, all_ok {all_ok}"
    );
    std::process::exit(1);
}

/// Elastic CI artifact mode: 4 founders over 6 subdomains with 2 reserve
/// ranks in the lobby. `DD_JOIN_AT_PHASE` announces both reserves at that
/// failpoint; `DD_STRAGGLE_RANK` freezes a rank's heartbeats (at
/// `DD_STRAGGLE_PHASE`, default `solve-iteration-2`) under an armed
/// suspicion policy, so the gate additionally asserts the victim exits
/// `Evicted` — a straggler must be distinguishable from a death.
fn elastic_artifact_mode(join_phase: Option<String>, straggler: Option<usize>) -> ! {
    let seed = std::env::var("DD_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let nsubs = 6;
    let founders = 4;
    let mesh = Mesh::unit_square(16, 16);
    let part = partition_mesh_rcb(&mesh, nsubs);
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, nsubs, 1));

    let reserve = if join_phase.is_some() { 2 } else { 0 };
    let mut plan = FaultPlan::new(seed).with_delays(0.2, 2e-4);
    if let Some(ph) = &join_phase {
        for j in 0..reserve {
            plan = plan.with_join(founders + j, ph);
        }
    }
    let straggle_phase =
        env_knob("DD_STRAGGLE_PHASE").unwrap_or_else(|| "solve-iteration-2".to_string());
    if let Some(r) = straggler {
        plan = plan.with_straggle(r, &straggle_phase);
    }

    let mut o = opts();
    o.recovery.enabled = true;
    o.recovery.checkpoint_interval = 2;
    o.recovery.max_recoveries = 4;
    if straggler.is_some() {
        // Evicting a straggler needs enough solve iterations for the
        // suspicion budget to trip; one-level RAS converges slowly enough.
        o.one_level_only = true;
        o.gmres.tol = 1e-8;
        o.recovery.suspicion = Some(SuspicionPolicy {
            k_missed: 3,
            ..Default::default()
        });
    }

    let d = Arc::clone(&decomp);
    let store = Arc::new(CheckpointStore::new());
    let cache = Arc::new(CoarseCache::new());
    let results: Vec<Option<RecResult>> =
        World::run_elastic(founders, reserve, CostModel::default(), plan, move |comm| {
            try_run_spmd_elastic(&d, comm, &o, &store, &cache).map(|s| (s.report, s.locals))
        });
    let residual = global_residual(&decomp, results.iter().flatten());
    let ranks: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(rank, res)| match res {
            Some(r) => rank_json(rank, r),
            None => format!("{{\"rank\":{rank},\"status\":\"lobby\"}}"),
        })
        .collect();
    let json = format!(
        "{{\"join_phase\":{},\"straggle_rank\":{},\"seed\":{seed},\
         \"global_residual\":{residual:e},\"ranks\":[{}]}}\n",
        join_phase.map_or("null".to_string(), |p| format!("\"{}\"", json_escape(&p))),
        straggler.map_or("null".to_string(), |r| r.to_string()),
        ranks.join(",")
    );
    match std::env::var("DD_OUT") {
        Ok(path) => std::fs::write(&path, &json).expect("write DD_OUT artifact"),
        Err(_) => print!("{json}"),
    }

    let victim_evicted = straggler.is_none_or(|v| {
        matches!(
            results.get(v).and_then(|r| r.as_ref()),
            Some(Err(SpmdError::Evicted { rank })) if *rank == v
        )
    });
    let others_ok = results
        .iter()
        .enumerate()
        .filter(|(r, _)| Some(*r) != straggler)
        .all(|(_, res)| {
            res.as_ref()
                .is_none_or(|res| res.as_ref().is_ok_and(|(rep, _)| rep.converged))
        });
    if victim_evicted && others_ok && residual <= 1e-5 {
        eprintln!("elastic gate passed: residual {residual:.3e}");
        std::process::exit(0);
    }
    eprintln!(
        "elastic gate FAILED: residual {residual:.3e}, others_ok {others_ok}, \
         victim_evicted {victim_evicted}"
    );
    std::process::exit(1);
}

/// Env knob, with CI's unset-matrix-value convention (empty string)
/// treated as absent.
fn env_knob(key: &str) -> Option<String> {
    std::env::var(key).ok().filter(|v| !v.is_empty())
}

fn main() {
    let join_phase = env_knob("DD_JOIN_AT_PHASE");
    let straggler = env_knob("DD_STRAGGLE_RANK").and_then(|v| v.parse().ok());
    if join_phase.is_some() || straggler.is_some() {
        elastic_artifact_mode(join_phase, straggler);
    }

    let n = 4;
    let mesh = Mesh::unit_square(16, 16);
    let part = partition_mesh_rcb(&mesh, n);
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, n, 1));

    if let Some(phase) = env_knob("DD_KILL_PHASE") {
        artifact_mode(&decomp, &phase);
    }
    if let Some(phase) = env_knob("DD_CORRUPT_PHASE") {
        corrupt_artifact_mode(&decomp, &phase);
    }

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
        o.one_level_only = one_level;
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
