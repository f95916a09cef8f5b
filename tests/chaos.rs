//! Seeded chaos tests: deterministic fault plans drive the SPMD runtime
//! through its documented recovery lattice (GenEO → Nicolaides → one-level
//! RAS) and assert the *exact* recovery path taken, via the per-rank
//! [`RunReport`].
//!
//! Because fault decisions are pure functions of the plan seed and message
//! identity, and because drops/delays perturb only virtual time (never
//! payloads), a recovered run computes bit-identical numerics: the
//! delay-only and drop-with-retry scenarios must converge in exactly the
//! iteration count of the fault-free baseline.

use dd_geneo::comm::{CommError, CostModel, EventKind, FaultPlan, TagClass, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_run_spmd_elastic, try_run_spmd_recoverable,
    try_setup_partitioned, CheckpointStore, CoarseCache, CoarseOutcome, CoarseSolve, Decomposition,
    DeflationSource, GeneoOpts, PhaseOutcome, RecoveryOpts, SolverKind, SpmdError,
    SpmdMultiSolution, SpmdOpts, SpmdReport,
};
use dd_geneo::krylov::{GmresOpts, SdcGuard};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

mod common;
use common::{global_residual, labelled};

fn setup(nmesh: usize, nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(nmesh, nmesh);
    let part = partition_mesh_rcb(&mesh, nparts);
    let p = presets::heterogeneous_diffusion(1);
    Arc::new(decompose(&mesh, &p, &part, nparts, 1))
}

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

/// The fault-free run of `opts` with recovery off (what `try_run_spmd`
/// runs): every rank's solution.
fn baseline(decomp: &Arc<Decomposition>, opts: &SpmdOpts) -> Vec<SpmdMultiSolution> {
    let mut o = opts.clone();
    o.recovery.enabled = false;
    run_recoverable_with_plan(decomp, &o, FaultPlan::default())
        .into_iter()
        .map(|r| r.expect("fault-free baseline must not fail"))
        .collect()
}

#[test]
fn fault_free_baseline_is_fully_nominal() {
    let decomp = setup(12, 4);
    let reports = baseline(&decomp, &opts());
    for r in &reports {
        assert!(r.solve.result.converged);
        assert!(
            r.report.run.fully_nominal(),
            "unexpected fallback: {:?}",
            r.report.run
        );
        assert_eq!(r.report.run.deflation, DeflationSource::Geneo);
        assert_eq!(r.report.run.coarse, CoarseOutcome::TwoLevel);
        assert_eq!(r.report.run.faults.delays_injected, 0);
        assert_eq!(r.report.run.faults.retries, 0);
    }
}

#[test]
fn delay_only_plan_converges_in_identical_iterations() {
    let decomp = setup(12, 4);
    let o = opts();
    let base = baseline(&decomp, &o);
    let reports = run_recoverable_with_plan(&decomp, &o, FaultPlan::new(11).with_delays(0.4, 5e-4));
    let mut delays = 0;
    for (r, b) in reports.iter().zip(&base) {
        let r = r.as_ref().expect("delays are transparent to correctness");
        assert!(r.solve.result.converged);
        // Delays perturb only virtual time, never payloads: bit-identical
        // numerics and therefore the exact same iteration count.
        assert_eq!(r.solve.result.iterations, b.solve.result.iterations);
        assert_eq!(r.report.run.deflation, DeflationSource::Geneo);
        assert_eq!(r.report.run.coarse, CoarseOutcome::TwoLevel);
        delays += r.report.run.faults.delays_injected;
    }
    assert!(delays > 0, "plan injected no delays — test is vacuous");
}

#[test]
fn dropped_messages_are_retried_and_do_not_change_the_solve() {
    let decomp = setup(12, 4);
    let o = opts();
    let base = baseline(&decomp, &o);
    let reports = run_recoverable_with_plan(&decomp, &o, FaultPlan::new(13).with_drops(0.3, 2));
    let (mut drops, mut retries, mut timeouts) = (0, 0, 0);
    for (r, b) in reports.iter().zip(&base) {
        let r = r.as_ref().expect("drops must be recovered by retries");
        assert!(r.solve.result.converged);
        // Drop-then-redeliver recovery is payload-preserving: identical
        // iteration count to the fault-free baseline.
        assert_eq!(r.solve.result.iterations, b.solve.result.iterations);
        drops += r.report.run.faults.drops_injected;
        retries += r.report.run.faults.retries;
        timeouts += r.report.run.faults.timeouts;
    }
    assert!(drops > 0, "plan injected no drops — test is vacuous");
    assert!(retries > 0, "drops were not retried");
    assert_eq!(timeouts, 0, "blocking recv must never time out");
}

#[test]
fn killed_rank_surfaces_typed_errors_everywhere() {
    let decomp = setup(12, 4);
    let reports = run_recoverable_with_plan(
        &decomp,
        &opts(),
        FaultPlan::new(1).with_kill(1, "post-assembly"),
    );
    for (rank, res) in reports.iter().enumerate() {
        match res {
            Err(SpmdError::Killed { rank: r, phase }) => {
                assert_eq!(rank, 1, "only rank 1 was killed");
                assert_eq!(*r, 1);
                assert_eq!(phase, "post-assembly");
            }
            Err(SpmdError::Comm(CommError::RankDead { rank: dead })) => {
                assert_ne!(rank, 1, "the victim must see Killed, not RankDead");
                assert_eq!(*dead, 1, "survivors must name the dead rank");
            }
            other => panic!("rank {rank}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn failed_eigensolve_falls_back_to_nicolaides_and_completes() {
    let decomp = setup(12, 4);
    let o = opts();
    let reports = run_recoverable_with_plan(
        &decomp,
        &o,
        FaultPlan::new(3).with_failure(Some(2), "eigensolve"),
    );
    let reports: Vec<SpmdMultiSolution> = reports
        .into_iter()
        .map(|r| r.expect("eigensolve failure must be recoverable"))
        .collect();
    let it0 = reports[0].solve.result.iterations;
    for (rank, r) in reports.iter().enumerate() {
        assert!(r.solve.result.converged, "rank {rank} did not converge");
        assert_eq!(
            r.solve.result.iterations, it0,
            "lockstep collectives imply equal counts"
        );
        if rank == 2 {
            assert_eq!(r.report.run.deflation, DeflationSource::NicolaidesFallback);
            assert!(
                r.report
                    .run
                    .phases
                    .iter()
                    .any(|(name, o)| *name == "deflation"
                        && matches!(o, PhaseOutcome::Degraded { .. })),
                "deflation degradation not recorded: {:?}",
                r.report.run.phases
            );
            assert!(!r.report.run.fully_nominal());
        } else {
            assert_eq!(
                r.report.run.deflation,
                DeflationSource::Geneo,
                "rank {rank}"
            );
        }
        // The run still assembles and uses the two-level preconditioner.
        assert_eq!(r.report.run.coarse, CoarseOutcome::TwoLevel);
        assert!(r.report.dim_e > 0);
    }
}

#[test]
fn unconverged_eigensolve_is_reported_not_swallowed() {
    // A subspace cap too small for the pairs asked of it: the eigensolver
    // says so, and both set-up paths take the Nicolaides vectors and record
    // why, instead of deflating with unconverged Ritz vectors.
    let decomp = setup(12, 4);
    let mut o = opts();
    o.geneo.nev = 6;
    o.geneo.lanczos.max_subspace = 8;
    let degraded_for_non_convergence = |phase: &str, r: &SpmdReport| {
        r.run.phases.iter().any(|(name, o)| {
            *name == phase
                && matches!(o, PhaseOutcome::Degraded { reason }
                    if reason.contains("eigenpairs converged within the subspace cap"))
        })
    };
    for r in baseline(&decomp, &o) {
        assert!(r.solve.result.converged);
        assert_eq!(r.report.run.deflation, DeflationSource::NicolaidesFallback);
        assert!(
            degraded_for_non_convergence("deflation", &r.report),
            "{:?}",
            r.report.run.phases
        );
    }
    let d2 = Arc::clone(&decomp);
    let cache = CoarseCache::new();
    let reports = World::run(2, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d2, comm, None);
        let prepared = try_setup_partitioned(&d2, comm, &o, Some(&cache), &plan, true)?;
        let out = prepared.try_apply(&d2.rhs_global, "solve", None)?;
        Ok::<_, SpmdError>((out.result.converged, prepared.report(&out)))
    });
    for r in reports {
        let (converged, r) = r.expect("a degraded set-up still solves");
        assert!(converged);
        assert_eq!(r.run.deflation, DeflationSource::NicolaidesFallback);
        assert!(
            degraded_for_non_convergence("recovery-deflation", &r),
            "{:?}",
            r.run.phases
        );
    }
}

#[test]
fn failed_coarse_factorization_drops_to_one_level_and_completes() {
    let decomp = setup(12, 4);
    let o = opts();
    let base = baseline(&decomp, &o);
    let reports = run_recoverable_with_plan(
        &decomp,
        &o,
        FaultPlan::new(5).with_failure(None, "coarse-factor"),
    );
    let reports: Vec<SpmdMultiSolution> = reports
        .into_iter()
        .map(|r| r.expect("coarse failure must be recoverable"))
        .collect();
    for (rank, r) in reports.iter().enumerate() {
        assert!(
            r.solve.result.converged,
            "rank {rank} did not converge on one-level RAS"
        );
        assert_eq!(r.report.run.coarse, CoarseOutcome::OneLevelFallback);
        assert!(
            r.report
                .run
                .phases
                .iter()
                .any(|(name, o)| *name == "coarse" && matches!(o, PhaseOutcome::Degraded { .. })),
            "coarse degradation not recorded: {:?}",
            r.report.run.phases
        );
        assert!(!r.report.run.fully_nominal());
        assert_eq!(
            r.report.nnz_e_factor, 0,
            "no factor may survive the fallback"
        );
    }
    // One-level RAS converges, just slower than the two-level baseline.
    assert!(
        reports[0].solve.result.iterations >= base[0].solve.result.iterations,
        "one-level fallback cannot beat the two-level baseline: {} < {}",
        reports[0].solve.result.iterations,
        base[0].solve.result.iterations
    );
}

// ------------------------------------------------------------------------
// Shrink-and-continue recovery: a killed rank's subdomain is adopted by a
// surviving neighbor, the coarse operator is rebuilt over the survivors,
// and the Krylov solve resumes from the last complete checkpoint.

/// Per-rank outcome of a recoverable run: the report and the solve, whose
/// locals are the subdomains this rank ended up owning.
type RecResult = Result<SpmdMultiSolution, SpmdError>;

fn recovery_opts() -> SpmdOpts {
    SpmdOpts {
        recovery: RecoveryOpts {
            enabled: true,
            ..Default::default()
        },
        ..opts()
    }
}

/// Every rank's outcome of one run of `opts` under `plan`, against a fresh
/// checkpoint store. With `opts.recovery.enabled` off this is the run
/// `try_run_spmd` makes (it only forces that flag off and passes a fresh
/// store), so it is this file's one runner.
fn run_recoverable_with_plan(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    plan: FaultPlan,
) -> Vec<RecResult> {
    run_recoverable_with_store(decomp, opts, plan, &Arc::new(CheckpointStore::new()))
}

/// Like [`run_recoverable_with_plan`], but against a caller-owned store —
/// lets a test inspect (or poison) checkpoints between runs.
fn run_recoverable_with_store(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    plan: FaultPlan,
    store: &Arc<CheckpointStore>,
) -> Vec<RecResult> {
    let n = decomp.n_subdomains();
    let d2 = Arc::clone(decomp);
    let opts = opts.clone();
    let store = Arc::clone(store);
    World::run_with_faults(n, CostModel::default(), plan, move |comm| {
        try_run_spmd_recoverable(&d2, comm, &opts, &store)
    })
}

/// Reassemble the global solution from the survivors' per-subdomain locals,
/// asserting every subdomain is covered exactly by the live ranks.
fn reassemble(decomp: &Decomposition, results: &[RecResult]) -> Vec<f64> {
    common::reassemble(decomp, results.iter().flatten().map(|r| &r.solve.locals))
}

/// Assert the recovery contract after killing `victim`: the victim reports
/// the typed kill, every survivor completes with one recovery on record
/// (consistent epoch, dead set, adoption), and the reassembled solution
/// meets the fault-free tolerance. Returns the survivors' reports.
fn assert_recovered<'a>(
    decomp: &Arc<Decomposition>,
    results: &'a [RecResult],
    victim: usize,
    kill_phase: &str,
) -> Vec<&'a SpmdMultiSolution> {
    // The solver tolerance (1e-6 on the right-preconditioned, true residual)
    // with a small slack.
    assert_recovered_in(decomp, results, victim, &[kill_phase], 1e-5)
}

/// [`assert_recovered`] for a kill whose victim may learn of it in any of
/// `kill_phases`, holding the recovered solution to a true residual of at
/// most `rr_max`.
fn assert_recovered_in<'a>(
    decomp: &Arc<Decomposition>,
    results: &'a [RecResult],
    victim: usize,
    kill_phases: &[&str],
    rr_max: f64,
) -> Vec<&'a SpmdMultiSolution> {
    match &results[victim] {
        Err(SpmdError::Killed { rank, phase }) => {
            assert_eq!(*rank, victim);
            assert!(kill_phases.contains(&phase.as_str()), "killed at {phase}");
        }
        other => panic!("victim: expected Killed at {kill_phases:?}, got {other:?}"),
    }
    let adopter = decomp.subdomains[victim]
        .neighbors
        .iter()
        .map(|l| l.j)
        .filter(|&j| j != victim)
        .min()
        .expect("victim subdomain must have neighbors");
    let mut reports = Vec::new();
    let mut epochs = Vec::new();
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let survivor = res
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        let SpmdMultiSolution { report, solve } = survivor;
        assert!(solve.result.converged, "survivor {rank} did not converge");
        assert_eq!(report.run.recoveries.len(), 1, "survivor {rank}");
        let rec = &report.run.recoveries[0];
        assert_eq!(rec.dead, vec![victim]);
        assert_eq!(rec.adopted, vec![(victim, adopter)]);
        assert!(rec.epoch >= 1, "shrink must bump the epoch");
        epochs.push(rec.epoch);
        let owned: Vec<usize> = solve.locals.iter().map(|(s, _)| *s).collect();
        if rank == adopter {
            assert_eq!(owned, vec![rank.min(victim), rank.max(victim)]);
            if report.dim_e > 0 {
                assert_eq!(
                    report.run.deflation,
                    DeflationSource::NicolaidesFallback,
                    "adopted subdomains skip the eigensolve"
                );
            }
        } else {
            assert_eq!(owned, vec![rank]);
        }
        reports.push(survivor);
    }
    assert!(
        epochs.windows(2).all(|w| w[0] == w[1]),
        "survivors disagree on the recovery epoch: {epochs:?}"
    );
    // Same-tolerance acceptance: the recovered global solution meets the
    // fault-free bar.
    let x_rec = reassemble(decomp, results);
    let rr = global_residual(decomp, &x_rec);
    assert!(
        rr <= rr_max,
        "recovered residual {rr:e} misses the fault-free bar {rr_max:e}"
    );
    reports
}

/// The bar a recovered solve under `o` is held to when its loop is
/// left-preconditioned (the fused one always is): twice the true
/// residual of a fault-free run. Its tolerance is on the preconditioned
/// residual, and on this contrast-3·10⁶ problem the true residual of even a
/// fault-free solve sits orders of magnitude above that.
fn fault_free_bar(decomp: &Arc<Decomposition>, o: &SpmdOpts) -> f64 {
    let results = run_recoverable_with_plan(decomp, o, FaultPlan::default());
    2.0 * global_residual(decomp, &reassemble(decomp, &results))
}

/// Kills a rank at `phase` on each input of a kill row and hands the
/// decomposition, the results and the victim to `check`. The inputs are the
/// row's own — a 12² mesh, `seed`, `victim` — and two delayed ones: a 16²
/// mesh, victim 1, seeds 1 and 2, 20 % of messages delayed by 2·10⁻⁴ s and
/// a checkpoint every two iterations. All run `opts` on four
/// subdomains, one a rank; a failure names its input.
fn for_each_kill(
    (seed, victim): (u64, usize),
    opts: &SpmdOpts,
    phase: &str,
    check: impl Fn(&Arc<Decomposition>, &[RecResult], usize),
) {
    let every_two = SpmdOpts {
        recovery: RecoveryOpts {
            checkpoint_interval: 2,
            ..opts.recovery.clone()
        },
        ..opts.clone()
    };
    let delayed = |seed| FaultPlan::new(seed).with_delays(0.2, 2e-4);
    for (nmesh, seed, victim, plan, o) in [
        (12, seed, victim, FaultPlan::new(seed), opts),
        (16, 1, 1, delayed(1), &every_two),
        (16, 2, 1, delayed(2), &every_two),
    ] {
        labelled(
            &format!("{nmesh}² mesh, seed {seed}, victim {victim}"),
            || {
                let decomp = setup(nmesh, 4);
                let results = run_recoverable_with_plan(&decomp, o, plan.with_kill(victim, phase));
                check(&decomp, &results, victim);
            },
        );
    }
}

#[test]
fn recovery_enabled_fault_free_run_is_unchanged() {
    let decomp = setup(12, 4);
    let o = recovery_opts();
    let base = baseline(&decomp, &opts());
    let results = run_recoverable_with_plan(&decomp, &o, FaultPlan::default());
    for (rank, res) in results.iter().enumerate() {
        let SpmdMultiSolution { report, solve } =
            res.as_ref().expect("fault-free run must not fail");
        assert!(solve.result.converged);
        assert!(report.run.recoveries.is_empty(), "no recovery happened");
        assert!(report.run.fully_nominal());
        // Checkpointing is local-only: identical iteration counts.
        assert_eq!(solve.result.iterations, base[rank].solve.result.iterations);
        assert_eq!(solve.locals.len(), 1);
        assert_eq!(solve.locals[0].0, rank);
    }
}

#[test]
fn kill_during_ras_application_recovers_on_survivors() {
    for_each_kill(
        (21, 1),
        &recovery_opts(),
        "ras",
        |decomp, results, victim| {
            for r in assert_recovered(decomp, results, victim, "ras") {
                // Death at the very first preconditioner application: no
                // checkpoint exists yet, so the recovered solve restarts from zero.
                assert_eq!(r.report.run.recoveries[0].resume_iteration, None);
            }
        },
    );
}

#[test]
fn kill_mid_solve_resumes_from_checkpoint() {
    let decomp = setup(12, 4);
    // One-level RAS (more iterations than the two-level solve) with a
    // tight checkpoint cadence, so checkpoints exist before the kill.
    let o = SpmdOpts {
        geneo: GeneoOpts {
            nev: 0,
            ..Default::default()
        },
        recovery: RecoveryOpts {
            enabled: true,
            checkpoint_interval: 2,
            ..Default::default()
        },
        ..opts()
    };
    let base = baseline(&decomp, &o);
    let base_it = base[0].solve.result.iterations;
    let k = 4;
    assert!(
        base_it > k + 1,
        "baseline converges too fast ({base_it} its) to kill mid-solve"
    );
    let results = run_recoverable_with_plan(
        &decomp,
        &o,
        FaultPlan::new(23).with_kill(2, &format!("solve-iteration-{k}")),
    );
    // The failpoint only marks the rank gone; the death surfaces at the
    // iteration's next reduction, inside the "solve" phase.
    let reports = assert_recovered(&decomp, &results, 2, "solve");
    for r in &reports {
        let resume = r.report.run.recoveries[0].resume_iteration;
        assert!(
            matches!(resume, Some(j) if (2..=k).contains(&j)),
            "survivors must resume from the last complete checkpoint, got {resume:?}"
        );
        assert!(
            r.solve.result.iterations > resume.unwrap(),
            "resumed iteration count is cumulative (got {})",
            r.solve.result.iterations
        );
    }
}

#[test]
fn kill_during_distributed_coarse_factorization_recovers() {
    let decomp = setup(12, 4);
    // Rank 0 is always a master: it dies inside the cooperative block
    // fan-in factorization of E.
    let results = run_recoverable_with_plan(
        &decomp,
        &recovery_opts(),
        FaultPlan::new(31).with_kill(0, "e-factorization-dist"),
    );
    assert_recovered(&decomp, &results, 0, "e-factorization-dist");
}

#[test]
fn kill_during_distributed_coarse_solve_recovers() {
    // The victim dies inside the distributed triangular solve of the very
    // first coarse correction, mid-preconditioner, mid-GMRES.
    for_each_kill(
        (37, 0),
        &recovery_opts(),
        "e-solve-dist",
        |decomp, results, victim| {
            assert_recovered(decomp, results, victim, "e-solve-dist");
        },
    );
}

#[test]
fn kill_at_deflation_recovers_under_both_coarse_solves() {
    for coarse_solve in [CoarseSolve::Distributed, CoarseSolve::Redundant] {
        let o = SpmdOpts {
            coarse_solve,
            ..recovery_opts()
        };
        labelled(&format!("{coarse_solve:?}"), || {
            for_each_kill((41, 3), &o, "deflation", |decomp, results, victim| {
                for r in assert_recovered(decomp, results, victim, "deflation") {
                    // Setup-phase death: nothing to resume from.
                    assert_eq!(r.report.run.recoveries[0].resume_iteration, None);
                }
            });
        });
    }
}

#[test]
fn fused_solver_recovers_on_the_fused_loop_never_a_panic() {
    // Every loop checkpoints and resumes, so a recovered epoch runs the
    // loop `opts.solver` names. Rank 3 dies in the set-up of epoch 0
    // (before the fused loop starts); rank 1 then dies *inside the
    // recovered epoch's solve*, which must surface typed and recover a
    // second time — on the fused loop again, as the trace shows.
    let decomp = setup(12, 4);
    let o = SpmdOpts {
        solver: SolverKind::Fused,
        recovery: RecoveryOpts {
            enabled: true,
            max_recoveries: 2,
            ..Default::default()
        },
        ..opts()
    };
    let bar = fault_free_bar(&decomp, &o);
    let (d2, o2) = (Arc::clone(&decomp), o.clone());
    let store = Arc::new(CheckpointStore::new());
    let (results, trace) = World::run_traced_with_faults(
        decomp.n_subdomains(),
        CostModel::default(),
        FaultPlan::new(43)
            .with_kill(3, "deflation")
            .with_kill(1, "solve-iteration-2"),
        move |comm| try_run_spmd_recoverable(&d2, comm, &o2, &store),
    );
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(SpmdMultiSolution { report, solve }) => {
                assert!([0, 2].contains(&rank), "rank {rank} was killed");
                assert!(solve.result.converged, "survivor {rank} did not converge");
                let epochs: Vec<usize> = report.run.recoveries.iter().map(|r| r.epoch).collect();
                assert_eq!(
                    epochs.len(),
                    2,
                    "survivor {rank}: two shrinks, got {epochs:?}"
                );
            }
            Err(SpmdError::Killed { rank: r, .. }) => {
                assert!([1, 3].contains(&rank) && *r == rank, "rank {rank}: {res:?}");
            }
            Err(other) => panic!("rank {rank}: expected a result or a typed kill, got {other}"),
        }
    }
    let rr = global_residual(&decomp, &reassemble(&decomp, &results));
    assert!(
        rr <= bar,
        "recovered residual {rr:e} misses the bar {bar:e}"
    );
    // The recovered epochs ran the fused loop: its Gram rows ride the
    // masters' `iallreduce`, and the loop has no v-variant collective
    // (`conformance`'s signature of the §3.5 loop). The classical loop
    // posts no `iallreduce` at all.
    let phase = "recovery-solve";
    let mut iallreduces = 0;
    for (rank, e) in trace.events_in_phase(phase) {
        if let EventKind::Collective { op, comm, .. } = &e.kind {
            if *op == "iallreduce" {
                iallreduces += 1;
                assert_eq!(
                    trace.ranks[rank].comm_label(*comm),
                    "masterComm",
                    "rank {rank}: an `iallreduce` off the masters in {phase}"
                );
            }
        }
    }
    assert!(iallreduces > 0, "no masters' `iallreduce` in {phase}");
    assert_eq!(trace.phase_totals(phase).collectives_v, 0);
}

/// [`opts`] at a tolerance the left-preconditioned two-level solve needs
/// four iterations for (two at 1e-6), so that `solve-iteration-2` exists in
/// epoch 0 with iterations left after it for the survivors to notice in.
fn opts_reaching_iteration_2(solver: SolverKind) -> SpmdOpts {
    let mut o = opts();
    o.solver = solver;
    o.gmres.tol = 1e-9;
    o
}

/// A rank dies inside the fused loop of the *nominal* attempt — no set-up
/// death first. Every collective of that loop is
/// fallible, so the survivors get a typed error, shrink, and resume the
/// same loop from the last globally complete checkpoint (every loop
/// writes them; the cadence here is every iteration, so one exists before
/// the kill). The adopter takes the victim's subdomain with Nicolaides
/// vectors, so the recovered epoch's preconditioner is not the one the
/// checkpoint's anchor was formed under: the resume forms the anchor again
/// under the rebuilt one and meets the tolerance against it.
#[test]
fn kill_inside_a_pipelined_or_fused_solve_is_typed_and_recovered() {
    let decomp = setup(12, 4);
    let (solver, seed) = (SolverKind::Fused, 53);
    let mut o = opts_reaching_iteration_2(solver);
    o.recovery.enabled = true;
    o.recovery.checkpoint_interval = 1;
    let bar = fault_free_bar(&decomp, &o);
    let results = run_recoverable_with_plan(
        &decomp,
        &o,
        FaultPlan::new(seed).with_kill(1, "solve-iteration-2"),
    );
    // The failpoint only marks the rank gone (`on_iteration` swallows
    // it); the victim learns of its death at the agreement its next
    // failed exchange, post or wait sends it to — in the solve phase,
    // or in the cooperative coarse solve nested in it.
    let reports = assert_recovered_in(&decomp, &results, 1, &["solve", "e-solve-dist"], bar);
    for r in &reports {
        let resume = r.report.run.recoveries[0].resume_iteration;
        assert!(
            matches!(resume, Some(j) if (1..=2).contains(&j)),
            "{solver:?}: survivors must resume from a checkpoint, got {resume:?}"
        );
        assert!(r.solve.result.iterations > resume.unwrap(), "{solver:?}");
        // Two-level, so `assert_recovered_in` has checked that the
        // adopter took the Nicolaides degradation.
        assert!(r.report.dim_e > 0, "{solver:?}");
        assert!(r.solve.result.final_residual <= o.gmres.tol, "{solver:?}");
    }
}

#[test]
fn kill_inside_a_pipelined_or_fused_solve_without_recovery_is_typed_everywhere() {
    let decomp = setup(12, 4);
    let (solver, seed) = (SolverKind::Fused, 61);
    let o = opts_reaching_iteration_2(solver);
    assert!(!o.recovery.enabled);
    let results = run_recoverable_with_plan(
        &decomp,
        &o,
        FaultPlan::new(seed).with_kill(1, "solve-iteration-2"),
    );
    for (rank, res) in results.iter().enumerate() {
        match res {
            Err(SpmdError::Killed { rank: r, .. }) => assert_eq!((rank, *r), (1, 1)),
            Err(SpmdError::Comm(CommError::RankDead { .. })) => {}
            other => panic!("{solver:?} rank {rank}: expected a typed loss, got {other:?}"),
        }
    }
}

#[test]
fn recovered_run_produces_byte_identical_canonical_traces() {
    let decomp = setup(12, 4);
    let o = recovery_opts();
    let trace_of = |seed: u64| {
        let n = decomp.n_subdomains();
        let d2 = Arc::clone(&decomp);
        let o = o.clone();
        let store = Arc::new(CheckpointStore::new());
        let (_, trace) = World::run_traced_with_faults(
            n,
            CostModel::default(),
            FaultPlan::new(seed).with_kill(1, "ras"),
            move |comm| {
                try_run_spmd_recoverable(&d2, comm, &o, &store).map(|s| s.solve.result.iterations)
            },
        );
        trace.canonical_json()
    };
    assert_eq!(
        trace_of(55),
        trace_of(55),
        "recovery must replay byte-identically for a fixed plan"
    );
}

#[test]
fn retry_schedules_are_byte_identical_across_identically_seeded_runs() {
    // The bounded-retry jitter is derived from the communicator's seeded
    // fault identity (not a free-running counter), so two runs of the same
    // plan must charge byte-identical virtual time, retry for retry. The
    // probe avoids `compute` (measured CPU time) so the final clock is a
    // pure function of the plan: its bits pin the whole jitter schedule.
    use dd_geneo::comm::RetryPolicy;
    let probe = || {
        World::run_with_faults(
            2,
            CostModel::default(),
            FaultPlan::new(83).with_drops(0.5, 3),
            move |comm| {
                comm.set_retry_policy(RetryPolicy::bounded_jittered());
                let policy = comm.retry_policy();
                if comm.rank() == 0 {
                    for i in 0..20u64 {
                        comm.send(1, i, vec![i as f64]);
                    }
                    let _ = comm.try_barrier();
                    (0, 0)
                } else {
                    for i in 0..20u64 {
                        comm.try_recv_timeout::<Vec<f64>>(0, i, &policy)
                            .expect("drops must be redelivered within the retry bound");
                    }
                    let _ = comm.try_barrier();
                    (comm.clock().to_bits(), comm.fault_stats().retries)
                }
            },
        )
    };
    let a = probe();
    let b = probe();
    assert_eq!(a, b, "retry schedule diverged between identical seeds");
    assert!(a[1].1 > 0, "plan exercised no retries — test is vacuous");

    // End to end, the recovered epoch (which runs under the jittered
    // policy) must also replay its retries exactly.
    let decomp = setup(12, 4);
    let o = recovery_opts();
    let run = || {
        run_recoverable_with_plan(
            &decomp,
            &o,
            FaultPlan::new(83).with_kill(1, "ras").with_drops(0.3, 2),
        )
        .into_iter()
        .map(|res| {
            res.map(|r| (r.solve.result.iterations, r.report.run.faults.retries))
                .map_err(|e| format!("{e}"))
        })
        .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "recovered-epoch retries diverged");
}

// ------------------------------------------------------------------------
// Silent-data-corruption chaos: seeded wire bit-flips against the
// checksummed envelopes. A one-shot corruption is detected on receipt and
// healed by retransmitting the *pristine* payload, so the numerics stay
// bit-identical to the fault-free run; a persistent corruption exhausts
// the retransmit budget into a typed error (and, with recovery enabled, a
// rollback-and-replay) — never a silently wrong answer.

#[test]
fn wire_corruption_is_detected_retransmitted_and_bit_identical() {
    // The delayed inputs' options: recovery on, a checkpoint every two
    // iterations and the residual-drift guard.
    let mut guarded = recovery_opts();
    guarded.recovery.checkpoint_interval = 2;
    guarded.gmres.guard = Some(SdcGuard::default());
    let delayed_corruption = |phase, seed| {
        FaultPlan::new(seed)
            .with_corrupt(phase, None, TagClass::Any, seed)
            .with_delays(0.2, 2e-4)
    };
    // One row per corruption surface, seed 9 on a 12² mesh: the neighbor
    // exchange and coarse gather/scatter (p2p traffic inside "solve"), the
    // lockstep reductions (collective contributions inside "solve"), the
    // distributed triangular coarse solve, and the cooperative fan-in
    // factorization. Then, on a 16² mesh with recovery and the guard on: every
    // message class of the solve and of the distributed coarse solve, seeds
    // 1 and 7, with 20 % of messages delayed.
    let inputs = [
        (
            12,
            opts(),
            [
                ("solve", TagClass::P2p),
                ("solve", TagClass::Collective),
                ("e-solve-dist", TagClass::Any),
                ("e-factorization-dist", TagClass::Any),
            ]
            .map(|(phase, class)| {
                let label = format!("{phase}/{class:?}, seed 9");
                (label, FaultPlan::new(9).with_corrupt(phase, None, class, 9))
            })
            .to_vec(),
        ),
        (
            16,
            guarded,
            [
                ("solve", 1),
                ("solve", 7),
                ("e-solve-dist", 1),
                ("e-solve-dist", 7),
            ]
            .map(|(phase, seed)| {
                (
                    format!("{phase}/Any, seed {seed}"),
                    delayed_corruption(phase, seed),
                )
            })
            .to_vec(),
        ),
    ];
    for (nmesh, o, rows) in inputs {
        let decomp = setup(nmesh, 4);
        let base: Vec<_> = run_recoverable_with_plan(&decomp, &o, FaultPlan::default())
            .into_iter()
            .map(|r| r.expect("fault-free baseline must not fail"))
            .collect();
        for (label, plan) in rows {
            labelled(&format!("{nmesh}² mesh, {label}"), || {
                let results = run_recoverable_with_plan(&decomp, &o, plan);
                let (mut injected, mut detected, mut retransmits) = (0u64, 0u64, 0u64);
                for (rank, res) in results.iter().enumerate() {
                    let r = res.as_ref().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
                    assert!(r.solve.result.converged, "rank {rank} did not converge");
                    // Detect-and-retransmit is payload-restoring: the solve
                    // sees only pristine values, so iteration count *and*
                    // every bit of the solution match the fault-free
                    // baseline (a fortiori any 1e-10 differential bound).
                    assert_eq!(
                        r.solve.result.iterations,
                        base[rank].solve.result.iterations
                    );
                    assert_eq!(
                        r.solve.locals, base[rank].solve.locals,
                        "rank {rank}: numerics must be bit-identical"
                    );
                    injected += r.report.run.faults.corruptions_injected;
                    detected += r.report.run.faults.corruptions_detected;
                    retransmits += r.report.run.faults.retransmits;
                }
                assert!(injected > 0, "no corruption injected — row is vacuous");
                assert_eq!(
                    detected, injected,
                    "every one-shot corruption is detected exactly once"
                );
                assert!(retransmits >= injected, "detection must retransmit");
                let rr = global_residual(&decomp, &reassemble(&decomp, &results));
                assert!(rr <= 1e-5, "residual {rr:e} misses the tolerance");
            });
        }
    }
}

#[test]
fn persistent_corruption_surfaces_typed_errors_never_a_silent_result() {
    // Without recovery there is nowhere to replay: once the retransmit
    // budget exhausts, the run must end in a *typed* error on every rank —
    // a converged result under a persistently corrupting link would be the
    // very silent-data-corruption outcome the envelopes exist to prevent.
    let decomp = setup(12, 4);
    let results = run_recoverable_with_plan(
        &decomp,
        &opts(),
        FaultPlan::new(17).with_corrupt_persistent("solve", None, TagClass::P2p, 17),
    );
    let mut corrupt_errors = 0;
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(r) => panic!(
                "rank {rank} returned a result (converged={}) under persistent corruption",
                r.solve.result.converged
            ),
            Err(SpmdError::Comm(CommError::Corrupt { .. })) => corrupt_errors += 1,
            // A peer that errored first abandons the world; ranks still
            // blocked on it then surface its death instead.
            Err(SpmdError::Comm(CommError::RankDead { .. })) => {}
            Err(other) => panic!("rank {rank}: expected a corruption-class error, got {other}"),
        }
    }
    assert!(
        corrupt_errors > 0,
        "no rank surfaced the typed Corrupt error"
    );
}

#[test]
fn persistent_corruption_with_recovery_rolls_back_and_replays() {
    // With recovery enabled, a corruption classification triggers
    // rollback-and-replay on the *same* membership (nobody died): the
    // replayed epoch runs under the "recovery-*" phases, which this plan
    // does not corrupt — modeling a transient corruption episode that has
    // passed. The replay must converge to the fault-free answer and leave
    // an audit record carrying the corruption counters.
    let decomp = setup(12, 4);
    let o = recovery_opts();
    let base = reassemble(
        &decomp,
        &run_recoverable_with_plan(&decomp, &o, FaultPlan::default()),
    );
    let results = run_recoverable_with_plan(
        &decomp,
        &o,
        FaultPlan::new(17).with_corrupt_persistent("solve", None, TagClass::P2p, 17),
    );
    for (rank, res) in results.iter().enumerate() {
        let SpmdMultiSolution { report, solve } = res
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank}: replay must recover, got {e}"));
        assert!(
            solve.result.converged,
            "rank {rank} did not converge after replay"
        );
        let recs = &report.run.recoveries;
        assert!(!recs.is_empty(), "rank {rank}: no replay on record");
        for rec in recs {
            assert_eq!(rec.epoch, 0, "replay stays on the same membership");
            assert!(rec.dead.is_empty(), "nobody died");
            assert!(rec.replays >= 1);
            assert!(
                rec.corruptions_detected > 0,
                "rank {rank}: replay record must carry the detection count"
            );
        }
    }
    // Differential acceptance (fig. 10 workload): the replayed solve
    // reproduces the fault-free solution to 1e-10.
    let x_rec = reassemble(&decomp, &results);
    let dist = x_rec
        .iter()
        .zip(&base)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
        / base.iter().map(|b| b * b).sum::<f64>().sqrt();
    assert!(
        dist <= 1e-10,
        "replayed solution drifted {dist:e} from the fault-free baseline"
    );
    let rr = global_residual(&decomp, &x_rec);
    assert!(rr <= 1e-5, "replayed residual {rr:e} misses the tolerance");
}

#[test]
fn corrupted_checkpoint_is_skipped_and_recovery_resumes_from_an_older_one() {
    // At-rest corruption: flip a bit in the newest stored snapshot without
    // refreshing its checksum. The next recovery must fall back to the
    // next-newest snapshot that verifies on *every* subdomain — poisoned
    // state is never deserialized into the solve.
    let decomp = setup(12, 4);
    let o = SpmdOpts {
        geneo: GeneoOpts {
            nev: 0,
            ..Default::default()
        },
        recovery: RecoveryOpts {
            enabled: true,
            checkpoint_interval: 2,
            ..Default::default()
        },
        ..opts()
    };
    let n = decomp.n_subdomains();
    let store = Arc::new(CheckpointStore::new());
    // Warm run: a fault-free solve leaves verified checkpoints behind.
    for res in run_recoverable_with_store(&decomp, &o, FaultPlan::default(), &store) {
        res.expect("warm run must not fail");
    }
    let newest = store
        .rollback_iteration(n)
        .expect("warm run left no checkpoints");
    assert!(
        store.corrupt_for_tests(0, newest),
        "snapshot to poison exists"
    );
    let older = store
        .rollback_iteration(n)
        .expect("an older verified checkpoint must remain");
    assert!(older < newest, "rollback must skip the poisoned snapshot");
    // Kill a rank during setup of a fresh run sharing the store: the
    // recovered epoch resumes from the older *verified* checkpoint.
    let results = run_recoverable_with_store(
        &decomp,
        &o,
        FaultPlan::new(29).with_kill(2, "post-factorization"),
        &store,
    );
    let reports = assert_recovered(&decomp, &results, 2, "post-factorization");
    for r in &reports {
        assert_eq!(
            r.report.run.recoveries[0].resume_iteration,
            Some(older),
            "resume must skip the poisoned checkpoint"
        );
    }
}

#[test]
fn drop_and_delay_combined_with_eigensolve_failure_still_recovers() {
    // Compound chaos: wire faults + a failed eigensolve in one run.
    let decomp = setup(12, 4);
    let o = opts();
    let plan = FaultPlan::new(77)
        .with_delays(0.2, 1e-4)
        .with_drops(0.2, 1)
        .with_failure(Some(0), "eigensolve");
    let reports = run_recoverable_with_plan(&decomp, &o, plan);
    for (rank, r) in reports.iter().enumerate() {
        let r = r.as_ref().expect("compound plan must still be recoverable");
        assert!(r.solve.result.converged, "rank {rank} did not converge");
        if rank == 0 {
            assert_eq!(r.report.run.deflation, DeflationSource::NicolaidesFallback);
        }
    }
}

// ------------------------------------------------------------------------
// The same faults on an owner map: four subdomains on two ranks. The set-up
// is one body, so its failpoints and injection points fire whatever the map.

/// One served epoch on a 2-rank owner map under `plan`: set-up + one apply.
fn owner_map_with_plan(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    plan: FaultPlan,
) -> Vec<Result<SpmdMultiSolution, SpmdError>> {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let cache = CoarseCache::new();
    World::run_with_faults(2, CostModel::default(), plan, move |comm| {
        let owners = repartition_plan(&d, comm, None);
        let prepared = try_setup_partitioned(&d, comm, &o, Some(&cache), &owners, true)?;
        let solve = prepared.try_apply(&d.rhs_global, "solve", None)?;
        Ok(SpmdMultiSolution {
            report: prepared.report(&solve),
            solve,
        })
    })
}

#[test]
fn kill_inside_the_owner_map_setup_is_typed_and_recovered() {
    let decomp = setup(12, 4);
    let (d, o) = (Arc::clone(&decomp), recovery_opts());
    let store = Arc::new(CheckpointStore::new());
    let cache = Arc::new(CoarseCache::new());
    let results = World::run_elastic(
        2,
        0,
        CostModel::default(),
        FaultPlan::new(47).with_kill(1, "post-deflation"),
        move |comm| try_run_spmd_elastic(&d, comm, &o, &store, &cache),
    );
    match &results[1] {
        Some(Err(SpmdError::Killed { rank: 1, phase })) => assert_eq!(phase, "post-deflation"),
        other => panic!("victim: expected Killed at post-deflation, got {other:?}"),
    }
    let SpmdMultiSolution { report, solve } = match &results[0] {
        Some(Ok(survivor)) => survivor,
        other => panic!("survivor: expected a recovered solve, got {other:?}"),
    };
    assert!(solve.result.converged);
    assert_eq!(report.run.recoveries.len(), 1);
    assert_eq!(report.run.recoveries[0].dead, vec![1]);
    // Set-up death: nothing to resume from, everything lands on rank 0.
    assert_eq!(report.run.recoveries[0].resume_iteration, None);
    let owned: Vec<usize> = solve.locals.iter().map(|(s, _)| *s).collect();
    assert_eq!(owned, vec![0, 1, 2, 3]);
    let x: Vec<Vec<f64>> = solve.locals.iter().map(|(_, x)| x.clone()).collect();
    let rr = global_residual(&decomp, &decomp.from_locals(&x));
    assert!(rr <= 1e-5, "recovered residual {rr:e} misses the tolerance");
}

#[test]
fn failed_eigensolve_of_one_owned_subdomain_degrades_that_subdomain_only() {
    let decomp = setup(12, 4);
    let reports = owner_map_with_plan(
        &decomp,
        &opts(),
        FaultPlan::new(3).with_failure(None, "eigensolve:2"),
    );
    let it0 = reports[0].as_ref().expect("rank 0").solve.result.iterations;
    for (rank, r) in reports.iter().enumerate() {
        let r = r.as_ref().expect("eigensolve failure must be recoverable");
        assert!(r.solve.result.converged, "rank {rank} did not converge");
        assert_eq!(
            r.solve.result.iterations, it0,
            "lockstep collectives imply equal counts"
        );
        assert_eq!(r.report.run.coarse, CoarseOutcome::TwoLevel);
        let deflation = r
            .report
            .run
            .phases
            .iter()
            .find(|(name, _)| *name == "recovery-deflation");
        // Subdomains 2 and 3 live on rank 1.
        if rank == 1 {
            assert_eq!(r.report.run.deflation, DeflationSource::NicolaidesFallback);
            match deflation {
                Some((_, PhaseOutcome::Degraded { reason })) => {
                    assert!(
                        reason.contains("subdomain 2: eigensolve fault injected"),
                        "{reason}"
                    );
                    assert_eq!(reason.matches("subdomain").count(), 1, "{reason}");
                }
                other => panic!("rank 1: deflation degradation not recorded: {other:?}"),
            }
        } else {
            assert_eq!(
                r.report.run.deflation,
                DeflationSource::Geneo,
                "rank {rank}"
            );
            assert_eq!(deflation, Some(&("recovery-deflation", PhaseOutcome::Ok)));
        }
    }
}

#[test]
fn failed_coarse_factorization_on_an_owner_map_drops_every_rank_to_one_level() {
    let decomp = setup(12, 4);
    for coarse_solve in [CoarseSolve::Distributed, CoarseSolve::Redundant] {
        let o = SpmdOpts {
            coarse_solve,
            ..opts()
        };
        let reports = owner_map_with_plan(
            &decomp,
            &o,
            FaultPlan::new(5).with_failure(Some(1), "coarse-factor"),
        );
        for (rank, r) in reports.iter().enumerate() {
            let r = r
                .as_ref()
                .unwrap_or_else(|e| panic!("{coarse_solve:?} rank {rank}: {e}"));
            assert!(
                r.solve.result.converged,
                "{coarse_solve:?} rank {rank} did not converge"
            );
            assert_eq!(r.report.run.coarse, CoarseOutcome::OneLevelFallback);
            assert_eq!(
                r.report.nnz_e_factor, 0,
                "no factor may survive the fallback"
            );
            assert!(
                r.report
                    .run
                    .phases
                    .iter()
                    .any(|(name, o)| *name == "recovery-assembly"
                        && matches!(o, PhaseOutcome::Degraded { .. })),
                "coarse degradation not recorded: {:?}",
                r.report.run.phases
            );
        }
    }
}

/// At-rest corruption of the coarse cache: a banked coarse row flipped
/// between two set-ups that share one world, owner map and cache fails its
/// checksum, so every rank agrees it is stale and its owner recomputes it.
/// The second solve equals the first to the bit; a row read back as stored
/// would move `E` and the answer with it.
#[test]
fn corrupted_cached_coarse_row_is_recomputed_and_the_solve_repeats_bitwise() {
    let decomp = setup(12, 4);
    let (d, o) = (Arc::clone(&decomp), opts());
    let cache = CoarseCache::new();
    let runs = World::run_default(2, move |comm| {
        let owners = repartition_plan(&d, comm, None);
        let solve = || {
            let prepared =
                try_setup_partitioned(&d, comm, &o, Some(&cache), &owners, true).unwrap();
            let out = prepared.try_apply(&d.rhs_global, "solve", None).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                out.result.iterations,
                bits(&out.result.x),
                bits(&out.result.history),
            )
        };
        let first = solve();
        comm.try_barrier().unwrap();
        if comm.rank() == 0 {
            assert!(cache.corrupt_for_tests(0, 0), "subdomain 0's row is banked");
        }
        comm.try_barrier().unwrap();
        (first, solve())
    });
    for (rank, (first, second)) in runs.iter().enumerate() {
        assert_eq!(first, second, "rank {rank}: the second solve moved");
    }
}
