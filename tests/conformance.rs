//! Communication-complexity conformance suite.
//!
//! The paper's central scalability claims are *structural*: each coarse
//! block `E_{i,j}` costs one neighbor exchange (§3.1.1), the Algorithm 1–2
//! gathers touch only elected masters, and the Krylov loop uses only
//! equal-count (`O(log N)`) collectives (§3.2). These tests pin those
//! claims against the deterministic telemetry layer (`dd_comm::trace`):
//! every invariant is asserted from a recorded [`WorldTrace`], and golden
//! fixtures under `tests/golden/` lock the full canonical trace so any
//! change to the communication pattern fails loudly.
//!
//! Parameterized by environment for the CI matrix:
//! * `CONFORMANCE_N` — world size (default 4);
//! * `CONFORMANCE_SEED` — fault-plan seed for the determinism runs
//!   (default 1).
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test --test conformance`.

use dd_comm::{CollClass, CostModel, EventKind, FaultPlan, World, WorldTrace};
use dd_core::{
    decompose, masters::group_of, masters::nonuniform_masters, masters::uniform_masters,
    problem::presets, repartition_plan, try_run_spmd, try_setup_partitioned, AssemblyVariant,
    CoarseCache, CoarseSolve, Decomposition, Election, GeneoOpts, SolverKind, SpmdOpts, SpmdReport,
};
use dd_krylov::GmresOpts;
use dd_mesh::Mesh;
use dd_part::partition_mesh_rcb;
use std::path::PathBuf;
use std::sync::Arc;

mod common;

fn conf_n() -> usize {
    std::env::var("CONFORMANCE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn conf_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn masters_for(n: usize) -> usize {
    (n / 4).clamp(2, 8).min(n)
}

fn setup(n: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(16, 16);
    let part = partition_mesh_rcb(&mesh, n);
    let p = presets::heterogeneous_diffusion(1);
    Arc::new(decompose(&mesh, &p, &part, n, 1))
}

fn opts_for(n: usize) -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev: 3,
            ..Default::default()
        },
        n_masters: masters_for(n),
        gmres: GmresOpts {
            tol: 1e-8,
            max_iters: 200,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn traced_solve(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    faults: FaultPlan,
) -> (Vec<SpmdReport>, WorldTrace) {
    let n = decomp.n_subdomains();
    let d = Arc::clone(decomp);
    let opts = opts.clone();
    World::run_traced_with_faults(n, CostModel::default(), faults, move |comm| {
        let s = try_run_spmd(&d, comm, &opts).expect("SPMD solve failed");
        s.report
    })
}

/// The same solve on a balanced owner map: `ranks` ranks, each hosting a
/// contiguous chunk of the subdomains (`try_setup_partitioned` + one apply
/// under the `solve` phase).
fn traced_owner_map(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    ranks: usize,
) -> (Vec<SpmdReport>, WorldTrace) {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let cache = CoarseCache::new();
    World::run_traced(ranks, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let prepared = try_setup_partitioned(&d, comm, &o, Some(&cache), &plan, true)
            .expect("owner-map set-up failed");
        let out = prepared.try_apply(&d.rhs_global, "solve", None);
        prepared.report(&out.expect("owner-map solve failed"))
    })
}

// ---------------------------------------------------------------- determinism

/// Acceptance criterion: two identical-seed runs produce byte-identical
/// canonical traces — with and without an armed fault plan.
#[test]
fn identical_runs_produce_byte_identical_traces() {
    let n = conf_n();
    let decomp = setup(n);
    let opts = opts_for(n);
    let (_, t1) = traced_solve(&decomp, &opts, FaultPlan::default());
    let (_, t2) = traced_solve(&decomp, &opts, FaultPlan::default());
    assert_eq!(
        t1.canonical_json(),
        t2.canonical_json(),
        "trace must be a deterministic function of the program"
    );
}

#[test]
fn identical_seed_fault_runs_produce_byte_identical_traces() {
    let n = conf_n();
    let seed = conf_seed();
    let decomp = setup(n);
    let opts = opts_for(n);
    let plan = || {
        FaultPlan::new(seed)
            .with_delays(0.2, 1e-4)
            .with_drops(0.05, 1)
    };
    let (_, t1) = traced_solve(&decomp, &opts, plan());
    let (_, t2) = traced_solve(&decomp, &opts, plan());
    let j1 = t1.canonical_json();
    assert_eq!(
        j1,
        t2.canonical_json(),
        "fault decisions must be pure functions of the seed"
    );
    // The injected drops are visible (and stable) in the trace.
    let retries: u64 = t1
        .phase_names()
        .iter()
        .map(|p| t1.phase_totals(p).retries)
        .sum();
    assert!(retries > 0, "drop plan produced no observable retries");
}

// ------------------------------------------------------- structural invariants

/// §3.1.1: assembling all `E_{i,j}` blocks costs exactly one exchange per
/// neighbor pair — rank i sends exactly one message to each neighbor j and
/// receives exactly one back, and nothing else moves in the exchange phase.
#[test]
fn one_exchange_per_neighbor_during_e_assembly() {
    let n = conf_n();
    let decomp = setup(n);
    let (_, trace) = traced_solve(&decomp, &opts_for(n), FaultPlan::default());
    for r in &trace.ranks {
        let neighbors: Vec<usize> = decomp.subdomains[r.rank]
            .neighbors
            .iter()
            .map(|l| l.j)
            .collect();
        let phase_id = r
            .phases
            .iter()
            .position(|(name, _)| name == "assembly:exchange")
            .expect("missing assembly:exchange phase") as u16;
        let mut sends: Vec<usize> = Vec::new();
        let mut recvs: Vec<usize> = Vec::new();
        for e in r.events.iter().filter(|e| e.phase == phase_id) {
            match &e.kind {
                EventKind::Send { dest, .. } => sends.push(*dest),
                EventKind::Recv { src, .. } => recvs.push(*src),
                EventKind::Collective { op, .. } => {
                    panic!("unexpected collective `{op}` in the exchange phase")
                }
                EventKind::Iteration { .. } => panic!("unexpected iteration event"),
            }
        }
        let mut expect = neighbors.clone();
        expect.sort_unstable();
        let (mut s, mut v) = (sends.clone(), recvs.clone());
        s.sort_unstable();
        v.sort_unstable();
        assert_eq!(s, expect, "rank {}: one send per neighbor", r.rank);
        assert_eq!(v, expect, "rank {}: one recv per neighbor", r.rank);
    }
}

/// Algorithms 1–2: every rooted collective of the coarse gather and of the
/// solve loop is rooted at an elected master.
#[test]
fn gather_scatter_traffic_touches_only_masters() {
    let n = conf_n();
    let decomp = setup(n);
    let opts = opts_for(n);
    let (_, trace) = traced_solve(&decomp, &opts, FaultPlan::default());
    let masters = nonuniform_masters(n, opts.n_masters.min(n));
    for phase in ["assembly:gather", "solve"] {
        let mut rooted = 0usize;
        for (rank, e) in trace.events_in_phase(phase) {
            if let EventKind::Collective {
                op,
                root: Some(root),
                comm,
                ..
            } = &e.kind
            {
                rooted += 1;
                let root = *root as usize;
                assert!(
                    masters.contains(&root),
                    "rank {rank}: `{op}` in {phase} rooted at non-master {root} \
                     (comm label id {comm}, masters {masters:?})"
                );
                // The root must be the master of the sender's own group.
                let g = group_of(rank, &masters);
                assert_eq!(
                    root, masters[g],
                    "rank {rank}: rooted at a master outside its group"
                );
            }
        }
        assert!(rooted > 0, "no rooted collectives observed in {phase}");
    }

    // The election is taken over the communicator's ranks, whatever they
    // host: under `Election::Uniform` on an owner map (two subdomains a
    // rank) every rooted collective is rooted at the uniform master of the
    // sender's group.
    let ranks = (n / 2).max(4);
    let decomp = setup(2 * ranks);
    let opts = SpmdOpts {
        election: Election::Uniform,
        ..opts_for(2 * ranks)
    };
    let masters = uniform_masters(ranks, opts.n_masters.min(ranks));
    assert_ne!(
        masters,
        nonuniform_masters(ranks, masters.len()),
        "the two elections coincide here — the row is vacuous"
    );
    let (_, trace) = traced_owner_map(&decomp, &opts, ranks);
    for phase in ["recovery-assembly", "solve"] {
        let mut rooted = 0usize;
        for (rank, e) in trace.events_in_phase(phase) {
            if let EventKind::Collective {
                op,
                root: Some(root),
                ..
            } = &e.kind
            {
                rooted += 1;
                assert_eq!(
                    *root as usize,
                    masters[group_of(rank, &masters)],
                    "rank {rank}: `{op}` in {phase} not rooted at its uniform master \
                     (masters {masters:?})"
                );
            }
        }
        assert!(rooted > 0, "no rooted collectives observed in {phase}");
    }
}

/// §3.2: the Krylov loop performs zero `v`-variant collectives — only
/// equal-count (`O(log N)`) operations.
#[test]
fn zero_v_variant_collectives_in_the_solve_loop() {
    let n = conf_n();
    let decomp = setup(n);
    let (_, trace) = traced_solve(&decomp, &opts_for(n), FaultPlan::default());
    let solve = trace.phase_totals("solve");
    assert_eq!(
        solve.collectives_v, 0,
        "v-variant collective inside the Krylov loop"
    );
    assert!(
        solve.collectives_eq > 0,
        "solve loop recorded no collectives"
    );
    // Sanity of the detector: the index-free assembly gather IS a gatherv.
    let gather = trace.phase_totals("assembly:gather");
    assert!(
        gather.collectives_v > 0,
        "expected the assembly gatherv to register as a v-variant"
    );
}

/// §3.2: every equal-count collective is charged `⌈log₂ p⌉` messages
/// (bounded by `⌈log₂ N⌉`), every `v`-variant `p − 1`.
#[test]
fn collective_message_counts_are_log_bounded() {
    let n = conf_n();
    let decomp = setup(n);
    let (_, trace) = traced_solve(&decomp, &opts_for(n), FaultPlan::default());
    let log_n = dd_comm::model::tree_msgs(n);
    let mut eq_seen = 0usize;
    for r in &trace.ranks {
        for e in &r.events {
            if let EventKind::Collective {
                op,
                class,
                size,
                msgs,
                ..
            } = &e.kind
            {
                let p = *size as usize;
                match class {
                    CollClass::EqualCount => {
                        eq_seen += 1;
                        assert_eq!(
                            *msgs,
                            dd_comm::model::tree_msgs(p),
                            "`{op}` on {p} ranks: wrong tree message count"
                        );
                        assert!(
                            *msgs <= log_n,
                            "`{op}`: {msgs} messages exceeds ⌈log₂ N⌉ = {log_n}"
                        );
                    }
                    CollClass::Varying => {
                        assert_eq!(
                            *msgs,
                            dd_comm::model::linear_msgs(p),
                            "`{op}` on {p} ranks: wrong linear message count"
                        );
                    }
                }
            }
        }
    }
    assert!(eq_seen > 0);
}

/// §3.1.1 index-free assembly: rank i's slave message is exactly
/// `1 + |O_i| + ν_i² + Σ_{j ∈ O_i} ν_i ν_j` doubles — the `1` is the
/// neighbor-count prefix; no global indices ship.
#[test]
fn gatherv_byte_volume_matches_nu_closed_form() {
    let n = conf_n();
    let decomp = setup(n);
    let (reports, trace) = traced_solve(&decomp, &opts_for(n), FaultPlan::default());
    for r in &trace.ranks {
        let nu_i = reports[r.rank].nu;
        let nbrs = &decomp.subdomains[r.rank].neighbors;
        let expected_doubles = 1
            + nbrs.len()
            + nu_i * nu_i
            + nbrs.iter().map(|l| nu_i * reports[l.j].nu).sum::<usize>();
        let gatherv_bytes: Vec<u64> = r
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Collective { op, bytes, .. } if *op == "gatherv" => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(
            gatherv_bytes,
            vec![8 * expected_doubles as u64],
            "rank {}: index-free slave message volume off (ν_i = {nu_i})",
            r.rank
        );
    }

    // The same closed form per *subdomain* on a 2-rank owner map: a rank's
    // one index-free message is `Σ_{s owned} (1 + |O_s| + ν_s² + Σ_j ν_s ν_j)`
    // doubles; the natural layout ships three messages (row indices, column
    // indices, values) of `Σ_{s owned} (ν_s² + Σ_j ν_s ν_j)` words each.
    for assembly in [AssemblyVariant::IndexFree, AssemblyVariant::NaturalGatherv] {
        let opts = SpmdOpts {
            assembly,
            ..opts_for(n)
        };
        let nu = opts.geneo.nev;
        let (reports, trace) = traced_owner_map(&decomp, &opts, 2);
        for r in &trace.ranks {
            assert_eq!(reports[r.rank].nu, nu, "uniform ν expected");
            // The balanced map: the first half of the subdomains on rank 0.
            let (mut prefix, mut values) = (0usize, 0usize);
            for s in r.rank * n / 2..(r.rank + 1) * n / 2 {
                let n_nbr = decomp.subdomains[s].neighbors.len();
                prefix += 1 + n_nbr;
                values += nu * nu * (1 + n_nbr);
            }
            let expected: Vec<u64> = match assembly {
                AssemblyVariant::IndexFree => vec![8 * (prefix + values) as u64],
                AssemblyVariant::NaturalGatherv => vec![8 * values as u64; 3],
            };
            let gatherv_bytes: Vec<u64> = r
                .events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::Collective { op, bytes, .. } if *op == "gatherv" => Some(*bytes),
                    _ => None,
                })
                .collect();
            assert_eq!(
                gatherv_bytes, expected,
                "rank {}: {assembly:?} slave message volume on the owner map",
                r.rank
            );
        }
    }
}

/// Global conservation: every sent message is received, byte for byte.
#[test]
fn sends_and_recvs_balance_globally() {
    let n = conf_n();
    let decomp = setup(n);
    let (reports, trace) = traced_solve(&decomp, &opts_for(n), FaultPlan::default());
    let (mut sends, mut send_bytes, mut recvs, mut recv_bytes) = (0u64, 0u64, 0u64, 0u64);
    for p in trace.phase_names() {
        let c = trace.phase_totals(&p);
        sends += c.sends;
        send_bytes += c.send_bytes;
        recvs += c.recvs;
        recv_bytes += c.recv_bytes;
    }
    assert_eq!(sends, recvs, "lost or duplicated messages");
    assert_eq!(send_bytes, recv_bytes, "byte volume mismatch");
    // Iteration events match the reported iteration count on every rank.
    for r in &trace.ranks {
        let iters = r
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Iteration { .. }))
            .count();
        assert_eq!(
            iters, reports[r.rank].iterations,
            "rank {}: iteration events vs report",
            r.rank
        );
    }
}

/// One halo plan serves every owner map: an exchange costs one message per
/// ordered pair of neighbouring *ranks*. On the identity map that is the
/// paper's schedule, one message per neighbour; the same eight subdomains
/// hosted by two ranks exchange two messages, however many subdomain links
/// cross the cut.
#[test]
fn one_halo_message_per_neighbouring_rank() {
    let decomp = setup(8);
    // A fixed number of iterations, hence of exchanges; the redundant
    // coarse solve keeps the solve phase's p2p traffic to the halo alone.
    let opts = SpmdOpts {
        coarse_solve: CoarseSolve::Redundant,
        gmres: GmresOpts {
            tol: 0.0,
            max_iters: 3,
            ..Default::default()
        },
        ..opts_for(8)
    };
    let (_, identity) = traced_solve(&decomp, &opts, FaultPlan::default());
    let (reports, owner_map) = traced_owner_map(&decomp, &opts, 2);
    assert!(reports.iter().all(|r| r.iterations == 3));
    let links: u64 = decomp
        .subdomains
        .iter()
        .map(|s| s.neighbors.len() as u64)
        .sum();
    let per_link = identity.phase_totals("solve").sends;
    assert_eq!(per_link % links, 0, "identity map: one message per link");
    let exchanges = per_link / links;
    assert!(exchanges > 0);
    assert_eq!(owner_map.phase_totals("solve").sends, 2 * exchanges);
}

/// `SpmdReport::n_neighbors` counts the ranks a rank exchanges halos with:
/// `|O_i|` on the identity map (what fig8/fig10 average), the neighbouring
/// ranks on an owner map — one each on two ranks, whichever subdomain
/// happens to share its index with the rank.
#[test]
fn n_neighbors_counts_neighbouring_ranks() {
    let n = conf_n();
    let decomp = setup(n);
    let opts = opts_for(n);
    let (identity, _) = traced_solve(&decomp, &opts, FaultPlan::default());
    for r in &identity {
        assert_eq!(r.n_neighbors, decomp.subdomains[r.rank].neighbors.len());
    }
    let (owner_map, _) = traced_owner_map(&decomp, &opts, 2);
    for r in &owner_map {
        assert_eq!(r.n_neighbors, 1, "rank {} on a 2-rank owner map", r.rank);
    }
}

/// Traced message counters of one 2-rank owner-map apply of `k`
/// right-hand sides at exactly `iters` iterations (tolerance 0), over the
/// solve and its nested coarse solve: `(sends, send bytes, collectives,
/// collective bytes)`.
fn panel_traffic(decomp: &Arc<Decomposition>, opts: &SpmdOpts, k: usize, iters: usize) -> [u64; 4] {
    let d = Arc::clone(decomp);
    let o = SpmdOpts {
        gmres: GmresOpts {
            tol: 0.0,
            max_iters: iters,
            ..opts.gmres.clone()
        },
        ..opts.clone()
    };
    let (its, trace) = World::run_traced(2, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let prepared = try_setup_partitioned(&d, comm, &o, None, &plan, true).expect("set-up");
        let rhs: Vec<Vec<f64>> = (0..k)
            .map(|c| d.rhs_global.iter().map(|v| v * (1.0 + c as f64)).collect())
            .collect();
        let cols: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let out = prepared
            .try_apply_on(None, &cols, "solve", None, None)
            .expect("panel apply");
        out.iter().map(|o| o.result.iterations).collect::<Vec<_>>()
    });
    assert!(its.iter().flatten().all(|&i| i == iters));
    let mut c = [0u64; 4];
    for phase in ["solve", "e-solve-dist"] {
        let t = trace.phase_totals(phase);
        c[0] += t.sends;
        c[1] += t.send_bytes;
        c[2] += t.collectives_eq + t.collectives_v;
        c[3] += t.collective_bytes;
    }
    c
}

/// A step of a panel of four right-hand sides makes exactly the
/// point-to-point messages and collectives of a one-column step — every
/// halo round, coarse gather, cooperative coarse solve, scatter and
/// reduction carries all four columns — and four times its bytes. A step
/// is the difference between applies of 2 and 1 iterations, on a 2-rank
/// owner map under both coarse solves.
#[test]
fn a_panel_step_sends_the_messages_of_a_one_column_step() {
    let decomp = setup(8);
    for coarse_solve in [CoarseSolve::Distributed, CoarseSolve::Redundant] {
        let opts = SpmdOpts {
            coarse_solve,
            n_masters: 2,
            ..opts_for(8)
        };
        let step = |k: usize| {
            let (one, two) = (
                panel_traffic(&decomp, &opts, k, 1),
                panel_traffic(&decomp, &opts, k, 2),
            );
            [0, 1, 2, 3].map(|i| two[i] - one[i])
        };
        let (single, panel) = (step(1), step(4));
        assert!(
            single[0] > 0 && single[2] > 0,
            "{coarse_solve:?}: {single:?}"
        );
        assert_eq!(panel[0], single[0], "{coarse_solve:?}: sends");
        assert_eq!(panel[2], single[2], "{coarse_solve:?}: collectives");
        assert_eq!(panel[1], 4 * single[1], "{coarse_solve:?}: send bytes");
        assert_eq!(
            panel[3],
            4 * single[3],
            "{coarse_solve:?}: collective bytes"
        );
    }
}

/// What a served right-hand side costs in `serve-apply` traffic when its
/// batch is a panel of `k` = 1, 2 or 4: sends and collectives per
/// right-hand side of a 2-rank `try_serve` of four right-hand sides that
/// arrive together (printed with `--nocapture`; EXPERIMENTS.md records
/// them). Wider panels send fewer messages per right-hand side, and every
/// answer is the same.
#[test]
fn serve_apply_traffic_per_rhs_falls_with_the_panel_width() {
    use dd_serve::{try_serve, BatcherCfg, Payload, Request, ResponseStore, ServeOpts, Workload};
    let decomp = setup(8);
    let n = decomp.n_global;
    let rhs = |f: f64| -> Vec<f64> { (0..n).map(|i| ((i as f64 + 1.3) * f).sin()).collect() };
    let workload = Workload::from_requests(vec![Request {
        id: 0,
        arrival: 0.0,
        payload: Payload::Batch([0.7, 1.3, 1.9, 2.6].map(rhs).to_vec()),
    }]);
    let mut rows = Vec::new();
    for k in [1usize, 2, 4] {
        let opts = ServeOpts {
            spmd: SpmdOpts {
                gmres: GmresOpts {
                    tol: 1e-8,
                    ..Default::default()
                },
                ..opts_for(8)
            },
            batcher: BatcherCfg {
                max_batch_rhs: k,
                coalesce_window: 0.0,
            },
            recycle_dim: 0,
            ..Default::default()
        };
        let (d, w) = (Arc::clone(&decomp), workload.clone());
        let (cache, store) = (Arc::new(CoarseCache::new()), Arc::new(ResponseStore::new()));
        let (reports, trace) = World::run_traced(2, CostModel::default(), move |comm| {
            try_serve(&d, comm, &opts, &w, &cache, &store).expect("served stream")
        });
        let mut apply = dd_comm::PhaseCounters::default();
        for phase in ["serve-apply", "e-solve-dist"] {
            apply.absorb(&trace.phase_totals(phase));
        }
        let its: Vec<usize> = reports[0].responses.iter().map(|r| r.iterations).collect();
        let x: Vec<Vec<f64>> = reports[0].responses.iter().map(|r| r.x.clone()).collect();
        let per_rhs = |v: u64| v as f64 / 4.0;
        println!(
            "serve-apply, batches of {k}: {:.1} sends, {:.1} collectives per right-hand side (iterations {its:?})",
            per_rhs(apply.sends),
            per_rhs(apply.collectives_eq + apply.collectives_v)
        );
        rows.push((
            apply.sends,
            apply.collectives_eq + apply.collectives_v,
            its,
            x,
        ));
    }
    for pair in rows.windows(2) {
        let ((s1, c1, i1, x1), (s2, c2, i2, x2)) = (&pair[0], &pair[1]);
        assert!(
            s2 < s1 && c2 < c1,
            "sends {s1} -> {s2}, collectives {c1} -> {c2}"
        );
        assert_eq!(i1, i2);
        assert_eq!(x1, x2);
    }
}

// ------------------------------------------------------------- golden traces

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, canonical: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, canonical).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        canonical,
        golden,
        "canonical trace drifted from {}; if the comm-pattern change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Golden regression: a hand-written 4-rank communication program whose
/// canonical trace is committed. Platform-independent by construction
/// (no floating-point control flow).
#[test]
fn golden_trace_hand_written_program() {
    let (_, trace) = World::run_traced(4, CostModel::default(), |comm| {
        let rank = comm.rank();
        let n = comm.size();
        comm.trace_phase("ring");
        comm.send((rank + 1) % n, 7, vec![rank as f64; rank + 1]);
        let got: Vec<f64> = comm.recv((rank + n - 1) % n, 7);
        comm.charge_flops(got.len() as u64);
        comm.trace_phase("collectives");
        comm.barrier();
        let sum = comm.allreduce_sum(rank as f64);
        assert_eq!(sum, 6.0);
        let all = comm.try_allgather(rank as u64).unwrap();
        assert_eq!(all.len(), n);
        let rooted = comm.try_gatherv(0, vec![1.0f64; rank + 1]).unwrap();
        assert_eq!(rooted.is_some(), rank == 0);
        comm.trace_phase("split");
        let sub = comm.try_split(Some(rank % 2)).unwrap().unwrap();
        sub.set_trace_label("evenOdd");
        let s = sub.allreduce_sum(1.0);
        assert_eq!(s, 2.0);
    });
    check_golden("comm_program.json", &trace.canonical_json());
}

/// Golden regression: the full SPMD solve at fixed iteration count. With
/// `tol = 0` GMRES always runs exactly `max_iters` iterations, so the
/// canonical trace is independent of floating-point convergence behavior.
#[test]
fn golden_trace_fixed_iteration_solve() {
    let n = 4;
    let mesh = Mesh::unit_square(8, 8);
    let part = partition_mesh_rcb(&mesh, n);
    let p = presets::heterogeneous_diffusion(1);
    let decomp = Arc::new(decompose(&mesh, &p, &part, n, 1));
    let opts = SpmdOpts {
        geneo: GeneoOpts {
            nev: 2,
            ..Default::default()
        },
        n_masters: 2,
        gmres: GmresOpts {
            tol: 0.0,
            max_iters: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let (reports, trace) = traced_solve(&decomp, &opts, FaultPlan::default());
    assert!(reports.iter().all(|r| r.iterations == 3));
    check_golden("solve_n4.json", &trace.canonical_json());
}

/// The solver variants keep their §3.5 communication signatures: classical
/// GMRES posts standalone allreduces in the solve loop; the fused variant
/// replaces them with masterComm iallreduces riding the coarse solve.
#[test]
fn solver_variants_have_distinct_comm_signatures() {
    let n = conf_n();
    let decomp = setup(n);
    let base = opts_for(n);
    let count_op = |trace: &WorldTrace, wanted: &str| -> usize {
        trace
            .events_in_phase("solve")
            .iter()
            .filter(|(_, e)| matches!(&e.kind, EventKind::Collective { op, .. } if *op == wanted))
            .count()
    };
    let (_, classical) = traced_solve(&decomp, &base, FaultPlan::default());
    let fused_opts = SpmdOpts {
        solver: SolverKind::Fused,
        gmres: GmresOpts {
            side: dd_krylov::Side::Left,
            ..base.gmres.clone()
        },
        ..base.clone()
    };
    let (_, fused) = traced_solve(&decomp, &fused_opts, FaultPlan::default());
    assert!(
        count_op(&classical, "allreduce") > 0,
        "classical GMRES must reduce on the world communicator"
    );
    assert!(
        count_op(&fused, "iallreduce") > 0,
        "fused GMRES must post non-blocking reductions"
    );
}
