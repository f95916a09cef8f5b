//! The Krylov panel contract through the public API: every column of
//! `try_gmres_panel` is its one-column solve to the bit — `x`, history,
//! iterations, status and breakdown restarts. The serve path answers a
//! batch as one panel and claims each response equals the single solve
//! from the batch-start recycle state; this is the loop-level half of that
//! claim, on a `CsrMatrix` with a `FnPrecond`, on both sides, under DCGS2,
//! CGS2 and MGS, at a restart length the panel outlives, with and without
//! a `RecycleSpace`, and with columns that converge early, break down and
//! are zero. Every loop also turns inputs of the wrong length into a
//! `SolveInterrupt` before its first apply. The orthogonality of the
//! classical loop's basis is pinned per iteration under MGS, CGS2 and
//! DCGS2, and a classical solve applies the preconditioner once an
//! iteration, whatever its orthogonalization.

use dd_geneo::krylov::{
    fused_pipelined_gmres_panel, try_gmres, try_gmres_panel, try_gmres_with, CheckpointCfg,
    CheckpointSink, FnPrecond, FusedPreconditioner, GmresOpts, GmresWorkspace, IdentityPrecond,
    InnerProduct, Operator, Ortho, Preconditioner, RecycleSpace, SeqDot, Side, SolveCheckpoint,
    SolveInterrupt, SolveResult, SolveStatus,
};
use dd_geneo::linalg::{vector, CooBuilder, CsrMatrix};
use std::cell::{Cell, RefCell};

/// A 9×8 five-point Laplacian, then four decoupled dofs of diagonal 2, then
/// one whose row and column are zero: a right-hand side on the decoupled
/// dofs converges in one iteration, one along the last dof breaks down,
/// and every other one solves as on the Laplacian.
fn panel_operator() -> CsrMatrix {
    let (nx, ny) = (9, 8);
    let nl = nx * ny;
    let mut c = CooBuilder::new(nl + 5, nl + 5);
    let id = |i: usize, j: usize| i + j * nx;
    for j in 0..ny {
        for i in 0..nx {
            let u = id(i, j);
            c.push(u, u, 4.0);
            if i + 1 < nx {
                c.push(u, id(i + 1, j), -1.0);
                c.push(id(i + 1, j), u, -1.0);
            }
            if j + 1 < ny {
                c.push(u, id(i, j + 1), -1.0);
                c.push(id(i, j + 1), u, -1.0);
            }
        }
    }
    for i in nl..nl + 4 {
        c.push(i, i, 2.0);
    }
    c.to_csr()
}

/// Two generic right-hand sides, one that converges early, one that breaks
/// down, and a zero one (converged before any cycle).
fn panel_rhs(n: usize) -> Vec<Vec<f64>> {
    let generic = |f: f64| -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i as f64 + 1.3) * f).sin()).collect();
        b[n - 1] = 0.0;
        b
    };
    let mut early = vec![0.0; n];
    early[n - 3] = 1.0;
    early[n - 2] = -0.5;
    let mut broken = vec![0.0; n];
    broken[n - 1] = 1.0;
    vec![generic(0.7), early, broken, vec![0.0; n], generic(1.9)]
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn assert_same(what: &str, got: &SolveResult, want: &SolveResult) {
    assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
    assert_eq!(bits(&got.history), bits(&want.history), "{what}: history");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.status, want.status, "{what}: status");
    assert_eq!(
        got.breakdown_restarts, want.breakdown_restarts,
        "{what}: breakdown restarts"
    );
}

#[test]
fn each_panel_column_is_its_single_solve_bitwise() {
    let a = panel_operator();
    let n = a.rows();
    let diag: Vec<f64> = a
        .diag()
        .iter()
        .map(|&d| if d == 0.0 { 1.0 } else { d })
        .collect();
    let jacobi = FnPrecond::new(move |r: &[f64], z: &mut [f64]| {
        for i in 0..r.len() {
            z[i] = r[i] / diag[i];
        }
    });
    let rhs = panel_rhs(n);
    let k = rhs.len();
    let panel: Vec<f64> = rhs.concat();
    let x0 = vec![0.0; k * n];
    // A space holding two earlier solves' increments.
    let mut seeded = RecycleSpace::new(6);
    for f in [0.3, 2.3] {
        let b: Vec<f64> = (0..n - 1)
            .map(|i| (i as f64 * f).cos())
            .chain([0.0])
            .collect();
        let opts = GmresOpts {
            tol: 1e-9,
            ..Default::default()
        };
        try_gmres_with(
            &a,
            &jacobi,
            &SeqDot,
            &b,
            &x0[..n],
            &opts,
            None,
            Some(&mut seeded),
            &mut GmresWorkspace::new(),
        )
        .expect("seeding solve");
    }
    assert_eq!(seeded.len(), 2);
    let mut ws = GmresWorkspace::new();
    // DCGS2 also at every panel width of the shapes: the generic column
    // alone, then with the early, the broken and the zero one.
    let configs = [
        (Ortho::Dcgs2, 200, k),
        (Ortho::Dcgs2, 9, k),
        (Ortho::Cgs2, 200, k),
        (Ortho::Mgs, 200, k),
        (Ortho::Cgs2, 9, k),
        (Ortho::Dcgs2, 200, 1),
        (Ortho::Dcgs2, 200, 2),
        (Ortho::Dcgs2, 200, 3),
        (Ortho::Dcgs2, 9, 1),
        (Ortho::Dcgs2, 9, 2),
        (Ortho::Dcgs2, 9, 3),
    ];
    for side in [Side::Right, Side::Left] {
        for (ortho, restart, width) in configs {
            for space in [None, Some(&seeded)] {
                let opts = GmresOpts {
                    tol: 1e-10,
                    max_iters: 400,
                    side,
                    ortho,
                    restart,
                    ..Default::default()
                };
                let what = format!(
                    "{side:?} {ortho:?} restart {restart} width {width} recycled {}",
                    space.is_some()
                );
                let mut after = space.cloned();
                let got = try_gmres_panel(
                    &a,
                    &jacobi,
                    &SeqDot,
                    &panel[..width * n],
                    &x0[..width * n],
                    width,
                    &opts,
                    None,
                    after.as_mut(),
                    &mut ws,
                )
                .expect("panel solve");
                assert_eq!(got.len(), width, "{what}: one result a column");
                for (c, (b, res)) in rhs.iter().zip(&got).enumerate() {
                    // From the space as the panel found it.
                    let want = match space {
                        None => try_gmres(&a, &jacobi, &SeqDot, b, &x0[..n], &opts, None),
                        Some(s) => try_gmres_with(
                            &a,
                            &jacobi,
                            &SeqDot,
                            b,
                            &x0[..n],
                            &opts,
                            None,
                            Some(&mut s.clone()),
                            &mut GmresWorkspace::new(),
                        ),
                    }
                    .expect("single solve");
                    assert_same(&format!("{what}, column {c}"), res, &want);
                }
                if width == k {
                    // The shapes the panel has to survive.
                    let iters: Vec<usize> = got.iter().map(|r| r.iterations).collect();
                    assert!(got[0].converged && got[4].converged, "{what}: {iters:?}");
                    assert_eq!(got[2].status, SolveStatus::Breakdown, "{what}");
                    assert_eq!((iters[3], got[3].converged), (0, true), "{what}");
                }
            }
        }
    }
}

/// `cgs2_matches_mgs_on_ill_conditioned`'s table (dd-krylov's unit tests):
/// a tridiagonal SPD matrix of diagonal `10^(i mod 7)`, `n = 50`, `b = 1`,
/// unpreconditioned, `tol = 1e-10`, one cycle.
fn ill_conditioned() -> CsrMatrix {
    let n = 50;
    let mut c = CooBuilder::new(n, n);
    for i in 0..n {
        c.push(i, i, 10f64.powi((i % 7) as i32));
        if i + 1 < n {
            c.push(i, i + 1, 1.0);
            c.push(i + 1, i, 1.0);
        }
    }
    c.to_csr()
}

/// The identity preconditioner and the sequential inner product, each
/// keeping what it is handed: every vector the preconditioner is applied
/// to, and the longest basis a Gram pass reads.
#[derive(Default)]
struct Probe {
    applied: RefCell<Vec<Vec<f64>>>,
    basis: RefCell<Vec<Vec<f64>>>,
}

impl Probe {
    fn keep(&self, vs: &[Vec<f64>]) {
        let mut basis = self.basis.borrow_mut();
        if vs.len() > basis.len() {
            *basis = vs.to_vec();
        }
    }
}

impl Preconditioner for Probe {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.applied.borrow_mut().push(r.to_vec());
        z.copy_from_slice(r);
    }
}

impl InnerProduct for Probe {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        SeqDot.local_dot(x, y)
    }

    fn local_dots(&self, w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
        self.keep(vs);
        SeqDot.local_dots(w, vs, out);
    }

    fn local_dots2(&self, x: &[f64], y: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
        self.keep(vs);
        SeqDot.local_dots2(x, y, vs, out);
    }

    fn try_reduce_into(&self, locals: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt> {
        SeqDot.try_reduce_into(locals, out)
    }
}

/// `‖I − V_jᵀV_j‖_F` over the leading `j` columns of `v`, `j = 1..=len`.
fn orthogonality_loss(v: &[Vec<f64>]) -> Vec<f64> {
    let mut sum = 0.0;
    (0..v.len())
        .map(|j| {
            // Add row and column `j` of `I − VᵀV` to the running square.
            for i in 0..=j {
                let e = f64::from(u8::from(i == j)) - vector::dot(&v[i], &v[j]);
                sum += if i == j { e * e } else { 2.0 * e * e };
            }
            sum.sqrt()
        })
        .collect()
}

/// The basis of the ill-conditioned table's one cycle is orthonormal to
/// rounding, iteration by iteration, under MGS, CGS2 and DCGS2; DCGS2's loss
/// stays within 2× CGS2's at every iteration (with a floor of `n·ε` per
/// column), and all three take the same number of iterations within 3.
/// The basis is read where the loop hands it over: MGS and CGS2 apply the
/// preconditioner to `v_k` itself, DCGS2 to the unnormalized candidate, so
/// there the basis is the one its Gram passes read.
#[test]
fn the_basis_stays_orthonormal_under_dcgs2_as_under_cgs2() {
    let a = ill_conditioned();
    let n = a.rows();
    let b = vec![1.0; n];
    let mut loss = Vec::new();
    let mut iterations = Vec::new();
    for ortho in [Ortho::Mgs, Ortho::Cgs2, Ortho::Dcgs2] {
        let opts = GmresOpts {
            tol: 1e-10,
            max_iters: 300,
            ortho,
            ..Default::default()
        };
        let probe = Probe::default();
        let res = try_gmres(&a, &probe, &probe, &b, &vec![0.0; n], &opts, None).unwrap();
        assert!(res.converged, "{ortho:?}");
        assert!(res.iterations < opts.restart, "{ortho:?}: one cycle");
        let v = match ortho {
            Ortho::Dcgs2 => probe.basis.take(),
            _ => probe.applied.take(),
        };
        assert_eq!(
            v.len(),
            res.iterations,
            "{ortho:?}: one vector an iteration"
        );
        if ortho == Ortho::Cgs2 {
            // The Gram passes read the vectors the preconditioner is applied
            // to: the probe sees the basis both ways.
            assert!(probe.basis.take() == v, "CGS2: two views of one basis");
        }
        loss.push(orthogonality_loss(&v));
        iterations.push(res.iterations);
    }
    let eps = f64::EPSILON;
    for (j, ((mgs, cgs2), dcgs2)) in loss[0].iter().zip(&loss[1]).zip(&loss[2]).enumerate() {
        let floor = (n * (j + 1)) as f64 * eps;
        assert!(*cgs2 <= floor, "CGS2 at {}: {cgs2:e}", j + 1);
        assert!(
            *dcgs2 <= 2.0 * cgs2.max(floor),
            "DCGS2 at {}: {dcgs2:e} against CGS2 {cgs2:e}",
            j + 1
        );
        assert!(mgs.is_finite(), "MGS at {}", j + 1);
    }
    let (lo, hi) = (iterations.iter().min(), iterations.iter().max());
    assert!(hi.unwrap() - lo.unwrap() <= 3, "iterations {iterations:?}");
    // `--nocapture` prints the table: iteration, MGS, CGS2, DCGS2.
    for (j, ((mgs, cgs2), dcgs2)) in loss[0].iter().zip(&loss[1]).zip(&loss[2]).enumerate() {
        println!("{:>3} {mgs:.2e} {cgs2:.2e} {dcgs2:.2e}", j + 1);
    }
}

/// A classical solve applies the preconditioner once an iteration and the
/// operator once more a cycle (its start residual), whatever its
/// orthogonalization: DCGS2 finalizes a cycle's last column by a reduction,
/// not by another apply. Right-preconditioned, on the ill-conditioned table
/// at restart 9 (several cycles) and 200 (one).
#[test]
fn a_classical_solve_applies_once_an_iteration() {
    let a = ill_conditioned();
    let n = a.rows();
    let b = vec![1.0; n];
    for ortho in [Ortho::Dcgs2, Ortho::Cgs2, Ortho::Mgs] {
        for restart in [9, 200] {
            let opts = GmresOpts {
                restart,
                tol: 1e-8,
                max_iters: 400,
                ortho,
                ..Default::default()
            };
            let op = Counted {
                a: a.clone(),
                applies: Cell::new(0),
            };
            let probe = Probe::default();
            let res = try_gmres(&op, &probe, &SeqDot, &b, &vec![0.0; n], &opts, None).unwrap();
            let what = format!("{ortho:?} restart {restart}");
            assert!(res.converged, "{what}");
            let cycles = res.iterations.div_ceil(restart);
            assert_eq!(probe.applied.borrow().len(), res.iterations, "{what}");
            assert_eq!(op.applies.get(), res.iterations + cycles, "{what}");
        }
    }
}

/// `panel_operator` counting its applies.
struct Counted {
    a: CsrMatrix,
    applies: Cell<usize>,
}

impl Operator for Counted {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        self.a.spmv(x, y);
    }
}

/// The identity, fused: the Gram row rides through unchanged.
struct FusedIdentity;

impl Preconditioner for FusedIdentity {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

impl FusedPreconditioner for FusedIdentity {
    fn apply_fused(
        &self,
        r: &[f64],
        z: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        z.copy_from_slice(r);
        Ok(payload)
    }
}

struct Discard;

impl CheckpointSink for Discard {
    fn save(&self, _: SolveCheckpoint) {}
}

/// A right-hand side one value too long, an initial guess one short, a
/// checkpoint on a two-column panel and a resumed iterate of the wrong
/// length: every public loop returns an interrupt naming the lengths, and
/// applies nothing first.
#[test]
fn every_loop_rejects_inputs_of_the_wrong_length() {
    let op = Counted {
        a: panel_operator(),
        applies: Cell::new(0),
    };
    let n = op.dim();
    let sink = Discard;
    let resumed = |len: usize| CheckpointCfg {
        resume: Some(SolveCheckpoint {
            iteration: 3,
            x: vec![0.0; len],
            residual: 0.5,
            r0_norm: 1.0,
            history: Vec::new(),
        }),
        ..CheckpointCfg::new(5, &sink)
    };
    let gmres = GmresOpts::default();
    let one = CheckpointCfg::new(5, &sink);
    let (bad_resume, good_resume) = (resumed(n + 2), resumed(n));
    // (b, x0, k, checkpoint, what the reason names)
    let cases = [
        (
            vec![1.0; n + 1],
            vec![0.0; n],
            1,
            None,
            format!("b holds {} values, expected {n}", n + 1),
        ),
        (
            vec![1.0; n],
            vec![0.0; n - 1],
            1,
            None,
            format!("x0 holds {} values, expected {n}", n - 1),
        ),
        (
            vec![1.0; 2 * n],
            vec![0.0; 2 * n],
            2,
            Some(&one),
            "a checkpoint belongs to one column, not 2".to_string(),
        ),
        (
            vec![1.0; n],
            vec![0.0; n],
            1,
            Some(&bad_resume),
            format!("the resumed iterate holds {} values, expected {n}", n + 2),
        ),
        (
            vec![1.0; 2 * n + 3],
            vec![0.0; 2 * n],
            2,
            None,
            format!("b holds {} values, expected {}", 2 * n + 3, 2 * n),
        ),
    ];
    let (m, ip, mut ws) = (&FusedIdentity, &SeqDot, GmresWorkspace::new());
    for (b, x0, k, ckpt, why) in &cases {
        let (b, x0, k, ckpt) = (&b[..], &x0[..], *k, *ckpt);
        let panel = try_gmres_panel(&op, m, ip, b, x0, k, &gmres, ckpt, None, &mut ws);
        let mut outcomes = vec![
            ("try_gmres_panel", panel.map(drop)),
            (
                "fused_pipelined_gmres_panel",
                fused_pipelined_gmres_panel(&op, m, ip, b, x0, k, &gmres, ckpt, None).map(drop),
            ),
        ];
        if k == 1 {
            let with = try_gmres_with(&op, m, ip, b, x0, &gmres, ckpt, None, &mut ws);
            outcomes.extend([
                (
                    "try_gmres",
                    try_gmres(&op, m, ip, b, x0, &gmres, ckpt).map(drop),
                ),
                ("try_gmres_with", with.map(drop)),
            ]);
        }
        for (entry, outcome) in outcomes {
            let err = outcome.expect_err(&format!("{entry}: {why}"));
            assert!(err.reason().contains(why.as_str()), "{entry}: {err}");
        }
        assert_eq!(op.applies.get(), 0, "{why}: applied before the check");
    }
    // The right lengths, resumed: the same checks pass and the loops run.
    let (mut b, x0) = (vec![1.0; n], vec![0.0; n]);
    b[n - 1] = 0.0;
    let resume = Some(&good_resume);
    try_gmres(&op, m, ip, &b, &x0, &gmres, resume).expect("a resume of the right length");
    assert!(op.applies.get() > 0);
}

/// `SeqDot`, counting its reductions.
#[derive(Default)]
struct CountedDot(Cell<usize>);

impl InnerProduct for CountedDot {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        SeqDot.local_dot(x, y)
    }

    fn try_reduce_into(&self, locals: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt> {
        self.0.set(self.0.get() + 1);
        SeqDot.try_reduce_into(locals, out)
    }
}

/// A DCGS2 column whose candidate lies within `10⁻⁵` of the basis cannot
/// be read ahead (its once-projected norm cancels), so it is finalized
/// early by one more reduction; where it does not end the cycle, the cycle
/// goes on from the final vector. `diag(1..=12)` and a right-hand side
/// with components `10⁻⁷` on the upper six eigenvectors: after six
/// iterations the Krylov space nearly closes, then opens again. Against a
/// generic column in one panel, and alone: one cycle, the true residual
/// at the tolerance, the history one entry an iteration, a reduction more
/// than a cycle without such a column takes (one a step, one for the start
/// residual, one for the cycle's end), and each panel column its
/// one-column solve to the bit.
#[test]
fn a_dcgs2_column_finalized_early_goes_on_bitwise() {
    let n = 12;
    let mut c = CooBuilder::new(n, n);
    for i in 0..n {
        c.push(i, i, (i + 1) as f64);
    }
    let a = c.to_csr();
    let near: Vec<f64> = (0..n).map(|i| if i < 6 { 1.0 } else { 1e-7 }).collect();
    let generic: Vec<f64> = (0..n).map(|i| ((i as f64 + 0.5) * 0.9).sin()).collect();
    let opts = GmresOpts {
        tol: 1e-12,
        max_iters: 100,
        ..Default::default()
    };
    let x0 = vec![0.0; n];
    let ip = CountedDot::default();
    let alone = try_gmres(&a, &IdentityPrecond, &ip, &near, &x0, &opts, None).unwrap();
    assert!(alone.converged, "{alone:?}");
    assert_eq!(alone.history.len(), alone.iterations + 1);
    assert!(
        ip.0.get() > alone.iterations + 2,
        "{} reductions",
        ip.0.get()
    );
    let mut ax = vec![0.0; n];
    a.spmv(&alone.x, &mut ax);
    assert!(vector::dist2(&ax, &near) <= 10.0 * opts.tol * vector::norm2(&near));
    for panel in [[&near, &generic], [&generic, &near]] {
        let b: Vec<f64> = panel.iter().flat_map(|v| v.iter().copied()).collect();
        let got = try_gmres_panel(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &vec![0.0; 2 * n],
            2,
            &opts,
            None,
            None,
            &mut GmresWorkspace::new(),
        )
        .unwrap();
        for (res, rhs) in got.iter().zip(panel) {
            let want = try_gmres(&a, &IdentityPrecond, &SeqDot, rhs, &x0, &opts, None).unwrap();
            assert_same("early-finalized panel", res, &want);
        }
    }
}
