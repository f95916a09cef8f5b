//! The Krylov panel contract through the public API: every column of
//! `try_gmres_panel` is its one-column solve to the bit — `x`, history,
//! iterations, status and breakdown restarts. The serve path answers a
//! batch as one panel and claims each response equals the single solve
//! from the batch-start recycle state; this is the loop-level half of that
//! claim, on a `CsrMatrix` with a `FnPrecond`, on both sides, under CGS2
//! and MGS, at a restart length the panel outlives, with and without a
//! `RecycleSpace`, and with columns that converge early, break down and
//! are zero. Every loop also turns inputs of the wrong length into a
//! `SolveInterrupt` before its first apply.

use dd_geneo::krylov::{
    fused_pipelined_gmres_panel, pipelined_gmres_panel, try_gmres, try_gmres_panel, try_gmres_with,
    CheckpointCfg, CheckpointSink, FnPrecond, FusedPreconditioner, GmresOpts, GmresWorkspace,
    Operator, Ortho, Preconditioner, RecycleSpace, SeqDot, Side, SolveCheckpoint, SolveInterrupt,
    SolveResult,
};
use dd_geneo::linalg::{CooBuilder, CsrMatrix};
use std::cell::Cell;

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
    for side in [Side::Right, Side::Left] {
        for (ortho, restart) in [(Ortho::Cgs2, 200), (Ortho::Mgs, 200), (Ortho::Cgs2, 9)] {
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
                    "{side:?} {ortho:?} restart {restart} recycled {}",
                    space.is_some()
                );
                let mut after = space.cloned();
                let got = try_gmres_panel(
                    &a,
                    &jacobi,
                    &SeqDot,
                    &panel,
                    &x0,
                    k,
                    &opts,
                    None,
                    after.as_mut(),
                    &mut ws,
                )
                .expect("panel solve");
                assert_eq!(got.len(), k, "{what}: one result a column");
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
            }
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
                "pipelined_gmres_panel",
                pipelined_gmres_panel(&op, m, ip, b, x0, k, &gmres, ckpt, None).map(drop),
            ),
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
