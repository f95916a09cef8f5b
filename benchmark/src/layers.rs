//! The traced pass: per-layer numbers, measured from outside the library.
//!
//! Four parts, all on the workload's own operator:
//! 1. a single-threaded walk down the pipeline, one span per call
//!    (assemble → per-subdomain factor → per-subdomain GenEO → coarse build
//!    → kernels → sequential GMRES);
//! 2. micro-benchmarks of the SPMD runtime's primitives;
//! 3. rounds of SPMD blocks, one variant each — plain, under
//!    `World::run_traced`, with the SDC guard armed, on a single rank — so
//!    each cost-of-safety ratio has its feature toggled alone;
//! 4. one resident stream under `World::run_traced`.
//!
//! End-to-end metrics never come from here.

use crate::blocks::{run_block, BlockOut, BlockPlan, Outcome, COARSE_SOLVE_PHASE, SOLVE_PHASE};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workloads::Instance;
use dd_comm::{CostModel, World};
use dd_core::geneo::resize_block;
use dd_core::{try_deflation_block, CoarseOperator, CoarseSpace, RasPrecond, TwoLevelPrecond};
use dd_core::{Decomposition, Variant};
use dd_krylov::{try_gmres, Operator, Preconditioner, SeqDot};
use dd_linalg::CsrMatrix;
use dd_serve::plan_batches;
use dd_solver::ldlt::etree_and_counts;
use dd_solver::{ordering, LocalLdlt};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Solves per variant block (the plain one adds as many checkpointed).
const SOLVES: usize = 2;
/// Repetitions of each kernel and runtime primitive.
const REPS: usize = 15;

/// Samples per metric name; a metric's value is their median.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, x: f64) {
        self.0.entry(name).or_default().push(x);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// The state every part of the pass reads and adds to.
struct Pass<'a> {
    inst: &'a Instance,
    ranks: usize,
    spans: &'a mut Spans,
    m: Samples,
    out: Outcome,
}

pub fn run(inst: &Instance, rounds: usize, ranks: usize, spans: &mut Spans) -> Outcome {
    let mut pass = Pass {
        inst,
        ranks,
        spans,
        m: Samples::default(),
        out: Outcome::default(),
    };
    pass.pipeline();
    if let Err(e) = pass.walk() {
        pass.out.errors.push(format!("walk: {e}"));
    }
    pass.runtime();
    pass.spmd_rounds(rounds);
    pass.stream();
    pass.derived();
    let Pass { m, mut out, .. } = pass;
    out.metrics = m.0.iter().map(|(k, v)| (*k, Summary::of(v))).collect();
    out
}

impl Pass<'_> {
    fn pipeline(&mut self) {
        let (inst, spans, m) = (self.inst, &mut *self.spans, &mut self.m);
        let p = inst.pipeline;
        m.push("mesh.build_s", p.mesh_s);
        m.push("mesh.cells", inst.mesh.n_elements() as f64);
        m.push("part.rcb_s", p.part_s);
        let n = inst.workload.subdomains;
        let mut cells = vec![0usize; n];
        for &s in &inst.part {
            cells[s as usize] += 1;
        }
        let mean = inst.part.len() as f64 / n as f64;
        let max = cells.iter().copied().max().unwrap_or(0) as f64;
        m.push("part.max_over_mean_cells", max / mean);
        let ((assemble_s, nnz), _) = spans.time("fem.assemble", || inst.assemble_global());
        m.push("fem.assemble_s", assemble_s);
        m.push("fem.nnz", nnz as f64);
        m.push("core.decompose_s", p.decompose_s);
        let d = &inst.decomp;
        let locals: usize = d.subdomains.iter().map(|s| s.n_local()).sum();
        m.push("core.overlap_ratio", locals as f64 / d.n_global as f64);
    }
}

/// Multiply-adds of the numeric factorization under the ordering the
/// solver uses, from the symbolic column counts (`c (c + 3)` per column).
fn factor_flops(a: &CsrMatrix) -> f64 {
    let perm = ordering::min_degree(a);
    let (_, counts) = etree_and_counts(&a.permute_sym(&perm));
    counts.iter().map(|&c| (c * (c + 3)) as f64).sum()
}

/// Wraps an operator or preconditioner, timing every application.
struct Timed<'a, T: ?Sized> {
    inner: &'a T,
    secs: Cell<f64>,
    calls: Cell<u64>,
}

impl<'a, T: ?Sized> Timed<'a, T> {
    fn new(inner: &'a T) -> Self {
        Timed {
            inner,
            secs: Cell::new(0.0),
            calls: Cell::new(0),
        }
    }

    fn charge(&self, t: Instant) {
        self.secs.set(self.secs.get() + t.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
    }
}

impl Operator for Timed<'_, CsrMatrix> {
    fn dim(&self) -> usize {
        self.inner.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.spmv(x, y);
        self.charge(t);
    }
}

impl Preconditioner for Timed<'_, TwoLevelPrecond<'_>> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(r, z);
        self.charge(t);
    }
}

/// Median wall seconds of `REPS` runs of `f`, one span each.
fn kernel(spans: &mut Spans, name: &str, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| spans.time(name, &mut f).1).collect();
    median(&times)
}

impl Pass<'_> {
    fn walk(&mut self) -> Result<(), String> {
        let (inst, spans, m) = (self.inst, &mut *self.spans, &mut self.m);
        let d: &Decomposition = &inst.decomp;
        let o = &inst.opts.spmd;
        let walk = spans.enter("walk");

        // ---- set-up layers, subdomain by subdomain
        let id = spans.enter("solver.factor");
        let mut factors = Vec::new();
        for (i, sub) in d.subdomains.iter().enumerate() {
            let (f, _) = spans.time(&format!("solver.factor[{i}]"), || {
                LocalLdlt::factor(&sub.a_dirichlet, o.ordering, o.local_ldlt)
            });
            factors.push(f.map_err(|e| format!("factor {i}: {e}"))?);
        }
        spans.exit(id);
        let factor_s = spans.duration(id);
        let nnz_l: usize = factors.iter().map(LocalLdlt::nnz_l).sum();
        let flops: f64 = d
            .subdomains
            .iter()
            .map(|s| factor_flops(&s.a_dirichlet))
            .sum();
        m.push("solver.factor_s", factor_s);
        m.push("solver.nnz_l", nnz_l as f64);
        m.push("solver.factor_flops", flops);
        m.push("solver.factor_gflops", flops / factor_s * 1e-9);

        let id = spans.enter("eigen.geneo");
        let mut blocks = Vec::new();
        for (i, sub) in d.subdomains.iter().enumerate() {
            let (b, _) = spans.time(&format!("eigen.geneo[{i}]"), || {
                try_deflation_block(sub, &o.geneo)
            });
            blocks.push(b.map_err(|e| format!("GenEO {i}: {e}"))?);
        }
        spans.exit(id);
        m.push("eigen.geneo_s", spans.duration(id));
        // The SPMD set-up makes ν uniform: the maximum any subdomain kept.
        let nu = blocks.iter().map(|b| b.kept.max(1)).max().unwrap_or(1);
        m.push(
            "eigen.nu_total",
            blocks.iter().map(|b| b.kept).sum::<usize>() as f64,
        );
        m.push("eigen.nu_max", nu as f64);
        let w: Vec<_> = blocks.iter().map(|b| resize_block(b, nu)).collect();

        let (coarse, coarse_s) = spans.time("core.coarse_build", || {
            CoarseOperator::try_build(d, CoarseSpace::new(w.clone()), o.ordering)
        });
        let coarse = coarse.map_err(|e| format!("coarse build: {e}"))?;
        m.push("core.coarse_build_s", coarse_s);
        m.push("core.dim_e", coarse.dim() as f64);
        m.push("core.nnz_e_factor", coarse.nnz_factor() as f64);

        // ---- kernels of one iteration. Bytes are computed from array sizes
        // (values, indices, vectors read and written once); cache misses are
        // not in them.
        let n_local: usize = d.subdomains.iter().map(|s| s.n_local()).sum();
        let mut rhs: Vec<Vec<f64>> = d
            .subdomains
            .iter()
            .map(|s| s.restrict(&inst.pool[0]))
            .collect();
        let t = kernel(spans, "solver.trisolve", || {
            for (f, b) in factors.iter().zip(rhs.iter_mut()) {
                f.solve_in_place(b);
            }
        });
        m.push("solver.trisolve_s", t);
        let bytes = (2 * nnz_l * 8 + 3 * n_local * 8) as f64;
        m.push("solver.trisolve_gbps_computed", bytes / t * 1e-9);

        let a = &d.a_global;
        let x = &inst.pool[1];
        let mut y = vec![0.0; d.n_global];
        let t = kernel(spans, "linalg.spmv", || a.spmv(x, &mut y));
        m.push("linalg.spmv_s", t);
        let bytes = (a.nnz() * 12 + (a.rows() + 1) * 8 + 2 * a.rows() * 8) as f64;
        m.push("linalg.spmv_gbps_computed", bytes / t * 1e-9);

        let locals = d.to_locals(x);
        let mut out: Vec<Vec<f64>> = locals.iter().map(|l| vec![0.0; l.len()]).collect();
        let t = kernel(spans, "linalg.bsr_spmv", || {
            for ((s, xi), yi) in d.subdomains.iter().zip(&locals).zip(out.iter_mut()) {
                s.spmv_dirichlet(xi, yi);
            }
        });
        m.push("linalg.bsr_spmv_s", t);
        let t = kernel(spans, "linalg.bsrmm", || {
            for (s, wi) in d.subdomains.iter().zip(&w) {
                std::hint::black_box(s.mm_dirichlet(wi));
            }
        });
        m.push("linalg.bsrmm_s", t);
        let zt = coarse.space.zt_apply(d, x);
        let t = kernel(spans, "core.coarse_solve", || {
            std::hint::black_box(coarse.solve(&zt));
        });
        m.push("core.coarse_solve_us", t * 1e6);

        // ---- the sequential Krylov loop on the global operator
        let (ras, _) = spans.time("krylov.seq_ras_build", || RasPrecond::build(d, o.ordering));
        let precond = TwoLevelPrecond::new(ras, coarse, Variant::ADef1);
        let (op, pc) = (Timed::new(a), Timed::new(&precond));
        let x0 = vec![0.0; d.n_global];
        let (res, seq_s) = spans.time("krylov.seq_gmres", || {
            try_gmres(&op, &pc, &SeqDot, &inst.pool[0], &x0, &o.gmres, None)
        });
        let res = res.map_err(|e| format!("sequential GMRES: {e}"))?;
        if !res.converged {
            return Err("sequential GMRES did not converge".into());
        }
        m.push("krylov.seq_gmres_s", seq_s);
        m.push("krylov.seq_iterations", res.iterations as f64);
        m.push(
            "krylov.precond_apply_s",
            pc.secs.get() / pc.calls.get() as f64,
        );
        m.push("krylov.self_s", seq_s - op.secs.get() - pc.secs.get());
        spans.exit(walk);
        Ok(())
    }

    /// The SPMD runtime's primitives between two rank threads (two even on a
    /// one-processor host, where this part alone is oversubscribed).
    fn runtime(&mut self) {
        let (spans, m) = (&mut *self.spans, &mut self.m);
        let id = spans.enter("comm.primitives");
        let ranks = self.ranks.max(2);
        let spawn = kernel(spans, "comm.world_spawn", || {
            std::hint::black_box(World::run(ranks, CostModel::default(), |c| c.rank()));
        });
        m.push("comm.world_spawn_us", spawn * 1e6);
        const BIG: usize = 1 << 17; // 1 MiB of f64
        let per_rank = World::run(ranks, CostModel::default(), |c| {
            let lap = |f: &mut dyn FnMut()| {
                c.barrier();
                let t = Instant::now();
                for _ in 0..REPS * 10 {
                    f();
                }
                t.elapsed().as_secs_f64() / (REPS * 10) as f64
            };
            let barrier = lap(&mut || c.barrier());
            let allreduce = lap(&mut || {
                std::hint::black_box(c.allreduce_sum(1.0));
            });
            let pingpong = |tag: u64, len: usize| {
                lap(&mut || match c.rank() {
                    0 => {
                        c.send(1, tag, vec![1.0f64; len]);
                        std::hint::black_box(c.recv::<Vec<f64>>(1, tag));
                    }
                    1 => {
                        let v = c.recv::<Vec<f64>>(0, tag);
                        c.send(0, tag, v);
                    }
                    _ => {}
                })
            };
            let small = pingpong(1, 1);
            let big = pingpong(2, BIG);
            [barrier, allreduce, small, big]
        });
        let [barrier, allreduce, small, big] = per_rank[0];
        m.push("comm.barrier_us", barrier * 1e6);
        m.push("comm.allreduce_us", allreduce * 1e6);
        m.push("comm.p2p_roundtrip_us", small * 1e6);
        m.push("comm.p2p_mbps", 2.0 * (BIG * 8) as f64 / big * 1e-6);
        spans.exit(id);
    }

    /// Run one block, count it, and hand it back only when every check held.
    fn checked(&mut self, plan: BlockPlan, label: &str, index: usize) -> Option<BlockOut> {
        let (m, out) = (&mut self.m, &mut self.out);
        out.attempted += 1;
        match run_block(self.inst, plan) {
            Ok(b) if b.errors.is_empty() => {
                b.record(self.spans, label, index);
                let worst = b.solves.iter().map(|s| s.residual);
                let worst = worst.chain(b.stream.iter().map(|s| s.residual_max));
                m.push("core.true_residual_max", worst.fold(0.0, f64::max));
                Some(b)
            }
            Ok(b) => {
                out.failed += 1;
                out.errors
                    .extend(b.errors.iter().map(|e| format!("{label} {index}: {e}")));
                None
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("{label} {index}: {e}"));
                None
            }
        }
    }

    fn spmd_rounds(&mut self, rounds: usize) {
        let base = BlockPlan {
            ranks: self.ranks,
            solves: SOLVES,
            ..Default::default()
        };
        // Warm-up: checked, not timed.
        self.checked(base, "warm-up", 0);
        for round in 0..rounds {
            let plain = BlockPlan {
                solves: 2 * SOLVES,
                checkpoint_alternate: true,
                ..base
            };
            if let Some(b) = self.checked(plain, "plain", round) {
                let m = &mut self.m;
                m.push("setup_wall", b.setup.wall);
                m.push("setup_cpu_over_wall", b.setup.cpu_sum / b.setup.wall);
                m.push("core.virtual_factorization_s", b.virt[0]);
                m.push("core.virtual_deflation_s", b.virt[1]);
                m.push("core.virtual_coarse_s", b.virt[2]);
                m.push("core.virtual_setup_s", b.virt[0] + b.virt[1] + b.virt[2]);
                for s in &b.solves {
                    if s.checkpointed {
                        m.push("solve_wall_checkpointed", s.timing.wall);
                    } else {
                        m.push("solve_wall", s.timing.wall);
                        m.push("solve_cpu_over_wall", s.timing.cpu_sum / s.timing.wall);
                        m.push("core.virtual_solve_s", s.virt);
                        m.push("core.iter_ms", s.timing.wall / s.iterations as f64 * 1e3);
                    }
                }
            }
            let traced = BlockPlan {
                traced: true,
                ..base
            };
            if let Some(b) = self.checked(traced, "traced", round) {
                let m = &mut self.m;
                for s in &b.solves {
                    m.push("solve_wall_traced", s.timing.wall);
                }
                let trace = b.trace.as_ref().expect("traced block returns its trace");
                let iters: usize = b.solves.iter().map(|s| s.iterations).sum();
                let per_iter = |x: u64| x as f64 / iters as f64;
                let (solve, coarse) = (
                    trace.phase_totals(SOLVE_PHASE),
                    trace.phase_totals(COARSE_SOLVE_PHASE),
                );
                m.push(
                    "comm.solve_sends_per_iter",
                    per_iter(solve.sends + coarse.sends),
                );
                m.push(
                    "comm.solve_bytes_per_iter",
                    per_iter(solve.send_bytes + coarse.send_bytes),
                );
                let collectives = |c: &dd_comm::PhaseCounters| c.collectives_eq + c.collectives_v;
                m.push(
                    "comm.solve_collectives_per_iter",
                    per_iter(collectives(&solve) + collectives(&coarse)),
                );
                m.push("comm.e_solve_sends_per_iter", per_iter(coarse.sends));
            }
            let guard = BlockPlan {
                guard: true,
                ..base
            };
            if let Some(b) = self.checked(guard, "guard", round) {
                for s in &b.solves {
                    self.m.push("solve_wall_guarded", s.timing.wall);
                }
            }
            let single = BlockPlan { ranks: 1, ..base };
            if let Some(b) = self.checked(single, "single-rank", round) {
                self.m.push("core.setup_s_r1", b.setup.wall);
                for s in &b.solves {
                    self.m.push("core.solve_s_r1", s.timing.wall);
                }
            }
        }
    }

    fn stream(&mut self) {
        let inst = self.inst;
        let requests = &inst.stream.requests;
        let t = kernel(self.spans, "serve.plan_batches", || {
            std::hint::black_box(plan_batches(requests, &inst.opts.batcher));
        });
        self.m.push("serve.plan_batches_us", t * 1e6);
        self.m.push(
            "serve.batches",
            plan_batches(requests, &inst.opts.batcher).len() as f64,
        );
        let plan = BlockPlan {
            ranks: self.ranks,
            traced: true,
            stream: true,
            ..Default::default()
        };
        let Some(b) = self.checked(plan, "stream", 0) else {
            return;
        };
        let m = &mut self.m;
        let s = b.stream.as_ref().expect("planned");
        m.push("stream_wall", s.timing.wall);
        m.push("serve.solves", s.solves as f64);
        m.push("serve.reused_applies", s.reused_applies as f64);
        m.push("serve.resetups", s.resetups as f64);
        m.push("serve.iterations_base", s.iterations_base as f64);
        m.push("serve.iterations_perturbed", s.iterations_perturbed as f64);
        m.push("serve.virtual_latency_p50_s", s.latency_p50);
        m.push("serve.virtual_latency_p90_s", s.latency_p90);
    }

    /// Ratios of medians measured above; the scratch series they come from
    /// (names without a crate prefix) are dropped.
    fn derived(&mut self) {
        let (inst, m) = (self.inst, &mut self.m);
        let solve = m.median("solve_wall");
        let setup = m.median("setup_wall");
        let ratios = [
            (
                "core.trace_overhead_ratio",
                m.median("solve_wall_traced") / solve,
            ),
            (
                "krylov.guard_overhead_ratio",
                m.median("solve_wall_guarded") / solve,
            ),
            (
                "core.checkpoint_overhead_ratio",
                m.median("solve_wall_checkpointed") / solve,
            ),
            (
                "core.cpu_sum_over_wall_setup",
                m.median("setup_cpu_over_wall"),
            ),
            (
                "core.cpu_sum_over_wall_solve",
                m.median("solve_cpu_over_wall"),
            ),
            (
                "core.wall_over_virtual_setup",
                setup / m.median("core.virtual_setup_s"),
            ),
            (
                "core.wall_over_virtual_solve",
                solve / m.median("core.virtual_solve_s"),
            ),
            // SPMD wall per iteration over sequential wall per iteration.
            (
                "core.runtime_tax_ratio",
                m.median("core.iter_ms") * 1e-3
                    / (m.median("krylov.seq_gmres_s") / m.median("krylov.seq_iterations")),
            ),
            // One set-up and one solve per right-hand side, against the stream
            // that answered them all from one resident set-up.
            (
                "serve.oneshot_over_stream",
                inst.workload.stream_rhs as f64 * (setup + solve) / m.median("stream_wall"),
            ),
        ];
        for (name, x) in ratios {
            m.push(name, x);
        }
        // The worst answer of the pass, not its typical one.
        if let Some(v) = m.0.get_mut("core.true_residual_max") {
            *v = vec![v.iter().copied().fold(0.0, f64::max)];
        }
        m.0.retain(|name, _| name.contains('.'));
    }
}
