//! One block of SPMD work, timed from outside the library: a set-up on the
//! owner-map stack (`try_setup_partitioned`), then one-shot solves
//! (`PreparedMulti::try_apply`) and/or one resident stream (`try_serve`),
//! with every answer checked against the global operator.

use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{Instance, TOL};
use dd_comm::{Communicator, CostModel, World, WorldTrace};
use dd_core::{repartition_plan, try_setup_partitioned, CoarseCache, RecoveryOpts};
use dd_krylov::{CheckpointCfg, CheckpointSink, SdcGuard, SolveCheckpoint};
use dd_serve::{try_serve, ResponseStore, ServeReport};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trace phase of the timed solves (the coarse solve nests its own).
pub const SOLVE_PHASE: &str = "bench-solve";
pub const COARSE_SOLVE_PHASE: &str = "recovery-e-solve-dist";

/// A true residual above this fails the solve.
pub const RESIDUAL_LIMIT: f64 = 100.0 * TOL;

/// What one block does after its set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockPlan {
    pub ranks: usize,
    /// Run under `World::run_traced` and return the trace.
    pub traced: bool,
    /// Arm `GmresOpts.guard` (the set-up carries the solver options).
    pub guard: bool,
    pub solves: usize,
    /// Arm a `CheckpointCfg` on every other solve (the odd ones), so plain
    /// and checkpointed solves meet the same cache and host state.
    pub checkpoint_alternate: bool,
    pub stream: bool,
    /// Index of the first pool right-hand side this block solves.
    pub first_rhs: usize,
}

impl BlockPlan {
    fn checkpointed(&self, solve: usize) -> bool {
        self.checkpoint_alternate && solve % 2 == 1
    }
}

/// One barrier-to-barrier interval on one rank.
#[derive(Clone, Copy)]
struct Lap {
    start: Instant,
    end: Instant,
    /// Thread-CPU seconds of this rank inside the interval.
    cpu: f64,
}

impl Lap {
    fn time<R>(f: impl FnOnce() -> R) -> (R, Lap) {
        let (cpu0, start) = (thread_cpu_s(), Instant::now());
        let r = f();
        let (end, cpu1) = (Instant::now(), thread_cpu_s());
        let cpu = cpu1 - cpu0;
        (r, Lap { start, end, cpu })
    }

    fn wall(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Seconds this thread has spent on a CPU (nanosecond counter of the
/// scheduler; NaN where `/proc` does not offer it).
fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns * 1e-9)
}

struct RankSolve {
    lap: Lap,
    /// Virtual seconds of this solve.
    virt: f64,
    iterations: usize,
    converged: bool,
    locals: Vec<(usize, Vec<f64>)>,
}

struct RankOut {
    setup: Lap,
    solves: Vec<RankSolve>,
    /// Virtual seconds of the set-up: factorization, deflation, coarse.
    virt: [f64; 3],
    stream: Option<(Lap, ServeReport)>,
}

/// A timing as the harness reports it: wall is the slowest rank's
/// barrier-to-barrier interval, cpu the sum over ranks.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall: f64,
    pub cpu_sum: f64,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Clone, Debug)]
pub struct Solve {
    pub timing: Timing,
    /// Virtual seconds, max over ranks.
    pub virt: f64,
    pub iterations: usize,
    pub residual: f64,
    pub checkpointed: bool,
}

#[derive(Clone, Debug)]
pub struct StreamOut {
    pub timing: Timing,
    pub iterations_base: usize,
    pub iterations_perturbed: usize,
    pub solves: usize,
    pub reused_applies: usize,
    pub resetups: usize,
    pub latency_p50: f64,
    pub latency_p90: f64,
    pub residual_max: f64,
}

pub struct BlockOut {
    pub setup: Timing,
    pub solves: Vec<Solve>,
    pub stream: Option<StreamOut>,
    /// Virtual seconds of the set-up, max over ranks: factorization,
    /// deflation, coarse.
    pub virt: [f64; 3],
    pub trace: Option<WorldTrace>,
    /// Failed checks; a block with any counts as failed and contributes no
    /// timing.
    pub errors: Vec<String>,
}

impl BlockOut {
    /// Record the block's intervals: a `label` span over the whole block
    /// with its set-up, solves and stream as children.
    pub fn record(&self, spans: &mut Spans, label: &str, block: usize) {
        let end = self
            .stream
            .as_ref()
            .map(|s| s.timing.end)
            .or(self.solves.last().map(|s| s.timing.end))
            .unwrap_or(self.setup.end);
        let id = Some(spans.record(label, self.setup.start, end, None, block));
        spans.record("setup", self.setup.start, self.setup.end, id, block);
        for s in &self.solves {
            let name = if s.checkpointed {
                "solve+checkpoint"
            } else {
                "solve"
            };
            spans.record(name, s.timing.start, s.timing.end, id, block);
        }
        if let Some(s) = &self.stream {
            spans.record("stream", s.timing.start, s.timing.end, id, block);
        }
    }
}

/// What a pass over one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Blocks run (in the untraced pass the warm-up too: its answers are
    /// checked, only its timings are dropped).
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, Summary)>,
    /// Every timed interval behind the end-to-end summaries, in run order,
    /// wall and summed thread-CPU seconds: kept in the result file so a
    /// later reader can recompute any statistic.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// Keeps the newest snapshot, as a real sink would.
#[derive(Default)]
struct LastCheckpoint(Mutex<Option<SolveCheckpoint>>);

impl CheckpointSink for LastCheckpoint {
    fn save(&self, checkpoint: SolveCheckpoint) {
        *self.0.lock().expect("sink is used by one rank") = Some(checkpoint);
    }
}

fn merge(laps: impl Iterator<Item = Lap> + Clone) -> Timing {
    Timing {
        wall: laps.clone().map(|l| l.wall()).fold(0.0, f64::max),
        cpu_sum: laps.clone().map(|l| l.cpu).sum(),
        start: laps
            .clone()
            .map(|l| l.start)
            .min()
            .expect("at least one rank"),
        end: laps.map(|l| l.end).max().expect("at least one rank"),
    }
}

/// Run one block. `Err` is a typed failure of the library or a rank
/// panic-free early exit; failed answer checks come back in `errors`.
pub fn run_block(inst: &Instance, plan: BlockPlan) -> Result<BlockOut, String> {
    let decomp = Arc::clone(&inst.decomp);
    let pool = Arc::clone(&inst.pool);
    let stream = Arc::clone(&inst.stream);
    let mut opts = inst.opts.clone();
    if plan.guard {
        opts.spmd.gmres.guard = Some(SdcGuard::default());
    }
    // Fresh per block: a warm cache would turn the set-up into cache hits.
    let setup_cache = CoarseCache::new();
    let serve_cache = CoarseCache::new();
    let store = ResponseStore::new();
    let body = |comm: &Communicator| -> Result<RankOut, String> {
        let owners = repartition_plan(&decomp, comm, None);
        comm.barrier();
        let (prepared, setup) = Lap::time(|| {
            let p =
                try_setup_partitioned(&decomp, comm, &opts.spmd, Some(&setup_cache), &owners, true);
            comm.barrier();
            p
        });
        let prepared = prepared.map_err(|e| format!("set-up: {e}"))?;
        let sink = LastCheckpoint::default();
        let interval = RecoveryOpts::default().checkpoint_interval;
        let mut solves = Vec::new();
        let mut virt = [0.0; 3];
        for j in 0..plan.solves {
            let rhs = &pool[(plan.first_rhs + j) % pool.len()];
            let ckpt = plan
                .checkpointed(j)
                .then(|| CheckpointCfg::new(interval, &sink));
            // `try_apply` ends on its own barrier.
            let (out, lap) = Lap::time(|| prepared.try_apply(rhs, SOLVE_PHASE, ckpt.as_ref()));
            let out = out.map_err(|e| format!("solve {j}: {e}"))?;
            let report = prepared.report(&out);
            virt = [report.t_factorization, report.t_deflation, report.t_coarse];
            solves.push(RankSolve {
                lap,
                virt: report.t_solution,
                iterations: out.result.iterations,
                converged: out.result.converged,
                locals: out.locals,
            });
        }
        drop(prepared);
        let stream = if plan.stream {
            comm.barrier();
            let (report, lap) = Lap::time(|| {
                let r = try_serve(&decomp, comm, &opts, &stream, &serve_cache, &store);
                comm.barrier();
                r
            });
            let report = report.map_err(|e| format!("stream: {e}"))?;
            Some((lap, report))
        } else {
            None
        };
        Ok(RankOut {
            setup,
            solves,
            virt,
            stream,
        })
    };
    let (results, trace) = if plan.traced {
        let (r, t) = World::run_traced(plan.ranks, CostModel::default(), body);
        (r, Some(t))
    } else {
        (World::run(plan.ranks, CostModel::default(), body), None)
    };
    let ranks: Vec<RankOut> = results.into_iter().collect::<Result<_, _>>()?;

    let mut errors = Vec::new();
    let mut solves = Vec::new();
    for j in 0..plan.solves {
        let per_rank: Vec<&RankSolve> = ranks.iter().map(|r| &r.solves[j]).collect();
        let iterations = per_rank[0].iterations;
        if per_rank.iter().any(|s| s.iterations != iterations) {
            errors.push(format!("solve {j}: ranks disagree on iterations"));
        }
        if per_rank.iter().any(|s| !s.converged) {
            errors.push(format!("solve {j}: not converged"));
        }
        let mut pieces: Vec<&(usize, Vec<f64>)> =
            per_rank.iter().flat_map(|s| s.locals.iter()).collect();
        pieces.sort_by_key(|(s, _)| *s);
        let locals: Vec<Vec<f64>> = pieces.into_iter().map(|(_, x)| x.clone()).collect();
        let residual = if locals.len() == inst.decomp.n_subdomains() {
            let x = inst.decomp.from_locals(&locals);
            let rhs = &inst.pool[(plan.first_rhs + j) % inst.pool.len()];
            Instance::true_residual(&inst.decomp.a_global, &x, rhs)
        } else {
            f64::NAN
        };
        if residual.is_nan() || residual > RESIDUAL_LIMIT {
            errors.push(format!("solve {j}: true residual {residual:e}"));
        }
        solves.push(Solve {
            timing: merge(per_rank.iter().map(|s| s.lap)),
            virt: per_rank.iter().map(|s| s.virt).fold(0.0, f64::max),
            iterations,
            residual,
            checkpointed: plan.checkpointed(j),
        });
    }

    let stream_out = plan.stream.then(|| {
        let timing = merge(ranks.iter().map(|r| r.stream.as_ref().expect("planned").0));
        let report = &ranks[0].stream.as_ref().expect("planned").1;
        check_stream(inst, report, timing, &mut errors)
    });

    let virt = std::array::from_fn(|k| ranks.iter().map(|r| r.virt[k]).fold(0.0, f64::max));
    Ok(BlockOut {
        setup: merge(ranks.iter().map(|r| r.setup)),
        solves,
        stream: stream_out,
        virt,
        trace,
        errors,
    })
}

/// Every stream right-hand side answered, converged, and right for the
/// operator it was asked against; no re-set-up, every perturbed request
/// answered by reuse.
fn check_stream(
    inst: &Instance,
    report: &ServeReport,
    timing: Timing,
    errors: &mut Vec<String>,
) -> StreamOut {
    let want = inst.stream.n_rhs_total();
    if report.responses.len() != want {
        errors.push(format!(
            "stream: {} of {want} right-hand sides answered",
            report.responses.len()
        ));
    }
    let mut residual_max = 0.0f64;
    let (mut base, mut perturbed) = (0, 0);
    for r in &report.responses {
        if !r.converged {
            errors.push(format!(
                "stream: response ({}, {}) not converged",
                r.req, r.rhs
            ));
        }
        let b = inst.stream.requests[r.req].rhs(r.rhs);
        let res = Instance::true_residual(inst.operator(r.theta), &r.x, b);
        if res.is_nan() || res > RESIDUAL_LIMIT {
            errors.push(format!(
                "stream: response ({}, {}) true residual {res:e}",
                r.req, r.rhs
            ));
        }
        residual_max = residual_max.max(res);
        if r.theta == 0.0 {
            base += r.iterations;
        } else {
            perturbed += r.iterations;
        }
    }
    if report.resetups != 0 {
        errors.push(format!("stream: {} re-set-ups", report.resetups));
    }
    let asked = inst.stream.requests.iter().filter(|r| r.theta() != 0.0);
    if report.reused_applies != asked.count() {
        errors.push(format!(
            "stream: {} perturbed requests answered by reuse",
            report.reused_applies
        ));
    }
    StreamOut {
        timing,
        iterations_base: base,
        iterations_perturbed: perturbed,
        solves: report.solves,
        reused_applies: report.reused_applies,
        resetups: report.resetups,
        latency_p50: report.latency_percentile(50.0),
        latency_p90: report.latency_percentile(90.0),
        residual_max,
    }
}
