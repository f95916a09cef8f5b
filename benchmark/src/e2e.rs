//! The untraced pass: a fixed number of blocks, the first discarded as
//! warm-up, every end-to-end metric sampled once or more per block so host
//! drift over the run reaches all of them alike.

use crate::blocks::{run_block, BlockPlan, Outcome};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{Instance, Kind};

/// The plan of the gated blocks of a workload.
fn gated_plan(inst: &Instance, ranks: usize, block: usize) -> BlockPlan {
    let w = inst.workload;
    BlockPlan {
        ranks,
        solves: w.solves_per_block,
        stream: w.kind == Kind::Stream,
        first_rhs: block * w.solves_per_block,
        ..Default::default()
    }
}

/// Iteration counts are small integers: their median jumps by a whole
/// iteration when one right-hand side in the pool changes, their mean moves
/// by a fraction. Quartiles and count still describe the samples.
fn mean_of(samples: &[f64]) -> Summary {
    Summary {
        value: samples.iter().sum::<f64>() / samples.len() as f64,
        ..Summary::of(samples)
    }
}

pub fn run(inst: &Instance, blocks: usize, ranks: usize, spans: &mut Spans) -> Outcome {
    let w = inst.workload;
    let (mut setup, mut solve, mut iterations, mut rate) = (vec![], vec![], vec![], vec![]);
    let (mut setup_cpu, mut solve_cpu) = (vec![], vec![]);
    let (mut failed, mut errors) = (0, Vec::new());
    for block in 0..=blocks {
        let out = match run_block(inst, gated_plan(inst, ranks, block)) {
            Ok(out) if out.errors.is_empty() => out,
            Ok(out) => {
                failed += 1;
                errors.extend(out.errors.iter().map(|e| format!("block {block}: {e}")));
                continue;
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("block {block}: {e}"));
                continue;
            }
        };
        out.record(spans, "block", block);
        if block == 0 {
            continue;
        }
        setup.push(out.setup.wall);
        setup_cpu.push(out.setup.cpu_sum);
        match &out.stream {
            None => {
                let walls: f64 = out.solves.iter().map(|s| s.timing.wall).sum();
                solve.extend(out.solves.iter().map(|s| s.timing.wall));
                solve_cpu.extend(out.solves.iter().map(|s| s.timing.cpu_sum));
                iterations.extend(out.solves.iter().map(|s| s.iterations as f64));
                rate.push(out.solves.len() as f64 / (out.setup.wall + walls));
            }
            Some(s) => {
                solve.push(s.timing.wall);
                solve_cpu.push(s.timing.cpu_sum);
                iterations.push((s.iterations_base + s.iterations_perturbed) as f64);
                rate.push(w.stream_rhs as f64 / s.timing.wall);
            }
        }
    }
    Outcome {
        attempted: blocks + 1,
        failed,
        errors,
        metrics: vec![
            ("setup_s", Summary::of(&setup)),
            ("solve_s", Summary::of(&solve)),
            ("iterations", mean_of(&iterations)),
            ("rhs_per_s", Summary::of(&rate)),
        ],
        // `peak_rss_mb` is the caller's: it is read when the process is done.
        samples: vec![
            ("setup_wall_s", setup),
            ("setup_cpu_sum_s", setup_cpu),
            ("solve_wall_s", solve),
            ("solve_cpu_sum_s", solve_cpu),
        ],
    }
}
