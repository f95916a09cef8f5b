//! The benchmark's contract: workload and metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repo root states the same thing for
//! the driver; a unit test keeps the two identical.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// `--seconds` the block counts in `workloads.rs` are sized for
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

pub const WORKLOADS: [&str; 3] = ["elasticity3d", "diffusion2d_many", "serve_stream"];

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "iterations",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "rhs_per_s",
        unit: "RHS/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Traced pass only; the prefix names the crate the number belongs to.
pub const PER_LAYER: [PerLayer; 65] = [
    // Pre-set-up pipeline: none gated, reported so that work moved out of
    // set-up stays visible.
    layer("mesh.build_s", "s", Lower),
    layer("mesh.cells", "count", Lower),
    layer("part.rcb_s", "s", Lower),
    layer("part.max_over_mean_cells", "ratio", Lower),
    layer("fem.assemble_s", "s", Lower),
    layer("fem.nnz", "count", Lower),
    layer("core.decompose_s", "s", Lower),
    layer("core.overlap_ratio", "ratio", Lower),
    // Set-up layers -> setup_s on elasticity3d.
    layer("solver.factor_s", "s", Lower),
    layer("solver.nnz_l", "count", Lower),
    layer("solver.factor_flops", "count", Lower),
    layer("solver.factor_gflops", "Gflop/s", Higher),
    layer("eigen.geneo_s", "s", Lower),
    layer("eigen.nu_total", "count", Lower),
    layer("eigen.nu_max", "count", Lower),
    layer("core.coarse_build_s", "s", Lower),
    layer("core.dim_e", "count", Lower),
    layer("core.nnz_e_factor", "count", Lower),
    // Kernels inside one iteration -> solve_s on elasticity3d.
    layer("solver.trisolve_s", "s", Lower),
    layer("solver.trisolve_gbps_computed", "GB/s", Higher),
    layer("linalg.spmv_s", "s", Lower),
    layer("linalg.spmv_gbps_computed", "GB/s", Higher),
    layer("linalg.bsr_spmv_s", "s", Lower),
    layer("linalg.bsrmm_s", "s", Lower),
    layer("krylov.precond_apply_s", "s", Lower),
    // Sequential Krylov loop -> solve_s on diffusion2d_many.
    layer("krylov.seq_gmres_s", "s", Lower),
    layer("krylov.seq_iterations", "count", Lower),
    layer("krylov.self_s", "s", Lower),
    // The runtime -> solve_s on diffusion2d_many, rhs_per_s on serve_stream.
    layer("comm.world_spawn_us", "us", Lower),
    layer("comm.p2p_roundtrip_us", "us", Lower),
    layer("comm.p2p_mbps", "MB/s", Higher),
    layer("comm.allreduce_us", "us", Lower),
    layer("comm.barrier_us", "us", Lower),
    layer("comm.solve_sends_per_iter", "count", Lower),
    layer("comm.solve_bytes_per_iter", "B", Lower),
    layer("comm.solve_collectives_per_iter", "count", Lower),
    layer("comm.e_solve_sends_per_iter", "count", Lower),
    // The SPMD stack as a whole.
    layer("core.iter_ms", "ms", Lower),
    layer("core.coarse_solve_us", "us", Lower),
    layer("core.runtime_tax_ratio", "ratio", Lower),
    layer("core.cpu_sum_over_wall_setup", "ratio", Lower),
    layer("core.cpu_sum_over_wall_solve", "ratio", Lower),
    layer("core.virtual_setup_s", "s", Lower),
    layer("core.virtual_solve_s", "s", Lower),
    layer("core.virtual_factorization_s", "s", Lower),
    layer("core.virtual_deflation_s", "s", Lower),
    layer("core.virtual_coarse_s", "s", Lower),
    layer("core.wall_over_virtual_setup", "ratio", Lower),
    layer("core.wall_over_virtual_solve", "ratio", Lower),
    layer("core.setup_s_r1", "s", Lower),
    layer("core.solve_s_r1", "s", Lower),
    layer("core.true_residual_max", "ratio", Lower),
    // Cost of safety, each feature toggled alone.
    layer("core.trace_overhead_ratio", "ratio", Lower),
    layer("krylov.guard_overhead_ratio", "ratio", Lower),
    layer("core.checkpoint_overhead_ratio", "ratio", Lower),
    // The resident server -> rhs_per_s on serve_stream.
    layer("serve.plan_batches_us", "us", Lower),
    layer("serve.batches", "count", Lower),
    layer("serve.solves", "count", Lower),
    layer("serve.reused_applies", "count", Higher),
    layer("serve.resetups", "count", Lower),
    layer("serve.iterations_base", "count", Lower),
    layer("serve.iterations_perturbed", "count", Lower),
    layer("serve.virtual_latency_p50_s", "s", Lower),
    layer("serve.virtual_latency_p90_s", "s", Lower),
    layer("serve.oneshot_over_stream", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn text(v: &Json, key: &str) -> String {
        field(v, key).as_str().expect("a string").to_string()
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the binary
    /// emits, with the units, directions and bounds it judges them by.
    #[test]
    fn benchmark_json_states_this_contract() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            field(&doc, "paths").as_arr().expect("a list"),
            [Json::str("benchmark")]
        );

        let stated: Vec<(String, String)> = field(&doc, "workloads")
            .as_arr()
            .expect("a list")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let emitted: Vec<(String, String)> = workloads::ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(stated, emitted);
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, WORKLOADS);
        assert!(workloads::ALL
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        let stated: Vec<(String, String, String, f64)> = field(&doc, "end_to_end")
            .as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let bound = field(m, "bound").as_f64().expect("a number");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let emitted: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                let (name, unit) = (m.name.to_string(), m.unit.to_string());
                (name, unit, m.better.as_str().to_string(), m.bound)
            })
            .collect();
        assert_eq!(stated, emitted);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));

        let stated: Vec<(String, String, String)> = field(&doc, "per_layer")
            .as_arr()
            .expect("a list")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let emitted: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                let (name, unit) = (m.name.to_string(), m.unit.to_string());
                (name, unit, m.better.as_str().to_string())
            })
            .collect();
        assert_eq!(stated, emitted);
        assert!(PER_LAYER.len() <= 128);

        // Names are used once and fit the driver's pattern.
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
