//! Stress and determinism tests of the SPMD runtime: message storms,
//! interleaved collectives, split trees, and run-to-run reproducibility of
//! the whole solver stack.

use dd_geneo::comm::{CostModel, World};
use dd_geneo::core::{decompose, problem::presets, try_run_spmd, GeneoOpts, SpmdOpts};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

#[test]
fn message_storm_all_to_all() {
    // Every rank sends 20 messages to every other rank on distinct tags;
    // contents must arrive FIFO per (src, tag).
    let n = 8;
    let out = World::run_default(n, |comm| {
        let me = comm.rank();
        for dst in 0..n {
            if dst == me {
                continue;
            }
            for k in 0..20u64 {
                comm.send(dst, 7, vec![me as f64, k as f64]);
            }
        }
        let mut ok = true;
        for src in 0..n {
            if src == me {
                continue;
            }
            for k in 0..20u64 {
                let msg: Vec<f64> = comm.recv(src, 7);
                ok &= msg == vec![src as f64, k as f64];
            }
        }
        ok
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn interleaved_collectives_and_p2p() {
    let n = 6;
    let out = World::run_default(n, |comm| {
        let me = comm.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut acc = 0.0;
        for round in 0..10 {
            comm.send(right, 1, me as f64 + round as f64);
            acc += comm.allreduce_sum(1.0);
            let v: f64 = comm.recv(left, 1);
            acc += v;
            comm.barrier();
        }
        acc
    });
    // every rank did the same number of collectives; values deterministic
    let expect0 = out[1]; // spot check determinism across ranks is not
                          // required (different p2p values), but each rank's
                          // result must be finite and stable
    assert!(out.iter().all(|v| v.is_finite()));
    let again = World::run_default(n, |comm| {
        let me = comm.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut acc = 0.0;
        for round in 0..10 {
            comm.send(right, 1, me as f64 + round as f64);
            acc += comm.allreduce_sum(1.0);
            let v: f64 = comm.recv(left, 1);
            acc += v;
            comm.barrier();
        }
        acc
    });
    assert_eq!(out, again, "runtime is not deterministic");
    let _ = expect0;
}

#[test]
fn deep_split_tree() {
    // Repeatedly halve the communicator; collectives at every level.
    let n = 16;
    let out = World::run_default(n, |comm| {
        let mut current = comm.split(Some(0)).unwrap();
        let mut sizes = vec![current.size()];
        while current.size() > 1 {
            let half = current.rank() / current.size().div_ceil(2);
            let sub = current.split(Some(half)).unwrap();
            let s = sub.allreduce_sum(1.0);
            assert_eq!(s as usize, sub.size());
            sizes.push(sub.size());
            current = sub;
        }
        sizes
    });
    for sizes in &out {
        assert_eq!(*sizes.first().unwrap(), 16);
        assert_eq!(*sizes.last().unwrap(), 1);
    }
}

#[test]
fn full_solver_is_deterministic_across_runs() {
    let mesh = Mesh::unit_square(12, 12);
    let n_sub = 4;
    let part = partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, n_sub, 1));
    let run = || {
        let d = Arc::clone(&decomp);
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        World::run_default(n_sub, move |comm| {
            let s = try_run_spmd(&d, comm, &opts).expect("SPMD solve failed");
            (s.report.iterations, s.locals)
        })
    };
    let a = run();
    let b = run();
    for ((ia, xa), (ib, xb)) in a.iter().zip(&b) {
        assert_eq!(ia, ib, "iteration counts differ between runs");
        assert_eq!(xa, xb, "solutions differ bitwise between runs");
    }
}

#[test]
fn custom_cost_model_changes_only_clocks() {
    let fast = CostModel {
        alpha: 1e-9,
        beta: 1e-12,
    };
    let slow = CostModel {
        alpha: 1e-3,
        beta: 1e-6,
    };
    let run = |m: CostModel| {
        World::run(4, m, |comm| {
            let s = comm.allreduce_sum(comm.rank() as f64);
            (s, comm.clock())
        })
    };
    let f = run(fast);
    let s = run(slow);
    for ((vf, tf), (vs, ts)) in f.iter().zip(&s) {
        assert_eq!(vf, vs, "results must not depend on the cost model");
        assert!(ts > tf, "slow network must show in the clock");
    }
}
