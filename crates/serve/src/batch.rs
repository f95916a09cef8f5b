//! The batcher: a pure planner that folds the request stream into solve
//! batches.
//!
//! Batching is *static* — a function of the workload's declared arrivals
//! and perturbations only, never of runtime clocks — so every rank plans
//! the identical batch sequence and the deterministic telemetry counters
//! stay machine-independent. A batch groups consecutive right-hand sides
//! that share an operator (same θ), up to `max_batch_rhs` of them, and
//! only while the arrival gap stays within `coalesce_window`; its dispatch
//! instant is the arrival of its last member.
//!
//! A batch is answered by one panel apply: its right-hand sides share every
//! halo round, coarse solve and reduction. The solves of one operator share
//! its Krylov recycle space, batch after batch, under the *batch-start
//! seeding contract*: every right-hand side of a batch is corrected from the
//! space as it stands when the batch starts, and the batch's increments are
//! banked in stream order after it (the GMRES restart driver does both,
//! under every Krylov loop). Each answer is therefore, to the bit, the
//! single solve from the batch-start space. Without recycling, splitting or
//! merging batches of the same θ changes scheduling only — answers and
//! iteration counts are identical either way; with it, a right-hand side
//! that shares a batch with an earlier one does not see that one's
//! increment, so the batch plan can move iteration counts (the test wall
//! pins both).

use crate::stream::Request;

/// One right-hand side of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchItem {
    /// Index of the request in the workload.
    pub req: usize,
    /// Right-hand-side index within the request.
    pub rhs: usize,
}

/// A planned solve batch: items in stream order, one operator.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Operator perturbation shared by every item (`0.0` = resident).
    pub theta: f64,
    /// Virtual instant the batch is dispatched: the latest member arrival.
    pub dispatch: f64,
    pub items: Vec<BatchItem>,
}

/// Batching policy.
#[derive(Clone, Debug)]
pub struct BatcherCfg {
    /// Most right-hand sides per batch (larger requests are split) — the
    /// widest panel one apply solves. The default, 4, keeps a batch's Krylov
    /// bases (`V` and `Z` for every column in flight) within the memory the
    /// server's set-up needs anyway.
    pub max_batch_rhs: usize,
    /// Largest arrival gap (virtual seconds) coalesced into one batch.
    pub coalesce_window: f64,
}

impl Default for BatcherCfg {
    fn default() -> Self {
        BatcherCfg {
            max_batch_rhs: 4,
            coalesce_window: 0.1,
        }
    }
}

/// Fold the stream into batches, preserving stream order exactly: the
/// concatenation of `items` over the returned batches enumerates every
/// `(request, rhs)` pair once, in submission order.
pub fn plan_batches(requests: &[Request], cfg: &BatcherCfg) -> Vec<Batch> {
    let cap = cfg.max_batch_rhs.max(1);
    let mut batches: Vec<Batch> = Vec::new();
    let mut open: Option<(Batch, f64)> = None; // (batch, first-member arrival)
    for (ri, req) in requests.iter().enumerate() {
        let theta = req.theta();
        for j in 0..req.n_rhs() {
            let extend = open.as_ref().is_some_and(|(b, first)| {
                b.theta.to_bits() == theta.to_bits()
                    && b.items.len() < cap
                    && req.arrival - first <= cfg.coalesce_window
            });
            if !extend {
                if let Some((b, _)) = open.take() {
                    batches.push(b);
                }
                open = Some((
                    Batch {
                        theta,
                        dispatch: req.arrival,
                        items: Vec::new(),
                    },
                    req.arrival,
                ));
            }
            if let Some((b, _)) = open.as_mut() {
                b.dispatch = b.dispatch.max(req.arrival);
                b.items.push(BatchItem { req: ri, rhs: j });
            }
        }
    }
    if let Some((b, _)) = open.take() {
        batches.push(b);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Payload, Request, StreamCfg, Workload};

    fn items_flat(batches: &[Batch]) -> Vec<BatchItem> {
        batches.iter().flat_map(|b| b.items.clone()).collect()
    }

    fn expected_items(requests: &[Request]) -> Vec<BatchItem> {
        requests
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| (0..r.n_rhs()).map(move |j| BatchItem { req: ri, rhs: j }))
            .collect()
    }

    /// Property: over many seeded workloads and policies, the plan is a
    /// faithful reordering-free cover — every (request, rhs) exactly once,
    /// in submission order — and every batch respects the size bound, has
    /// one operator, and dispatches no earlier than its members arrive.
    #[test]
    fn plan_is_order_preserving_exactly_once_and_bounded() {
        for seed in 0..40u64 {
            let cfg = StreamCfg {
                n_requests: 30,
                batch_fraction: 0.4,
                perturb_fraction: 0.3,
                ..Default::default()
            };
            let w = Workload::generate(seed, 3, &cfg);
            for (max, window) in [(1, 0.0), (3, 0.05), (8, 0.2), (64, f64::INFINITY)] {
                let bc = BatcherCfg {
                    max_batch_rhs: max,
                    coalesce_window: window,
                };
                let batches = plan_batches(&w.requests, &bc);
                assert_eq!(items_flat(&batches), expected_items(&w.requests));
                for b in &batches {
                    assert!(!b.items.is_empty());
                    assert!(b.items.len() <= max.max(1));
                    for it in &b.items {
                        assert_eq!(w.requests[it.req].theta().to_bits(), b.theta.to_bits());
                        assert!(b.dispatch >= w.requests[it.req].arrival);
                    }
                }
            }
        }
    }

    /// Any interleaving of single and multi-RHS submissions flattens back
    /// to submission order; a request larger than the cap is split without
    /// dropping or duplicating a right-hand side.
    #[test]
    fn splits_oversized_requests_without_loss() {
        let reqs = vec![
            Request {
                id: 0,
                arrival: 0.0,
                payload: Payload::Batch(vec![vec![1.0]; 5]),
            },
            Request {
                id: 1,
                arrival: 0.01,
                payload: Payload::Rhs(vec![2.0]),
            },
            Request {
                id: 2,
                arrival: 0.02,
                payload: Payload::Batch(vec![vec![3.0]; 3]),
            },
        ];
        let batches = plan_batches(
            &reqs,
            &BatcherCfg {
                max_batch_rhs: 4,
                coalesce_window: 1.0,
            },
        );
        assert_eq!(items_flat(&batches), expected_items(&reqs));
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].items.len(), 4);
        assert_eq!(batches[1].items.len(), 4); // 5th of req 0, req 1, 2 of req 2
        assert_eq!(batches[2].items.len(), 1);
    }

    /// A perturbation boundary always closes the batch: no batch mixes
    /// operators, even when the window and cap would allow coalescing.
    #[test]
    fn theta_change_closes_batch() {
        let reqs = vec![
            Request {
                id: 0,
                arrival: 0.0,
                payload: Payload::Rhs(vec![1.0]),
            },
            Request {
                id: 1,
                arrival: 0.001,
                payload: Payload::Perturbed {
                    theta: 0.05,
                    rhs: vec![1.0],
                },
            },
            Request {
                id: 2,
                arrival: 0.002,
                payload: Payload::Perturbed {
                    theta: 0.05,
                    rhs: vec![2.0],
                },
            },
            Request {
                id: 3,
                arrival: 0.003,
                payload: Payload::Rhs(vec![3.0]),
            },
        ];
        let batches = plan_batches(
            &reqs,
            &BatcherCfg {
                max_batch_rhs: 16,
                coalesce_window: 1.0,
            },
        );
        let thetas: Vec<f64> = batches.iter().map(|b| b.theta).collect();
        assert_eq!(thetas, vec![0.0, 0.05, 0.0]);
        assert_eq!(batches[1].items.len(), 2);
        assert_eq!(items_flat(&batches), expected_items(&reqs));
    }

    /// The window bounds coalescing: far-apart requests never share a
    /// batch, so no request waits on one that arrives much later.
    #[test]
    fn window_limits_coalescing() {
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request {
                id: i,
                arrival: i as f64, // 1s apart
                payload: Payload::Rhs(vec![i as f64]),
            })
            .collect();
        let batches = plan_batches(
            &reqs,
            &BatcherCfg {
                max_batch_rhs: 16,
                coalesce_window: 0.5,
            },
        );
        assert_eq!(batches.len(), 4);
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.dispatch, i as f64);
        }
    }
}
