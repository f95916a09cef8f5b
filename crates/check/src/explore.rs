//! Bounded exhaustive exploration of schedules.
//!
//! [`explore`] runs the program once per schedule: the first run follows
//! the default policy, then the explorer backtracks depth-first — for
//! every recorded decision it re-runs the program with a script that
//! replays the prefix and picks the next untried alternative. Stateless
//! model checking: nothing is snapshotted, a schedule is re-created
//! entirely from its choice script, which is also what a failure report
//! prints for replay.
//!
//! Pruning is a conservative approximation of sleep sets: an alternative
//! whose next action is *known* to commute with the explored branch's
//! next action (both visible, resource-disjoint) leads to an equivalent
//! interleaving and is skipped. Unknown actions are never pruned.

use crate::scheduler::{Config, Decision, Policy, VirtualScheduler, STUCK_MSG};
use dd_comm::sync::SyncBackend;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The scheduler aborted an undetected deadlock: no thread could run,
    /// not all had finished, and the runtime had not reported it.
    Stuck,
    /// A controlled thread panicked (program bug or poisoned assertion).
    Panic,
    /// A schedule produced output differing from the reference schedule —
    /// the collective/messaging results are schedule-dependent.
    Divergence,
}

/// One failing schedule, replayable via [`replay`] (its script).
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    /// Decision choices reproducing the schedule from the start.
    pub script: Vec<usize>,
    pub message: String,
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Schedules actually executed.
    pub schedules: usize,
    /// Alternatives skipped by independence pruning.
    pub pruned: usize,
    /// True when the schedule tree was exhausted within `max_schedules`.
    pub complete: bool,
    pub failures: Vec<Failure>,
}

impl Report {
    /// Panic with the failure list unless the exploration was clean.
    pub fn assert_clean(&self) {
        assert!(
            self.failures.is_empty(),
            "dd-check found {} failing schedule(s); first: {:?}",
            self.failures.len(),
            self.failures.first()
        );
    }
}

/// Exploration limits on top of the per-schedule [`Config`].
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Hard cap on executed schedules.
    pub max_schedules: usize,
    /// Compare outputs across schedules (disable for programs whose
    /// *correct* output is schedule-dependent, e.g. which rank reports a
    /// seeded deadlock first).
    pub check_divergence: bool,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_schedules: 2000,
            check_divergence: true,
        }
    }
}

/// Scale a schedule cap by the `DD_CHECK_BUDGET` environment variable (a
/// multiplier, default 1) — CI's model-check job raises it.
pub fn scaled(max_schedules: usize) -> usize {
    let mult = std::env::var("DD_CHECK_BUDGET")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    max_schedules * mult
}

/// Result of one schedule run.
struct RunOutcome {
    trace: Vec<Decision>,
    stuck: bool,
    output: Result<Vec<u8>, String>,
}

fn run_once<F>(n: usize, cfg: Config, script: Vec<usize>, policy: Policy, f: &F) -> RunOutcome
where
    F: Fn(Arc<dyn SyncBackend>) -> Vec<u8>,
{
    let sched = Arc::new(VirtualScheduler::new(n, cfg, script, policy));
    let backend: Arc<dyn SyncBackend> = Arc::clone(&sched) as Arc<dyn SyncBackend>;
    let result = catch_unwind(AssertUnwindSafe(|| f(backend)));
    let stuck = sched.was_stuck();
    let output = result.map_err(|e| {
        if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        }
    });
    RunOutcome {
        trace: sched.trace(),
        stuck,
        output,
    }
}

fn classify(out: &RunOutcome, script: &[usize]) -> Option<Failure> {
    match &out.output {
        Ok(_) if out.stuck => Some(Failure {
            // The world recovered from the abort without surfacing it — a
            // stuck schedule either way.
            kind: FailureKind::Stuck,
            script: script.to_vec(),
            message: STUCK_MSG.to_string(),
        }),
        Ok(_) => None,
        Err(msg) => Some(Failure {
            kind: if out.stuck || msg.contains(STUCK_MSG) {
                FailureKind::Stuck
            } else {
                FailureKind::Panic
            },
            script: script.to_vec(),
            message: msg.clone(),
        }),
    }
}

/// Choices the executed schedule actually made, as a full replay script.
fn choices(trace: &[Decision]) -> Vec<usize> {
    trace.iter().map(|d| d.chosen).collect()
}

/// Depth-first exploration of all schedules of `f` on `n` controlled
/// threads, within `budget`. `f` receives the backend to run the world
/// under and returns the canonical bytes of the run's result.
pub fn explore<F>(n: usize, cfg: Config, budget: Budget, f: F) -> Report
where
    F: Fn(Arc<dyn SyncBackend>) -> Vec<u8>,
{
    let max = budget.max_schedules;
    let mut report = Report {
        schedules: 0,
        pruned: 0,
        complete: false,
        failures: Vec::new(),
    };
    // Output of the first clean schedule; all others must match it.
    let mut reference: Option<(Vec<u8>, Vec<usize>)> = None;
    let mut diverged: BTreeMap<Vec<u8>, ()> = BTreeMap::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(script) = stack.pop() {
        if report.schedules >= max {
            return report;
        }
        let out = run_once(n, cfg, script.clone(), Policy::First, &f);
        report.schedules += 1;
        let executed = choices(&out.trace);
        if let Some(fail) = classify(&out, &executed) {
            report.failures.push(fail);
        } else if budget.check_divergence {
            if let Ok(bytes) = &out.output {
                match &reference {
                    None => reference = Some((bytes.clone(), executed.clone())),
                    Some((want, witness)) if want != bytes => {
                        // One failure per distinct wrong output.
                        if diverged.insert(bytes.clone(), ()).is_none() {
                            report.failures.push(Failure {
                                kind: FailureKind::Divergence,
                                script: executed.clone(),
                                message: format!(
                                    "output diverged from reference schedule {witness:?}"
                                ),
                            });
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        // Branch off every untried alternative beyond the replayed prefix,
        // pushed shallowest-first so the deepest pops first (DFS).
        for (i, d) in out.trace.iter().enumerate().skip(script.len()) {
            debug_assert_eq!(d.chosen, 0, "default policy must pick the first branch");
            for alt in 1..d.enabled.len() {
                if d.actions[alt].independent(&d.actions[d.chosen]) {
                    report.pruned += 1;
                    continue;
                }
                let mut s = executed[..i].to_vec();
                s.push(alt);
                stack.push(s);
            }
        }
    }
    report.complete = true;
    report
}

/// Re-run one schedule from a failure's replay script, returning the
/// program's output (or its panic message). Prints nothing; pair with the
/// script a `Failure` carries.
pub fn replay<F>(n: usize, cfg: Config, script: Vec<usize>, f: F) -> Result<Vec<u8>, String>
where
    F: Fn(Arc<dyn SyncBackend>) -> Vec<u8>,
{
    run_once(n, cfg, script, Policy::First, &f).output
}

/// Run `threads` closures as controlled threads under one schedule. The
/// raw-thread harness for checking synchronization patterns outside a
/// `World` (e.g. the seeded lock-order-inversion tests). Panics from the
/// threads propagate joined together as one message.
pub fn run_threads(
    backend: &Arc<dyn SyncBackend>,
    threads: Vec<Box<dyn FnOnce() + Send>>,
) -> Result<(), String> {
    let errs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = threads
            .into_iter()
            .enumerate()
            .map(|(i, body)| {
                let backend = Arc::clone(backend);
                scope.spawn(move || {
                    let _ctl = dd_comm::sync::ControlGuard::enter(&backend, i);
                    body();
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                h.join().err().map(|e| {
                    e.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string())
                })
            })
            .collect()
    });
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}
