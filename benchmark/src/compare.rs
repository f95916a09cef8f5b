//! `compare`: two sides of `run.json` files, one row per workload ×
//! end-to-end metric, judged against the metric's bound.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    /// A side's own runs are spread wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one side: the interquartile distance of its run
/// medians over their median; with fewer than four runs the full range;
/// with one run there is nothing to spread.
fn side_spread(runs: &[f64]) -> f64 {
    match runs.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let (lo, hi) = runs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            (hi - lo) / median(runs)
        }
        _ => spread(runs),
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

/// `a` and `b` are the run medians of each side.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let noise = side_spread(a).max(side_spread(b));
    let worse = worsening(median(a), median(b), better);
    // `1.10 / 1.0 - 1.0` is a hair above 0.10: a metric exactly at its
    // bound is within it.
    let bound = bound + 1e-12;
    if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if a.len().min(b.len()) >= 2 && -worse > noise {
        // A gain must exceed the sides' own run-to-run spread; one run per
        // side has no spread to exceed, so it claims nothing.
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `(workload, metric) -> run medians`, over all files of one side.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for p in paths {
        let run = crate::read_json(Path::new(p))?;
        let workloads = run
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{p}: not a run.json (no \"workloads\")"))?;
        for w in workloads {
            let name = w.get("workload").and_then(Json::as_str).unwrap_or("?");
            for (metric, m) in w.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    side.entry((name.to_string(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(side)
}

/// `Ok(false)` when any row regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (a, b): (Vec<String>, Vec<String>) = match args.iter().position(|s| s == "--vs") {
        Some(i) => (args[..i].to_vec(), args[i + 1..].to_vec()),
        None if args.len() == 2 => (vec![args[0].clone()], vec![args[1].clone()]),
        None => return Err("compare takes A.json B.json, or A... --vs B...".into()),
    };
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file on each side".into());
    }
    let (sa, sb) = (load(&a)?, load(&b)?);
    println!(
        "| workload | metric | A median | B median | B/A | A spread | B spread | bound | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut ok = true;
    for w in spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.to_string(), m.name.to_string());
            let (Some(ra), Some(rb)) = (sa.get(&key), sb.get(&key)) else {
                println!("| {w} | {} | | | | | | {} | missing |", m.name, m.bound);
                ok = false;
                continue;
            };
            let verdict = judge(ra, rb, m.better, m.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "| {w} | {} | {:.6} | {:.6} | {:.4} | {:.4} | {:.4} | {} | {} |",
                m.name,
                median(ra),
                median(rb),
                median(rb) / median(ra),
                side_spread(ra),
                side_spread(rb),
                m.bound,
                verdict.as_str()
            );
        }
    }
    println!(
        "\nA: {} run(s), B: {} run(s); spread = interquartile distance of run medians / median",
        a.len(),
        b.len()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_inside_and_beyond_a_bound() {
        let a = [1.0];
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&a, &[1.05], Better::Lower, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&a, &[1.10], Better::Lower, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(judge(&a, &[1.11], Better::Lower, 0.10), Verdict::Regressed);
        assert_eq!(
            judge(&a, &[0.90], Better::Lower, 0.10),
            Verdict::WithinBound
        );
        let (a2, b2) = ([1.0, 1.0], [0.9, 0.9]);
        assert_eq!(judge(&a2, &b2, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &[1.0], Better::Lower, 0.10), Verdict::WithinBound);
        // Higher is better: a drop is the regression.
        assert_eq!(judge(&a, &[0.85], Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(
            judge(&a, &[0.95], Better::Higher, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[1.0, 1.0], &[1.2, 1.2], Better::Higher, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn noisy_sides_are_unresolved_and_small_gains_are_not_gains() {
        // Range of A's runs is 30 % of their median: no verdict at 10 %.
        let noisy = [1.0, 1.15, 1.3];
        assert_eq!(
            judge(&noisy, &[2.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A gain inside the run-to-run spread is not reported as a gain.
        let a = [1.00, 1.02, 0.98, 1.01, 0.99];
        let b = [0.99, 1.01, 0.97, 1.00, 0.98];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::WithinBound);
        let faster = [0.80, 0.81, 0.79, 0.80, 0.80];
        assert_eq!(judge(&a, &faster, Better::Lower, 0.10), Verdict::Better);
        let slower = [1.20, 1.22, 1.18, 1.21, 1.19];
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10), Verdict::Regressed);
    }
}
