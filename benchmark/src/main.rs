//! `dd-benchmark`: the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dd-benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! dd-benchmark run --all [--traced] [--seed N] [--seconds S] [--out DIR]
//! dd-benchmark compare A.json [A2.json ...] [--vs] B.json [B2.json ...]
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, human-readable rows on stderr, and as the last line of stdout
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod blocks;
mod compare;
mod e2e;
mod json;
mod layers;
mod spans;
mod spec;
mod stats;
mod workloads;

use blocks::Outcome;
use json::Json;
use spans::Spans;
use spec::Better;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Option<String>,
    all: bool,
    traced: bool,
    seed: u64,
    seconds: u64,
    out: PathBuf,
}

/// Failed checks listed on stderr; the result file has them all.
const MAX_ERRORS_SHOWN: usize = 12;

const USAGE: &str = "usage: dd-benchmark [run] (--workload <name> | --all) [--seed N] \
[--seconds S] [--trace 0|1 | --traced] [--out DIR]\n       \
dd-benchmark compare A.json [A2.json ...] [--vs] B.json [B2.json ...]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        traced: false,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--all" => a.all = true,
            "--traced" => a.traced = true,
            "--workload" => a.workload = Some(value("a name")?),
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        first => {
            let rest = if first == Some("run") {
                &argv[1..]
            } else {
                &argv[..]
            };
            parse(rest).and_then(|a| if a.all { run_all(&a) } else { run_one(&a) })
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dd-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Rank threads of every gated run: two where the host has them (one
/// rank's timings are bimodal when a neighbour takes the idle sibling
/// vCPU), never more ranks than processors.
fn ranks() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// At least 200 ms of dependent scalar multiply-adds, timed: context for
/// reading two result files from different hosts side by side. Never used
/// to rescale a metric.
fn calib_fma_s() -> f64 {
    const STEPS: u64 = 50_000_000;
    let t = Instant::now();
    let mut total = 0;
    let mut x = 1.0f64;
    while t.elapsed().as_secs_f64() < 0.2 {
        for _ in 0..STEPS {
            x = std::hint::black_box(x).mul_add(0.999_999_9, 1e-7);
        }
        total += STEPS;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * STEPS as f64 / total as f64
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Blocks (or traced rounds) for `--seconds`, from the count sized for
/// `spec::RUN_SECONDS`. The count is a function of the arguments alone, so
/// `attempted` is the same on every commit and host.
fn scaled(count: usize, seconds: u64) -> usize {
    let scaled = (count as u64 * seconds + spec::RUN_SECONDS / 2) / spec::RUN_SECONDS;
    (scaled as usize).max(1)
}

/// Six significant digits, in scientific notation outside `[1e-3, 1e7)`.
fn digits(x: f64) -> String {
    if x == 0.0 || (1e-3..1e7).contains(&x.abs()) {
        format!("{x:.6}")
    } else {
        format!("{x:.5e}")
    }
}

type Row = (&'static str, &'static str, Better, Summary);

fn print_rows(workload: &str, metrics: &[Row]) {
    eprintln!(
        "{:<18} {:<34} {:>14} {:>8} {:>14} {:>14} {:>5}  better",
        "workload", "metric", "value", "unit", "q1", "q3", "n"
    );
    for (name, unit, better, s) in metrics {
        eprintln!(
            "{:<18} {:<34} {:>14} {:>8} {:>14} {:>14} {:>5}  {}",
            workload,
            name,
            digits(s.value),
            unit,
            digits(s.q1),
            digits(s.q3),
            s.n,
            better.as_str()
        );
    }
}

/// One workload in this process. `Ok(false)`: it ran, a check failed.
fn run_one(a: &Args) -> Result<bool, String> {
    let name = a.workload.as_deref().expect("checked by parse");
    let w = workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload {name}; known: {:?}", spec::WORKLOADS))?;
    let calib = calib_fma_s();
    let mut spans = Spans::new(w.name);
    let inst = w.instance(a.seed, &mut spans);
    // Both passes answer in the order of their list in `spec`; a metric a
    // pass could not measure is NaN and fails the run below.
    let (mut out, listed): (Outcome, Vec<(&str, &str, Better)>) = if a.traced {
        let rounds = scaled(w.traced_rounds, a.seconds);
        let listed = spec::PER_LAYER.iter().map(|m| (m.name, m.unit, m.better));
        (
            layers::run(&inst, rounds, ranks(), &mut spans),
            listed.collect(),
        )
    } else {
        let blocks = scaled(w.blocks, a.seconds);
        let mut out = e2e::run(&inst, blocks, ranks(), &mut spans);
        out.metrics
            .push(("peak_rss_mb", Summary::single(peak_rss_mb())));
        let listed = spec::END_TO_END.iter().map(|m| (m.name, m.unit, m.better));
        (out, listed.collect())
    };
    let metrics: Vec<Row> = listed
        .into_iter()
        .map(|(name, unit, better)| {
            let found = out.metrics.iter().position(|(n, _)| *n == name);
            let s = found.map_or_else(
                || Summary::single(f64::NAN),
                |i| out.metrics.swap_remove(i).1,
            );
            (name, unit, better, s)
        })
        .collect();
    let Outcome {
        attempted,
        failed,
        errors,
        samples,
        ..
    } = out;
    for e in errors.iter().take(MAX_ERRORS_SHOWN) {
        eprintln!("FAILED {}: {e}", w.name);
    }
    if errors.len() > MAX_ERRORS_SHOWN {
        eprintln!(
            "FAILED {}: ... and {} more",
            w.name,
            errors.len() - MAX_ERRORS_SHOWN
        );
    }
    let missing: Vec<_> = metrics
        .iter()
        .filter(|(_, _, _, s)| !s.value.is_finite())
        .map(|(n, _, _, _)| *n)
        .collect();
    if !missing.is_empty() {
        eprintln!("FAILED {}: no value for {missing:?}", w.name);
    }
    print_rows(w.name, &metrics);
    eprintln!("{}: attempted {attempted}, failed {failed}", w.name);
    let correct = failed == 0 && missing.is_empty();

    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("traced", Json::Bool(a.traced)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("errors", Json::Arr(errors.iter().map(Json::str).collect())),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(nproc() as f64)),
                ("ranks", Json::Num(ranks() as f64)),
                ("calib_fma_s", Json::num(calib)),
            ]),
        ),
        (
            "problem",
            Json::obj([
                ("dofs", Json::Num(inst.decomp.n_global as f64)),
                ("subdomains", Json::Num(w.subdomains as f64)),
                ("nev", Json::Num(w.nev as f64)),
                ("tol", Json::Num(workloads::TOL)),
            ]),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, u, _, s)| (*n, s.to_json(u)))),
        ),
        (
            "samples",
            Json::obj(
                samples
                    .iter()
                    .map(|(n, v)| (*n, Json::Arr(v.iter().map(|&x| Json::num(x)).collect()))),
            ),
        ),
    ]);
    let pass = if a.traced { "traced" } else { "e2e" };
    write(
        &a.out.join(format!("{}.{pass}.json", w.name)),
        &detail.pretty(),
    )?;
    if a.traced {
        let path = a.out.join(format!("{}.spans.json", w.name));
        write(&path, &spans.to_json().pretty())?;
    }

    // The driver's line: values only, every digit as measured.
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, u, _, s)| {
                let v = Json::obj([("value", Json::num(s.value)), ("unit", Json::str(*u))]);
                (*n, v)
            })),
        ),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in a child process of its own (so `peak_rss_mb` is
/// that workload's alone), then one `run.json` (`run.traced.json`) over
/// all of them — the file `compare` reads.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let pass = if a.traced { "traced" } else { "e2e" };
    let mut ok = true;
    let mut per_workload = Vec::new();
    let mut all_spans = Vec::new();
    for w in &workloads::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out)
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
        // A child that died before writing leaves the workload out; the
        // non-zero exit above already failed the run.
        if let Ok(detail) = read_json(&a.out.join(format!("{}.{pass}.json", w.name))) {
            per_workload.push(detail);
        }
        if a.traced {
            if let Ok(Json::Arr(s)) = read_json(&a.out.join(format!("{}.spans.json", w.name))) {
                all_spans.extend(s);
            }
        }
    }
    let name = if a.traced {
        "run.traced.json"
    } else {
        "run.json"
    };
    let run = Json::obj([
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds as f64)),
        ("traced", Json::Bool(a.traced)),
        ("workloads", Json::Arr(per_workload)),
    ]);
    write(&a.out.join(name), &run.pretty())?;
    if a.traced {
        write(&a.out.join("spans.json"), &Json::Arr(all_spans).pretty())?;
    }
    eprintln!("wrote {}", a.out.join(name).display());
    Ok(ok)
}
