//! `perfbench --workload <headline|lowtrace|serve> [--seed N] [--seconds N]
//! [--trace 0|1] [--scale full|tiny]`
//!
//! Runs one workload and prints a report on standard error, then, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` (the default) reports
//! the end-to-end metrics of an untraced run; `--trace 1` reports the
//! per-layer metrics of a traced run. Exits with 1 when any output is
//! incorrect and 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zatel_perfbench::cells::{Scale, Workload};
use zatel_perfbench::heap::Counting;
use zatel_perfbench::{Args, Outcome};

/// Execution knobs the program would otherwise read from the environment.
/// The benchmark measures program defaults, so they are cleared.
const PINNED_ENV: [&str; 3] = ["ZATEL_SIM_THREADS", "ZATEL_TIMING_THREADS", "ZATEL_RES"];

#[global_allocator]
static HEAP: Counting = Counting;

const USAGE: &str = "usage: perfbench --workload <headline|lowtrace|serve> [--seed N] \
                     [--seconds N] [--trace 0|1] [--scale full|tiny]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Headline,
        seed: 1,
        seconds: 60,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                }
            }
            "--scale" => {
                args.scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale expects full or tiny, got '{value}'")),
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The commit the checkout was made from, read from `.git` when present.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
                    })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        sha.to_owned()
    }
}

/// The digest recorded for this workload in `digests.json`. Cells do not
/// depend on the seed, so one digest covers every seed.
fn recorded_digest(workload: Workload) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.json");
    let doc = minijson::Value::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get(workload.name())?.as_str().map(str::to_owned)
}

fn report(args: &Args, outcome: &Outcome, cleared: &[String]) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    eprintln!(
        "perfbench workload={} seed={} seconds={} trace={} scale={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale
    );
    eprintln!(
        "host_cpus={host_cpus} profile={profile} commit={}",
        commit()
    );
    eprintln!(
        "environment cleared: {}",
        if cleared.is_empty() {
            "none".to_owned()
        } else {
            cleared.join(", ")
        }
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let recorded = match (args.scale, recorded_digest(args.workload)) {
        (Scale::Tiny, _) => "not recorded for tiny runs".to_owned(),
        (_, None) => "none recorded".to_owned(),
        (_, Some(d)) if d == outcome.digest => "matches digests.json".to_owned(),
        (_, Some(d)) => format!("DIFFERS from digests.json ({d}): simulated results changed"),
    };
    eprintln!("digest {} ({recorded})", outcome.digest);
    eprintln!(
        "attempted={} failed={} correct={}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.correct()
    );
    for problem in &outcome.tally.problems {
        eprintln!("  FAILED {problem}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Cleared before any thread starts, so no reader can race the write.
    let cleared: Vec<String> = PINNED_ENV
        .iter()
        .filter_map(|&k| {
            let v = std::env::var(k).ok()?;
            std::env::remove_var(k);
            Some(format!("{k}={v}"))
        })
        .collect();

    let work: PathBuf = Path::new(".bench_out").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| zatel_perfbench::run(&args, &work));
    // The spans of a traced run stay; the server's cache and log go.
    for entry in std::fs::read_dir(&work).into_iter().flatten().flatten() {
        if entry.path().is_dir() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let _ = std::fs::remove_dir(&work);

    match result {
        Ok(outcome) => {
            report(&args, &outcome, &cleared);
            println!("{}", outcome.result_line());
            if outcome.tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
