//! The NetSparse simulator benchmark.
//!
//! ```text
//! benchmark --workload <uk_full|uk_rigonly|europe_full|arabic_ext>
//!           [--seed N] [--seconds S] [--out-dir DIR]
//! ```
//!
//! Built without features it runs the end-to-end pass ([`e2e`]): set-up
//! time, host time per simulation, paper-comparison time and peak memory.
//! Built with `--features trace` it runs the per-layer pass
//! ([`traced`]): simulated counters from the report and the trace, and
//! host time per operation of each layer, replayed from outside. Either
//! way every simulation is checked by the oracle ([`oracle`]), a human
//! summary goes to stdout, and the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--out-dir` the
//! result, report digest and notes are also written to
//! `DIR/<workload>.json` (and the per-layer pass writes its host-time
//! spans to `DIR/<workload>.spans.json`). Exits 1 if any check failed,
//! 2 on a usage error. `run.py` beside this file builds both variants and
//! is the command `BENCHMARK.json` names.

#[cfg(not(feature = "trace"))]
mod e2e;
mod oracle;
#[cfg(not(feature = "trace"))]
mod reference;
mod report;
mod spans;
mod stats;
mod workload;

#[cfg(feature = "trace")]
mod layers;
#[cfg(test)]
mod tests;
#[cfg(feature = "trace")]
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use spans::Spans;
use workload::{Workload, SCALE};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark --workload <uk_full|uk_rigonly|europe_full|arabic_ext> \
                     [--seed N] [--seconds S] [--out-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2025;
    let mut seconds = 15.0;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside [0, 3600]"));
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        out_dir,
    })
}

/// Runs the pass this build measures.
fn measure(w: Workload, seed: u64, seconds: f64, scale: f64, spans: &mut Spans) -> Outcome {
    #[cfg(feature = "trace")]
    return traced::run(w, seed, seconds, scale, spans);
    #[cfg(not(feature = "trace"))]
    return e2e::run(w, seed, seconds, scale, spans);
}

fn write_artifacts(dir: &PathBuf, a: &Args, out: &Outcome, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = a.workload.name();
    let suffix = if cfg!(feature = "trace") {
        ".layers"
    } else {
        ""
    };
    std::fs::write(
        dir.join(format!("{name}{suffix}.json")),
        out.artifact_json(name, a.seed),
    )?;
    if cfg!(feature = "trace") {
        std::fs::write(
            dir.join(format!("{name}.spans.json")),
            spans.to_chrome_json(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    spans.enter("workload", 0);
    let out = measure(args.workload, args.seed, args.seconds, SCALE, &mut spans);
    spans.exit();

    print!("{}", out.human(args.workload.name(), args.seed));
    println!("  host time by span (count, total s, self s):");
    for (name, n, total, own) in spans.self_times() {
        println!("    {name:<22} {n:>6} {total:>12.6} {own:>12.6}");
    }
    if let Some(dir) = &args.out_dir {
        if let Err(e) = write_artifacts(dir, &args, &out, &spans) {
            eprintln!("cannot write artifacts to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
