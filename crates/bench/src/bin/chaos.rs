//! chaoscheck driver: run a deterministic batch of seed-derived fault
//! scenarios through the simulator and the invariant-oracle suite.
//!
//! ```text
//! chaos [--seeds N] [--seed0 S] [--out PATH]   # batch mode (default)
//! chaos --demo-shrink [--out PATH]             # shrink the broken fixture
//! chaos --replay chaos_repro.json              # replay a shrunk violation
//! ```
//!
//! Batch mode writes `CHAOS_report.json` (byte-identical for the same
//! seed range on every run and machine) and exits nonzero when any
//! scenario violated an oracle or stalled. `--demo-shrink` runs the
//! deliberately-broken fixture, minimizes its failing fault schedule,
//! and writes a `chaos_repro.json` that `--replay` turns back into the
//! same violation.

// Tool-root rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use netsparse_bench::chaos::{
    parse_repro, replay_repro, run_batch, shrink, write_repro, ChaosScenario, ScenarioOutcome,
};

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seeds N] [--seed0 S] [--out PATH] | --demo-shrink [--out PATH] | \
         --replay PATH"
    );
    std::process::exit(2);
}

fn main() {
    let mut seeds: u64 = 200;
    let mut seed0: u64 = 1;
    let mut out: Option<String> = None;
    let mut demo_shrink = false;
    let mut replay: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--seeds" => match value("--seeds").parse() {
                Ok(n) => seeds = n,
                Err(_) => usage(),
            },
            "--seed0" => match value("--seed0").parse() {
                Ok(n) => seed0 = n,
                Err(_) => usage(),
            },
            "--out" => out = Some(value("--out")),
            "--demo-shrink" => demo_shrink = true,
            "--replay" => replay = Some(value("--replay")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown option '{other}'");
                usage();
            }
        }
    }

    if let Some(path) = replay {
        let content = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let repro = parse_repro(&content).unwrap_or_else(|e| {
            eprintln!("error: bad repro file {path}: {e}");
            std::process::exit(2);
        });
        println!("replaying {} (oracle: {})", repro.source, repro.oracle);
        match replay_repro(&repro) {
            Ok(ScenarioOutcome::Violated { violations }) => {
                let reproduced = violations.iter().any(|v| v.oracle == repro.oracle);
                for v in &violations {
                    println!("  VIOLATED [{}] {}", v.oracle, v.detail);
                }
                if reproduced {
                    println!("repro confirmed: `{}` violation reproduced", repro.oracle);
                    std::process::exit(1);
                }
                eprintln!(
                    "error: violated, but not the recorded `{}` oracle",
                    repro.oracle
                );
                std::process::exit(1);
            }
            Ok(outcome) => {
                eprintln!("error: repro did NOT reproduce; outcome: {outcome:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    if demo_shrink {
        let path = out.unwrap_or_else(|| "chaos_repro.json".to_string());
        let fixture = ChaosScenario::broken_fixture();
        let oracle = match fixture.run() {
            ScenarioOutcome::Violated { violations } => {
                for v in &violations {
                    println!("fixture VIOLATED [{}] {}", v.oracle, v.detail);
                }
                violations[0].oracle
            }
            other => {
                eprintln!("error: broken fixture did not violate: {other:?}");
                std::process::exit(1);
            }
        };
        println!("shrinking against oracle `{oracle}`...");
        let (min, ops) = shrink(&fixture, oracle);
        for op in &ops {
            println!("  accepted {}", op.name());
        }
        println!(
            "shrunk: {} failures, {} degradations, loss {}, scale {}‰, k {}",
            min.faults.failures.len(),
            min.faults.degraded.len(),
            if matches!(min.faults.loss, netsparse_desim::LossModel::None) {
                "off"
            } else {
                "on"
            },
            min.scale_milli,
            min.k
        );
        let json = write_repro(&min, oracle, &ops);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}; replay with: chaos --replay {path}");
        return;
    }

    let path = out.unwrap_or_else(|| "CHAOS_report.json".to_string());
    println!("chaoscheck: seeds {seed0}..{}", seed0 + seeds);
    let report = run_batch(seed0, seeds);
    println!(
        "ran {} scenarios: {} passed ({} delivered, {} abandoned gracefully), \
         {} rejected, {} stalled, {} violated, {} determinism-checked",
        report.seeds,
        report.passed,
        report.delivered,
        report.abandoned_gracefully,
        report.rejected,
        report.stalled,
        report.violated(),
        report.determinism_checked
    );
    for (seed, oracle, detail) in &report.violations {
        println!("  VIOLATED seed {seed} [{oracle}] {detail}");
    }
    let json = report.to_json();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path}");
    if !report.is_clean() {
        std::process::exit(1);
    }
}
