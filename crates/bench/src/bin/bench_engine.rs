//! Engine-throughput benchmark: events/sec and wall-clock per run on the
//! canonical simulation point, written to `BENCH_engine.json` so the
//! per-point speed trajectory is visible across commits.
//!
//! The point is simulated back to back for `trials` timed windows. The
//! report carries the **best** window (`events_per_sec`) — per-point
//! simulation time is what the sweep harness pays, and the best window is
//! the least scheduler-noise-contaminated estimate of it — and the median
//! window (`events_per_sec_median`), so the spread between the two shows
//! how noisy the host was.
//!
//! ```text
//! bench_engine [--quick] [--check-against <json>] [--out <json>]
//! ```
//!
//! `--check-against` reads a previously committed `BENCH_engine.json`,
//! re-measures, and exits 1 if fresh best-window events/sec fall more
//! than 20% below the committed `events_per_sec` — the CI regression
//! gate. In this mode results go to `BENCH_engine.ci.json` (kept as an
//! artifact) so the committed baseline is never clobbered by a gate run.
//! Bad arguments print the usage line and exit 2.

// Tool-root rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use std::process::ExitCode;
#[expect(clippy::disallowed_types, reason = "wall-clock benchmark")]
use std::time::Instant;

use netsparse::{simulate, ClusterConfig};
use netsparse_netsim::Topology;
use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::{CommWorkload, SuiteMatrix};

const USAGE: &str = "usage: bench_engine [--quick] [--check-against <json>] [--out <json>]";

/// Pre-PR events/sec on this point, measured on the same runner with the
/// binary-heap engine and BTree hot state (commit 82e30d8). The committed
/// JSON reports the current speedup against this figure.
const BASELINE_EPS: f64 = 388_217.0;

/// The canonical point: the same (topology, workload, config) pinned by
/// `tests/trace_golden.rs` and the determinism suite.
fn canonical_point(seed: u64) -> (ClusterConfig, CommWorkload) {
    let topo = Topology::LeafSpine {
        racks: 2,
        rack_size: 4,
        spines: 2,
    };
    let wl = SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 8,
        rack_size: 4,
        scale: 0.1,
        seed,
    }
    .generate();
    (ClusterConfig::mini(topo, 16), wl)
}

/// Simulates the point back to back until `window_s` elapses, `trials`
/// times; returns events/sec of every window in ascending order and the
/// events of one run.
fn window_eps(
    trials: u32,
    window_s: f64,
    cfg: &ClusterConfig,
    wl: &CommWorkload,
) -> (Vec<f64>, u64) {
    let mut windows = Vec::new();
    let mut events_per_run = 0u64;
    for _ in 0..trials {
        let mut total = 0u64;
        #[expect(clippy::disallowed_types, reason = "wall-clock benchmark")]
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < window_s {
            events_per_run = simulate(cfg, wl).events;
            total += events_per_run;
        }
        windows.push(total as f64 / t.elapsed().as_secs_f64());
    }
    windows.sort_by(f64::total_cmp);
    (windows, events_per_run)
}

/// Pulls `"key": <number>` out of a hand-rolled JSON report.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Prints `msg` and the usage line; the exit code for a bad invocation.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("bench_engine: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut check_against: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check-against" => match args.next() {
                Some(path) => check_against = Some(path),
                None => return usage_error("--check-against needs a file"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage_error("--out needs a file"),
            },
            other => return usage_error(&format!("unknown flag {other}")),
        }
    }
    let (trials, window_s) = if quick { (3u32, 0.25) } else { (5u32, 0.6) };
    let out = out.unwrap_or_else(|| {
        if check_against.is_some() {
            "BENCH_engine.ci.json".to_string()
        } else {
            "BENCH_engine.json".to_string()
        }
    });

    let (cfg, wl) = canonical_point(7);
    simulate(&cfg, &wl); // warm-up
    let (windows, events_per_run) = window_eps(trials, window_s, &cfg, &wl);
    let best = windows[windows.len() - 1];
    // `trials` is odd, so the middle window is the median.
    let median = windows[windows.len() / 2];

    let wall_us_per_run = events_per_run as f64 / best * 1e6;
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"point\": \"leafspine 2x4 + 2 spines, uk @ scale 0.1, seed 7, K=16\",\n  \"events_per_run\": {events_per_run},\n  \"trials\": {trials},\n  \"trial_window_s\": {window_s},\n  \"events_per_sec\": {best:.0},\n  \"events_per_sec_median\": {median:.0},\n  \"wall_us_per_run\": {wall_us_per_run:.1},\n  \"baseline_events_per_sec\": {BASELINE_EPS:.0},\n  \"speedup_vs_baseline\": {:.2}\n}}\n",
        best / BASELINE_EPS,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_engine: write {out}: {e}");
        return ExitCode::from(2);
    }
    println!("{json}");

    if let Some(path) = check_against {
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => return usage_error(&format!("read {path}: {e}")),
        };
        let Some(committed_eps) = json_number(&committed, "events_per_sec") else {
            return usage_error(&format!("{path} has no events_per_sec"));
        };
        let floor = committed_eps * 0.8;
        eprintln!(
            "[regression gate: fresh {best:.0} events/s vs committed {committed_eps:.0}, \
             floor {floor:.0}]"
        );
        if best < floor {
            eprintln!(
                "bench_engine: engine throughput regressed >20%: {best:.0} events/s vs \
                 committed {committed_eps:.0}"
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
