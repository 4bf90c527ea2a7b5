//! Serial-vs-parallel sweep benchmark: runs a representative slice of
//! the evaluation twice — once on one worker, once on every available
//! core — verifies the outputs are byte-identical, and prints a JSON
//! object with both wall-clocks on stdout (redirect it to a file to keep
//! it; the committed `BENCH_sweep.json` is one such capture, of
//! `--scale 0.1` on a 2-vCPU VM).
//!
//! The absolute speedup depends on the runner's core count, so the JSON
//! records the worker count actually used alongside the timings instead
//! of asserting a ratio. On a one-core runner there is no parallel pass
//! to time at all: the run is labeled `sweep_serial_only` rather than
//! passing off a serial re-run as a 1.0x "parallel" result.
use std::time::Instant; // simaudit:allow(no-wall-clock): wall-clock benchmark

use netsparse_bench::opts::{available_workers, OptsError, OPTIONS_USAGE};
use netsparse_bench::{tables, BenchOpts};

/// The slice of the evaluation the benchmark times: the main speedup
/// grid, a batch-size sweep, and the fault sweep named in the roadmap.
fn render_all(o: &BenchOpts) -> String {
    let mut out = String::new();
    out.push_str(&tables::fig12(o));
    out.push_str(&tables::fig15(o));
    out.push_str(&tables::ext_fault_sweep(o));
    out
}

fn timed(o: &BenchOpts) -> (String, f64) {
    let t = Instant::now(); // simaudit:allow(no-wall-clock): reports real sweep duration to the operator
    let body = render_all(o);
    (body, t.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match BenchOpts::from_args(args.iter().cloned()) {
        Ok(o) => o,
        Err(OptsError::Help) => {
            println!("usage: bench_sweep {OPTIONS_USAGE}");
            return;
        }
        Err(OptsError::Invalid(why)) => {
            eprintln!("error: {why}\nusage: bench_sweep {OPTIONS_USAGE}");
            std::process::exit(2)
        }
    };
    // Default this binary to a sweep-friendly scale; an explicit --scale
    // (or --quick) wins.
    let scale_given = args.iter().any(|a| a == "--scale" || a == "--quick");
    let o = if scale_given { o } else { o.scaled(0.25) };
    let parallel_workers = if o.workers > 1 {
        o.workers
    } else {
        available_workers()
    };

    if parallel_workers <= 1 {
        // One available core: a "parallel" pass would be the serial loop
        // wearing a costume. Time the serial sweep honestly and say so in
        // the JSON instead of committing a fake ~1.0x "speedup".
        eprintln!("[single core available: timing serial sweep only]");
        let (_, serial_s) = timed(&o.with_workers(1));
        let json = format!(
            "{{\n  \"bench\": \"sweep_serial_only\",\n  \"scale\": {},\n  \"seed\": {},\n  \"workers\": 1,\n  \"serial_s\": {:.3},\n  \"note\": \"one core available; no parallel pass timed\"\n}}\n",
            o.scale, o.seed, serial_s
        );
        print!("{json}");
        eprintln!("[serial {serial_s:.2}s on 1 worker]");
        return;
    }

    eprintln!("[serial pass: 1 worker]");
    let (serial_out, serial_s) = timed(&o.with_workers(1));
    eprintln!("[parallel pass: {parallel_workers} workers]");
    let (parallel_out, parallel_s) = timed(&o.with_workers(parallel_workers));

    assert_eq!(
        serial_out, parallel_out,
        "parallel sweep output must be byte-identical to serial"
    );
    let speedup = serial_s / parallel_s.max(1e-9);
    let json = format!(
        "{{\n  \"bench\": \"sweep_serial_vs_parallel\",\n  \"scale\": {},\n  \"seed\": {},\n  \"workers\": {},\n  \"serial_s\": {:.3},\n  \"parallel_s\": {:.3},\n  \"speedup\": {:.2},\n  \"output_identical\": true\n}}\n",
        o.scale, o.seed, parallel_workers, serial_s, parallel_s, speedup
    );
    print!("{json}");
    eprintln!(
        "[serial {serial_s:.2}s, parallel {parallel_s:.2}s on {parallel_workers} workers: \
         {speedup:.2}x; output byte-identical]"
    );
}
