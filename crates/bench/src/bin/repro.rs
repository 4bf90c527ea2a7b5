//! Regenerates the paper's tables and figures and the extension tables.
//!
//! ```text
//! repro <key> [--scale f64] [--seed u64] [--quick] [--paper] [--workers n] [--parallel]
//! ```
//!
//! `<key>` names one section of `netsparse_bench::sections` (`table1` …
//! `fig22`, `ext_*`, `characterize`), whose output is printed as is.
//! `all` prints every section in registry order, each under a banner,
//! and times each on stderr. With `--parallel` (or `--workers <n>`) each
//! section fans its independent sweep points across threads; stdout is
//! byte-identical to a serial run. Bad arguments print the usage and the
//! keys to stderr and exit 2.
use std::process::exit;
use std::time::Instant; // simaudit:allow(no-wall-clock): CLI progress timing

use netsparse_bench::opts::{OptsError, OPTIONS_USAGE};
use netsparse_bench::sections::{self, ALL};
use netsparse_bench::BenchOpts;

fn usage() -> String {
    let keys = sections::keys();
    format!("usage: repro <key> {OPTIONS_USAGE}\nkeys: {keys}")
}

fn fail(why: &str) -> ! {
    eprintln!("error: {why}\n{}", usage());
    exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let key = args.next().unwrap_or_default();
    let parsed = match key.as_str() {
        "--help" | "-h" => Err(OptsError::Help),
        _ => BenchOpts::from_args(args),
    };
    let o = match parsed {
        Ok(o) => o,
        Err(OptsError::Help) => {
            println!("{}", usage());
            return;
        }
        Err(OptsError::Invalid(why)) => fail(&why),
    };
    let selected = sections::select(&key).unwrap_or_else(|why| fail(&why));
    if key != ALL {
        print!("{}", (selected[0].run)(&o));
        return;
    }
    if o.workers > 1 {
        eprintln!("[sweeping across {} worker threads]", o.workers);
    }
    let t0 = Instant::now(); // simaudit:allow(no-wall-clock): reports real total reproduction time to the operator
    for s in selected {
        let t = Instant::now(); // simaudit:allow(no-wall-clock): reports real per-section timing to the operator
        let body = (s.run)(&o);
        println!("==================== {} ====================", s.title);
        println!("{body}");
        eprintln!("[{} done in {:.1?}]", s.title, t.elapsed());
    }
    eprintln!("[all experiments done in {:.1?}]", t0.elapsed());
}
