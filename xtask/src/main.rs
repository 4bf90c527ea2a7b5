//! `cargo xtask` — the workspace's own build/lint tool.

mod features;
mod lexer;
mod lint;
mod report;
mod rules;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(&args.collect::<Vec<_>>()),
        Some(other) => {
            eprintln!("error: unknown xtask command `{other}`");
            eprintln!();
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <command>");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  lint [--quiet] [--format json|text]");
    eprintln!("          run the simcheck passes over crates/**/*.rs: the token-level");
    eprintln!("          rules, audit/trace feature forwarding and cfg symmetry, and");
    eprintln!("          allow-marker hygiene (see docs/STATIC_ANALYSIS.md for the");
    eprintln!("          rule catalogue)");
}
