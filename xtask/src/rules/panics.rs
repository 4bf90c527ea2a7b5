//! `no-lib-panic`: aborting macros do not belong in library crates.
//!
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test library
//! code turns a recoverable condition into a process abort — exactly
//! what the fallible entry points (`try_simulate`, `try_new`,
//! `Engine::run`) exist to avoid, and what the chaoscheck harness must
//! never hit on a generated configuration. Tests, binaries and benches
//! are exempt (a test's `panic!` *is* its failure path). A deliberate
//! abort in a library — a documented panicking wrapper over a fallible
//! API, a structurally-impossible match arm — carries a justified allow
//! marker. `assert!`-family macros are deliberately out of scope: they
//! state invariants, and the hot path has its own rules.

use super::Sink;
use crate::lexer::LexedFile;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// True when `rel` is library (non-bin, non-bench) source of a crate.
fn in_library(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.contains("/benches/")
}

/// Runs the no-lib-panic rule over one file.
pub fn scan(rel: &str, lf: &LexedFile, sink: &mut Sink) {
    if !in_library(rel) {
        return;
    }
    for i in 0..lf.tokens.len() {
        let Some(word) = lf.ident(i) else {
            continue;
        };
        if PANIC_MACROS.contains(&word)
            && lf.is_punct(i + 1, b'!')
            && !lf.in_test(i)
            && !lf.tokens[i].in_attr
        {
            sink.emit(
                "no-lib-panic",
                lf.tokens[i].line,
                format!(
                    "`{word}!` in library code aborts the process; return a \
                     typed error (SimError / RouteError / StallReport) or \
                     justify the abort with an allow marker — bins and tests \
                     are exempt"
                ),
            );
        }
    }
}
