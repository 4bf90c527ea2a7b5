//! The per-file, token-level lint rules.
//!
//! Every rule walks the [`LexedFile`] token stream — comments and literal
//! contents are already gone, `#[cfg]` scopes are annotated — so a rule is
//! a short pattern over tokens plus a path-scope predicate. The cross-file
//! pass lives in [`features`](crate::features).

pub mod alloc;
pub mod debug_print;
pub mod determinism;
pub mod panics;

use crate::lexer::{LexedFile, Tok};
use crate::report::Diagnostic;
use std::collections::BTreeSet;

/// Runs every token-level rule over one file and returns the raw
/// (pre-suppression) findings, at most one per `(rule, line)`.
pub fn scan(rel: &str, lf: &LexedFile) -> Vec<Diagnostic> {
    let mut sink = Sink::new(rel);
    determinism::scan(rel, lf, &mut sink);
    alloc::scan(rel, lf, &mut sink);
    debug_print::scan(rel, lf, &mut sink);
    panics::scan(rel, lf, &mut sink);
    sink.diags
}

/// Diagnostic collector that deduplicates per `(rule, line)` — several
/// tokens on one line tripping the same rule report once, matching the
/// historical per-line scanner.
pub struct Sink {
    rel: String,
    seen: BTreeSet<(&'static str, usize)>,
    /// Collected findings in emission order.
    pub diags: Vec<Diagnostic>,
}

impl Sink {
    fn new(rel: &str) -> Self {
        Sink {
            rel: rel.to_string(),
            seen: BTreeSet::new(),
            diags: Vec::new(),
        }
    }

    /// Records one finding unless the `(rule, line)` pair already fired.
    pub fn emit(&mut self, rule: &'static str, line: usize, message: String) {
        if self.seen.insert((rule, line)) {
            self.diags.push(Diagnostic {
                file: self.rel.clone(),
                line,
                rule,
                message,
            });
        }
    }
}

/// The event-path files policed by ordering-, panic- and allocation-
/// sensitive rules: the componentized simulation core plus the SNIC,
/// switch and network-fabric crates — the code `drive()` executes.
pub(crate) fn in_event_path(rel: &str) -> bool {
    rel.starts_with("crates/core/src/sim/")
        || rel.starts_with("crates/snic/src/")
        || rel.starts_with("crates/switch/src/")
        || rel.starts_with("crates/netsim/src/")
}

/// Event-path files plus the engine's own event loop.
pub(crate) fn in_hot_path(rel: &str) -> bool {
    in_event_path(rel) || rel == "crates/desim/src/engine.rs"
}

/// Token index ranges of function bodies, used to attribute a finding to
/// its enclosing function (the allocation rule exempts cold
/// constructor/report functions by name).
pub(crate) struct FnRegions {
    /// `(body_start_token, body_end_token, fn_name)`, in source order.
    spans: Vec<(usize, usize, String)>,
}

impl FnRegions {
    /// Scans `lf` for `fn name(...) { ... }` items (token-level; bodies
    /// found by brace matching, declarations without bodies skipped).
    pub(crate) fn build(lf: &LexedFile) -> FnRegions {
        let mut spans = Vec::new();
        for i in 0..lf.tokens.len() {
            if !lf.is_ident(i, "fn") || lf.tokens[i].in_attr {
                continue;
            }
            let Some(name) = lf.ident(i + 1) else {
                continue; // `fn(...)` type position
            };
            let name = name.to_string();
            // Find the body `{`, skipping the signature. A `;` first
            // means a bodiless trait/extern declaration.
            let mut j = i + 2;
            let mut body = None;
            while j < lf.tokens.len() {
                match lf.tokens[j].kind {
                    Tok::Punct(b'{') => {
                        body = Some(j);
                        break;
                    }
                    Tok::Punct(b';') => break,
                    Tok::Punct(b'(') | Tok::Punct(b'[') => {
                        j = lf.matching_close(j) + 1;
                    }
                    _ => j += 1,
                }
            }
            if let Some(open) = body {
                spans.push((open, lf.matching_close(open), name));
            }
        }
        FnRegions { spans }
    }

    /// The name of the innermost function whose body contains token `i`.
    pub(crate) fn enclosing(&self, i: usize) -> Option<&str> {
        self.spans
            .iter()
            .filter(|(s, e, _)| *s <= i && i <= *e)
            .min_by_key(|(s, e, _)| e - s)
            .map(|(_, _, n)| n.as_str())
    }
}
