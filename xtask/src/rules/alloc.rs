//! `no-hot-alloc`: per-event allocations in the code `drive()` executes.
//!
//! The ROADMAP's engine-speed item replaces per-event allocation with
//! pooled/arena storage; this rule builds the worklist and keeps new
//! allocations from creeping in. It flags `clone()`, `Box::new`,
//! `to_vec()`, `collect`, `Vec::new` and `String::new` inside event-path
//! function bodies. Construction- and report-time functions (run once per
//! simulation, not once per event) are exempt by name via [`COLD_FNS`];
//! sites that must allocate today carry a justified
//! `simaudit:allow(no-hot-alloc)` marker, which doubles as the inventory
//! for the arena refactor.

use super::{in_hot_path, FnRegions, Sink};
use crate::lexer::LexedFile;

/// Functions that run per-simulation (setup / teardown / reporting), not
/// per-event: allocation there is cold and exempt. Names, not paths —
/// the set is small and the convention (constructors `new`/`build_*`,
/// report shaping `into_report`/`stats`, fault-time route rebuilds) is
/// stable across the event-path crates.
const COLD_FNS: &[&str] = &[
    "new",
    "try_new",
    "default",
    "with_capacity",
    "build_nodes",
    "build_racks",
    "into_report",
    "attach_tracer",
    "audit_end_of_run",
    "resolve_fault_schedule",
    "rebuild_routes",
    "apply_fault",
    "set_tracer",
    "from_tracer",
    "finish",
];

/// Construction-only files inside otherwise-hot crates: topology building
/// runs once before the first event.
const COLD_FILES: &[&str] = &["crates/netsim/src/topology.rs"];

/// Runs the allocation rule over one file.
pub fn scan(rel: &str, lf: &LexedFile, sink: &mut Sink) {
    if !in_hot_path(rel) || COLD_FILES.contains(&rel) {
        return;
    }
    let regions = FnRegions::build(lf);
    let mut flag = |i: usize, what: &str| {
        if lf.in_test(i) || lf.tokens[i].in_attr {
            return;
        }
        match regions.enclosing(i) {
            Some(name) if !COLD_FNS.contains(&name) => {
                sink.emit(
                    "no-hot-alloc",
                    lf.tokens[i].line,
                    format!(
                        "{what} in event-path fn `{name}` allocates per event; \
                         reuse a buffer or pool it (ROADMAP: event-pooling/arena \
                         item), or justify with an allow marker"
                    ),
                );
            }
            _ => {}
        }
    };
    for i in 0..lf.tokens.len() {
        let Some(word) = lf.ident(i) else {
            continue;
        };
        let after_dot = lf.is_punct(i.wrapping_sub(1), b'.');
        let path_new = |base: &str| {
            lf.is_ident(i, base)
                && lf.is_punct(i + 1, b':')
                && lf.is_punct(i + 2, b':')
                && lf.is_ident(i + 3, "new")
        };
        match word {
            "clone" if after_dot && lf.is_punct(i + 1, b'(') && lf.is_punct(i + 2, b')') => {
                flag(i, "`.clone()`");
            }
            "to_vec" if after_dot && lf.is_punct(i + 1, b'(') => {
                flag(i, "`.to_vec()`");
            }
            "collect" if after_dot && (lf.is_punct(i + 1, b'(') || lf.is_punct(i + 1, b':')) => {
                flag(i, "`.collect()`");
            }
            "Box" if path_new("Box") => flag(i, "`Box::new`"),
            "Vec" if path_new("Vec") => flag(i, "`Vec::new()`"),
            "String" if path_new("String") => flag(i, "`String::new()`"),
            _ => {}
        }
    }
}
